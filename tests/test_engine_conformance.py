"""Engine conformance: every registered engine against the whole spec space.

One seeded Hypothesis strategy draws valid :class:`ScenarioSpec` objects
from every axis (family, size, algorithm, scheduler, churn model, step
bound, delay model, loss, traffic model, crash-stop faults).  Every
registered engine is offered every spec, and its record must keep the
engine contract and the paper's properties:

* an engine that ``supports()`` the spec records ``ok`` (or ``timeout``);
  one that does not records an ``error`` holding its ``unsupported_reason``;
* an ``ok`` record carries exactly the spec fields plus the field groups the
  engine declares (:attr:`ExecutionEngine.record_groups`);
* the final orientation is acyclic (Theorems 4.3 and 5.5);
* every message sent by a converged (hence quiescent) network was
  delivered or lost, and every packet injected was delivered, dropped or is
  still in flight.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.async_engine import ASYNC_MODES
from repro.experiments.engines import ENGINE_REGISTRY
from repro.experiments.runner import execute_scenario
from repro.experiments.spec import (
    ALGORITHM_FACTORIES,
    DELAY_MODEL_NAMES,
    TRAFFIC_MODEL_NAMES,
    ScenarioSpec,
)
from repro.experiments.store import MESSAGE, PACKET, SPEC, group_defaults
from repro.schedulers import SCHEDULER_FACTORIES
from repro.topology.generators import FAMILY_NAMES


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    """A valid spec from anywhere in the spec space (never the crash sentinel)."""
    family = draw(st.sampled_from(FAMILY_NAMES))
    size = draw(st.sampled_from(range(2, 10)))
    # synchronous, message-passing and data-plane specs equally often
    plane = draw(st.sampled_from(("sync", "message", "packet")))
    delay_models = st.sampled_from(DELAY_MODEL_NAMES)
    delay_model = traffic = None
    if plane == "message":
        delay_model = draw(delay_models)
    elif plane == "packet":
        delay_model = draw(st.none() | delay_models)
        traffic = draw(st.sampled_from(TRAFFIC_MODEL_NAMES))
    algorithms = sorted(ALGORITHM_FACTORIES)
    if plane != "sync" and draw(st.booleans()):
        # half the time, an algorithm the message and packet engines run
        algorithms = sorted(ASYNC_MODES)
    failure_models = ["none", "link-failures"]
    if family == "geometric" and delay_model is None and traffic is None:
        failure_models.append("mobility")
    failure_model = draw(st.sampled_from(failure_models))
    # a data-plane run injects for max_steps slots, or 512 when it is
    # unset: short runs keep the sample fast
    max_steps = st.none() | st.integers(min_value=0, max_value=64)
    if plane == "packet":
        max_steps = st.integers(min_value=1, max_value=64)
    node_faults = 0
    if failure_model == "none" and traffic is None:
        node_faults = draw(st.integers(min_value=0, max_value=min(2, size - 2)))
    return ScenarioSpec(
        family=family,
        size=size,
        algorithm=draw(st.sampled_from(algorithms)),
        scheduler=draw(st.sampled_from(sorted(SCHEDULER_FACTORIES))),
        topology_seed=draw(st.integers(min_value=0, max_value=2 ** 16)),
        scheduler_seed=draw(st.integers(min_value=0, max_value=2 ** 16)),
        failure_model=failure_model,
        failure_count=0 if failure_model == "none" else draw(st.integers(0, 2)),
        max_steps=draw(max_steps),
        campaign="conformance",
        delay_model=delay_model,
        loss=draw(st.sampled_from((0.0, 0.2))) if delay_model is not None else 0.0,
        traffic=traffic,
        node_faults=node_faults,
    )


@settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=scenario_specs())
def test_every_engine_conforms(spec):
    spec.validate()
    for name, engine in ENGINE_REGISTRY.items():
        _assert_conforms(engine, execute_scenario(spec, engine=name), spec)


def test_zero_step_budget_is_a_budget_on_every_engine():
    # max_steps=0 runs nothing anywhere; it never means "use the default"
    base = dict(family="chain", size=8, algorithm="pr", scheduler="greedy",
                topology_seed=1, scheduler_seed=2, max_steps=0)
    for name in ("kernel", "legacy"):
        record = execute_scenario(ScenarioSpec(**base), engine=name)
        assert (record["status"], record["converged"], record["steps_taken"]) == (
            "ok", False, 0), name
    record = execute_scenario(ScenarioSpec(delay_model="uniform", **base))
    assert (record["engine"], record["status"]) == ("async", "ok")
    assert record["converged"] is False
    assert record["events_dispatched"] == 0
    record = execute_scenario(ScenarioSpec(traffic="steady", **base))
    assert (record["engine"], record["status"]) == ("dataplane", "ok")
    assert record["packets_injected"] == 0


def _assert_conforms(engine, record, spec) -> None:
    if not engine.supports(spec):
        assert record["status"] == "error", engine.name
        assert engine.unsupported_reason(spec) in record["error"]
        return
    assert record["status"] in ("ok", "timeout"), (engine.name, record["error"])
    assert record["engine"] == engine.name
    if record["status"] != "ok":
        return
    assert set(record) == set(group_defaults(SPEC, *engine.record_groups)), engine.name
    assert record["acyclic_final"] is True, engine.name
    if MESSAGE in engine.record_groups:
        # a run cut short by its event budget may leave messages in flight
        settled = record["messages_delivered"] + record["messages_lost"]
        assert record["messages_sent"] >= settled
        if record["converged"]:
            assert record["messages_sent"] == settled
    if PACKET in engine.record_groups:
        assert record["packets_injected"] == (
            record["packets_delivered"]
            + record["packets_dropped"]
            + record["packets_in_flight"]
        )
