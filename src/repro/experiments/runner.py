"""Worker-side execution of scenario chunks: the one scenario dispatch.

:func:`run_scenarios` is the function the campaign executor ships to its
worker pool (and calls inline for ``workers <= 1``).  It takes a chunk of
:class:`~repro.experiments.spec.ScenarioSpec` objects (or their plain-dict
form — the only thing that actually crosses the process boundary), rebuilds
each instance locally, runs every scenario to quiescence and returns one
flat, JSON-compatible result record per spec, in input order.
:func:`execute_scenario` is the same dispatch for a single spec.  A
:class:`~repro.experiments.spec.CheckSpec` goes the same way, to the
``check`` engine (:mod:`repro.experiments.check_engine`).

Every spec resolves to one registered engine (see
:mod:`repro.experiments.engines`), and the chunk runs as groups of lanes,
one ``execute`` call and one deadline per group.  Without a per-run
timeout, lanes of one engine that share its
:meth:`~repro.experiments.engines.ExecutionEngine.group_key` form one
group: the ``kernel`` lanes of one
:func:`~repro.experiments.batch_engine.batch_key` run in lockstep, the
``async`` lanes of one topology cell (one topology and channel seed)
build their networks from one template, and all the chunk's
``dataplane`` lanes, whatever their specs, share one packet simulator
(each keeps its own network and traffic).  Every other lane, and every
lane under a per-run ``timeout_s``, is a group of its own.  The
executor's chunking therefore bounds a group's width: its default chunk
at ``workers=1`` is an eighth of the campaign.  The synchronous engines:

``kernel`` (the fast path)
    The compiled synchronous engine of
    :mod:`repro.experiments.batch_engine`: lockstep lanes on the int kernels
    of :mod:`repro.kernels`, with no automaton state ever materialised.
    Every algorithm has a compiled kernel (BLL runs on OneStepPR's) and
    every registry scheduler a mask-level twin.
``legacy`` (the oracle)
    The original object path: :func:`repro.automata.executions.run` over the
    I/O automaton with per-step observers.  The differential test suite pins
    the compiled engine to field-for-field identical records, which is what
    makes it trustworthy.

``engine="auto"`` (the default) picks the highest-priority engine that
supports each spec — ``kernel`` for every synchronous spec it can run.  One
per-process :class:`~repro.kernels.simulator.KernelCache` amortises topology
construction and kernel compilation across the scenarios of a worker chunk
(campaign cells share paired topology seeds by design).

Three execution modes, selected by ``spec.failure_model``:

``none``
    Run the algorithm from the initial orientation to quiescence.
``link-failures``
    Converge first, then inject ``failure_count`` random link failures one at
    a time; after each, the algorithm repairs from the surviving orientation
    (the abstraction level of the paper itself).
    Failures that would partition the network are skipped and counted.
``mobility``
    (geometric family only) Converge, then advance a random-waypoint mobility
    model ``failure_count`` steps; after each step with link churn the
    instance is rebuilt — surviving links keep their orientation, new links
    are oriented towards the destination-closer endpoint — and the algorithm
    re-converges.  If carrying the orientation over would create a cycle the
    run falls back to a fresh distance-oriented DAG (counted as a
    reorientation).

A spec's ``node_faults`` crash-stops that many seeded nodes (the legacy
oracle has no crash-stop support).  Work counters accumulate across the
convergence and every repair phase, so ``node_steps`` is the total work of
the whole scenario.  A cooperative per-run timeout is enforced by checking
the wall clock every :data:`~repro.kernels.simulator.DEADLINE_CHECK_STRIDE`
automaton steps (always including the first, so an already-expired budget
aborts immediately) and recording the run with status ``"timeout"``.  A
lane's ``wall_time_s`` is its group's wall time divided by the group's
width.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro import telemetry as _telemetry

from repro.analysis.work import WorkObserver
from repro.automata.executions import run
# the compiled engine's names stay importable from here (the CLI, the
# executor and the tests use ENGINE_KERNEL and kernel_cache_stats)
from repro.experiments.batch_engine import (
    ENGINE_KERNEL,
    KernelEngine,
    Lane,
    kernel_cache_stats,
    load_instance,
)
from repro.experiments.churn import ScenarioChurn
from repro.experiments.engines import (
    ENGINE_AUTO,
    ExecutionEngine,
    engine_names,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.experiments.spec import (
    ALGORITHM_FACTORIES,
    CheckSpec,
    ScenarioSpec,
    derive_seed,
    spec_and_record,
)
from repro.experiments.store import RESULT_INIT
from repro.kernels.simulator import DEADLINE_CHECK_STRIDE, DeadlineExceeded
from repro.schedulers import make_scheduler
from repro.verification.acyclicity import is_acyclic

logger = logging.getLogger(__name__)

Node = Hashable

#: Canonical engine names (the registry at the bottom of this module and
#: the async and dataplane engine modules populate the actual instances).
ENGINE_LEGACY = "legacy"
ENGINE_ASYNC = "async"
ENGINE_DATAPLANE = "dataplane"


class ScenarioTimeout(DeadlineExceeded):
    """Raised by the deadline observer when a run exceeds its time budget."""


class _DeadlineObserver:
    """Aborts a run when the wall clock passes ``deadline`` (cooperative).

    The clock is read every ``stride`` steps — always including the first
    observed step, so an already-expired deadline aborts immediately — not
    every step: ``time.perf_counter()`` per step used to dominate short
    automaton steps.  A run may overshoot its budget by at most
    ``stride - 1`` steps.
    """

    def __init__(self, deadline: float, stride: int = DEADLINE_CHECK_STRIDE):
        self.deadline = deadline
        self.stride = stride
        self._countdown = 0

    def __call__(self, step_index, pre_state, action, post_state) -> None:
        self._countdown -= 1
        if self._countdown < 0:
            self._countdown = self.stride - 1
            if time.perf_counter() > self.deadline:
                raise ScenarioTimeout(f"deadline exceeded at step {step_index}")


class _RoundObserver:
    """Counts greedy-style rounds: a round ends when an actor steps again.

    This gives a scheduler-independent notion of "rounds" — the minimum number
    of synchronous phases the observed step sequence could be folded into,
    counting a new phase whenever a node takes its second step since the
    phase began.  (:class:`repro.kernels.simulator.RoundTally` is the
    mask-level twin of this rule.)
    """

    def __init__(self) -> None:
        self.rounds = 0
        self._seen: set = set()

    def __call__(self, step_index, pre_state, action, post_state) -> None:
        actors = action.actors()
        if self.rounds == 0:
            self.rounds = 1
        if any(a in self._seen for a in actors):
            self.rounds += 1
            self._seen = set(actors)
        else:
            self._seen.update(actors)


def _converge(automaton_factory, instance, scheduler, observers, max_steps):
    """Run one convergence phase and return its ExecutionResult."""
    automaton = automaton_factory(instance)
    return run(
        automaton, scheduler, max_steps=max_steps, observers=observers, record_states=False
    )


# ----------------------------------------------------------------------
# legacy engine (the object-path oracle)
# ----------------------------------------------------------------------
def _execute_legacy_scenario(spec, record, work, rounds, deadline) -> None:
    """Run one scenario through the object-level automaton path."""
    observers: Tuple[Any, ...] = (work, rounds)
    if deadline is not None:
        observers = observers + (_DeadlineObserver(deadline),)

    _, instance = load_instance(spec, record)
    automaton_factory = ALGORITHM_FACTORIES[spec.algorithm]
    scheduler = make_scheduler(spec.scheduler, spec.scheduler_seed)

    result = _converge(automaton_factory, instance, scheduler, observers, spec.max_steps)
    record["steps_taken"] += result.steps_taken
    final_state = result.final_state
    converged = result.converged

    if spec.failure_model != "none" and spec.failure_count > 0:
        final_state, converged = _run_churn(
            spec, instance, final_state, converged, automaton_factory, observers, record
        )

    record.update(
        converged=converged,
        destination_oriented=bool(final_state.is_destination_oriented()),
        acyclic_final=bool(is_acyclic(final_state)),
    )


def _run_churn(spec, instance, final_state, converged, automaton_factory, observers, record):
    """Apply each link-failure or mobility step and re-converge after it.

    Surviving links keep their current orientation (see
    :class:`~repro.experiments.churn.ScenarioChurn`); the oracle builds its
    mobility trajectory afresh rather than reading the engine cache.
    ``converged`` stays ``True`` only if the initial convergence *and* every
    repair phase reached quiescence (a truncated phase must not be recorded
    as converged).
    """
    churn = ScenarioChurn(spec)
    for index in range(spec.failure_count):
        candidate = churn.next_instance(
            index, instance, final_state.graph_signature(), record
        )
        if candidate is None:
            continue
        scheduler = make_scheduler(
            spec.scheduler, derive_seed(spec.scheduler_seed, churn.seed_label, index)
        )
        result = _converge(automaton_factory, candidate, scheduler, observers, spec.max_steps)
        record["failures_applied"] += 1
        record["steps_taken"] += result.steps_taken
        instance = candidate
        final_state = result.final_state
        converged = converged and result.converged
    return final_state, converged


# ----------------------------------------------------------------------
# engine registration (see repro.experiments.engines)
# ----------------------------------------------------------------------
class LegacyEngine(ExecutionEngine):
    """The object-level I/O-automaton oracle."""

    name = ENGINE_LEGACY
    auto_priority = 10

    def supports(self, spec: ScenarioSpec) -> bool:
        return (
            spec.delay_model is None
            and spec.traffic is None
            and spec.node_faults == 0
        )

    def unsupported_reason(self, spec: ScenarioSpec) -> str:
        if spec.traffic is not None:
            return (
                "the legacy object path moves no packets "
                f"(traffic={spec.traffic!r}); use engine='dataplane'"
            )
        if spec.node_faults > 0:
            return (
                "the legacy object path has no crash-stop support "
                f"(node_faults={spec.node_faults}); use engine='kernel' or 'async'"
            )
        return (
            "the legacy object path runs synchronous scenarios only "
            f"(delay_model={spec.delay_model!r}); use engine='async'"
        )

    def execute(self, lanes, deadline) -> None:
        for spec, record in lanes:
            work, rounds = WorkObserver(), _RoundObserver()
            try:
                _execute_legacy_scenario(spec, record, work, rounds, deadline)
            finally:
                record.update(
                    node_steps=work.node_steps,
                    edge_reversals=work.edge_reversals,
                    dummy_steps=work.dummy_steps,
                    rounds=rounds.rounds,
                )


# registration order is the order ``repro sweep --engine`` lists; the async,
# dataplane and check engines register as a side effect of importing their
# modules, which build on subsystems (repro.distributed, repro.dataplane,
# repro.exploration) the synchronous engines never touch
register_engine(KernelEngine())
register_engine(LegacyEngine())
import repro.experiments.async_engine  # noqa: E402,F401  (registration import)
import repro.experiments.dataplane_engine  # noqa: E402,F401  (registration import)
import repro.experiments.check_engine  # noqa: E402,F401  (registration import)

#: Engine names accepted by :func:`run_scenarios` / ``repro sweep --engine``.
ENGINE_CHOICES = engine_names()


def run_scenarios(
    specs: List[Union[ScenarioSpec, CheckSpec, Dict[str, Any]]],
    timeout_s: Optional[float] = None,
    engine: str = ENGINE_AUTO,
    beat: Optional[Callable[[], None]] = None,
) -> List[Dict[str, Any]]:
    """Execute a chunk of scenarios and return their records in input order.

    Each spec is validated and resolved to an engine; then the chunk runs
    as groups of lanes (see the module docstring), in order of first
    appearance.  ``timeout_s`` is a per-run budget on every engine.
    ``beat``, when given, is invoked before every group — the executor's
    watchdog heartbeat, so a hung group is distinguishable from a long
    chunk.

    Never raises for per-run problems: failures are reported through each
    record's ``status`` field (``ok`` / ``timeout`` / ``error``) so one bad
    run cannot take down a whole campaign shard.  The record's ``engine``
    field says which engine produced it (``None`` when the run failed
    before an engine was selected).
    """
    records = []
    groups: List[Tuple[ExecutionEngine, List[Lane]]] = []
    lockstep: Dict[Tuple[Any, ...], List[Lane]] = {}
    for raw in specs:
        spec, record = spec_and_record(raw)
        records.append(record)
        start = time.perf_counter()
        try:
            spec.validate()
            chosen = get_engine(resolve_engine(engine, spec))
        except Exception as exc:  # noqa: BLE001 — crash isolation is the contract
            record.update(RESULT_INIT, status="error", error=f"{type(exc).__name__}: {exc}")
            _finish([record], round(time.perf_counter() - start, 6))
            continue
        record.update(chosen.record_init, engine=chosen.name)
        group = None if timeout_s is not None else chosen.group_key(spec)
        if group is not None:
            key = (chosen.name, *group)
            lanes = lockstep.get(key)
            if lanes is None:
                lanes = lockstep[key] = []
                groups.append((chosen, lanes))
            lanes.append((spec, record))
        else:
            groups.append((chosen, [(spec, record)]))
    for chosen, lanes in groups:
        _run_group(chosen, lanes, timeout_s, beat)
    return records


def execute_scenario(
    spec: Union[ScenarioSpec, CheckSpec, Dict[str, Any]],
    timeout_s: Optional[float] = None,
    engine: str = ENGINE_AUTO,
) -> Dict[str, Any]:
    """Execute one scenario and return its flat result record."""
    return run_scenarios([spec], timeout_s=timeout_s, engine=engine)[0]


def _run_group(
    chosen: ExecutionEngine,
    lanes: List[Lane],
    timeout_s: Optional[float],
    beat: Optional[Callable[[], None]],
) -> None:
    """Run one group under one deadline and stamp each lane's record.

    A group of several lanes that raises is re-run lane by lane, so one bad
    lane cannot sink the others; a single lane that raises records
    ``error``, and one past its deadline records ``timeout``.
    """
    if beat is not None:
        beat()
    start = time.perf_counter()
    deadline = None if timeout_s is None else start + timeout_s
    try:
        chosen.execute(lanes, deadline)
    except DeadlineExceeded as exc:
        for _, record in lanes:
            record.update(status="timeout", error=str(exc))
    except Exception as exc:  # noqa: BLE001 — crash isolation is the contract
        if len(lanes) > 1:
            logger.exception(
                "group of %d %s lanes (first run %s) failed; retrying lane by lane",
                len(lanes), chosen.name, lanes[0][1].get("run_id"),
            )
            if _telemetry.ENABLED:
                _telemetry.REGISTRY.inc("scenario_group_fallbacks")
            for lane in lanes:
                lane[1].update(chosen.record_init, engine=chosen.name)
                _run_group(chosen, [lane], timeout_s, beat)
            return
        record = lanes[0][1]
        record.update(status="error", error=f"{type(exc).__name__}: {exc}")
        logger.debug(
            "scenario %s failed on engine %s", record.get("run_id"),
            chosen.name, exc_info=exc,
        )
    _finish(
        [record for _, record in lanes],
        round((time.perf_counter() - start) / len(lanes), 6),
    )


def _finish(records: List[Dict[str, Any]], wall_s: float) -> None:
    """Stamp each lane's wall time and count every lane in the telemetry registry.

    The lanes of one group share their engine and wall time, so the counters
    take one increment per group and status: per-lane registry calls cost
    several percent of a wide lockstep group.
    """
    for record in records:
        record["wall_time_s"] = wall_s
    if _telemetry.ENABLED:
        registry = _telemetry.REGISTRY
        engine_used = records[0]["engine"] or "none"
        registry.inc(f"scenarios.{engine_used}", len(records))
        for status, count in Counter(record["status"] for record in records).items():
            registry.inc(f"scenario_status.{status}", count)
        histogram = registry.histogram(f"scenario_wall_s.{engine_used}")
        for _ in records:
            histogram.observe(wall_s)
