"""The data-plane campaign engine: packet traffic over a live routed DAG.

Registers the ``dataplane`` :class:`~repro.experiments.engines.
ExecutionEngine`: a :class:`~repro.experiments.spec.ScenarioSpec` with a
``traffic`` model runs a :class:`~repro.dataplane.run.DataPlaneRun` — a
structure-of-arrays packet simulator (per-directed-link ring buffers,
slotted capacity, FIFO queues, tail drops, TTL expiry) forwarding over
next-hop tables patched incrementally from a live
:class:`~repro.distributed.fast_network.FastAsyncNetwork` control plane.

Phases per scenario:

1. **converge** — the control plane runs to quiescence (beacon rounds when
   lossy) so measured latency/stretch reflects a routed DAG, not initial
   convergence;
2. **inject** — ``max_steps`` slots (default :data:`DEFAULT_SLOTS`) of
   seeded Poisson arrivals; under ``link-failures`` churn the seeded
   failures land at evenly spaced slots *mid-injection*, so reversal
   cascades rewrite the DAG under in-flight packets;
3. **drain** — injection stops and queues empty (bounded by
   :data:`DRAIN_SLOTS`), so the conservation invariant
   ``injected == delivered + dropped + in_flight`` is reported with the
   smallest possible in-flight remainder.

Records carry the ``message`` and ``packet`` field groups of
:data:`~repro.experiments.store.RECORD_FIELDS` beside the ``result`` group,
all flushed even on deadline timeouts.

Seed scheme: channel randomness derives from ``spec.topology_seed`` (paired
across algorithms of a replicate, like the async engine), traffic arrivals
from ``(topology_seed, "traffic")``, failure injection from
``(scheduler_seed, "failures")`` — the synchronous engines' churn
discipline.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro import telemetry as _telemetry
from repro.dataplane.run import DataPlaneRun
from repro.dataplane.traffic import TRAFFIC_MODEL_NAMES
from repro.distributed.network import DELAY_MODELS
from repro.experiments.async_engine import (
    ASYNC_FAILURE_MODELS,
    ASYNC_MODES,
    DEFAULT_MAX_EVENTS,
    _quiesce,
    flush_network_counters,
)
from repro.experiments.batch_engine import load_instance
from repro.experiments.churn import fail_seeded_links
from repro.experiments.engines import ExecutionEngine, register_engine
from repro.experiments.spec import ScenarioSpec, derive_seed
from repro.experiments.store import MESSAGE, PACKET, RESULT

#: Injection slots when the spec does not set ``max_steps``.
DEFAULT_SLOTS = 512

#: Hard bound on post-injection drain slots (drain also stops the moment
#: every queue is empty).
DRAIN_SLOTS = 512

#: Control-plane delay model used when the spec leaves ``delay_model`` unset.
DEFAULT_DELAY_MODEL = "fixed"


class DataPlaneEngine(ExecutionEngine):
    """Packet forwarding over a churning link-reversal control plane."""

    name = "dataplane"
    #: outranks even the async engine: a spec with a traffic model is a
    #: data-plane scenario whatever its delay model says
    auto_priority = 40
    record_groups = (RESULT, MESSAGE, PACKET)

    def supports(self, spec: ScenarioSpec) -> bool:
        return (
            spec.traffic is not None
            and spec.node_faults == 0
            and spec.algorithm in ASYNC_MODES
            and spec.failure_model in ASYNC_FAILURE_MODELS
        )

    def unsupported_reason(self, spec: ScenarioSpec) -> str:
        if spec.traffic is None:
            return (
                "the dataplane engine needs a traffic model on the spec "
                f"(choose from {', '.join(TRAFFIC_MODEL_NAMES)})"
            )
        if spec.node_faults > 0:
            return (
                "the dataplane engine routes packets through live nodes only "
                f"(node_faults={spec.node_faults}); drop the traffic model and "
                "use engine='kernel' or 'async'"
            )
        if spec.algorithm not in ASYNC_MODES:
            return (
                f"no height-based message-passing protocol for algorithm "
                f"{spec.algorithm!r}; the dataplane engine supports "
                f"{', '.join(sorted(ASYNC_MODES))}"
            )
        return (
            f"the dataplane engine does not support the {spec.failure_model!r} "
            f"churn model; choose from {', '.join(ASYNC_FAILURE_MODELS)}"
        )

    def execute(self, lanes, deadline) -> None:
        for spec, record in lanes:
            self._execute_one(spec, record, deadline)

    def _execute_one(self, spec, record, deadline) -> None:
        run: Optional[DataPlaneRun] = None
        try:
            _, instance = load_instance(spec, record)
            delay_model = spec.delay_model or DEFAULT_DELAY_MODEL
            run = DataPlaneRun(
                instance,
                mode=ASYNC_MODES[spec.algorithm],
                traffic=spec.traffic,
                delay_model=delay_model,
                loss=spec.loss,
                channel_seed=derive_seed(spec.topology_seed, "async-channels"),
                traffic_seed=derive_seed(spec.topology_seed, "traffic"),
            )
            max_events = DEFAULT_MAX_EVENTS
            # Phase 1: converge the control plane so the traffic phase
            # measures a routed DAG disrupted by churn, not initial
            # convergence.
            _, converged = _quiesce(run.network, spec.loss, max_events, deadline)
            # The patch cache only diffs inside step_slot; pick up the
            # convergence phase's height changes before injecting.
            run.advance_control(deadline)

            slots = DEFAULT_SLOTS if spec.max_steps is None else spec.max_steps
            failure_plan: Optional[Dict[int, int]] = None
            fail_hook = None
            if spec.failure_model == "link-failures" and spec.failure_count > 0:
                # Seeded failures land at evenly spaced slots mid-injection,
                # so reversal cascades rewrite the DAG under live packets.
                failure_plan = {}
                for i in range(spec.failure_count):
                    slot = (i + 1) * slots // (spec.failure_count + 1)
                    failure_plan[slot] = failure_plan.get(slot, 0) + 1
                rng = random.Random(derive_seed(spec.scheduler_seed, "failures"))

                def fail_hook(count: int) -> None:
                    fail_seeded_links(run.network, rng, count, record, run.fail_link)

            run.run(
                slots,
                drain_slots=DRAIN_SLOTS,
                deadline=deadline,
                failure_plan=failure_plan,
                fail_hook=fail_hook,
            )
            network = run.network
            oriented = network.is_destination_oriented()
            record.update(
                converged=converged and network.quiescent() and oriented,
                destination_oriented=oriented,
                acyclic_final=network.is_acyclic(),
            )
        finally:
            # flush whatever happened, so timeouts keep their partial work
            if run is not None:
                flush_network_counters(run.network, record)
                record.update(run.sim.counters())
                self._report_telemetry(run)

    # ------------------------------------------------------------------
    @staticmethod
    def _report_telemetry(run: DataPlaneRun) -> None:
        if not _telemetry.ENABLED:
            return
        registry = _telemetry.REGISTRY
        sim = run.sim
        registry.inc("dataplane.packets_injected", sim.injected)
        registry.inc("dataplane.packets_delivered", sim.delivered)
        registry.inc("dataplane.packets_forwarded", sim.forwarded)
        registry.inc("dataplane.drop_tail", sim.drop_tail)
        registry.inc("dataplane.drop_ttl", sim.drop_ttl)
        registry.inc("dataplane.drop_no_route", sim.drop_no_route)
        registry.inc("dataplane.drop_link_down", sim.drop_link_down)
        registry.inc("dataplane.transient_loops", sim.loop_bounces)
        registry.inc("dataplane.repatched_nodes", run.repatched_nodes)
        registry.max_gauge("dataplane.peak_queue_depth", sim.peak_queue_depth)
        if sim.delivered:
            # Inject the streaming latency moments as a histogram merge —
            # same shape a pooled worker's snapshot would carry.
            registry.merge(
                {
                    "histograms": {
                        "dataplane.latency_slots": {
                            "count": sim.delivered,
                            "total": sim.latency_total,
                            "min": sim.latency_min,
                            "max": sim.latency_max,
                        }
                    }
                }
            )


register_engine(DataPlaneEngine())
