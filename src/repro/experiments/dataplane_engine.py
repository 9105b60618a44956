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

One ``execute`` call takes every lane of its group (see
:func:`~repro.experiments.runner.run_scenarios`): it builds and converges
each lane's control plane (the lanes of one topology and channel seed from
one :class:`~repro.distributed.fast_network.NetworkTemplate`), puts the
lanes on one shared packet simulator
(:func:`~repro.dataplane.run.share_simulator`) and drives them through one
slot loop (:func:`~repro.dataplane.run.run_lockstep`), so one inject and
one transmit per slot serve every lane still running.  Lanes may differ in
every spec field; each keeps its own control plane, arrival stream,
failure plan, beacon cadence, drain bound and counters, so its record is
the one it gets when it runs alone.  A single run is the group of one.

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
from typing import Dict, Hashable, List, Optional, Tuple

from repro import telemetry as _telemetry
from repro.dataplane.packets import PacketSimulator
from repro.dataplane.run import DataPlaneRun, run_lockstep, share_simulator
from repro.dataplane.traffic import TRAFFIC_MODEL_NAMES
from repro.distributed.fast_network import NetworkTemplate
from repro.distributed.network import DELAY_MODELS
from repro.experiments.async_engine import (
    ASYNC_FAILURE_MODELS,
    ASYNC_MODES,
    DEFAULT_MAX_EVENTS,
    _quiesce,
    channel_seed,
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

    def group_key(self, spec: ScenarioSpec) -> Tuple[Hashable, ...]:
        # data-plane lanes may differ in every spec field
        return ()

    def execute(self, lanes, deadline) -> None:
        runs: List[DataPlaneRun] = []
        converged: List[bool] = []
        sim: Optional[PacketSimulator] = None
        templates: Dict[Tuple[Hashable, int], NetworkTemplate] = {}
        try:
            for spec, record in lanes:
                run = self._planned_run(spec, record, templates)
                runs.append(run)
                # Phase 1: converge the control plane so the traffic phase
                # measures a routed DAG disrupted by churn, not initial
                # convergence.
                _, ok = _quiesce(run.network, spec.loss, DEFAULT_MAX_EVENTS, deadline)
                converged.append(ok)
            sim = share_simulator(runs)
            for run in runs:
                # The patch cache only diffs inside the slot loop; pick up
                # the convergence phase's height changes before injecting.
                run.advance_control(deadline)
            run_lockstep(runs, deadline)
            for run, ok, (_, record) in zip(runs, converged, lanes):
                network = run.network
                oriented = network.is_destination_oriented()
                record.update(
                    converged=ok and network.quiescent() and oriented,
                    destination_oriented=oriented,
                    acyclic_final=network.is_acyclic(),
                )
        finally:
            # flush whatever happened, so timeouts keep their partial work
            for run, (_, record) in zip(runs, lanes):
                flush_network_counters(run.network, record)
                if sim is not None:
                    record.update(sim.counters(run.lane))
            if sim is not None:
                self._report_telemetry(sim, runs)

    @staticmethod
    def _planned_run(
        spec: ScenarioSpec, record, templates: Dict[Tuple[Hashable, int], NetworkTemplate]
    ) -> DataPlaneRun:
        """The spec's run, planned: its injection slots, drain and failures.

        ``templates`` holds the group's network templates by topology key
        and channel seed; the run's control plane builds from its cell's.
        """
        key, instance = load_instance(spec, record)
        seed = channel_seed(spec)
        template = templates.get((key, seed))
        if template is None or template.instance is not instance:
            template = templates[(key, seed)] = NetworkTemplate(instance, seed)
        run = DataPlaneRun(
            instance,
            mode=ASYNC_MODES[spec.algorithm],
            traffic=spec.traffic,
            delay_model=spec.delay_model or DEFAULT_DELAY_MODEL,
            loss=spec.loss,
            channel_seed=seed,
            traffic_seed=derive_seed(spec.topology_seed, "traffic"),
            template=template,
        )
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

        run.plan(slots, DRAIN_SLOTS, failure_plan, fail_hook)
        return run

    # ------------------------------------------------------------------
    @staticmethod
    def _report_telemetry(sim: PacketSimulator, runs: List[DataPlaneRun]) -> None:
        if not _telemetry.ENABLED:
            return
        registry = _telemetry.REGISTRY
        registry.inc("dataplane.packets_injected", sim.injected)
        registry.inc("dataplane.packets_delivered", sim.delivered)
        registry.inc("dataplane.packets_forwarded", sim.forwarded)
        registry.inc("dataplane.drop_tail", sim.drop_tail)
        registry.inc("dataplane.drop_ttl", sim.drop_ttl)
        registry.inc("dataplane.drop_no_route", sim.drop_no_route)
        registry.inc("dataplane.drop_link_down", sim.drop_link_down)
        registry.inc("dataplane.transient_loops", sim.loop_bounces)
        registry.inc(
            "dataplane.repatched_nodes", sum(run.repatched_nodes for run in runs)
        )
        registry.max_gauge("dataplane.peak_queue_depth", sim.peak_queue_depth)
        if sim.delivered:
            # Inject the group's streaming latency moments as a histogram
            # merge — same shape a pooled worker's snapshot would carry.
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
