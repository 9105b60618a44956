"""The asynchronous campaign engine: message-passing scenarios at scale.

Registers the ``async`` :class:`~repro.experiments.engines.ExecutionEngine`:
a :class:`~repro.experiments.spec.ScenarioSpec` with a ``delay_model`` runs
on the compiled :class:`~repro.distributed.fast_network.FastAsyncNetwork`
instead of a synchronous scheduler loop.  Nodes exchange HEIGHT messages over
channels drawn from the spec's delay model (``zero`` / ``fixed`` /
``uniform`` / ``fifo``), drop messages with probability ``spec.loss``, and —
under the ``link-failures`` churn model — survive seeded link failures
injected between quiescence phases.

Mapping onto the campaign record schema:

* ``node_steps`` / ``steps_taken`` — height raises (the protocol's unit of
  work); ``edge_reversals`` — true-height edge flips; ``dummy_steps`` —
  raises that flipped nothing (stale-knowledge raises);
* ``rounds`` — anti-entropy beacon rounds needed (lossy channels only);
* ``messages_sent`` / ``messages_delivered`` / ``messages_lost``,
  ``simulated_time`` and ``events_dispatched`` — the async-only columns the
  result store indexes;
* ``converged`` — the final phase reached quiescence *and* destination
  orientation within its event budget (``max_steps`` bounds dispatched
  events per phase here, default one million).

Seed scheme (the campaign pairing discipline): channel randomness is the
counter stream of each directed link
(:class:`~repro.distributed.streams.ChannelStreams`) keyed by a seed derived
from ``spec.topology_seed`` and the link's ranks, so every algorithm of one
replicate sees *paired* per-link delay/loss streams; failure injection
derives from ``spec.scheduler_seed`` exactly like the synchronous engines'
churn phases.

One ``execute`` call takes the lanes of one topology cell: one topology
and channel seed, whatever the algorithm, delay model, loss and churn (see
:func:`~repro.experiments.runner.run_scenarios`).  It builds one
:class:`~repro.distributed.fast_network.NetworkTemplate` for the cell and
drops it when the group ends; the lanes run one after another, each on its
own network built from the template, so its record is the one it gets when
it runs alone.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.distributed.fast_network import FastAsyncNetwork, NetworkTemplate
from repro.distributed.network import DELAY_MODELS
from repro.distributed.protocol import ReversalMode
from repro.experiments.batch_engine import _canonical_key, load_instance
from repro.experiments.churn import fail_seeded_links
from repro.experiments.engines import ExecutionEngine, register_engine
from repro.experiments.spec import ScenarioSpec, derive_seed
from repro.experiments.store import MESSAGE, RESULT

#: Height-based protocol modes per algorithm name.  Partial Reversal runs the
#: Gafni–Bertsekas triple heights, Full Reversal the pair heights; the other
#: algorithms have no message-passing formulation in this codebase.
ASYNC_MODES: Dict[str, ReversalMode] = {
    "pr": ReversalMode.PARTIAL,
    "fr": ReversalMode.FULL,
}

#: Churn models the async engine supports (mobility rebuilds geometry, which
#: has no in-protocol meaning for a message-passing deployment).
ASYNC_FAILURE_MODELS = ("none", "link-failures")

#: Event budget per phase when the spec does not bound it.
DEFAULT_MAX_EVENTS = 1_000_000

#: Beacon rounds tried per phase before a lossy run is declared unconverged.
BEACON_ROUNDS = 20


def channel_seed(spec: ScenarioSpec) -> int:
    """The seed of the spec's channel streams.

    It derives from the topology seed alone, so the streams are paired
    across the algorithms and channel models of one replicate.
    """
    return derive_seed(spec.topology_seed, "async-channels")


def _quiesce(
    network: FastAsyncNetwork,
    loss: float,
    max_events: int,
    deadline: Optional[float],
) -> Tuple[Any, bool]:
    """One quiescence phase; returns ``(report, converged)``.

    Lossless channels reach quiescence in one run; lossy channels may stall
    short of destination orientation (a dropped height update is never
    retransmitted), so they run anti-entropy beacon rounds until oriented.
    """
    if loss > 0.0:
        report = network.run_with_beacons(
            max_rounds=BEACON_ROUNDS, max_events_per_round=max_events, deadline=deadline
        )
    else:
        report = network.run_to_quiescence(max_events=max_events, deadline=deadline)
    return report, network.quiescent() and report.destination_oriented


def flush_network_counters(network: FastAsyncNetwork, record: Dict[str, Any]) -> None:
    """Write the network's work and message counters into the record.

    Called from a ``finally`` block, so timeouts keep their partial work.
    """
    sent, delivered, lost = network.message_counts()
    record.update(
        node_steps=network.total_reversals(),
        steps_taken=network.total_reversals(),
        edge_reversals=network.edge_flips,
        dummy_steps=network.dummy_reversals,
        rounds=network.beacon_rounds,
        messages_sent=sent,
        messages_delivered=delivered,
        messages_lost=lost,
        simulated_time=round(network.now, 6),
        events_dispatched=network.events_dispatched,
    )


class AsyncEngine(ExecutionEngine):
    """Compiled asynchronous message-passing execution of a scenario."""

    name = "async"
    #: outranks the synchronous engines: a spec with a delay model *is* an
    #: async scenario, so auto must never hand it to a scheduler loop
    auto_priority = 30
    record_groups = (RESULT, MESSAGE)

    def supports(self, spec: ScenarioSpec) -> bool:
        return (
            spec.delay_model is not None
            and spec.traffic is None
            and spec.algorithm in ASYNC_MODES
            and spec.failure_model in ASYNC_FAILURE_MODELS
        )

    def unsupported_reason(self, spec: ScenarioSpec) -> str:
        if spec.delay_model is None:
            return (
                "the async engine needs a delay_model on the spec "
                f"(choose from {', '.join(sorted(DELAY_MODELS))})"
            )
        if spec.traffic is not None:
            return (
                "the async engine moves control messages only "
                f"(traffic={spec.traffic!r}); use engine='dataplane'"
            )
        if spec.algorithm not in ASYNC_MODES:
            return (
                f"no height-based message-passing protocol for algorithm "
                f"{spec.algorithm!r}; the async engine supports "
                f"{', '.join(sorted(ASYNC_MODES))}"
            )
        return (
            f"the async engine does not support the {spec.failure_model!r} "
            f"churn model; choose from {', '.join(ASYNC_FAILURE_MODELS)}"
        )

    def group_key(self, spec: ScenarioSpec) -> Tuple[Hashable, ...]:
        return (_canonical_key(spec), channel_seed(spec))

    def execute(self, lanes, deadline) -> None:
        template: Optional[NetworkTemplate] = None
        for spec, record in lanes:
            network: Optional[FastAsyncNetwork] = None
            try:
                _, instance = load_instance(spec, record)
                seed = channel_seed(spec)
                if template is None or template.instance is not instance or template.seed != seed:
                    template = NetworkTemplate(instance, seed)
                min_delay, max_delay, fifo = DELAY_MODELS[spec.delay_model]
                network = FastAsyncNetwork(
                    instance,
                    mode=ASYNC_MODES[spec.algorithm],
                    min_delay=min_delay,
                    max_delay=max_delay,
                    loss_probability=spec.loss,
                    seed=seed,
                    fifo=fifo,
                    template=template,
                )
                self._run(spec, record, instance, network, deadline)
            finally:
                if network is not None:
                    flush_network_counters(network, record)

    def _run(self, spec, record, instance, network, deadline) -> None:
        """Run one lane's phases on its freshly built network."""
        max_events = DEFAULT_MAX_EVENTS if spec.max_steps is None else spec.max_steps
        if spec.node_faults > 0:
            from repro.faults.nodes import select_crashed_ids

            dead_ids = select_crashed_ids(
                instance.node_count,
                network.destination_id,
                spec.node_faults,
                spec.topology_seed,
            )
            network.crash_stop_ids(dead_ids)
            record["crashed_nodes"] = len(dead_ids)

        report, converged = _quiesce(network, spec.loss, max_events, deadline)
        if spec.node_faults > 0:
            # crashed nodes silently stop reversing, so destination
            # orientation is generally unreachable; the honest success
            # criterion is that the live network went quiescent within
            # budget (the frozen heights still route around dead nodes)
            converged = network.quiescent()
        if spec.failure_model == "link-failures" and spec.failure_count > 0:
            report, converged = self._churn(
                spec, network, report, converged, max_events, deadline, record
            )

        record.update(
            converged=converged,
            destination_oriented=report.destination_oriented,
            acyclic_final=report.acyclic,
        )

    def _churn(
        self, spec, network, report, converged, max_events, deadline, record
    ) -> Tuple[Any, bool]:
        """Inject seeded link failures between quiescence phases.

        The failure RNG derives from ``(scheduler_seed, "failures")`` exactly
        like the synchronous engines' link-failure model, and failures that
        would partition the network are skipped and counted, so async and
        synchronous churn campaigns stay comparable.  Unlike the synchronous
        engines the network is *not* rebuilt: the failure is injected into
        the live deployment (in-flight messages on the link are lost) and
        the protocol repairs from whatever state it was in.
        """
        rng = random.Random(derive_seed(spec.scheduler_seed, "failures"))

        def settle() -> None:
            nonlocal report, converged
            report, phase_converged = _quiesce(
                network, spec.loss, max_events, deadline
            )
            converged = converged and phase_converged

        fail_seeded_links(
            network, rng, spec.failure_count, record, network.fail_link, settle
        )
        return report, converged


register_engine(AsyncEngine())
