"""Lockstep structure-of-arrays execution of many convergence phases.

:class:`BatchSimulator` is the one mask-level convergence loop: every
compiled synchronous run — a ``kernel``-engine scenario
(:mod:`repro.experiments.batch_engine`), a churn repair phase, a traced
single run — is one of its lanes.  It holds B *lanes* — independent
(kernel, scheduler, signature) runs of identical shape — as parallel
arrays and advances them in lockstep rounds, one deadline stride per round:

* **per-lane arrays**: current signature, incremental sink-id set and step
  bound, plus one tuple per lane of its fixed tables (scheduler, ``step``
  function, edge mask, incidence rows, the schedulable-node table that
  keeps crash-stopped nodes out, work/round tallies), unpacked once per
  lane and round, so the per-action loop runs on locals;
* **convergence mask**: a lane that converges (or hits its step bound /
  the deadline) retires from the live-lane list without breaking the
  lockstep of the remaining lanes;
* **shared kernels**: lanes may (and, for seed-deterministic topology
  families, do) reference the *same* compiled
  :class:`~repro.kernels.signature.SignatureExpander` — kernels carry no
  run state, so one serves any number of lanes, which is where the batch
  amortisation comes from.

Exactness contract
------------------

Each fault-free lane takes the step sequence the object-level oracle
(:func:`repro.automata.executions.run` with the lane scheduler's object
twin) takes: per action the lane runs scheduler select, kernel step, XOR
work accounting, incremental sink update and round observation, the order
of the oracle's observers, and the differential suites pin final mask, step
count and tallies field by field.  Lanes share no mutable state (each lane
owns its scheduler, hence its RNG stream), and lockstep only interleaves
*independent* per-lane sequences, so a lane's outcome does not depend on
which other lanes share the call or in which order they were added.

Deadline semantics: a round takes every live lane to the next action index
at which the legacy deadline observer's per-run countdown reads the clock
(after action 0, then every
:data:`~repro.kernels.simulator.DEADLINE_CHECK_STRIDE` actions), and the
shared wall-clock deadline is checked once per round, so every lane is
observed at the same action indices as a run of its own would be.  When the
deadline passes, every lane still live times out together — retired lanes
keep their outcome.  Without a deadline one round runs every lane to its
end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.automata.executions import DEFAULT_MAX_STEPS
from repro.kernels.schedulers import MaskScheduler
from repro.kernels.signature import SignatureExpander
from repro.kernels.simulator import DEADLINE_CHECK_STRIDE, RoundTally, WorkTally


@dataclass
class BatchLaneOutcome:
    """Result of one lane of a :meth:`BatchSimulator.run` call.

    ``steps`` counts the lane's actions this phase; ``converged`` is ``True``
    iff the lane's scheduler declared quiescence (or the step bound was hit
    with no sinks left).  A ``timed_out`` lane carries the step index the
    deadline check fired at (``timeout_step``), the index the legacy
    deadline observer reports for the same run.
    """

    signature: int
    steps: int
    converged: bool
    timed_out: bool = False
    timeout_step: int = 0


class BatchSimulator:
    """Runs B independent convergence phases in lockstep rounds of one
    deadline stride, retiring converged lanes via the live-lane mask."""

    def __init__(self) -> None:
        # structure-of-arrays lane state, indexed by lane id: the mutable
        # signature and sink set, the step bound, and one tuple of the
        # lane's fixed tables, unpacked once per lane and round
        self._sigs: List[int] = []
        self._sinks: List[set] = []
        self._bounds: List[Optional[int]] = []
        self._tables: List[tuple] = []

    @property
    def width(self) -> int:
        """Number of lanes added so far."""
        return len(self._sigs)

    def add_lane(
        self,
        kernel: SignatureExpander,
        scheduler: MaskScheduler,
        *,
        work: Optional[WorkTally] = None,
        rounds: Optional[RoundTally] = None,
        dead_ids: Optional[Set[int]] = None,
        max_steps: Optional[int] = None,
        trace: Optional[List[Tuple[int, ...]]] = None,
        start: Optional[int] = None,
    ) -> int:
        """Append one lane; returns its index.

        ``kernel`` may be shared with other lanes (it carries no run
        state); ``scheduler`` must be exclusive to this lane (it carries the
        RNG / rotation state).  The scheduler is bound here, exactly once per
        phase.  ``work`` / ``rounds`` tallies are updated in place — pass
        one pair per *scenario* across its phases to accumulate.

        ``dead_ids`` are crash-stopped nodes (the ``node_faults`` axis): they
        keep their height but never reverse, so the lane never schedules
        them.  Quiescence then means "no *live* non-destination sink" — live
        neighbours of a dead sink may keep reversing against it until the
        step bound, the unbounded-work behaviour an unreachable destination
        induces.  ``max_steps`` overrides :meth:`run`'s bound for this lane.
        ``trace``, when given, receives the actor-id tuple of every action
        the lane takes; untraced lanes run the scheduler's ``select`` as is.
        ``start`` is the lane's first signature, the kernel's initial one by
        default; a churn repair phase starts at the surviving orientation
        with fresh bookkeeping, which is that orientation mask itself.
        """
        scheduler.bind(kernel)
        select = scheduler.select
        if trace is not None:
            untraced, record = select, trace.append

            def select(sinks):
                actors = untraced(sinks)
                if actors is not None:
                    record(actors)
                return actors

        sig = kernel.initial_signature() if start is None else start
        sinks = set(kernel.sink_ids(sig))
        can_sink = kernel._can_sink
        if dead_ids:
            # a copied can_sink (the kernel's table is shared with
            # fault-free lanes) keeps the dead ids out of the incremental
            # sink updates, and the initial sink set drops them up front
            can_sink = list(can_sink)
            for i in dead_ids:
                can_sink[i] = False
            sinks.difference_update(dead_ids)
        self._sigs.append(sig)
        self._sinks.append(sinks)
        self._bounds.append(max_steps)
        self._tables.append((
            select, kernel.step, kernel._edge_mask, kernel._inc, kernel._tail,
            kernel._incident, can_sink, work, rounds, kernel.instance.nodes,
        ))
        return len(self._sigs) - 1

    def run(
        self,
        *,
        max_steps: Optional[int] = None,
        deadline: Optional[float] = None,
        deadline_stride: int = DEADLINE_CHECK_STRIDE,
    ) -> List[BatchLaneOutcome]:
        """Run every lane to quiescence, its step bound or the deadline.

        ``max_steps`` bounds every lane that set no bound of its own.  One
        call per :class:`BatchSimulator` instance — per-lane signature and
        sink state is consumed by the run.  Returns one
        :class:`BatchLaneOutcome` per lane, in ``add_lane`` order.
        """
        if max_steps is None:
            max_steps = DEFAULT_MAX_STEPS
        width = len(self._sigs)
        sigs = self._sigs
        sinks_by_lane = self._sinks
        tables = self._tables
        bounds = [max_steps if bound is None else bound for bound in self._bounds]

        outcomes: List[Optional[BatchLaneOutcome]] = [None] * width
        live = list(range(width))
        # a round takes every live lane from action index `start` up to
        # `stop`: to the first deadline check (after action 0), then one
        # stride per round, as the legacy observer's per-run countdown does;
        # without a deadline one round ends every lane
        start = 0
        stop = 1 if deadline is not None else max(bounds, default=0) + 1
        while live:
            next_live = []
            for lane in live:
                # the hot loop, on per-phase locals unpacked from the lane's
                # tables
                (
                    select, step, edge_mask, inc, tail, incident,
                    can_sink, work, rounds, nodes,
                ) = tables[lane]
                sig = sigs[lane]
                sinks = sinks_by_lane[lane]
                steps = start
                end = min(stop, bounds[lane])
                while steps < end:
                    actors = select(sinks)
                    if actors is None:
                        outcomes[lane] = BatchLaneOutcome(
                            signature=sig, steps=steps, converged=True
                        )
                        break
                    new_sig = sig
                    for i in actors:
                        new_sig = step(new_sig, i)
                    xor = (sig ^ new_sig) & edge_mask
                    mask = new_sig & edge_mask
                    if work is not None:
                        work.node_steps += len(actors)
                        work.edge_reversals += xor.bit_count()
                    for i in actors:
                        if xor & inc[i]:
                            sinks.discard(i)
                            for edge_bit, j in incident[i]:
                                # a flipped edge now points at j: j may have
                                # become a sink (it cannot have stopped
                                # being one)
                                if (
                                    xor & edge_bit
                                    and can_sink[j]
                                    and not ((mask ^ tail[j]) & inc[j])
                                ):
                                    sinks.add(j)
                        elif work is not None:
                            work.dummy_steps += 1
                    if rounds is not None:
                        rounds.observe(actors, nodes)
                    sig = new_sig
                    steps += 1
                else:
                    sigs[lane] = sig
                    if steps < stop:
                        # step bound reached without the scheduler declaring
                        # quiescence; a bound at `stop` is taken next round,
                        # after the deadline check a run of its own would
                        # make first
                        outcomes[lane] = BatchLaneOutcome(
                            signature=sig, steps=steps, converged=not sinks
                        )
                    else:
                        next_live.append(lane)
            live = next_live
            if live and time.perf_counter() > deadline:
                # every live lane has taken actions 0 .. stop-1, so it is
                # observed at the same action index as a run of its own
                for lane in live:
                    outcomes[lane] = BatchLaneOutcome(
                        signature=sigs[lane],
                        steps=stop,
                        converged=False,
                        timed_out=True,
                        timeout_step=stop - 1,
                    )
                break
            start = stop
            stop += deadline_stride
        return outcomes  # type: ignore[return-value]
