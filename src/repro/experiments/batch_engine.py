"""The compiled synchronous engine: scenarios as lockstep lanes.

Every synchronous spec runs here, as the ``kernel`` engine: each algorithm
has a signature kernel (BLL runs on OneStepPR's) and each registry
scheduler a mask-level twin.  Lanes run on
:class:`~repro.kernels.batch.BatchSimulator`: scheduler decisions,
convergence detection, work/round accounting, crash-stopped nodes and the
churn phases all operate on int signatures, and no automaton state is ever
materialised.  Churn never builds an instance either: a lane carries an
alive-link mask and an orientation mask in its topology's edge ids, and a
repair phase runs on the topology's cached kernel restricted to the alive
links (see :func:`_churn`).  :meth:`KernelEngine.execute` runs one group
of lanes as one lockstep call; :func:`repro.experiments.runner.run_scenarios`
forms the groups — lanes of one :func:`batch_key` shape (``(family, size,
algorithm, scheduler, churn model, node faults, max_steps)``) when the chunk
has no per-run timeout, width-1 groups with their own deadlines when it has
one.

The engine amortises three costs:

* **instance/kernel construction** — one ``kernel_``-prefixed
  :class:`~repro.kernels.simulator.KernelCache` keyed by
  :func:`_canonical_key` serves every engine of the process (the legacy
  oracle, async and dataplane engines read their instances from it too,
  through :func:`load_instance`);
  for the seed-deterministic families
  (:data:`~repro.topology.generators.SEEDLESS_FAMILIES`) every replicate is
  the *same* instance, so one build and one compile serve them all.  Churn
  adds no compile of its own beyond one per mobility trajectory step and
  algorithm, kept beside the topology;
* **initial convergence phases** — a lane's initial phase (final mask,
  steps, ``converged``, work and round tallies) depends only on the inputs
  named by :func:`_phase_name`, so an un-deadlined lane keeps it as a
  :class:`_Phase` entry beside its topology in the same cache.  The first
  lane of a group to claim an unfilled entry runs the phase; every later
  lane with the same entry, in this group or a later one, is a follower:
  it never joins the lockstep call and restores the filled entry after it.
  A sweep cell's ``none``, ``link-failures`` and ``mobility`` runs share
  one entry, and so do the replicates of a seedless family under a
  scheduler that ignores its seed;
* **per-run dispatch plumbing** — one deadline, one record-unpacking pass.

Exactness: every record is field-for-field identical to the legacy
object-automaton oracle's record for the same fault-free spec
(``tests/test_kernel_engine_differential.py``), whatever other lanes shared
the group and in which order.  A timed-out lane keeps its partial tallies
and records ``deadline exceeded at step N``; deadlined lanes neither read
nor write phases, so each runs on its own.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro import telemetry as _telemetry
from repro.core.graph import mask_final_state_checks
from repro.experiments.churn import Links, ScenarioChurn
from repro.experiments.engines import ExecutionEngine
from repro.experiments.spec import ALGORITHM_FACTORIES, ScenarioSpec, derive_seed
from repro.faults.nodes import select_crashed_ids
from repro.kernels import (
    MASK_SCHEDULER_FACTORIES,
    KernelCache,
    RoundTally,
    SignatureExpander,
    WorkTally,
    compile_expander,
    make_mask_scheduler,
)
from repro.kernels.batch import BatchSimulator
from repro.topology.generators import SEEDLESS_FAMILIES, build_family

ENGINE_KERNEL = "kernel"

#: Per-process cache of instances, compiled kernels, initial phases and
#: final-state verdicts, keyed by :func:`_canonical_key` and shared by every
#: engine; counters live in the always-on ``ENGINE_METRICS`` registry under
#: ``kernel_``-prefixed names.
_KERNEL_CACHE = KernelCache(metrics=_telemetry.ENGINE_METRICS, prefix="kernel_")


def kernel_cache_stats() -> Dict[str, int]:
    """Cumulative counters of this process's engine cache (JSON-compatible)."""
    return _KERNEL_CACHE.stats()


def reset_kernel_caches() -> None:
    """Drop every entry of the engine cache (counters are kept).

    Used by the benchmarks to measure cold-cache performance; production
    campaigns never need this.
    """
    _KERNEL_CACHE.clear()


def batch_key(spec: ScenarioSpec) -> Tuple[Any, ...]:
    """The lockstep-grouping key: lanes sharing it run as one group.

    Same family/size (same signature width per topology seed), same
    algorithm and scheduler family, same churn model, crash-stop count and
    step bound — lanes differ only in their topology/scheduler seeds and
    replicate index.
    """
    return (
        spec.family, spec.size, spec.algorithm, spec.scheduler,
        spec.failure_model, spec.failure_count, spec.max_steps,
        spec.delay_model, spec.traffic, spec.node_faults,
    )


def _canonical_key(spec: ScenarioSpec) -> Tuple[Any, ...]:
    """Cache key identifying the lane's *instance structure*.

    Seed-deterministic families ignore their topology seed, so every
    replicate collapses onto one key (``None`` marks the collapsed seed).
    """
    if spec.family in SEEDLESS_FAMILIES:
        return (spec.family, spec.size, None)
    return (spec.family, spec.size, spec.topology_seed)


def load_instance(spec: ScenarioSpec, record: Dict[str, Any]) -> Tuple[Hashable, Any]:
    """The spec's cache key and instance, from the engine cache every engine shares.

    Fills the record's instance facts (``nodes``, ``edges``, ``bad_nodes``).
    """
    key = _canonical_key(spec)
    instance = _KERNEL_CACHE.instance(
        key, lambda: build_family(spec.family, spec.size, spec.topology_seed)
    )
    record.update(
        nodes=instance.node_count,
        edges=instance.edge_count,
        bad_nodes=instance.bad_node_count,
    )
    return key, instance


def _crash_stop(spec: ScenarioSpec, instance, record: Dict[str, Any]):
    """The lane's crash-stopped node ids and step bound; tallies ``crashed_nodes``."""
    dead_ids = select_crashed_ids(
        instance.node_count,
        instance._node_id[instance.destination],
        spec.node_faults,
        spec.topology_seed,
    )
    record["crashed_nodes"] = len(dead_ids)
    max_steps = spec.max_steps
    if max_steps is None:
        # crash-stopped nodes can cut the destination off, making heights
        # grow without bound — a faulted run needs a finite step budget
        max_steps = 100 * instance.node_count * instance.node_count
    return dead_ids, max_steps


Lane = Tuple[ScenarioSpec, Dict[str, Any]]


def _phase_name(spec: ScenarioSpec) -> Tuple[Any, ...]:
    """The cache name of a lane's initial convergence phase (beside its topology).

    The phase depends on the instance (the cache key), the algorithm,
    scheduler and step bound, the scheduler seed only where the ``random``
    scheduler consumes it, and the crash-stopped nodes, which the topology
    seed picks.  The churn model and its seeds act after the phase, so a
    cell's ``none``, ``link-failures`` and ``mobility`` runs share one.
    """
    return (
        "phase", spec.algorithm, spec.scheduler,
        spec.scheduler_seed if spec.scheduler == "random" else None,
        spec.max_steps, spec.node_faults,
        spec.topology_seed if spec.node_faults > 0 else None,
    )


class _Phase:
    """An initial convergence phase's result, kept in the ``KernelCache``.

    The cache creates the entry empty; the lane that claims it runs the
    phase and fills it, and the lanes that meet it later restore it.  An
    empty entry left by a group that raised reads as a miss, and the next
    lane to meet it claims it again.
    """

    __slots__ = ("filled", "mask", "steps", "converged", "work", "rounds", "seen")

    def __init__(self) -> None:
        self.filled = False

    def fill(self, mask: int, steps: int, converged: bool,
             work: WorkTally, rounds: RoundTally) -> None:
        self.mask, self.steps, self.converged = mask, steps, converged
        self.work = (work.node_steps, work.edge_reversals, work.dummy_steps)
        # repair phases keep counting rounds from the seen-set, so the entry
        # keeps a frozen copy and every restore gets a fresh set
        self.rounds, self.seen = rounds.rounds, frozenset(rounds._seen)
        self.filled = True

    def restore(self, work: WorkTally, rounds: RoundTally) -> None:
        work.node_steps, work.edge_reversals, work.dummy_steps = self.work
        rounds.rounds, rounds._seen = self.rounds, set(self.seen)


def _kernel(key: Hashable, name: Hashable, instance, algorithm: str) -> SignatureExpander:
    """The cached kernel of ``algorithm`` on ``instance``, under ``(key, name)``."""
    return _KERNEL_CACHE.kernel(
        key, name, lambda: compile_expander(ALGORITHM_FACTORIES[algorithm](instance))
    )


def _run_lanes(lanes: List[Lane], deadline: Optional[float]) -> None:
    """Execute lanes sharing one batch key as one lockstep group.

    Mutates each lane's record in place.  A timed-out lane keeps its
    partial tallies but no final-state verdicts, and its ``steps_taken``
    excludes the aborted phase.  Without a deadline each lane meets its
    initial phase's cache entry (see :func:`_phase_name`): the first lane
    to claim an unfilled entry runs the phase and fills it, and every other
    lane with that entry restores it after the lockstep call.
    """
    spec0 = lanes[0][0]
    width = len(lanes)
    works = [WorkTally() for _ in range(width)]
    rounds = [RoundTally() for _ in range(width)]
    keys: List[Hashable] = [None] * width
    instances: List[Any] = [None] * width
    masks = [0] * width
    convergeds = [False] * width
    try:
        batch = BatchSimulator()
        running: List[Tuple[int, SignatureExpander, Optional[_Phase]]] = []
        followers: List[Tuple[int, _Phase]] = []
        claimed: Set[_Phase] = set()
        for pos, (spec, record) in enumerate(lanes):
            key, instance = load_instance(spec, record)
            keys[pos] = key
            instances[pos] = instance
            dead_ids = max_steps = phase = None
            if spec.node_faults > 0:
                dead_ids, max_steps = _crash_stop(spec, instance, record)
            if deadline is None:
                # deadlined runs neither read nor write phases: a deadlined
                # record must never inherit an "ok" it might not have earned
                phase = _KERNEL_CACHE.kernel(key, _phase_name(spec), _Phase)
                if phase.filled or phase in claimed:
                    followers.append((pos, phase))
                    continue
                claimed.add(phase)
            kernel = _kernel(key, spec.algorithm, instance, spec.algorithm)
            batch.add_lane(
                kernel,
                make_mask_scheduler(spec.scheduler, spec.scheduler_seed),
                work=works[pos],
                rounds=rounds[pos],
                dead_ids=dead_ids,
                max_steps=max_steps,
            )
            running.append((pos, kernel, phase))

        if running:
            outcomes = batch.run(max_steps=spec0.max_steps, deadline=deadline)
            for (pos, kernel, phase), outcome in zip(running, outcomes):
                record = lanes[pos][1]
                if outcome.timed_out:
                    record.update(
                        status="timeout",
                        error=f"deadline exceeded at step {outcome.timeout_step}",
                    )
                    continue
                record["steps_taken"] += outcome.steps
                masks[pos] = kernel.orientation_mask(outcome.signature)
                convergeds[pos] = outcome.converged
                if phase is not None:
                    phase.fill(
                        masks[pos], outcome.steps, outcome.converged,
                        works[pos], rounds[pos],
                    )
        for pos, phase in followers:
            phase.restore(works[pos], rounds[pos])
            lanes[pos][1]["steps_taken"] += phase.steps
            masks[pos], convergeds[pos] = phase.mask, phase.converged
        active = [pos for pos in range(width) if lanes[pos][1]["status"] != "timeout"]

        churned: Dict[int, Links] = {}
        if spec0.failure_model != "none" and spec0.failure_count > 0:
            active = _churn(
                lanes, active, keys, instances, masks, convergeds,
                works, rounds, deadline, churned,
            )

        for pos in active:
            links = churned.get(pos)
            if links is None:
                # the verdict is a pure function of the cached topology and
                # the final mask; churned links are never cached
                acyclic, oriented = _KERNEL_CACHE.kernel(
                    keys[pos], ("final", masks[pos]),
                    partial(mask_final_state_checks, instances[pos], masks[pos]),
                )
            else:
                acyclic, oriented = mask_final_state_checks(
                    links.topology, links.mask, links.alive
                )
            lanes[pos][1].update(
                converged=convergeds[pos],
                destination_oriented=oriented,
                acyclic_final=acyclic,
            )
    finally:
        for pos, (_, record) in enumerate(lanes):
            work, tally = works[pos], rounds[pos]
            record.update(
                node_steps=work.node_steps,
                edge_reversals=work.edge_reversals,
                dummy_steps=work.dummy_steps,
                rounds=tally.rounds,
            )


def _churn(
    lanes, active, keys, instances, masks, convergeds, works, rounds,
    deadline, churned,
) -> List[int]:
    """Apply each link-failure or mobility step, then repair in lockstep.

    Every lane carries its :class:`~repro.experiments.churn.Links`: its
    topology, alive-link mask and orientation mask.  A step of
    :class:`~repro.experiments.churn.ScenarioChurn` clears a failed link's
    bit or moves the lane onto a mobility step's trajectory instance, whose
    kernel the cache compiles once per topology, step and algorithm.
    The lane then re-converges from the step's start orientation, with
    fresh bookkeeping, on its topology's kernel restricted to the alive
    links; the repair phases of one step run as one lockstep call.  A lane
    counts the failure as applied and adds the phase steps; a timed-out
    lane keeps its partial tallies and leaves the loop.  ``converged`` stays
    ``True`` only if the initial convergence *and* every repair phase
    reached quiescence.  Lanes with an applied step land in ``churned``
    with their final links.  Returns the lanes that did not time out.
    """
    spec0 = lanes[0][0]
    algorithm = spec0.algorithm
    churns = {
        pos: ScenarioChurn(lanes[pos][0], _KERNEL_CACHE, keys[pos]) for pos in active
    }
    links = {
        pos: Links(instances[pos], (1 << instances[pos].edge_count) - 1, masks[pos])
        for pos in active
    }
    kernels = {
        pos: _kernel(keys[pos], algorithm, instances[pos], algorithm) for pos in active
    }
    looping = list(active)
    for index in range(spec0.failure_count):
        if not looping:
            break
        batch = BatchSimulator()
        phase = []
        for pos in looping:
            spec, record = lanes[pos]
            churn = churns[pos]
            start = churn.next_links(index, links[pos], record)
            if start is None:
                continue
            kernel = kernels[pos]
            if start.topology is not links[pos].topology:
                kernel = _kernel(
                    keys[pos], ("mobility", index, algorithm), start.topology, algorithm
                )
            batch.add_lane(
                kernel.restricted(start.alive, start.mask),
                make_mask_scheduler(
                    spec.scheduler,
                    derive_seed(spec.scheduler_seed, churn.seed_label, index),
                ),
                work=works[pos],
                rounds=rounds[pos],
                start=start.mask,
            )
            phase.append((pos, start, kernel))
        if not phase:
            continue
        outcomes = batch.run(max_steps=spec0.max_steps, deadline=deadline)
        for (pos, start, kernel), outcome in zip(phase, outcomes):
            record = lanes[pos][1]
            if outcome.timed_out:
                record.update(
                    status="timeout",
                    error=f"deadline exceeded at step {outcome.timeout_step}",
                )
                continue
            start.mask = outcome.signature & start.alive
            links[pos] = churned[pos] = start
            kernels[pos] = kernel
            record["failures_applied"] += 1
            record["steps_taken"] += outcome.steps
            convergeds[pos] = convergeds[pos] and outcome.converged
        looping = [pos for pos in looping if lanes[pos][1]["status"] != "timeout"]
    return looping


class KernelEngine(ExecutionEngine):
    """The compiled synchronous engine: one call runs a group of lanes.

    The runner hands it lanes of one :func:`batch_key` under one shared
    deadline, or a single lane under its own per-run deadline; either way
    the group runs through :func:`_run_lanes`.
    """

    name = ENGINE_KERNEL
    auto_priority = 20

    def supports(self, spec: ScenarioSpec) -> bool:
        return (
            spec.delay_model is None
            and spec.traffic is None
            # every registered algorithm compiles from its default start
            and spec.algorithm in ALGORITHM_FACTORIES
            and spec.scheduler in MASK_SCHEDULER_FACTORIES
        )

    def group_key(self, spec: ScenarioSpec) -> Tuple[Any, ...]:
        return batch_key(spec)

    def unsupported_reason(self, spec: ScenarioSpec) -> str:
        if spec.delay_model is not None:
            return (
                f"the {self.name} engine runs synchronous specs only "
                f"(delay_model={spec.delay_model!r}); use engine='async'"
            )
        if spec.traffic is not None:
            return (
                f"the {self.name} engine moves no packets "
                f"(traffic={spec.traffic!r}); use engine='dataplane'"
            )
        return (
            f"no signature kernel for algorithm {spec.algorithm!r} "
            f"with scheduler {spec.scheduler!r}; use engine='legacy'"
        )

    def execute(self, lanes, deadline) -> None:
        _run_lanes(lanes, deadline)
