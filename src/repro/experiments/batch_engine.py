"""The compiled synchronous engine: scenarios as lockstep lanes.

Every synchronous spec whose algorithm has a signature kernel (PR,
OneStepPR, NewPR, FR) and whose scheduler has a mask-level twin (every
registry scheduler does) runs here, as the ``kernel`` engine, on
:class:`~repro.kernels.batch.BatchSimulator` lanes: scheduler decisions,
convergence detection, work/round accounting, crash-stopped nodes and the
churn phases all operate on int signatures, and no automaton state is ever
materialised.  :meth:`KernelEngine.execute` runs one group of lanes as one
lockstep call; :func:`repro.experiments.runner.run_scenarios` forms the
groups — lanes of one :func:`batch_key` shape (``(family, size, algorithm,
scheduler, churn model, node faults, max_steps)``) when the chunk has no
per-run timeout, width-1 groups with their own deadlines when it has one.

The engine amortises four costs:

* **instance/kernel construction** — one ``kernel_``-prefixed
  :class:`~repro.kernels.simulator.KernelCache` keyed by
  :func:`_canonical_key` serves every engine of the process (the legacy
  oracle, async and dataplane engines read their instances from it too,
  through :func:`load_instance`);
  for the seed-deterministic families
  (:data:`~repro.topology.generators.SEEDLESS_FAMILIES`) every replicate is
  the *same* instance, so one build and one compile serve them all;
* **initial convergence phases** — a sweep cell's ``none``,
  ``link-failures`` and ``mobility`` runs share a topology and a scheduler
  seed, so they start with the same phase; an un-deadlined lane keeps its
  phase (final mask, steps, ``converged``, work and round tallies) as a
  :class:`_Phase` entry beside its topology in the same cache, keyed by
  :func:`_phase_name`, and every later lane of the cell restores it instead
  of running it, in whatever order the runs come;
* **whole-run outcomes** — a lane's result fields are a pure function of
  its :func:`_outcome_key`, so equal lanes run once and fan out, and
  un-deadlined outcomes are memoised across calls;
* **per-run dispatch plumbing** — one deadline, one record-unpacking pass.

Exactness: every record is field-for-field identical to the legacy
object-automaton oracle's record for the same fault-free spec
(``tests/test_kernel_engine_differential.py``), whatever other lanes shared
the group and in which order.  A timed-out lane keeps its partial tallies
and records ``deadline exceeded at step N``; lanes deduplicated onto one
computation share that computation's fate.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro import telemetry as _telemetry
from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.experiments.churn import ScenarioChurn
from repro.experiments.engines import ExecutionEngine
from repro.experiments.spec import ALGORITHM_FACTORIES, ScenarioSpec, derive_seed
from repro.experiments.store import OUTCOME_FIELDS
from repro.faults.nodes import select_crashed_ids
from repro.kernels import (
    MASK_SCHEDULER_FACTORIES,
    KernelCache,
    RoundTally,
    SignatureSimulator,
    WorkTally,
    compile_expander,
    make_mask_scheduler,
    mask_final_state_checks,
)
from repro.kernels.batch import BatchSimulator
from repro.kernels.simulator import DEFAULT_CACHE_CAPACITY
from repro.topology.generators import SEEDLESS_FAMILIES, build_family

ENGINE_KERNEL = "kernel"

#: Algorithm names with a compiled signature kernel (mirrors
#: ``compile_expander``), precomputed: ``supports`` runs once per lane of
#: every chunk, where an ABC ``issubclass`` is measurable.
_KERNEL_ALGORITHM_NAMES = frozenset(
    name
    for name, factory in ALGORITHM_FACTORIES.items()
    if isinstance(factory, type)
    and issubclass(
        factory,
        (PartialReversal, OneStepPartialReversal, NewPartialReversal, FullReversal),
    )
)

#: Per-process cache of instances and compiled simulators, keyed by
#: :func:`_canonical_key` and shared by every engine; counters live in the
#: always-on ``ENGINE_METRICS`` registry under ``kernel_``-prefixed names.
_KERNEL_CACHE = KernelCache(
    capacity=DEFAULT_CACHE_CAPACITY,
    metrics=_telemetry.ENGINE_METRICS,
    prefix="kernel_",
)

#: Per-topology bad-node counts, keyed like the cache.
_BAD_NODES_MEMO: Dict[Hashable, int] = {}

#: Final-state verdicts per (topology key, final mask) — a pure function of
#: the two, and by confluence every scheduler drives an algorithm on one
#: topology to the same final orientation, so campaign cells hit constantly.
_FINAL_CHECK_MEMO: Dict[Tuple[Hashable, int], Tuple[bool, bool]] = {}

#: Whole-run outcomes per :func:`_outcome_key`, for un-deadlined runs that
#: ended ``ok``.  Bounded like the other memos; cleared, not LRU'd.
_OUTCOME_MEMO: Dict[Hashable, Dict[str, Any]] = {}
_OUTCOME_MEMO_CAP = 1024

#: Cumulative outcome-dedup counters: a *hit* is a lane satisfied without
#: running (memo or in-group fan-out), a *miss* is a lane actually executed.
_OUTCOME_HITS = _telemetry.ENGINE_METRICS.counter("batch_outcome_hits")
_OUTCOME_MISSES = _telemetry.ENGINE_METRICS.counter("batch_outcome_misses")


def algorithm_has_kernel(algorithm: str) -> bool:
    """Whether the named algorithm compiles to a signature kernel."""
    return algorithm in _KERNEL_ALGORITHM_NAMES


def outcome_stats() -> Dict[str, int]:
    """Cumulative outcome-dedup counters (JSON-compatible)."""
    return {
        "outcome_hits": _OUTCOME_HITS.value,
        "outcome_misses": _OUTCOME_MISSES.value,
    }


def kernel_cache_stats() -> Dict[str, int]:
    """Cumulative counters of this process's engine cache.

    The shared instance/kernel cache's counters, plus (``batch_``-prefixed)
    the compiled engine's outcome-dedup counters, so ``repro sweep --json``
    surfaces cache behaviour whichever engine a campaign ran on.
    """
    stats = _KERNEL_CACHE.stats()
    for name, value in outcome_stats().items():
        stats[f"batch_{name}"] = value
    return stats


def reset_kernel_caches() -> None:
    """Drop the engine's cache and every memo (counters are kept).

    Used by the benchmarks to measure cold-cache performance; production
    campaigns never need this.
    """
    _KERNEL_CACHE.clear()
    _BAD_NODES_MEMO.clear()
    _FINAL_CHECK_MEMO.clear()
    _OUTCOME_MEMO.clear()


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


def _outcome_key(spec: ScenarioSpec) -> Tuple[Any, ...]:
    """Key under which a lane's whole result record is deterministic.

    Includes every input the run's result can depend on: the instance
    structure, algorithm, scheduler and step bound, the churn model and
    crash-stop count, and the seeds *only where they are consumed* — the
    scheduler seed feeds the RNG of the ``random`` scheduler and of the
    churn streams (failure choice and repair-phase scheduling both derive
    from it), and the topology seed additionally drives mobility's waypoint
    stream and the choice of crash-stopped nodes (even on seedless
    families).  Every other scheduler ignores its seed (the mask
    schedulers' documented contract), so lanes differing only in unconsumed
    seeds share one outcome.
    """
    seed_sensitive = spec.scheduler == "random" or spec.failure_count > 0
    topology_sensitive = spec.failure_model == "mobility" or spec.node_faults > 0
    return (
        _canonical_key(spec), spec.algorithm, spec.scheduler, spec.max_steps,
        spec.failure_model, spec.failure_count, spec.node_faults,
        spec.scheduler_seed if seed_sensitive else None,
        spec.topology_seed if topology_sensitive else None,
    )


def load_instance(spec: ScenarioSpec, record: Dict[str, Any]) -> Tuple[Hashable, Any]:
    """The spec's cache key and instance, from the engine cache every engine shares.

    Fills the record's instance facts (``nodes``, ``edges``, ``bad_nodes``).
    """
    key = _canonical_key(spec)
    instance = _KERNEL_CACHE.instance(
        key, lambda: build_family(spec.family, spec.size, spec.topology_seed)
    )
    bad_nodes = _BAD_NODES_MEMO.get(key)
    if bad_nodes is None:
        bad_nodes = len(instance.bad_nodes())
        if len(_BAD_NODES_MEMO) >= 64:
            _BAD_NODES_MEMO.clear()
        _BAD_NODES_MEMO[key] = bad_nodes
    record.update(
        nodes=instance.node_count, edges=instance.edge_count, bad_nodes=bad_nodes
    )
    return key, instance


def _final_state_checks(key: Hashable, instance, mask: int) -> Tuple[bool, bool]:
    memo_key = (key, mask)
    verdict = _FINAL_CHECK_MEMO.get(memo_key)
    if verdict is None:
        verdict = mask_final_state_checks(instance, mask)
        if len(_FINAL_CHECK_MEMO) >= 256:
            _FINAL_CHECK_MEMO.clear()
        _FINAL_CHECK_MEMO[memo_key] = verdict
    return verdict


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

    The cache creates the entry empty; the lane that runs the phase fills
    it.  An empty entry (made earlier in the same group, or left by a run
    that raised) reads as a miss, and its lane runs the phase again.
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


def _run_lanes(lanes: List[Lane], deadline: Optional[float]) -> None:
    """Execute lanes sharing one batch key as one lockstep group.

    Mutates each lane's record in place.  A timed-out lane keeps its
    partial tallies but no final-state verdicts, and its ``steps_taken``
    excludes the aborted phase.  Without a deadline a lane whose initial
    phase is cached (see :func:`_phase_name`) restores it instead of
    running it, and a lane that runs it caches it.
    """
    spec0 = lanes[0][0]
    automaton_factory = ALGORITHM_FACTORIES[spec0.algorithm]
    width = len(lanes)
    works = [WorkTally() for _ in range(width)]
    rounds = [RoundTally() for _ in range(width)]
    keys: List[Hashable] = [None] * width
    instances: List[Any] = [None] * width
    masks = [0] * width
    convergeds = [False] * width
    try:
        batch = BatchSimulator()
        running: List[Tuple[int, SignatureSimulator, Optional[_Phase]]] = []
        for pos, (spec, record) in enumerate(lanes):
            key, instance = load_instance(spec, record)
            keys[pos] = key
            instances[pos] = instance
            dead_ids = max_steps = phase = None
            if spec.node_faults > 0:
                dead_ids, max_steps = _crash_stop(spec, instance, record)
            if deadline is None:
                # deadlined runs neither read nor write phases, the rule of
                # the outcome memo
                phase = _KERNEL_CACHE.kernel(key, _phase_name(spec), _Phase)
                if phase.filled:
                    phase.restore(works[pos], rounds[pos])
                    record["steps_taken"] += phase.steps
                    masks[pos], convergeds[pos] = phase.mask, phase.converged
                    continue
            # the cache holds whole simulators: their id tables are
            # per-instance setup just like the kernel tables, and they carry
            # no run state
            simulator = _KERNEL_CACHE.kernel(
                key,
                spec.algorithm,
                lambda inst=instance: SignatureSimulator(
                    compile_expander(automaton_factory(inst))
                ),
            )
            batch.add_lane(
                simulator,
                make_mask_scheduler(spec.scheduler, spec.scheduler_seed),
                work=works[pos],
                rounds=rounds[pos],
                dead_ids=dead_ids,
                max_steps=max_steps,
            )
            running.append((pos, simulator, phase))

        if running:
            outcomes = batch.run(max_steps=spec0.max_steps, deadline=deadline)
            for (pos, simulator, phase), outcome in zip(running, outcomes):
                record = lanes[pos][1]
                if outcome.timed_out:
                    record.update(
                        status="timeout",
                        error=f"deadline exceeded at step {outcome.timeout_step}",
                    )
                    continue
                record["steps_taken"] += outcome.steps
                masks[pos] = simulator.kernel.orientation_mask(outcome.signature)
                convergeds[pos] = outcome.converged
                if phase is not None:
                    phase.fill(
                        masks[pos], outcome.steps, outcome.converged,
                        works[pos], rounds[pos],
                    )
        active = [pos for pos in range(width) if lanes[pos][1]["status"] != "timeout"]

        initial = list(instances)
        if spec0.failure_model != "none" and spec0.failure_count > 0:
            active = _churn(
                lanes, active, keys, instances, masks, convergeds,
                works, rounds, automaton_factory, deadline,
            )

        for pos in active:
            if instances[pos] is initial[pos]:
                # the memo key describes the cached topology only, never
                # churn products
                acyclic, oriented = _final_state_checks(
                    keys[pos], instances[pos], masks[pos]
                )
            else:
                acyclic, oriented = mask_final_state_checks(
                    instances[pos], masks[pos]
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
    automaton_factory, deadline,
) -> List[int]:
    """Apply each link-failure or mobility step, then repair in lockstep.

    Every lane the step changed re-converges from its surviving orientation
    on a freshly compiled instance (see
    :class:`~repro.experiments.churn.ScenarioChurn`); the repair phases of
    one step run as one lockstep call.  A lane counts the failure as applied
    and adds the phase steps; a timed-out lane keeps its partial tallies and
    leaves the loop.  ``converged`` stays ``True`` only if the initial
    convergence *and* every repair phase reached quiescence.  Returns the
    lanes that did not time out.
    """
    spec0 = lanes[0][0]
    churns = {
        pos: ScenarioChurn(lanes[pos][0], _KERNEL_CACHE, keys[pos]) for pos in active
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
            candidate = churn.next_instance(index, instances[pos], masks[pos], record)
            if candidate is None:
                continue
            simulator = SignatureSimulator(compile_expander(automaton_factory(candidate)))
            batch.add_lane(
                simulator,
                make_mask_scheduler(
                    spec.scheduler,
                    derive_seed(spec.scheduler_seed, churn.seed_label, index),
                ),
                work=works[pos],
                rounds=rounds[pos],
            )
            phase.append((pos, candidate, simulator))
        if not phase:
            continue
        outcomes = batch.run(max_steps=spec0.max_steps, deadline=deadline)
        for (pos, candidate, simulator), outcome in zip(phase, outcomes):
            record = lanes[pos][1]
            if outcome.timed_out:
                record.update(
                    status="timeout",
                    error=f"deadline exceeded at step {outcome.timeout_step}",
                )
                continue
            masks[pos] = simulator.kernel.orientation_mask(outcome.signature)
            record["failures_applied"] += 1
            record["steps_taken"] += outcome.steps
            instances[pos] = candidate
            convergeds[pos] = convergeds[pos] and outcome.converged
        looping = [pos for pos in looping if lanes[pos][1]["status"] != "timeout"]
    return looping


def _execute_group(lanes: List[Lane], deadline: Optional[float]) -> None:
    """Run one batch-key group: dedup equal outcomes, lockstep the rest.

    Lanes whose :func:`_outcome_key` matches are literally the same
    computation (the key includes every consumed seed), so one leader lane
    runs and the others copy its result fields.  The cross-call memo is
    consulted/populated only for un-deadlined, successful runs, so a later
    deadlined campaign can never inherit an "ok" it might not have earned.
    """
    groups: Dict[Hashable, List[Lane]] = {}
    for lane in lanes:
        groups.setdefault(_outcome_key(lane[0]), []).append(lane)
    leaders: List[Tuple[Hashable, List[Lane]]] = []
    run_list: List[Lane] = []
    for key, members in groups.items():
        memo = _OUTCOME_MEMO.get(key) if deadline is None else None
        if memo is not None:
            for _, record in members:
                record.update(memo)
            _OUTCOME_HITS.inc(len(members))
            continue
        leaders.append((key, members))
        run_list.append(members[0])
    if run_list:
        _run_lanes(run_list, deadline)
    for key, members in leaders:
        leader_record = members[0][1]
        outcome = {name: leader_record[name] for name in OUTCOME_FIELDS}
        _OUTCOME_MISSES.inc()
        if len(members) > 1:
            for _, record in members[1:]:
                record.update(outcome)
            _OUTCOME_HITS.inc(len(members) - 1)
        if deadline is None and leader_record["status"] == "ok":
            if len(_OUTCOME_MEMO) >= _OUTCOME_MEMO_CAP:
                _OUTCOME_MEMO.clear()
            _OUTCOME_MEMO[key] = outcome


class KernelEngine(ExecutionEngine):
    """The compiled synchronous engine: one call runs a group of lanes.

    The runner hands it lanes of one :func:`batch_key` under one shared
    deadline, or a single lane under its own per-run deadline; either way
    the group runs through :func:`_execute_group`.
    """

    name = ENGINE_KERNEL
    auto_priority = 20

    def supports(self, spec: ScenarioSpec) -> bool:
        return (
            spec.delay_model is None
            and spec.traffic is None
            and spec.algorithm in _KERNEL_ALGORITHM_NAMES
            and spec.scheduler in MASK_SCHEDULER_FACTORIES
        )

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
        _execute_group(lanes, deadline)
