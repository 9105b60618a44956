"""The batched execution engine: whole campaign chunks as one lockstep call.

Campaigns sweep *distributions*: hundreds of lanes that differ only in their
seeds share one ``(family, size, algorithm, scheduler, failure model,
max_steps)`` shape — the **batch key**.  :func:`run_scenarios_batched` groups
a chunk of scenario dicts by that key and executes each group as one
:class:`~repro.kernels.batch.BatchSimulator` lockstep run instead of N
per-scenario calls, amortising three costs the per-scenario kernel engine
pays per run:

* **instance/kernel construction** — for the seed-deterministic families
  (:data:`~repro.topology.generators.SEEDLESS_FAMILIES`) every replicate
  lane is the *same* instance, so one build + one kernel compile serves the
  whole batch (the per-scenario path re-derives them per run once its LRU
  cache thrashes);
* **whole-run outcomes** — only the ``random`` scheduler consumes its seed,
  and churn RNG streams derive from the scheduler seed; a lane whose result
  fields are a pure function of its batch shape is computed once and fanned
  out to every equal lane (and memoised across chunks);
* **per-run dispatch plumbing** — one deadline, one record-unpacking pass.

Exactness: every lane's record is **field-for-field identical** to the
``kernel`` engine's record for the same spec (``tests/
test_batch_engine_differential.py`` pins this across algorithms, schedulers
and churn models).  The only intentional semantic difference is the timeout
budget: a batched call shares one wall-clock deadline across its lanes
(per-run deadlines are meaningless in lockstep), and lanes deduplicated onto
one computation share that computation's fate.  Timeout records themselves
(status, partial tallies, error message) match the kernel engine exactly.

The engine registers as ``batch`` with an auto-priority *below* ``kernel``:
``engine="auto"`` keeps resolving single scenarios to the per-scenario
kernel path, and batching is requested explicitly (``repro sweep --engine
batch``), whereupon the executor groups chunks by batch key.
"""

from __future__ import annotations

import logging
import time
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple, Union

from repro import telemetry as _telemetry
from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.experiments.churn import ScenarioChurn
from repro.experiments.engines import ExecutionEngine, register_engine
from repro.experiments.spec import ALGORITHM_FACTORIES, ScenarioSpec, derive_seed
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
from repro.kernels.simulator import cache_capacity_from_env
from repro.topology.generators import SEEDLESS_FAMILIES, build_family

ENGINE_BATCH = "batch"

#: Automata with a compiled signature kernel (mirrors ``compile_expander``).
_KERNEL_AUTOMATA = (
    PartialReversal,
    OneStepPartialReversal,
    NewPartialReversal,
    FullReversal,
)

#: Algorithm names with a kernel, precomputed: ``supports`` runs once per
#: lane of every batched chunk, and an ABC ``issubclass`` there is measurable
#: against the ~10µs/lane budget of a deduplicated lane.
_KERNEL_ALGORITHM_NAMES = frozenset(
    name
    for name, factory in ALGORITHM_FACTORIES.items()
    if isinstance(factory, type) and issubclass(factory, _KERNEL_AUTOMATA)
)

logger = logging.getLogger(__name__)

#: Per-process instance/kernel cache, keyed by :func:`_canonical_key` — the
#: seed-deterministic families collapse onto one entry per (family, size),
#: which is what lets ≥256 replicate lanes share a single compiled kernel.
#: Counters live in the shared ``ENGINE_METRICS`` registry as ``batch_*``.
_BATCH_CACHE = KernelCache(
    capacity=cache_capacity_from_env(),
    metrics=_telemetry.ENGINE_METRICS,
    prefix="batch_",
)

#: Per-topology bad-node counts, keyed like the batch cache.
_BAD_NODES_MEMO: Dict[Hashable, int] = {}

#: Final-state verdicts per (topology key, final mask) — a pure function of
#: the two (see the kernel engine's identical memo).
_FINAL_CHECK_MEMO: Dict[Tuple[Hashable, int], Tuple[bool, bool]] = {}

#: Whole-run outcomes per :func:`_outcome_key` — result fields of lanes whose
#: record is fully determined by their batch shape (deterministic scheduler
#: or included seeds).  Bounded like the other memos; cleared, not LRU'd.
_OUTCOME_MEMO: Dict[Hashable, Dict[str, Any]] = {}
_OUTCOME_MEMO_CAP = 1024

#: Cumulative outcome-dedup counters: a *hit* is a lane satisfied without
#: running (memo or in-batch fan-out), a *miss* is a lane actually executed.
#: Registry-backed (``batch_outcome_*`` in ``ENGINE_METRICS``);
#: :func:`batch_cache_stats` keeps the historical un-prefixed dict keys.
_OUTCOME_HITS = _telemetry.ENGINE_METRICS.counter("batch_outcome_hits")
_OUTCOME_MISSES = _telemetry.ENGINE_METRICS.counter("batch_outcome_misses")

#: Record fields that are pure run *results* (everything ``execute_scenario``
#: initialises except the volatile ``wall_time_s`` / ``engine``); exactly the
#: fields fanned out to outcome-deduplicated lanes.
_RESULT_FIELDS = (
    "status", "error", "nodes", "edges", "bad_nodes",
    "node_steps", "edge_reversals", "dummy_steps", "rounds", "steps_taken",
    "converged", "destination_oriented", "acyclic_final",
    "failures_applied", "partition_skips", "reorientations", "crashed_nodes",
)

#: Fresh-record field values, exactly ``execute_scenario``'s initialisation;
#: applied via one C-level ``dict.update`` per lane instead of 23 kwargs.
_RECORD_INIT = {
    "status": "ok", "error": None, "engine": None,
    "nodes": None, "edges": None, "bad_nodes": None,
    "node_steps": 0, "edge_reversals": 0, "dummy_steps": 0, "rounds": 0,
    "steps_taken": 0,
    "converged": False, "destination_oriented": False, "acyclic_final": False,
    "failures_applied": 0, "partition_skips": 0, "reorientations": 0,
    "crashed_nodes": 0, "wall_time_s": 0.0,
}


def batch_cache_stats() -> Dict[str, int]:
    """Cumulative batch-engine cache/dedup counters (JSON-compatible)."""
    stats = dict(_BATCH_CACHE.stats())
    stats["outcome_hits"] = _OUTCOME_HITS.value
    stats["outcome_misses"] = _OUTCOME_MISSES.value
    return stats


def set_cache_capacity(capacity: int) -> None:
    """Resize the batch engine's per-process instance/kernel cache."""
    _BATCH_CACHE.set_capacity(capacity)


def reset_batch_caches() -> None:
    """Drop every batch-engine cache and memo (counters are kept).

    Used by the benchmarks to measure cold-cache performance; production
    campaigns never need this.
    """
    _BATCH_CACHE.clear()
    _BAD_NODES_MEMO.clear()
    _FINAL_CHECK_MEMO.clear()
    _OUTCOME_MEMO.clear()


def batch_key(spec: Union[ScenarioSpec, Mapping[str, Any]]) -> Tuple[Any, ...]:
    """The lockstep-grouping key: lanes sharing it run as one batch.

    Same family/size (same signature width per topology seed), same
    algorithm and scheduler family, same failure model and step bound —
    lanes differ only in their topology/scheduler seeds and replicate index.
    Accepts a spec or its executor-shipped dict form.
    """
    if isinstance(spec, ScenarioSpec):
        return (
            spec.family, spec.size, spec.algorithm, spec.scheduler,
            spec.failure_model, spec.failure_count, spec.max_steps,
            spec.delay_model, spec.traffic,
        )
    return (
        spec["family"], spec["size"], spec["algorithm"], spec["scheduler"],
        spec["failure_model"], spec["failure_count"], spec["max_steps"],
        spec.get("delay_model"), spec.get("traffic"),
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
    structure, algorithm, scheduler and step bound, the churn model, and the
    seeds *only where they are consumed* — the scheduler seed feeds the RNG
    of the ``random`` scheduler and of the churn streams (failure choice and
    repair-phase scheduling both derive from it), and the topology seed
    additionally drives mobility's waypoint stream.  Every other scheduler
    ignores its seed (the mask schedulers' documented contract), so lanes
    differing only in unconsumed seeds share one outcome.
    """
    seed_sensitive = spec.scheduler == "random" or spec.failure_count > 0
    return (
        _canonical_key(spec), spec.algorithm, spec.scheduler, spec.max_steps,
        spec.failure_model, spec.failure_count,
        spec.scheduler_seed if seed_sensitive else None,
        spec.topology_seed if spec.failure_model == "mobility" else None,
    )


def _bad_node_count(key: Hashable, instance) -> int:
    count = _BAD_NODES_MEMO.get(key)
    if count is None:
        count = len(instance.bad_nodes())
        if len(_BAD_NODES_MEMO) >= 64:
            _BAD_NODES_MEMO.clear()
        _BAD_NODES_MEMO[key] = count
    return count


def _final_state_checks(key: Hashable, instance, mask: int) -> Tuple[bool, bool]:
    memo_key = (key, mask)
    verdict = _FINAL_CHECK_MEMO.get(memo_key)
    if verdict is None:
        verdict = mask_final_state_checks(instance, mask)
        if len(_FINAL_CHECK_MEMO) >= 256:
            _FINAL_CHECK_MEMO.clear()
        _FINAL_CHECK_MEMO[memo_key] = verdict
    return verdict


Lane = Tuple[ScenarioSpec, Dict[str, Any]]


def _run_lanes(lanes: List[Lane], deadline: Optional[float]) -> None:
    """Execute lanes sharing one batch key as one lockstep group.

    Mutates each lane's record in place, mirroring the kernel engine's
    ``_execute_kernel_scenario`` per lane: same cache/memo structure, same
    churn derivations, same timeout bookkeeping (a timed-out lane keeps its
    partial tallies but no final-state verdicts, and its ``steps_taken``
    excludes the aborted phase).
    """
    spec0 = lanes[0][0]
    automaton_factory = ALGORITHM_FACTORIES[spec0.algorithm]
    width = len(lanes)
    works = [WorkTally() for _ in range(width)]
    rounds = [RoundTally() for _ in range(width)]
    keys: List[Hashable] = [None] * width
    instances: List[Any] = [None] * width
    cached_instances: List[Any] = [None] * width
    sims: List[Any] = [None] * width
    masks = [0] * width
    convergeds = [False] * width
    try:
        batch = BatchSimulator()
        for pos, (spec, record) in enumerate(lanes):
            key = _canonical_key(spec)
            instance = _BATCH_CACHE.instance(
                key,
                lambda s=spec: build_family(s.family, s.size, s.topology_seed),
            )
            record.update(
                nodes=instance.node_count,
                edges=instance.edge_count,
                bad_nodes=_bad_node_count(key, instance),
            )
            simulator = _BATCH_CACHE.kernel(
                key,
                spec.algorithm,
                lambda inst=instance: SignatureSimulator(
                    compile_expander(automaton_factory(inst))
                ),
            )
            keys[pos] = key
            instances[pos] = instance
            cached_instances[pos] = instance
            sims[pos] = simulator
            batch.add_lane(
                simulator,
                make_mask_scheduler(spec.scheduler, spec.scheduler_seed),
                work=works[pos],
                rounds=rounds[pos],
            )

        outcomes = batch.run(max_steps=spec0.max_steps, deadline=deadline)
        active: List[int] = []
        for pos, outcome in enumerate(outcomes):
            record = lanes[pos][1]
            if outcome.timed_out:
                record.update(
                    status="timeout",
                    error=f"deadline exceeded at step {outcome.timeout_step}",
                )
                continue
            record["steps_taken"] += outcome.steps
            masks[pos] = sims[pos].kernel.orientation_mask(outcome.signature)
            convergeds[pos] = outcome.converged
            active.append(pos)

        if spec0.failure_model != "none" and spec0.failure_count > 0:
            active = _batch_churn(
                lanes, active, keys, instances, masks, convergeds,
                works, rounds, automaton_factory, deadline,
            )

        for pos in active:
            record = lanes[pos][1]
            if instances[pos] is cached_instances[pos]:
                # the memo key describes the cached topology only, never
                # churn products
                acyclic, oriented = _final_state_checks(
                    keys[pos], instances[pos], masks[pos]
                )
            else:
                acyclic, oriented = mask_final_state_checks(
                    instances[pos], masks[pos]
                )
            record.update(
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


def _run_churn_phase(
    lanes, phase, index, seed_label, works, rounds, automaton_factory,
    deadline, masks, convergeds, instances, max_steps,
):
    """One lockstep repair phase over ``phase``'s (pos, candidate) lanes.

    Returns the set of lane positions that timed out during the phase.
    Mirrors the kernel engine's ``_kernel_repair_phase`` bookkeeping: a
    successful lane counts the failure as applied and adds the phase steps;
    a timed-out lane keeps its partial tallies only.
    """
    batch = BatchSimulator()
    phase_sims = []
    for pos, candidate in phase:
        spec = lanes[pos][0]
        simulator = SignatureSimulator(compile_expander(automaton_factory(candidate)))
        phase_sims.append(simulator)
        batch.add_lane(
            simulator,
            make_mask_scheduler(
                spec.scheduler, derive_seed(spec.scheduler_seed, seed_label, index)
            ),
            work=works[pos],
            rounds=rounds[pos],
        )
    outcomes = batch.run(max_steps=max_steps, deadline=deadline)
    timed_out = set()
    for (pos, candidate), simulator, outcome in zip(phase, phase_sims, outcomes):
        record = lanes[pos][1]
        if outcome.timed_out:
            record.update(
                status="timeout",
                error=f"deadline exceeded at step {outcome.timeout_step}",
            )
            timed_out.add(pos)
            continue
        masks[pos] = simulator.kernel.orientation_mask(outcome.signature)
        record["failures_applied"] += 1
        record["steps_taken"] += outcome.steps
        instances[pos] = candidate
        convergeds[pos] = convergeds[pos] and outcome.converged
    return timed_out


def _batch_churn(
    lanes, active, keys, instances, masks, convergeds, works, rounds,
    automaton_factory, deadline,
):
    """Lockstep twin of the kernel engine's ``_kernel_churn``."""
    spec0 = lanes[0][0]
    churns = {
        pos: ScenarioChurn(lanes[pos][0], _BATCH_CACHE, keys[pos]) for pos in active
    }
    looping = list(active)
    for index in range(spec0.failure_count):
        if not looping:
            break
        phase = []
        for pos in looping:
            candidate = churns[pos].next_instance(
                index, instances[pos], masks[pos], lanes[pos][1]
            )
            if candidate is not None:
                phase.append((pos, candidate))
        if not phase:
            continue
        timed_out = _run_churn_phase(
            lanes, phase, index, churns[looping[0]].seed_label, works, rounds,
            automaton_factory, deadline, masks, convergeds, instances,
            spec0.max_steps,
        )
        if timed_out:
            looping = [pos for pos in looping if pos not in timed_out]
    return [pos for pos in active if lanes[pos][1]["status"] != "timeout"]


def _execute_group(lanes: List[Lane], deadline: Optional[float]) -> None:
    """Run one batch-key group: dedup equal outcomes, lockstep the rest.

    Lanes whose :func:`_outcome_key` matches are literally the same
    computation (the key includes every consumed seed), so one leader lane
    runs and the others copy its result fields.  The cross-call memo is
    consulted/populated only for un-deadlined, successful runs, so a later
    deadlined campaign can never inherit an "ok" it might not have earned.
    """
    groups: "OrderedDict[Hashable, List[Lane]]" = OrderedDict()
    for spec, record in lanes:
        groups.setdefault(_outcome_key(spec), []).append((spec, record))
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
        outcome = {name: leader_record[name] for name in _RESULT_FIELDS}
        _OUTCOME_MISSES.inc()
        if len(members) > 1:
            for _, record in members[1:]:
                record.update(outcome)
            _OUTCOME_HITS.inc(len(members) - 1)
        if deadline is None and leader_record["status"] == "ok":
            if len(_OUTCOME_MEMO) >= _OUTCOME_MEMO_CAP:
                _OUTCOME_MEMO.clear()
            _OUTCOME_MEMO[key] = outcome


def run_scenarios_batched(
    specs: List[Union[ScenarioSpec, Dict[str, Any]]],
    timeout_s: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Execute a chunk of scenario dicts as lockstep batches (worker entry).

    The batched counterpart of ``run_scenarios(..., engine="batch")``:
    groups the chunk by :func:`batch_key`, runs each group through
    :func:`_execute_group` and returns one record per spec, in input order,
    with the exact schema of ``execute_scenario``.  Specs the batch engine
    cannot run (BLL, async, invalid) get the same error records a forced
    ``engine="batch"`` per-scenario call would produce.  ``timeout_s`` is a
    *shared* budget: one deadline from call start governs every lane.
    """
    start = time.perf_counter()
    deadline = None if timeout_s is None else start + timeout_s
    records: List[Dict[str, Any]] = []
    lanes_by_key: "OrderedDict[Tuple[Any, ...], List[Lane]]" = OrderedDict()
    for raw in specs:
        if isinstance(raw, dict):
            if "run_id" in raw:
                # executor-shipped dicts come from to_dict() and carry every
                # field; positional construction skips from_dict's filtering
                # dictcomp, which showed up in batch-sweep profiles
                record = dict(raw)
                try:
                    spec = ScenarioSpec(
                        raw["family"], raw["size"], raw["algorithm"],
                        raw["scheduler"], raw["topology_seed"],
                        raw["scheduler_seed"], raw["replicate"],
                        raw["failure_model"], raw["failure_count"],
                        raw["max_steps"], raw["campaign"], raw["delay_model"],
                        raw["loss"], raw["traffic"],
                        raw.get("node_faults", 0),
                    )
                except KeyError:
                    spec = ScenarioSpec.from_dict(raw)
            else:
                spec = ScenarioSpec.from_dict(raw)
                record = spec.to_dict()
        else:
            spec = raw
            record = spec.to_dict()
        record.update(_RECORD_INIT)
        records.append(record)
        try:
            spec.validate()
            if not _ENGINE.supports(spec):
                raise ValueError(_ENGINE.unsupported_reason(spec))
        except Exception as exc:  # noqa: BLE001 — crash isolation is the contract
            record.update(status="error", error=f"{type(exc).__name__}: {exc}")
            continue
        record["engine"] = ENGINE_BATCH
        lanes_by_key.setdefault(batch_key(spec), []).append((spec, record))

    fallback_ids: set = set()
    for lanes in lanes_by_key.values():
        try:
            _execute_group(lanes, deadline)
        except Exception as exc:  # noqa: BLE001 — one bad lane must not sink the group
            from repro.experiments.runner import execute_scenario

            logger.exception(
                "batch group of %d lanes (first run %s) failed in lockstep; "
                "retrying each lane per-scenario: %s",
                len(lanes), lanes[0][1].get("run_id"), exc,
            )
            if _telemetry.ENABLED:
                _telemetry.REGISTRY.inc("batch.group_fallbacks")
            for spec, record in lanes:
                # execute_scenario counts its own telemetry, so these lanes
                # are excluded from the aggregated tally below
                solo = execute_scenario(spec, timeout_s=timeout_s, engine=ENGINE_BATCH)
                record.clear()
                record.update(solo)
                fallback_ids.add(id(record))

    elapsed = round(time.perf_counter() - start, 6)
    for record in records:
        if not record["wall_time_s"]:
            record["wall_time_s"] = elapsed
    if _telemetry.ENABLED:
        # one aggregation pass, then a handful of registry calls — per-record
        # increments would cost several percent of a 6144-lane batch call
        registry = _telemetry.REGISTRY
        engine_tallies: Dict[Tuple[str, str], int] = {}
        for record in records:
            if id(record) in fallback_ids:
                continue
            key = (record["engine"] or "none", record["status"])
            engine_tallies[key] = engine_tallies.get(key, 0) + 1
        for (engine_used, status), count in engine_tallies.items():
            registry.inc(f"scenarios.{engine_used}", count)
            registry.inc(f"scenario_status.{status}", count)
        if records:
            registry.observe("batch_call_wall_s", elapsed)
    return records


class BatchEngine(ExecutionEngine):
    """Lockstep structure-of-arrays execution of kernel-eligible scenarios.

    Supports exactly the kernel engine's spec set (synchronous, compiled
    algorithm, mask scheduler) and produces bit-identical records; priority
    sits *below* the kernel engine so ``auto`` keeps its per-scenario
    behaviour — batching pays off at campaign width and is selected
    explicitly there.
    """

    name = ENGINE_BATCH
    auto_priority = 15

    def supports(self, spec: ScenarioSpec) -> bool:
        return (
            spec.delay_model is None
            and spec.traffic is None
            and spec.node_faults == 0
            and spec.algorithm in _KERNEL_ALGORITHM_NAMES
            and spec.scheduler in MASK_SCHEDULER_FACTORIES
        )

    def unsupported_reason(self, spec: ScenarioSpec) -> str:
        if spec.delay_model is not None:
            return (
                "the batch engine runs synchronous kernel-eligible specs only "
                f"(delay_model={spec.delay_model!r}); use engine='async'"
            )
        if spec.traffic is not None:
            return (
                "the batch engine moves no packets "
                f"(traffic={spec.traffic!r}); use engine='dataplane'"
            )
        if spec.node_faults > 0:
            return (
                "the batch engine's lockstep lanes have no crash-stop support "
                f"(node_faults={spec.node_faults}); use engine='kernel' or 'async'"
            )
        return (
            f"no signature kernel for algorithm {spec.algorithm!r} "
            f"with scheduler {spec.scheduler!r}; use engine='legacy'"
        )

    def execute(self, spec, record, deadline) -> None:
        # a single-scenario call is a width-1 batch: same code path, same
        # caches and outcome memo, internally-handled timeout records
        _execute_group([(spec, record)], deadline)


_ENGINE = BatchEngine()
register_engine(_ENGINE)
