"""Experiment E21 — phase sharing on the compiled synchronous engine.

The compiled synchronous engine runs campaign lanes in lockstep, sharing
compiled kernels, and lets lanes with equal initial phases share one run
(seedless families ignore the topology seed and five of the six mask
schedulers ignore their seed, so every replicate of such a cell meets one
phase entry: the first lane runs it and the others follow).  This
experiment times the same 6144-run campaign chunk — two families, PR + FR,
all six mask schedulers, 256 replicates — twice through ``run_scenarios``,
with every cache cleared inside each workload so both sides pay cold-start
costs:

* **dedup on** — no per-run timeout, so each batch-key group of the chunk
  runs as one lockstep call and followers restore their leader's phase;
* **dedup off** — the same chunk under a per-run timeout too far off to
  fire, so every lane runs alone and, deadlined, neither reads nor writes
  phases: this side measures per-run execution.

Expected shape: identical records lane for lane and a dedup-off/dedup-on
time ratio well above 1; the deterministic five-sixths of the lanes
collapse to leader runs, so the ratio approaches the scheduler mix's dedup
ceiling as size grows.  The floor asserted here is conservative (CI boxes
are noisy); the measured ratio is recorded in ``extra_info`` and tracked
across PRs by the ``bench_batch_sweep`` / ``bench_batch_sweep_nodedup``
pair in ``BENCH_baseline.json``.
"""

from __future__ import annotations

from benchmarks._harness import claim_experiment, print_table, record

claim_experiment("E21", __name__)

from unittest import mock

from repro.experiments.batch_engine import _Phase, reset_kernel_caches
from repro.experiments.runner import run_scenarios
from repro.experiments.spec import CampaignSpec

#: Conservative CI floor for the dedup-off/dedup-on time ratio: six runs
#: on a shared 2-CPU VM measured 3.6–4.5×, so the floor leaves headroom
#: under the noisiest of them.
MIN_DEDUP_SPEEDUP = 2.0

#: Lanes per campaign cell — the batch width the engine is measured at.
REPLICATES = 256

#: The dedup-off side's per-run timeout: far enough off never to fire, so
#: it only makes each lane a deadlined group of its own.
FAR_TIMEOUT_S = 3600.0


def _campaign() -> CampaignSpec:
    return CampaignSpec(
        name="bench-batch-sweep",
        families=("chain", "grid"),
        algorithms=("pr", "fr"),
        schedulers=(
            "greedy", "sequential", "lazy", "adversarial", "round-robin", "random",
        ),
        sizes=(16,),
        replicates=REPLICATES,
    )


#: The expanded benchmark chunk, built once — spec construction (6144
#: ``to_dict`` calls, each hashing a run_id) is shared input prep, not engine
#: work, and neither path mutates the input dicts.
_SPEC_CACHE: list = []


def _specs() -> list:
    if not _SPEC_CACHE:
        _SPEC_CACHE.extend(spec.to_dict() for spec in _campaign().expand())
    return _SPEC_CACHE


def _measure_batch() -> list:
    """Dedup on: the lockstep dispatch over the chunk, cold caches."""
    reset_kernel_caches()
    return run_scenarios(_specs())


def _measure_nodedup() -> list:
    """Dedup off: every lane runs alone under a far deadline, cold caches."""
    reset_kernel_caches()
    return run_scenarios(_specs(), timeout_s=FAR_TIMEOUT_S)


def test_e21_phase_sharing(benchmark):
    import time

    def workload():
        start = time.perf_counter()
        nodedup_records = _measure_nodedup()
        nodedup_s = time.perf_counter() - start
        # a bare counting wrapper: a Mock's per-call cost would show in batch_s
        restores = []
        restore = _Phase.restore

        def counted(phase, work, rounds):
            restores.append(None)
            restore(phase, work, rounds)

        with mock.patch.object(_Phase, "restore", counted):
            start = time.perf_counter()
            batch_records = _measure_batch()
            batch_s = time.perf_counter() - start
        return nodedup_records, nodedup_s, batch_records, batch_s, len(restores)

    nodedup_records, nodedup_s, batch_records, batch_s, restores = benchmark.pedantic(
        workload, rounds=1, iterations=1
    )

    lanes = len(batch_records)
    volatile = ("wall_time_s",)
    mismatches = sum(
        1
        for a, b in zip(nodedup_records, batch_records)
        if {k: v for k, v in a.items() if k not in volatile}
        != {k: v for k, v in b.items() if k not in volatile}
    )
    ratio = nodedup_s / batch_s if batch_s else 0.0

    rows = [
        ("dedup off (every lane runs alone)", lanes, round(nodedup_s, 4),
         round(lanes / nodedup_s) if nodedup_s else 0),
        ("dedup on (followers restore a phase)", lanes, round(batch_s, 4),
         round(lanes / batch_s) if batch_s else 0),
    ]
    print_table(
        "E21 — phase sharing on the lockstep engine (runs/s)",
        ["engine path", "lanes", "wall s", "runs/s"],
        rows,
    )
    record(
        benchmark,
        experiment="E21",
        rows=rows,
        lanes=lanes,
        replicates=REPLICATES,
        speedup_dedup=round(ratio, 2),
        phase_restores=restores,
        mismatched_lanes=mismatches,
    )
    assert lanes == len(nodedup_records) == _campaign().run_count
    assert all(r["status"] == "ok" for r in batch_records)
    assert mismatches == 0, "deduplicated records must match every lane run"
    assert restores >= lanes // 2, "most lanes follow a leader's phase"
    assert ratio >= MIN_DEDUP_SPEEDUP, (
        f"phase sharing only {ratio:.2f}x faster than running every lane "
        f"(floor {MIN_DEDUP_SPEEDUP}x)"
    )
