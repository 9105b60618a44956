"""Experiment E18 — campaign-engine throughput: 1 worker vs a worker pool.

The sharded experiment executor is the substrate every scaling PR builds on,
so its dispatch overhead and multi-worker scaling are tracked like any other
hot path.  The workload is a fixed ~160-run campaign (chain + random-DAG
families, PR + FR, two schedulers, four sizes, five replicates) executed into
a throwaway store, once inline (``workers=1``) and once through the process
pool.

Expected shape: both configurations complete all runs with zero failures and
identical stored metrics (determinism across the pool boundary).  On
multi-core hosts the pooled run shows a wall-clock speedup; on single-core CI
boxes it may not, so only the throughput numbers — not an ordering — are
recorded (``BENCH_baseline.json`` keeps the trajectory).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from benchmarks._harness import claim_experiment, print_table, record

claim_experiment("E18", __name__)

from repro.experiments.executor import run_campaign
from repro.experiments.spec import CampaignSpec
from repro.experiments.store import ResultStore

#: Pool size exercised by the multi-worker half of the workload.
POOL_WORKERS = 4


def _campaign() -> CampaignSpec:
    return CampaignSpec(
        name="bench-sweep",
        families=("chain", "random-dag"),
        algorithms=("pr", "fr"),
        schedulers=("greedy", "random"),
        sizes=(6, 10, 14, 18),
        replicates=5,
    )


def _churn_campaign() -> CampaignSpec:
    """Link-failure and mobility churn: repair phases dominate the run time."""
    return CampaignSpec(
        name="bench-churn",
        families=("grid", "random-dag", "geometric"),
        algorithms=("pr", "fr"),
        schedulers=("greedy", "random"),
        sizes=(12, 16),
        replicates=4,
        failure_models=[("link-failures", 3), ("mobility", 3)],
    )


def _sweep(workers: int, campaign: CampaignSpec = None) -> dict:
    """Run a benchmark campaign fresh and return the executor report dict."""
    root = Path(tempfile.mkdtemp(prefix=f"bench-sweep-{workers}w-"))
    try:
        with ResultStore(root) as store:
            report = run_campaign(campaign or _campaign(), store, workers=workers)
            assert report.ok == report.total, "benchmark campaign must be clean"
            return report.to_dict()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _measure_1worker() -> dict:
    return _sweep(1)


def _measure_pool() -> dict:
    return _sweep(POOL_WORKERS)


def _measure_churn() -> dict:
    """The churn campaign inline on the ``auto`` engine, from cold engine caches."""
    from repro.experiments.batch_engine import reset_kernel_caches

    reset_kernel_caches()
    return _sweep(1, _churn_campaign())


def test_e18_sweep_throughput(benchmark):
    def workload():
        return _measure_1worker(), _measure_pool()

    serial, pooled = benchmark.pedantic(workload, rounds=1, iterations=1)
    rows = [
        ("1 worker", serial["executed"], serial["wall_time_s"], serial["runs_per_second"]),
        (f"{POOL_WORKERS} workers", pooled["executed"], pooled["wall_time_s"],
         pooled["runs_per_second"]),
    ]
    print_table(
        "E18 — campaign executor throughput (runs/s)",
        ["configuration", "runs", "wall s", "runs/s"],
        rows,
    )
    speedup = (
        pooled["runs_per_second"] / serial["runs_per_second"]
        if serial["runs_per_second"] else 0.0
    )
    record(
        benchmark,
        experiment="E18",
        rows=rows,
        pool_workers=POOL_WORKERS,
        speedup_pool_vs_serial=round(speedup, 2),
    )
    assert serial["executed"] == pooled["executed"] == _campaign().run_count
    assert serial["ok"] == pooled["ok"] == serial["executed"]


def test_e18_churn_sweep(benchmark):
    report = benchmark.pedantic(_measure_churn, rounds=1, iterations=1)
    rows = [("link failures + mobility", report["executed"], report["wall_time_s"],
             report["runs_per_second"])]
    print_table(
        "E18-churn — churn campaign throughput, 1 worker (runs/s)",
        ["campaign", "runs", "wall s", "runs/s"],
        rows,
    )
    record(benchmark, experiment="E18-churn", rows=rows)
    assert report["executed"] == report["ok"] == _churn_campaign().run_count
