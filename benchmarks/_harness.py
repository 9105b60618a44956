"""Shared helpers for the benchmark harness.

Every benchmark module reproduces one experiment from DESIGN.md (E1–E17).
Because the paper is a theory paper with no numeric tables, the "result" of
each experiment is either a universally-quantified check (reported as
``checked``/``violations`` counts in ``extra_info``) or a measured series
(reported as rows printed to stdout and attached to ``extra_info``).

Run with::

    pytest benchmarks/ --benchmark-only

The ``-s`` flag additionally shows the printed experiment tables.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: Experiment IDs claimed by benchmark modules (``claim_experiment``), so a
#: new module cannot silently reuse a taken ID.  The data-plane workload
#: landing as "E21" while ``bench_batch`` already reported E21 is exactly the
#: collision this guards against (it is E23; E21/E22 belong to
#: ``bench_batch``/``bench_telemetry``).
_EXPERIMENT_CLAIMS: dict = {}


def claim_experiment(experiment_id: str, module: str) -> str:
    """Register ``experiment_id`` as owned by ``module``; reject duplicates.

    Called at import time by each benchmark module for every base experiment
    ID it reports (variant suffixes like ``E20-lossy`` share the module's
    base claim).  Re-claiming from the same module is a no-op, so repeated
    imports under pytest stay quiet; a claim from a *different* module raises.
    """
    owner = _EXPERIMENT_CLAIMS.get(experiment_id)
    if owner is not None and owner != module:
        raise ValueError(
            f"experiment ID {experiment_id!r} is already claimed by {owner}; "
            f"{module} must use a fresh ID"
        )
    _EXPERIMENT_CLAIMS[experiment_id] = module
    return experiment_id


def claimed_experiments() -> dict:
    """A copy of the current ID → module claim table (for tests)."""
    return dict(_EXPERIMENT_CLAIMS)


def record(benchmark, **info) -> None:
    """Attach experiment outputs to the benchmark record and echo them."""
    for key, value in info.items():
        benchmark.extra_info[key] = value


def print_table(title: str, headers, rows) -> None:
    """Print a small fixed-width table (the 'paper row' output of an experiment)."""
    rows = [tuple(row) for row in rows]
    widths = []
    for i, header in enumerate(headers):
        cell_widths = [len(str(row[i])) for row in rows] if rows else [0]
        widths.append(max(len(str(header)), *cell_widths))
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


# ----------------------------------------------------------------------
# perf-trajectory baseline (BENCH_baseline.json)
# ----------------------------------------------------------------------
def _baseline_workloads():
    """The timed workloads tracked across PRs, keyed by benchmark module."""
    from benchmarks.bench_async import _measure as _measure_async
    from benchmarks.bench_batch import _measure_batch, _measure_nodedup
    from benchmarks.bench_dataplane import _measure_campaign as _measure_dataplane_campaign
    from benchmarks.bench_dataplane import _measure_dataplane
    from benchmarks.bench_dummy_steps import _measure
    from benchmarks.bench_faults import _measure_armed as _measure_faults
    from benchmarks.bench_model_check import _measure as _measure_model_check
    from benchmarks.bench_model_check import _measure_pr_tree as _measure_model_check_pr_tree
    from benchmarks.bench_simulation import _check_all_families
    from benchmarks.bench_sweep import _measure_1worker, _measure_churn, _measure_pool
    from benchmarks.bench_telemetry import _measure_enabled as _measure_telemetry
    from benchmarks.bench_worst_case import _fr_sweep, _pr_worst_orientation_sweep

    return {
        "bench_simulation": _check_all_families,
        "bench_worst_case_fr_sweep": lambda: _fr_sweep()[0],
        "bench_worst_case_pr_exhaustive": _pr_worst_orientation_sweep,
        "bench_dummy_steps": _measure,
        "bench_sweep_1worker": _measure_1worker,
        "bench_sweep_pool": _measure_pool,
        # link-failure + mobility repair phases on the auto engine, the churn
        # layer no other workload reaches
        "bench_churn_sweep": _measure_churn,
        # the model checker's compiled loop: FR on one-word signatures and
        # PR's multi-action expansion
        "bench_model_check": _measure_model_check,
        "bench_model_check_pr_tree": _measure_model_check_pr_tree,
        "bench_async_quiescence": _measure_async,
        # the batch pair shares one workload: their timing ratio is what
        # phase sharing buys over running every lane alone
        "bench_batch_sweep": _measure_batch,
        "bench_batch_sweep_nodedup": _measure_nodedup,
        # same workload again inside a telemetry session; drift against
        # bench_batch_sweep is the enabled-path instrumentation overhead
        "bench_telemetry": _measure_telemetry,
        # >1M packets through the SoA data-plane engine on a converged grid
        "bench_dataplane": _measure_dataplane,
        # 32 small churning data-plane scenarios: per-slot call overhead and
        # network construction, where the flood measures packet volume
        "bench_dataplane_campaign": _measure_dataplane_campaign,
        # a pooled sweep with the chaos plane armed but inert: drift against
        # bench_sweep_pool is the injection/heartbeat/CRC overhead
        "bench_faults": _measure_faults,
    }


def measure_baseline(repeats: int = 3) -> dict:
    """Time every tracked workload (best of ``repeats``) and return seconds.

    Rounded to microseconds: the kernel-engine workloads run in fractions of
    a millisecond, where the old 4-decimal rounding quantum (0.1 ms) was a
    double-digit percentage of the measurement and made the CI regression
    gate flap on quantisation alone.
    """
    timings = {}
    for name, workload in _baseline_workloads().items():
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            workload()
            best = min(best, time.perf_counter() - start)
        timings[name] = round(best, 6)
    return timings


def main(argv=None) -> None:
    """Record the tracked workload timings to a JSON file.

    ``python -m benchmarks._harness --output BENCH_baseline.json`` writes a
    fresh record; with ``--merge-seed seed.json`` the previously measured seed
    timings are folded in alongside, with per-workload speedups.
    """
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--output", default="BENCH_baseline.json")
    parser.add_argument("--label", default="current")
    parser.add_argument("--merge-seed", default=None,
                        help="JSON file with seed timings to record alongside")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    timings = measure_baseline(repeats=args.repeats)
    payload = {args.label: timings}
    if args.merge_seed:
        seed = json.loads(Path(args.merge_seed).read_text())
        seed_timings = seed.get("seed", seed)
        payload["seed"] = seed_timings
        payload["speedup_vs_seed"] = {
            name: round(seed_timings[name] / timings[name], 2)
            for name in timings
            if name in seed_timings and timings[name] > 0
        }
    Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
