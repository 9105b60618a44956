"""Benchmark-regression gate: fail when tracked hot paths regress.

Compares freshly measured timings of the tracked workloads (see
``benchmarks._harness``) against the recorded ``BENCH_baseline.json`` and
exits non-zero when a *watched* workload is slower than baseline by more
than the tolerance::

    PYTHONPATH=src:. python -m benchmarks.check_regression \
        --current /tmp/bench_current.json --watch bench_simulation,bench_sweep_1worker

Raw wall-clock comparisons across machines are noisy, so two mitigations
apply:

* the comparison is **scale-normalised**: every watched workload's ratio is
  divided by the median current/baseline ratio over *all* tracked workloads,
  which cancels a uniformly slower (or faster) machine while still catching
  a workload that regressed relative to its peers;
* the tolerance (default 1.20 = a >20% regression fails) can be widened via
  ``--tolerance`` or the ``BENCH_TOLERANCE`` environment variable for known
  noisy runners.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def check(
    current: dict, baseline: dict, watch: list, tolerance: float
) -> list:
    """Return a list of human-readable failures (empty when all pass)."""
    ratios = {
        name: current[name] / baseline[name]
        for name in current
        if name in baseline and baseline[name] > 0
    }
    if not ratios:
        return ["no overlapping workloads between current and baseline"]
    scale = _median(ratios.values())
    failures = []
    for name in watch:
        if name not in ratios:
            failures.append(f"watched workload {name!r} missing from measurements")
            continue
        normalised = ratios[name] / scale
        print(
            f"{name}: {current[name]:.4f}s vs baseline {baseline[name]:.4f}s "
            f"(raw x{ratios[name]:.2f}, machine-normalised x{normalised:.2f}, "
            f"tolerance x{tolerance:.2f})"
        )
        if normalised > tolerance:
            failures.append(
                f"{name} regressed: normalised x{normalised:.2f} > x{tolerance:.2f}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="JSON produced by `python -m benchmarks._harness --output ...`")
    parser.add_argument("--baseline", default="BENCH_baseline.json")
    parser.add_argument("--watch",
                        default="bench_simulation,bench_sweep_1worker,"
                                "bench_churn_sweep,bench_async_quiescence,bench_batch_sweep,"
                                "bench_telemetry,bench_dataplane,"
                                "bench_dataplane_campaign,"
                                "bench_model_check,bench_model_check_pr_tree",
                        help="comma-separated workloads that must not regress")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("BENCH_TOLERANCE", "1.20")))
    args = parser.parse_args(argv)

    current = json.loads(Path(args.current).read_text())["current"]
    baseline = json.loads(Path(args.baseline).read_text())["current"]
    watch = [name.strip() for name in args.watch.split(",") if name.strip()]

    failures = check(current, baseline, watch, args.tolerance)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        print("benchmark regression gate: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
