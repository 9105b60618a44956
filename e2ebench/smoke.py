"""Smoke test of the end-to-end benchmark: every workload at a tiny size.

Run from the repository root::

    python3 e2ebench/smoke.py

For each workload, untraced and traced, it runs ``run.py --scale tiny`` for
one second and checks that

* the run exits 0 and passes every output check;
* the last line is the result object, carrying every metric that
  ``BENCHMARK.json`` declares for that mode, each with its declared unit;
* the table names every end-to-end metric of the workload with its unit.

Across the traced runs, every declared per-layer metric must read non-zero
on some workload, which catches a misspelt name, and every check entry must
have its ``check.<entry>_s`` metric.  It also checks that the benchmark
refuses to run, without printing a result, from a directory holding only
``BENCHMARK.json`` and ``e2ebench/``.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import END_TO_END, OUT, declared_metrics  # noqa: E402
from workloads import CHECK_ENTRIES, WORKLOADS  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_workload(workload: str, trace: int, expected: Dict[str, str]) -> Dict[str, float]:
    """Run one workload and return its metric values."""
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, (
        f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}"
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == expected, f"{workload} trace={trace}: {emitted} != {expected}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    table = lines[:-1]
    for name, (unit, workloads) in END_TO_END.items():
        if workload in workloads:
            assert any(
                line.split()[:1] == [name] and line.split()[-1] == unit for line in table
            ), f"{workload}: the table lacks {name} [{unit}]"
    print(f"ok  {workload:<10} trace={trace}  {len(result['metrics'])} metrics")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def check_refuses_without_program() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run_bench(bare, "check", 0)
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print("ok  refuses to run without src/")


def main() -> int:
    end_to_end, per_layer = declared_metrics()
    missing = {f"check.{entry.name}_s" for entry in CHECK_ENTRIES} - set(per_layer)
    assert not missing, f"BENCHMARK.json lacks {sorted(missing)}"
    touched = set()
    for workload in WORKLOADS:
        check_workload(workload, 0, end_to_end)
        layers = check_workload(workload, 1, per_layer)
        touched.update(name for name, value in layers.items() if value)
    untouched = sorted(set(per_layer) - touched)
    assert not untouched, f"per-layer metrics read 0 on every workload: {untouched}"
    print(f"ok  all {len(per_layer)} per-layer metrics read non-zero somewhere")
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
