"""End-to-end benchmark of the ``repro`` package, one workload per process.

Run from the repository root::

    python3 e2ebench/run.py --workload sweep_sync --seed 1 --seconds 30 --trace 0

The workloads are ``sweep_sync``, ``sweep_net`` and ``check`` (see
``README.md`` beside this file).  A run repeats its workload until
``--seconds`` are used up and reports medians over the repetitions.
Between repetitions it times the set-up in fresh interpreters; ``setup_s``
is the fastest of those probes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions: the traced ones run with spans wrapped
around the program's layer boundaries (see ``tracing.py``), and the run
reports the per-layer metrics plus the tracing overhead against the
untraced median.

Output: a table of every metric with its unit, a provenance line, and as
the last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also appends its full result, stamped
with provenance, to ``.e2ebench_out/history.jsonl``, and a traced run writes
every span to ``.e2ebench_out/<workload>-seed<seed>.spans.jsonl``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the program under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench_out"

sys.path.insert(0, str(SRC))

from tracing import SpanRecorder, install_program_spans  # noqa: E402
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

#: Every end-to-end metric: unit, and the workloads it is defined on.
END_TO_END = {
    "setup_s": ("s", ("sweep_sync", "sweep_net", "check")),
    "runs_per_s": ("runs/s", ("sweep_sync", "sweep_net", "check")),
    "read_s": ("s", ("sweep_sync",)),
    "states_per_s": ("states/s", ("check",)),
    "peak_rss_mb": ("MB", ("sweep_sync", "sweep_net", "check")),
    "fail_frac": ("ratio", ("sweep_sync", "sweep_net", "check")),
}

#: Span-measured per-layer metrics: metric -> (span name, "self_s" | "calls").
SPAN_LAYERS = {
    "spec.expand_s": ("spec.expand", "self_s"),
    "executor.self_s": ("executor.run_campaign", "self_s"),
    "engine.kernel_s": ("engine.kernel", "self_s"),
    "engine.kernel_runs": ("engine.kernel", "calls"),
    "store.append_s": ("store.append", "self_s"),
    "store.telemetry_flush_s": ("store.record_telemetry", "self_s"),
    "store.resume_scan_s": ("store.existing_run_ids", "self_s"),
    "aggregate.report_s": ("aggregate.build_report", "self_s"),
    "engine.async_s": ("engine.async", "self_s"),
    "engine.async_runs": ("engine.async", "calls"),
    "engine.dataplane_s": ("engine.dataplane", "self_s"),
    "engine.dataplane_runs": ("engine.dataplane", "calls"),
    "fast_network.build_s": ("fast_network.build", "self_s"),
    "fast_network.run_s": ("fast_network.run", "self_s"),
    "fast_network.report_s": ("fast_network.report", "self_s"),
    "dataplane.inject_s": ("dataplane.inject_slot", "self_s"),
    "dataplane.transmit_s": ("dataplane.step", "self_s"),
    "checker.compile_s": ("checker.compile", "self_s"),
    "vector.expand_s": ("vector.expand", "self_s"),
    "vector.invariants_s": ("vector.invariants", "self_s"),
    "visited.add_many_s": ("visited.add_many", "self_s"),
    "visited.contains_many_s": ("visited.contains_many", "self_s"),
}

#: Per-layer metrics counted by a span's ``tally`` (items handled per call).
TALLY_LAYERS = {
    "store.records_appended": "store.append",
    "store.telemetry_events": "store.record_telemetry",
}

#: Set-up probes after each repetition, and the fewest a run takes.
#: ``setup_s`` is the fastest probe: host noise only ever adds time, and
#: spreading the probes over the whole run gives it more chances to miss one.
PROBES_PER_REPETITION = 2
MIN_SETUP_PROBES = 12


def declared_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """End-to-end and per-layer metrics declared in ``BENCHMARK.json``: name -> unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple(
        {metric["name"]: metric["unit"] for metric in declared[section]}
        for section in ("end_to_end", "per_layer")
    )


# ----------------------------------------------------------------------
# set-up probes and provenance
# ----------------------------------------------------------------------
def probe_setup(workload: Workload, seed: int) -> float:
    """Import the program and build one repetition's inputs; return the seconds."""
    start = time.perf_counter()
    workload.import_program()
    workload.build(seed, 0, OUT / "probe")
    return time.perf_counter() - start


def setup_prober(args: argparse.Namespace) -> Callable[[], float]:
    """A callable timing one set-up in a fresh interpreter."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale, "--probe-setup",
    ]

    def probe() -> float:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        return float(done.stdout.strip().splitlines()[-1])

    return probe


def provenance() -> Dict[str, object]:
    """Commit, CPU count and interpreter/numpy versions behind a result."""
    import numpy

    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# the repetition loop
# ----------------------------------------------------------------------
def span_layers(
    recorder: SpanRecorder, first: int, tallies_before: Dict[str, int]
) -> Dict[str, float]:
    """Span-measured layer values of one traced repetition."""
    ledger = recorder.ledger(first)
    values: Dict[str, float] = {}
    for metric, (span, column) in SPAN_LAYERS.items():
        values[metric] = ledger.get(span, {}).get(column, 0)
    for metric, span in TALLY_LAYERS.items():
        values[metric] = recorder.tallies[span] - tallies_before.get(span, 0)
    return values


def repeat(
    workload: Workload,
    seed: int,
    seconds: float,
    recorder: SpanRecorder | None,
    probe: Callable[[], float],
) -> Tuple[List[Tuple[bool, Outcome]], List[float], float]:
    """Run repetitions until the next one would overrun ``seconds``.

    Set-up probes run between the repetitions, so they sample the whole
    run rather than one moment of it.  With a recorder, odd repetitions are
    traced and even ones are not, so the tracing overhead is measured on the
    same process and seeds.  Returns the repetitions, the set-up samples and
    the elapsed seconds.
    """
    min_reps = 3 if recorder is None else 4
    reps: List[Tuple[bool, Outcome]] = []
    setup: List[float] = []
    start = time.perf_counter()
    while True:
        index = len(reps)
        traced = recorder is not None and index % 2 == 1
        if traced:
            first, tallies = len(recorder.spans), dict(recorder.tallies)
            install_program_spans(recorder)
        try:
            outcome = workload.run(workload.build(seed, index, OUT), OUT)
        finally:
            if traced:
                recorder.unwrap()
        if traced:
            outcome.layers.update(span_layers(recorder, first, tallies))
        reps.append((traced, outcome))
        setup.extend(probe() for _ in range(PROBES_PER_REPETITION))
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(probe())
    return reps, setup, time.perf_counter() - start


def summarise(reps: List[Tuple[bool, Outcome]], setup: List[float]) -> Dict[str, float]:
    """Every end-to-end value of the run: medians over untraced repetitions,
    ``setup_s`` as the fastest set-up probe, and ``peak_rss_mb`` as the peak."""
    untraced = [outcome for traced, outcome in reps if not traced]
    values = {
        name: statistics.median(outcome.end_to_end[name] for outcome in untraced)
        for name in untraced[0].end_to_end
    }
    attempted = sum(outcome.attempted for _, outcome in reps)
    failed = sum(outcome.failed for _, outcome in reps)
    values["setup_s"] = min(setup)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["fail_frac"] = failed / attempted
    return values


def layer_summary(reps: List[Tuple[bool, Outcome]], names: List[str]) -> Dict[str, float]:
    """Per-layer values of ``names``: medians over traced repetitions, plus
    the overhead.  A layer the workload never enters reads 0."""
    traced = [outcome for was_traced, outcome in reps if was_traced]
    untraced = [outcome for was_traced, outcome in reps if not was_traced]
    values = {
        name: statistics.median(outcome.layers.get(name, 0) for outcome in traced)
        for name in names
        if name != "trace.overhead"
    }
    values["trace.overhead"] = (
        statistics.median(o.timed_s for o in traced)
        / statistics.median(o.timed_s for o in untraced)
        - 1.0
    )
    return values


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_ledger(recorder: SpanRecorder, reps: List[Tuple[bool, Outcome]]) -> None:
    traced = [outcome for was_traced, outcome in reps if was_traced]
    per_rep = len(traced)
    wall = statistics.mean(outcome.timed_s for outcome in traced)
    print(f"per-layer ledger (mean per traced repetition, timed wall {wall:.4f} s)")
    print(f"  {'span':<26} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self/wall':>9}")
    rows = sorted(recorder.ledger().items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        print(
            f"  {name:<26} {row['calls'] / per_rep:>9.0f} {row['total_s'] / per_rep:>10.4f} "
            f"{row['self_s'] / per_rep:>10.4f} {row['self_s'] / per_rep / wall:>9.1%}"
        )


def print_metrics(title: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--probe-setup", action="store_true",
                        help="time one set-up in this interpreter and print it")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.probe_setup:
        parser.error("--seconds is required")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.scale)
    if args.probe_setup:
        print(repr(probe_setup(workload, args.seed)))
        return 0

    workload.import_program()
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
    recorder = SpanRecorder(run_id) if args.trace else None
    reps, setup, elapsed = repeat(
        workload, args.seed, args.seconds, recorder, setup_prober(args)
    )
    end_to_end = summarise(reps, setup)
    attempted = sum(outcome.attempted for _, outcome in reps)
    failed = sum(outcome.failed for _, outcome in reps)
    stamp = provenance()

    traced_count = sum(traced for traced, _ in reps)
    print(
        f"e2ebench {args.workload} (seed {args.seed}, {args.scale}): {len(reps)} "
        f"repetitions ({traced_count} traced) in {elapsed:.1f} s"
    )
    print_metrics(
        "end-to-end (untraced repetitions)",
        {name: end_to_end[name] for name, (_, on) in END_TO_END.items() if args.workload in on},
        {name: unit for name, (unit, _) in END_TO_END.items()},
    )
    declared_e2e, declared_layers = declared_metrics()
    if recorder is not None:
        layers = layer_summary(reps, list(declared_layers))
        print_ledger(recorder, reps)
        print_metrics("per-layer (medians over traced repetitions)", layers, declared_layers)
        values, units = layers, declared_layers
        recorder.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        layers = {}
        values, units = end_to_end, declared_e2e
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for _, outcome in reps:
        for problem in outcome.problems:
            print(f"output check failed: {problem}", file=sys.stderr)
    print("provenance: " + json.dumps(stamp, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    with (OUT / "history.jsonl").open("a", encoding="utf-8") as history:
        history.write(json.dumps({
            **result, "provenance": stamp, "workload": args.workload,
            "seed": args.seed, "trace": args.trace, "scale": args.scale,
            "elapsed_s": elapsed, "setup_samples_s": setup,
            "end_to_end": end_to_end, "per_layer": layers,
            "repetitions": [
                {"traced": traced, "timed_s": outcome.timed_s, **outcome.end_to_end}
                for traced, outcome in reps
            ],
        }, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
