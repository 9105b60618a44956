"""Experiment E19 — exhaustive model-checking throughput (states/second).

The frontier engine is what turns the paper's universally-quantified claims
into machine-checked facts at scale, so its per-state cost is tracked like
any other hot path.  The workload exhaustively verifies the built-in
``acyclic`` + ``progress`` invariants for Full Reversal on the all-bad 4×6
grid — 126 534 reachable orientations, 673 524 transitions — once through
the vectorised frontier path (``vectorized="always"``: whole BFS rounds as
numpy column ops) and once through the scalar per-state loop
(``vectorized="never"``).  Both engines are differentially pinned to
identical counts (also asserted here), so their timing ratio is pure
engine speedup on the same verification.

The tracked ``bench_model_check`` baseline entry is the vectorised half;
``bench_model_check_scalar`` is the scalar twin on the same workload, so
the pair's ratio in BENCH_baseline.json is the batch engine's speedup.

A second pair covers PR's multi-action expansion, where every non-empty
subset of the sink set acts: PR on the all-bad ``tree_instance(14, seed=1)``
— 984 states, 39 327 transitions.  ``bench_model_check_pr_tree`` runs it
with ``vectorized="auto"`` (whatever engine the gate picks) and
``bench_model_check_pr_tree_scalar`` with ``"never"``, so an ``auto`` gate
that picks a losing engine shows up as a regression of the first entry.
For scale context (not CI-timed): the vectorised engine exhausts the 5×6
grid — 2 068 146 states — in a few seconds single-process, while the
legacy state-materialising :class:`~repro.exploration.state_space
.StateSpaceExplorer` (O(states × depth) path-tuple memory) falls over two
grid sizes earlier.
"""

from __future__ import annotations

from benchmarks._harness import claim_experiment, print_table, record

claim_experiment("E19", __name__)

from repro.core.full_reversal import FullReversal
from repro.core.pr import PartialReversal
from repro.exploration.checker import ModelChecker
from repro.topology.generators import grid_instance, tree_instance

#: The tracked workload: FR on the all-bad 4×6 grid, exhaustive.
GRID_ROWS, GRID_COLS = 4, 6
EXPECTED_STATES = 126_534
EXPECTED_TRANSITIONS = 673_524

#: The multi-action pair: PR on the all-bad 14-node tree, exhaustive.
PR_TREE_NODES, PR_TREE_SEED = 14, 1
PR_TREE_STATES = 984
PR_TREE_TRANSITIONS = 39_327


def _instance():
    return grid_instance(GRID_ROWS, GRID_COLS, oriented_towards_destination=False)


def _check(vectorized: str):
    report = ModelChecker(
        FullReversal(_instance()),
        max_states=10_000_000,
        check_acyclicity=True,
        check_progress=True,
        vectorized=vectorized,
    ).run()
    assert report.states_explored == EXPECTED_STATES, report
    assert report.transitions_explored == EXPECTED_TRANSITIONS, report
    assert report.all_predicates_hold and not report.truncated
    return report


def _measure() -> dict:
    """The tracked baseline workload: the vectorised frontier engine."""
    report = _check("always")
    assert report.vectorized
    return {
        "states": report.states_explored,
        "transitions": report.transitions_explored,
        "max_depth": report.max_depth,
        "wall_time_s": report.wall_time_s,
    }


def _measure_scalar() -> dict:
    """The scalar twin: same verification through the per-state loop."""
    report = _check("never")
    assert not report.vectorized
    return {"states": report.states_explored, "wall_time_s": report.wall_time_s}


def _check_pr_tree(vectorized: str):
    report = ModelChecker(
        PartialReversal(tree_instance(PR_TREE_NODES, seed=PR_TREE_SEED)),
        check_acyclicity=True,
        check_progress=True,
        vectorized=vectorized,
    ).run()
    assert report.states_explored == PR_TREE_STATES, report
    assert report.transitions_explored == PR_TREE_TRANSITIONS, report
    assert report.all_predicates_hold and not report.truncated
    return report


def _measure_pr_tree() -> dict:
    """The tracked multi-action workload, on the engine ``auto`` picks."""
    report = _check_pr_tree("auto")
    return {"states": report.states_explored, "wall_time_s": report.wall_time_s}


def _measure_pr_tree_scalar() -> dict:
    """The scalar twin of :func:`_measure_pr_tree`."""
    report = _check_pr_tree("never")
    assert not report.vectorized
    return {"states": report.states_explored, "wall_time_s": report.wall_time_s}


def test_e19_model_check_throughput(benchmark):
    import time

    def workload():
        start = time.perf_counter()
        vector = _measure()
        vector_s = time.perf_counter() - start
        start = time.perf_counter()
        _measure_scalar()
        scalar_s = time.perf_counter() - start
        return vector, vector_s, scalar_s

    vector, vector_s, scalar_s = benchmark.pedantic(workload, rounds=1, iterations=1)
    vector_rate = vector["states"] / vector_s if vector_s else 0.0
    scalar_rate = vector["states"] / scalar_s if scalar_s else 0.0
    rows = [
        ("vectorised frontier", vector["states"], f"{vector_s:.3f}", f"{vector_rate:,.0f}"),
        ("scalar frontier", vector["states"], f"{scalar_s:.3f}", f"{scalar_rate:,.0f}"),
    ]
    print_table(
        f"E19 — exhaustive FR check on the {GRID_ROWS}x{GRID_COLS} all-bad grid",
        ["engine", "states", "wall s", "states/s"],
        rows,
    )
    record(
        benchmark,
        experiment="E19",
        states=vector["states"],
        transitions=vector["transitions"],
        max_depth=vector["max_depth"],
        states_per_second=round(vector_rate),
        scalar_states_per_second=round(scalar_rate),
        speedup_vs_scalar=round(scalar_s / vector_s, 2) if vector_s else 0.0,
    )
    assert vector["transitions"] > vector["states"]
    # identical verification, so the ratio is pure engine speedup; keep a
    # conservative floor so a vector-path regression trips even on a busy box
    assert vector_s < scalar_s


def test_e19_pr_multi_action_auto_beats_scalar(benchmark):
    import time

    def workload():
        start = time.perf_counter()
        _measure_pr_tree()
        auto_s = time.perf_counter() - start
        start = time.perf_counter()
        _measure_pr_tree_scalar()
        return auto_s, time.perf_counter() - start

    auto_s, scalar_s = benchmark.pedantic(workload, rounds=1, iterations=1)
    print_table(
        f"E19 — exhaustive PR check on the all-bad {PR_TREE_NODES}-node tree",
        ["engine", "states", "wall s"],
        [("auto", PR_TREE_STATES, f"{auto_s:.3f}"),
         ("scalar", PR_TREE_STATES, f"{scalar_s:.3f}")],
    )
    record(
        benchmark,
        experiment="E19",
        pr_tree_states=PR_TREE_STATES,
        pr_tree_transitions=PR_TREE_TRANSITIONS,
        pr_tree_speedup_vs_scalar=round(scalar_s / auto_s, 2) if auto_s else 0.0,
    )
    # the engine `auto` picks must not lose to the scalar loop
    assert auto_s < scalar_s
