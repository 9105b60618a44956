"""Experiment E19 — exhaustive model-checking throughput (states/second).

The model checker is what turns the paper's universally-quantified claims
into machine-checked facts at scale, so its per-state cost is tracked like
any other hot path.  The workload exhaustively verifies the built-in
``acyclic`` + ``progress`` invariants for Full Reversal on the all-bad 4×6
grid — 126 534 reachable orientations, 673 524 transitions — through the
checker's one compiled loop (whole BFS rounds as numpy column ops).  Its
counts are asserted exactly, and the loop is pinned to the reference
explorer in ``tests/test_model_check_differential.py``.

A second workload covers PR's multi-action expansion, where every non-empty
subset of the sink set acts: PR on the all-bad ``tree_instance(14, seed=1)``
— 984 states, 39 327 transitions.  The tracked
baseline entries are ``bench_model_check`` and
``bench_model_check_pr_tree``.  For scale context (not CI-timed): the
compiled loop exhausts the 5×6 grid — 2 068 146 states — in a few seconds,
while the state-materialising :class:`~repro.exploration.state_space
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


def _check():
    report = ModelChecker(
        FullReversal(_instance()),
        max_states=10_000_000,
        check_acyclicity=True,
        check_progress=True,
    ).run()
    assert report.states_explored == EXPECTED_STATES, report
    assert report.transitions_explored == EXPECTED_TRANSITIONS, report
    assert report.all_predicates_hold and not report.truncated
    assert report.vectorized
    return report


def _measure() -> dict:
    """The tracked baseline workload."""
    report = _check()
    return {
        "states": report.states_explored,
        "transitions": report.transitions_explored,
        "max_depth": report.max_depth,
        "wall_time_s": report.wall_time_s,
    }


def _measure_pr_tree() -> dict:
    """The tracked multi-action workload."""
    report = ModelChecker(
        PartialReversal(tree_instance(PR_TREE_NODES, seed=PR_TREE_SEED)),
        check_acyclicity=True,
        check_progress=True,
    ).run()
    assert report.states_explored == PR_TREE_STATES, report
    assert report.transitions_explored == PR_TREE_TRANSITIONS, report
    assert report.all_predicates_hold and not report.truncated
    assert report.vectorized
    return {"states": report.states_explored, "wall_time_s": report.wall_time_s}


def test_e19_model_check_throughput(benchmark):
    import time

    def workload():
        start = time.perf_counter()
        grid = _measure()
        grid_s = time.perf_counter() - start
        start = time.perf_counter()
        _measure_pr_tree()
        return grid, grid_s, time.perf_counter() - start

    grid, grid_s, tree_s = benchmark.pedantic(workload, rounds=1, iterations=1)
    grid_rate = grid["states"] / grid_s if grid_s else 0.0
    tree_rate = PR_TREE_STATES / tree_s if tree_s else 0.0
    print_table(
        "E19 — exhaustive checks on the compiled loop",
        ["workload", "states", "wall s", "states/s"],
        [
            (f"FR {GRID_ROWS}x{GRID_COLS} all-bad grid", grid["states"],
             f"{grid_s:.3f}", f"{grid_rate:,.0f}"),
            (f"PR all-bad {PR_TREE_NODES}-node tree", PR_TREE_STATES,
             f"{tree_s:.3f}", f"{tree_rate:,.0f}"),
        ],
    )
    record(
        benchmark,
        experiment="E19",
        states=grid["states"],
        transitions=grid["transitions"],
        max_depth=grid["max_depth"],
        states_per_second=round(grid_rate),
        pr_tree_states=PR_TREE_STATES,
        pr_tree_transitions=PR_TREE_TRANSITIONS,
        pr_tree_states_per_second=round(tree_rate),
    )
    assert grid["transitions"] > grid["states"]
