"""Experiment E10 — the Θ(n_b²) worst-case total-reversal bound.

Paper context (Section 1, quoting Busch & Tirthapura): the worst-case total
number of reversals of both FR and PR is Θ(n_b²), where n_b is the number of
nodes with no initial path to the destination.

Harness:
* FR on the "all edges away from the destination" chain — the classical
  quadratic family, the ``chain`` campaign family at size n_b + 1, run
  greedily as one scenario per size; we fit a quadratic and report the R².
* PR on the same family — linear there (each bad node steps once), which is
  exactly why the shared worst-case bound is called "surprising and
  counter-intuitive" by the paper.
* PR worst-case search — over every initial orientation of a path (exhaustive
  for small n_b) we report the maximum PR work observed, showing it grows
  faster than linearly in n_b.

Expected shape: FR quadratic fit with R² ≈ 1 and positive leading coefficient;
PR linear on the standard family; the PR worst-case-orientation series grows
superlinearly.
"""

from __future__ import annotations

from benchmarks._harness import claim_experiment, print_table, record

claim_experiment("E10", __name__)

from repro.analysis.statistics import quadratic_fit_r2
from repro.analysis.work import count_reversals
from repro.core.graph import LinkReversalInstance
from repro.core.one_step_pr import OneStepPartialReversal
from repro.experiments.runner import execute_scenario
from repro.experiments.spec import ScenarioSpec
from repro.schedulers.greedy import GreedyScheduler


def _chain_series(algorithm):
    """``[(n_b, node steps)]`` of greedy runs on the chain with n_b bad nodes."""
    return [
        (n_bad, execute_scenario(
            ScenarioSpec("chain", n_bad + 1, algorithm, "greedy", 0, 0)
        )["node_steps"])
        for n_bad in range(1, 17)
    ]


def _fr_sweep():
    series = _chain_series("fr")
    xs = [float(n) for n, _ in series]
    ys = [float(s) for _, s in series]
    coefficients, r2 = quadratic_fit_r2(xs, ys)
    return series, coefficients, r2


def test_e10_fr_worst_case_is_quadratic(benchmark):
    series, coefficients, r2 = benchmark.pedantic(_fr_sweep, rounds=1, iterations=1)
    print_table(
        "E10 — FR total node steps on the worst-case chain",
        ["n_bad", "total steps"],
        series,
    )
    print(f"quadratic fit: {coefficients[0]:.3f}·x² + {coefficients[1]:.3f}·x + "
          f"{coefficients[2]:.3f}   (R² = {r2:.5f})")
    record(benchmark, experiment="E10-FR", series=series, leading=coefficients[0], r2=r2)
    assert r2 > 0.999
    assert coefficients[0] > 0.3


def _pr_sweep():
    return _chain_series("onestep-pr")


def test_e10_pr_on_same_family_is_linear(benchmark):
    series = benchmark.pedantic(_pr_sweep, rounds=1, iterations=1)
    print_table(
        "E10 — PR total node steps on the same chain family",
        ["n_bad", "total steps"],
        series,
    )
    record(benchmark, experiment="E10-PR", series=series)
    assert all(steps == n_bad for n_bad, steps in series)


def _pr_worst_orientation_sweep():
    """For each path length, the worst initial orientation for PR (exhaustive)."""
    import itertools

    rows = []
    for n_bad in range(2, 8):
        nodes = tuple(range(n_bad + 1))
        pairs = [(i, i + 1) for i in range(n_bad)]
        worst = 0
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            edges = tuple(
                (u, v) if bit == 0 else (v, u) for (u, v), bit in zip(pairs, bits)
            )
            instance = LinkReversalInstance(nodes, 0, edges)
            summary = count_reversals(OneStepPartialReversal(instance), GreedyScheduler())
            worst = max(worst, summary.node_steps)
        rows.append((n_bad, worst))
    return rows


def test_e10_pr_worst_initial_orientation_grows_superlinearly(benchmark):
    rows = benchmark.pedantic(_pr_worst_orientation_sweep, rounds=1, iterations=1)
    print_table(
        "E10 — worst-case PR work over all initial path orientations",
        ["n_bad", "max PR steps"],
        rows,
    )
    record(benchmark, experiment="E10-PR-worst", rows=rows)
    # superlinear growth: the per-node amortised work increases with n_bad
    first_ratio = rows[0][1] / rows[0][0]
    last_ratio = rows[-1][1] / rows[-1][0]
    assert last_ratio > first_ratio
