"""Unit tests for work accounting and the worst-case sweep (experiments E9, E10, E12)."""

from __future__ import annotations

import pytest

from repro.analysis.statistics import quadratic_fit_r2
from repro.analysis.work import (
    compare_algorithms,
    count_reversals,
    worst_case_sweep,
)
from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.schedulers.greedy import GreedyScheduler
from repro.schedulers.sequential import SequentialScheduler
from repro.topology.generators import star_instance, worst_case_chain_instance


class TestCountReversals:
    def test_summary_fields(self, bad_chain):
        summary = count_reversals(OneStepPartialReversal(bad_chain), SequentialScheduler())
        assert summary.converged
        assert summary.destination_oriented
        assert summary.node_steps > 0
        assert summary.edge_reversals > 0
        assert summary.algorithm == "OneStepPR"

    def test_per_node_counts_sum_to_totals(self, bad_grid):
        summary = count_reversals(OneStepPartialReversal(bad_grid), SequentialScheduler())
        assert sum(summary.per_node_steps.values()) == summary.node_steps
        assert sum(summary.per_node_reversals.values()) == summary.edge_reversals

    def test_already_oriented_instance_needs_no_work(self, good_chain):
        summary = count_reversals(PartialReversal(good_chain), GreedyScheduler())
        assert summary.node_steps == 0
        assert summary.edge_reversals == 0

    def test_dummy_steps_counted_for_newpr(self):
        # star with the destination at the centre: every leaf's second step
        # (if scheduled) would be a dummy; at least the convergence run has none,
        # so build a graph with an initial source to force one dummy step.
        from repro.core.graph import LinkReversalInstance

        instance = LinkReversalInstance.from_directed_edges(
            nodes=["d", "x", "y"], destination="d", edges=[("d", "x"), ("y", "x")]
        )
        summary = count_reversals(NewPartialReversal(instance), SequentialScheduler())
        assert summary.dummy_steps >= 1

    def test_pr_has_no_dummy_steps(self, bad_grid):
        summary = count_reversals(OneStepPartialReversal(bad_grid), SequentialScheduler())
        assert summary.dummy_steps == 0

    def test_total_work_property(self, bad_chain):
        summary = count_reversals(FullReversal(bad_chain), GreedyScheduler())
        assert summary.total_work == summary.node_steps


class TestCompareAlgorithms:
    def test_all_default_algorithms_present(self, bad_chain):
        results = compare_algorithms(bad_chain, GreedyScheduler)
        assert set(results) == {"PR", "OneStepPR", "NewPR", "FR"}

    def test_all_converge_and_orient(self, bad_grid):
        results = compare_algorithms(bad_grid, GreedyScheduler)
        for summary in results.values():
            assert summary.converged
            assert summary.destination_oriented

    def test_pr_never_worse_than_fr(self, worst_chain):
        results = compare_algorithms(worst_chain, GreedyScheduler)
        assert results["PR"].node_steps <= results["FR"].node_steps

    def test_pr_and_onestep_do_identical_work(self, bad_grid):
        """PR and OneStepPR perform the same reversals, only grouped differently."""
        results = compare_algorithms(bad_grid, SequentialScheduler)
        assert results["PR"].node_steps == results["OneStepPR"].node_steps
        assert results["PR"].edge_reversals == results["OneStepPR"].edge_reversals

    def test_newpr_step_count_at_least_onestep(self, bad_grid):
        """Experiment E12: dummy steps can only add work."""
        results = compare_algorithms(bad_grid, SequentialScheduler)
        assert results["NewPR"].node_steps >= results["OneStepPR"].node_steps

    def test_newpr_reverses_same_edges_as_pr(self, worst_chain):
        results = compare_algorithms(worst_chain, SequentialScheduler)
        assert results["NewPR"].edge_reversals == results["OneStepPR"].edge_reversals

    def test_custom_algorithm_map(self, bad_chain):
        results = compare_algorithms(
            bad_chain, GreedyScheduler, algorithms={"only-fr": FullReversal}
        )
        assert list(results) == ["only-fr"]


class TestWorstCaseSweep:
    """Experiment E10: the Θ(n_b²) worst-case total work bound."""

    def test_fr_work_is_exactly_quadratic_on_chain(self):
        series = worst_case_sweep(range(1, 9), FullReversal, GreedyScheduler)
        for n_bad, steps in series:
            assert steps == n_bad * (n_bad + 1) // 2

    def test_fr_quadratic_fit(self):
        series = worst_case_sweep(range(1, 12), FullReversal, GreedyScheduler)
        xs = [float(n) for n, _ in series]
        ys = [float(s) for _, s in series]
        coefficients, r2 = quadratic_fit_r2(xs, ys)
        assert r2 > 0.999
        assert coefficients[0] > 0.3  # leading coefficient close to 1/2

    def test_pr_work_on_away_chain_is_linear(self):
        """On this particular family PR needs only one step per bad node."""
        series = worst_case_sweep(range(1, 9), OneStepPartialReversal, GreedyScheduler)
        for n_bad, steps in series:
            assert steps == n_bad

    def test_star_best_case_single_round(self):
        instance = star_instance(8, destination_is_center=True)
        summary = count_reversals(PartialReversal(instance), GreedyScheduler())
        assert summary.node_steps == 8  # one step per leaf
        assert summary.edge_reversals == 8

    def test_work_scales_with_bad_nodes_not_total_nodes(self):
        """Adding already-oriented nodes does not add work."""
        small = worst_case_chain_instance(4)
        summary_small = count_reversals(FullReversal(small), GreedyScheduler())
        # build the same bad chain with an extra oriented tail hanging off the destination
        from repro.core.graph import LinkReversalInstance

        nodes = list(small.nodes) + [100, 101]
        edges = list(small.initial_edges) + [(100, 0), (101, 100)]
        extended = LinkReversalInstance(tuple(nodes), 0, tuple(edges))
        summary_ext = count_reversals(FullReversal(extended), GreedyScheduler())
        assert summary_ext.node_steps == summary_small.node_steps
