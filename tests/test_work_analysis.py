"""Unit tests for work accounting and the worst-case chain (experiments E9, E10, E12)."""

from __future__ import annotations

import pytest

from repro.analysis.statistics import quadratic_fit_r2
from repro.analysis.work import compare_algorithms, count_reversals
from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.experiments.runner import run_scenarios
from repro.experiments.spec import CampaignSpec
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


#: E10's range of bad-node counts, n_b = 1…MAX_BAD.
MAX_BAD = 29


@pytest.fixture(scope="module")
def chain_records():
    """Greedy records of the chain family at size n_b + 1, per algorithm."""
    campaign = CampaignSpec(
        name="e10", families=("chain",), algorithms=("fr", "onestep-pr"),
        sizes=range(2, MAX_BAD + 2),
    )
    records = {"fr": [], "onestep-pr": []}
    for record in run_scenarios(campaign.expand()):
        assert record["status"] == "ok"
        records[record["algorithm"]].append((record["size"] - 1, record["node_steps"]))
    return records


class TestWorstCaseSweep:
    """Experiment E10: the Θ(n_b²) worst-case total work bound, read from
    ``chain`` campaign records."""

    @pytest.mark.parametrize(
        "algorithm, automaton_class",
        [("fr", FullReversal), ("onestep-pr", OneStepPartialReversal)],
    )
    def test_records_match_the_object_level_runs(
        self, chain_records, algorithm, automaton_class
    ):
        # the chain family at size n_b + 1 is the worst-case chain, and its
        # compiled greedy record counts the object-level run's steps
        expected = [
            (n_bad, count_reversals(
                automaton_class(worst_case_chain_instance(n_bad)), GreedyScheduler()
            ).node_steps)
            for n_bad in range(1, MAX_BAD + 1)
        ]
        assert chain_records[algorithm] == expected

    def test_fr_work_is_exactly_quadratic_on_chain(self, chain_records):
        assert chain_records["fr"] == [
            (n_bad, n_bad * (n_bad + 1) // 2) for n_bad in range(1, MAX_BAD + 1)
        ]

    def test_fr_quadratic_fit(self, chain_records):
        xs = [float(n) for n, _ in chain_records["fr"]]
        ys = [float(s) for _, s in chain_records["fr"]]
        coefficients, r2 = quadratic_fit_r2(xs, ys)
        assert r2 > 0.999
        assert coefficients[0] > 0.3  # leading coefficient close to 1/2

    def test_pr_work_on_away_chain_is_linear(self, chain_records):
        """On this particular family PR needs only one step per bad node."""
        assert chain_records["onestep-pr"] == [
            (n_bad, n_bad) for n_bad in range(1, MAX_BAD + 1)
        ]

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
