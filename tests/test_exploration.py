"""Unit tests for the state-space explorer, random-walk checker and graph enumeration."""

from __future__ import annotations

import pytest

from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.exploration.enumerate_graphs import (
    all_connected_dag_instances,
    all_dag_instances,
    sample_dag_instances,
)
from repro.exploration.random_walk import RandomWalkChecker
from repro.exploration.state_space import StateSpaceExplorer, explore_and_check
from repro.verification.invariants import newpr_invariant_checks, pr_invariant_checks
from repro.verification.acyclicity import is_acyclic


class TestEnumeration:
    def test_count_for_three_nodes(self):
        # three candidate edges, all subsets with at least one edge: 2^3 - 1
        instances = list(all_dag_instances(3))
        assert len(instances) == 7

    def test_all_are_dags(self):
        assert all(i.is_initially_acyclic() for i in all_dag_instances(4))

    def test_connected_filter(self):
        connected = list(all_connected_dag_instances(4))
        assert connected
        assert all(i.is_connected() for i in connected)

    def test_destination_index(self):
        instances = list(all_dag_instances(3, destination_index=2))
        assert all(i.destination == 2 for i in instances)

    def test_destination_index_out_of_range(self):
        with pytest.raises(ValueError):
            list(all_dag_instances(3, destination_index=5))

    def test_min_edges_filter(self):
        instances = list(all_dag_instances(3, min_edges=3))
        assert all(i.edge_count >= 3 for i in instances)

    def test_sampling_produces_requested_count(self):
        instances = list(sample_dag_instances(6, count=5, seed=1))
        assert len(instances) == 5
        assert all(i.is_connected() for i in instances)

    def test_sampling_reproducible(self):
        a = [i.initial_edges for i in sample_dag_instances(6, count=3, seed=9)]
        b = [i.initial_edges for i in sample_dag_instances(6, count=3, seed=9)]
        assert a == b

    def test_sampling_invalid_probability(self):
        with pytest.raises(ValueError):
            list(sample_dag_instances(5, count=1, edge_probability=0.0))

    def test_count_for_four_nodes(self):
        # six candidate edges: 2^6 - 1 non-empty subsets
        assert len(list(all_dag_instances(4))) == 63

    @pytest.mark.parametrize("num_nodes, expected", [(2, 1), (3, 4), (4, 38)])
    def test_connected_count_matches_labelled_connected_graphs(self, num_nodes, expected):
        # OEIS A001187: connected labelled graphs on n nodes
        assert len(list(all_connected_dag_instances(num_nodes))) == expected

    def test_num_nodes_must_be_positive(self):
        with pytest.raises(ValueError):
            list(all_dag_instances(0))

    def test_edges_follow_the_reference_order_and_are_distinct(self):
        instances = list(all_dag_instances(4))
        assert all(i.nodes == (0, 1, 2, 3) for i in instances)
        assert all(u < v for i in instances for u, v in i.initial_edges)
        assert len({i.initial_edges for i in instances}) == len(instances)

    def test_sampling_without_connectivity_filter(self):
        instances = list(
            sample_dag_instances(6, count=4, seed=2, require_connected=False)
        )
        assert len(instances) == 4
        assert all(i.edge_count >= 1 for i in instances)

    def test_sampling_gives_up_when_connectivity_is_unreachable(self):
        with pytest.raises(RuntimeError, match="could only generate 0 of 1"):
            list(sample_dag_instances(8, count=1, seed=0, edge_probability=0.01))


class TestStateSpaceExplorer:
    def test_explores_whole_space_of_small_chain(self, bad_chain):
        report = StateSpaceExplorer(NewPartialReversal(bad_chain)).explore()
        assert report.states_explored > 1
        assert not report.truncated
        assert report.quiescent_states >= 1

    def test_invariants_hold_on_all_reachable_newpr_states(self):
        for instance in all_connected_dag_instances(4):
            report = explore_and_check(
                NewPartialReversal(instance), newpr_invariant_checks()
            )
            assert report.all_predicates_hold, str(report)

    def test_invariants_hold_on_all_reachable_pr_states(self):
        checked = 0
        for instance in all_connected_dag_instances(4):
            report = explore_and_check(PartialReversal(instance), pr_invariant_checks())
            assert report.all_predicates_hold, str(report)
            checked += 1
        assert checked > 0

    def test_acyclicity_on_all_reachable_states_of_all_algorithms(self):
        predicates = {"acyclic": is_acyclic}
        for instance in all_connected_dag_instances(4):
            for automaton_class in (NewPartialReversal, OneStepPartialReversal, FullReversal):
                report = explore_and_check(automaton_class(instance), predicates)
                assert report.all_predicates_hold, str(report)

    def test_truncation(self, bad_grid):
        report = StateSpaceExplorer(NewPartialReversal(bad_grid), max_states=3).explore()
        assert report.truncated
        assert report.states_explored <= 3

    def test_single_action_mode_is_smaller_or_equal(self, bad_grid):
        full = StateSpaceExplorer(PartialReversal(bad_grid), max_states=50_000).explore()
        single = StateSpaceExplorer(
            PartialReversal(bad_grid), max_states=50_000, use_single_actions_only=True
        ).explore()
        assert single.transitions_explored <= full.transitions_explored

    def test_failure_reports_carry_a_path(self, diamond):
        # a predicate that is false on any non-initial state
        initial_signature = NewPartialReversal(diamond).initial_state().signature()
        report = explore_and_check(
            NewPartialReversal(diamond),
            {"is-initial": lambda s: s.signature() == initial_signature},
        )
        assert not report.all_predicates_hold
        assert all(len(f.path) >= 1 for f in report.failures)

    def test_failures_carry_replayable_traces(self, diamond):
        # PredicateFailure.trace is a full counterexample: replaying its
        # actions through the automaton reproduces the violating state
        initial_signature = NewPartialReversal(diamond).initial_state().signature()
        report = explore_and_check(
            NewPartialReversal(diamond),
            {"is-initial": lambda s: s.signature() == initial_signature},
        )
        for failure in report.failures:
            assert failure.trace.predicate_name == "is-initial"
            assert failure.trace.actions == failure.path
            execution = failure.trace.replay(NewPartialReversal(diamond))
            execution.validate()
            assert execution.final_state.signature() != initial_signature

    def test_report_string(self, bad_chain):
        report = StateSpaceExplorer(NewPartialReversal(bad_chain)).explore()
        text = str(report)
        assert "states" in text and "transitions" in text

    def test_report_string_exact_format(self, bad_chain):
        report = StateSpaceExplorer(NewPartialReversal(bad_chain)).explore()
        assert str(report) == (
            f"[NewPR] {report.states_explored} states, "
            f"{report.transitions_explored} transitions, "
            f"depth {report.max_depth}, "
            f"{report.quiescent_states} quiescent — OK"
        )

    def test_report_string_failure_branch(self, diamond):
        report = explore_and_check(
            NewPartialReversal(diamond), {"never": lambda s: False}
        )
        text = str(report)
        assert f"{len(report.failures)} FAILURE(S)" in text
        assert "(truncated)" not in text

    def test_report_string_truncated_branch(self, bad_grid):
        report = StateSpaceExplorer(NewPartialReversal(bad_grid), max_states=2).explore()
        assert report.truncated
        assert str(report).endswith("(truncated)")


class TestRandomWalkChecker:
    def test_all_walks_pass_for_true_invariants(self, random_dag):
        checker = RandomWalkChecker(
            NewPartialReversal(random_dag),
            newpr_invariant_checks(),
            walks=5,
            base_seed=3,
        )
        report = checker.check()
        assert report.all_predicates_hold
        assert report.walks == 5
        assert report.states_checked > 0

    def test_pr_invariants_over_random_walks(self, bad_grid):
        checker = RandomWalkChecker(
            OneStepPartialReversal(bad_grid), pr_invariant_checks(), walks=5, base_seed=0
        )
        assert checker.check().all_predicates_hold

    def test_failures_recorded_for_false_predicate(self, bad_chain):
        checker = RandomWalkChecker(
            NewPartialReversal(bad_chain),
            {"never": lambda s: False},
            walks=2,
            base_seed=0,
        )
        report = checker.check()
        assert not report.all_predicates_hold
        assert report.failures

    def test_report_string(self, bad_chain):
        checker = RandomWalkChecker(
            NewPartialReversal(bad_chain), {}, walks=1, base_seed=0
        )
        assert "walks" in str(checker.check())
