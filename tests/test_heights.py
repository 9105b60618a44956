"""Unit tests for the Gafni–Bertsekas height-based formulations (experiment E14)."""

from __future__ import annotations

import pytest

from repro.analysis.work import WorkObserver
from repro.automata.executions import run
from repro.core.base import Reverse
from repro.core.full_reversal import FullReversal
from repro.core.heights import (
    GBFullReversalHeights,
    GBPartialReversalHeights,
    HeightState,
    HeightValue,
    full_reversal_height,
    partial_reversal_height,
)
from repro.core.one_step_pr import OneStepPartialReversal
from repro.exploration.enumerate_graphs import all_connected_dag_instances
from repro.schedulers import make_scheduler
from repro.schedulers.random_scheduler import RandomScheduler
from repro.schedulers.sequential import SequentialScheduler


class TestInitialHeights:
    def test_fr_initial_orientation_matches_instance(self, bad_chain):
        state = GBFullReversalHeights(bad_chain).initial_state()
        assert set(state.directed_edges()) == set(bad_chain.initial_edges)

    def test_pr_initial_orientation_matches_instance(self, bad_chain):
        state = GBPartialReversalHeights(bad_chain).initial_state()
        assert set(state.directed_edges()) == set(bad_chain.initial_edges)

    def test_initial_orientation_matches_on_random_dag(self, random_dag):
        for automaton_class in (GBFullReversalHeights, GBPartialReversalHeights):
            state = automaton_class(random_dag).initial_state()
            assert set(state.directed_edges()) == set(random_dag.initial_edges)

    def test_initial_orientation_matches_on_diamond(self, diamond):
        state = GBPartialReversalHeights(diamond).initial_state()
        assert set(state.directed_edges()) == set(diamond.initial_edges)


class TestHeightOrder:
    def test_pair_height_ordering(self):
        # Full Reversal's pair (a, rank) is the triple (a, 0, rank)
        assert HeightValue(2, 0, 0) > HeightValue(1, 0, 5)
        assert HeightValue(1, 0, 2) > HeightValue(1, 0, 1)

    def test_triple_height_ordering(self):
        assert HeightValue(1, 0, 0) > HeightValue(0, 9, 9)
        assert HeightValue(0, 2, 0) > HeightValue(0, 1, 9)
        assert HeightValue(0, 0, 2) > HeightValue(0, 0, 1)

    def test_acyclicity_is_structural(self, random_dag):
        state = GBPartialReversalHeights(random_dag).initial_state()
        assert state.is_acyclic()
        assert state.to_orientation().is_acyclic()


class TestRaiseRules:
    def test_full_rises_one_above_highest_neighbour(self):
        neighbours = [HeightValue(3, 0, 0), HeightValue(7, 4, 1)]
        assert full_reversal_height(2, neighbours) == HeightValue(8, 0, 2)

    def test_partial_takes_b_below_the_new_level(self):
        # new a = 1 + min a = 1; the neighbours already at a = 1 set b
        neighbours = [HeightValue(0, 5, 0), HeightValue(1, 3, 1), HeightValue(1, 6, 3)]
        assert partial_reversal_height(HeightValue(0, 0, 2), neighbours) == HeightValue(1, 2, 2)

    def test_partial_keeps_b_when_no_neighbour_is_at_the_new_level(self):
        neighbours = [HeightValue(0, 5, 0), HeightValue(4, 3, 1)]
        assert partial_reversal_height(HeightValue(0, -2, 2), neighbours) == HeightValue(1, -2, 2)


class TestTransitions:
    def test_fr_lift_reverses_all_edges(self, diamond):
        automaton = GBFullReversalHeights(diamond)
        state = automaton.initial_state()
        assert state.is_sink("c")
        new_state = automaton.apply(state, Reverse("c"))
        assert new_state.points_towards("c", "a")
        assert new_state.points_towards("c", "b")

    def test_pr_lift_reverses_only_lowest_neighbours(self):
        # d -> x, y -> x with y strictly above d: partial lift of x should
        # rise above the lowest neighbour(s) only.
        from repro.core.graph import LinkReversalInstance

        instance = LinkReversalInstance.from_directed_edges(
            nodes=["d", "y", "x"], destination="d", edges=[("d", "x"), ("y", "x")]
        )
        automaton = GBPartialReversalHeights(instance)
        state = automaton.initial_state()
        assert state.is_sink("x")
        new_state = automaton.apply(state, Reverse("x"))
        # x must no longer be a sink
        assert not new_state.is_sink("x")
        # the orientation stays acyclic by construction
        assert new_state.to_orientation().is_acyclic()

    def test_counts_track_steps(self, diamond):
        automaton = GBPartialReversalHeights(diamond)
        state = automaton.apply(automaton.initial_state(), Reverse("c"))
        assert state.counts["c"] == 1

    def test_disabled_apply_raises(self, diamond):
        from repro.automata.ioa import TransitionError

        automaton = GBPartialReversalHeights(diamond)
        with pytest.raises(TransitionError):
            automaton.apply(automaton.initial_state(), Reverse("d"))


class TestConvergence:
    @pytest.mark.parametrize("automaton_class", [GBFullReversalHeights, GBPartialReversalHeights])
    def test_converges_on_bad_chain(self, bad_chain, automaton_class):
        result = run(automaton_class(bad_chain), SequentialScheduler())
        assert result.converged
        assert result.final_state.is_destination_oriented()

    @pytest.mark.parametrize("automaton_class", [GBFullReversalHeights, GBPartialReversalHeights])
    def test_converges_on_grid(self, bad_grid, automaton_class):
        result = run(automaton_class(bad_grid), RandomScheduler(seed=8))
        assert result.converged
        assert result.final_state.is_destination_oriented()

    def test_fr_heights_step_count_matches_fr(self, bad_chain):
        heights_result = run(GBFullReversalHeights(bad_chain), SequentialScheduler())
        fr_result = run(FullReversal(bad_chain), SequentialScheduler())
        assert heights_result.steps_taken == fr_result.steps_taken

    def test_all_intermediate_states_acyclic(self, random_dag):
        result = run(GBPartialReversalHeights(random_dag), RandomScheduler(seed=5))
        assert all(state.is_acyclic() for state in result.execution.states)

    @pytest.mark.parametrize("scheduler", ["greedy", "random"])
    def test_heights_work_equals_lists_per_node(self, scheduler):
        """Every node steps as often under heights as under the list algorithm.

        Per-node work is schedule independent, so the height and the list
        formulation agree node by node on every connected DAG start with
        two to five nodes.
        """
        pairs = (
            (GBPartialReversalHeights, OneStepPartialReversal),
            (GBFullReversalHeights, FullReversal),
        )
        starts = 0
        for n in range(2, 6):
            for index, instance in enumerate(all_connected_dag_instances(n)):
                starts += 1
                for heights_class, list_class in pairs:
                    work = []
                    for automaton_class in (heights_class, list_class):
                        observer = WorkObserver()
                        result = run(
                            automaton_class(instance), make_scheduler(scheduler, seed=index),
                            observers=[observer], record_states=False,
                        )
                        assert result.converged
                        work.append(observer.per_node_steps)
                    assert work[0] == work[1], (heights_class.name, instance.initial_edges)
        assert starts == 771
