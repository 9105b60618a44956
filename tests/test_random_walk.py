"""Tests for the randomized execution checker behind the E1–E4 benchmarks.

:class:`~repro.exploration.random_walk.RandomWalkChecker` checks the paper's
invariants on instances too large for exhaustive exploration.  These tests pin
its accounting (walk seeds, step and state counts, failure records) and run it
over every non-trivial topology family for each algorithm.
"""

from __future__ import annotations

import pytest

from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.exploration.random_walk import RandomWalkChecker
from repro.topology.generators import build_family
from repro.verification.acyclicity import is_acyclic
from repro.verification.invariants import newpr_invariant_checks, pr_invariant_checks

ALGORITHMS = (PartialReversal, OneStepPartialReversal, NewPartialReversal, FullReversal)
FAMILIES = ("chain", "tree", "grid", "layered", "random-dag")


def _report_fields(report):
    return (
        report.walks,
        report.states_checked,
        report.distinct_states,
        report.total_steps,
        report.non_converged_walks,
        report.failures,
    )


def _quiescent_implies_oriented(automaton):
    """Progress: a state with no enabled action is destination oriented."""
    def predicate(state):
        return (
            automaton.has_enabled_action(state)
            or state.orientation.is_destination_oriented()
        )
    return predicate


class TestAccounting:
    def test_same_base_seed_reproduces_the_report(self, bad_grid):
        first = RandomWalkChecker(PartialReversal(bad_grid), {}, walks=4, base_seed=11).check()
        second = RandomWalkChecker(PartialReversal(bad_grid), {}, walks=4, base_seed=11).check()
        assert _report_fields(first) == _report_fields(second)

    def test_walk_i_uses_seed_base_plus_i(self, random_dag):
        def visited(base_seed, walks):
            seen = []
            def record(state):
                seen.append(state.signature())
                return True
            RandomWalkChecker(
                OneStepPartialReversal(random_dag), {"record": record},
                walks=walks, base_seed=base_seed,
            ).check()
            return seen

        batch = visited(5, walks=3)
        assert batch == visited(5, 1) + visited(6, 1) + visited(7, 1)
        assert visited(5, 1) != visited(6, 1)

    def test_every_step_checks_one_state(self, bad_chain):
        report = RandomWalkChecker(FullReversal(bad_chain), {}, walks=3, base_seed=0).check()
        assert report.total_steps > 0
        assert report.states_checked == report.total_steps

    def test_distinct_states_bounded_by_states_checked(self, bad_grid):
        report = RandomWalkChecker(PartialReversal(bad_grid), {}, walks=6, base_seed=2).check()
        assert 1 <= report.distinct_states <= report.states_checked

    def test_step_bound_leaves_walks_unconverged(self, bad_chain):
        report = RandomWalkChecker(
            NewPartialReversal(bad_chain), {}, walks=3, max_steps=1, base_seed=0
        ).check()
        assert report.walks == 3
        assert report.total_steps == 3
        assert report.non_converged_walks == 3

    def test_quiescent_instance_takes_no_steps(self, good_chain):
        report = RandomWalkChecker(
            PartialReversal(good_chain), {"never": lambda s: False}, walks=2, base_seed=0
        ).check()
        assert (report.total_steps, report.states_checked, report.distinct_states) == (0, 0, 0)
        assert report.non_converged_walks == 0
        # predicates run on post-states only, so no step means no failure
        assert report.all_predicates_hold

    def test_zero_walks(self, bad_chain):
        report = RandomWalkChecker(PartialReversal(bad_chain), {}, walks=0).check()
        assert report.walks == 0
        assert report.all_predicates_hold

    def test_invalid_subset_probability_is_rejected(self, bad_chain):
        checker = RandomWalkChecker(
            PartialReversal(bad_chain), {}, walks=1, subset_probability=1.5
        )
        with pytest.raises(ValueError, match="subset_probability"):
            checker.check()


class TestFailureRecords:
    def test_failures_carry_walk_index_name_and_step(self, bad_chain):
        report = RandomWalkChecker(
            NewPartialReversal(bad_chain), {"never": lambda s: False}, walks=3, base_seed=0
        ).check()
        assert {walk for walk, _, _ in report.failures} == {0, 1, 2}
        assert {name for _, name, _ in report.failures} == {"never"}
        # one failure per checked state, numbered from step 0 in every walk
        assert len(report.failures) == report.states_checked
        assert sum(detail == "violated after step 0" for _, _, detail in report.failures) == 3

    def test_report_style_predicates_contribute_their_detail(self, bad_chain):
        class Failing:
            holds = False
            violations = ("first", "second", "third", "fourth")

        report = RandomWalkChecker(
            PartialReversal(bad_chain), {"report": lambda s: Failing()}, walks=1, max_steps=1
        ).check()
        assert report.failures == [(0, "report", "first; second; third")]

    def test_only_the_failing_predicate_is_recorded(self, bad_grid):
        report = RandomWalkChecker(
            PartialReversal(bad_grid),
            {"acyclic": is_acyclic, "never": lambda s: False},
            walks=2,
            base_seed=4,
        ).check()
        assert report.failures
        assert {name for _, name, _ in report.failures} == {"never"}


class TestPaperClaimsOnFamilies:
    """Acyclicity and progress (Theorems 4.3 / 5.5) on 16-node instances."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("automaton_class", ALGORITHMS, ids=lambda c: c.name)
    def test_every_visited_state_is_acyclic_and_walks_converge(self, automaton_class, family):
        instance = build_family(family, 16, seed=3)
        automaton = automaton_class(instance)
        report = RandomWalkChecker(
            automaton,
            {"acyclic": is_acyclic, "progress": _quiescent_implies_oriented(automaton)},
            walks=3,
            base_seed=1,
        ).check()
        assert report.states_checked > 0
        assert report.all_predicates_hold, report.failures[:3]
        assert report.non_converged_walks == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_pr_invariants_under_concurrent_set_actions(self, family):
        instance = build_family(family, 16, seed=3)
        report = RandomWalkChecker(
            PartialReversal(instance),
            pr_invariant_checks(),
            walks=3,
            base_seed=2,
            subset_probability=0.5,
        ).check()
        assert report.states_checked > 0
        assert report.all_predicates_hold, report.failures[:3]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_newpr_invariants(self, family):
        instance = build_family(family, 16, seed=3)
        report = RandomWalkChecker(
            NewPartialReversal(instance), newpr_invariant_checks(), walks=3, base_seed=2
        ).check()
        assert report.states_checked > 0
        assert report.all_predicates_hold, report.failures[:3]
