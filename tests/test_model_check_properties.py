"""Property-based tests for the parallel model-checking engine.

Three families of properties over seeded random topologies and planted
bad-state predicates:

(a) the engine's state counts match a brute-force enumeration oracle (an
    independent depth-first enumeration written here, sharing no code with
    either explorer);
(b) every extracted counterexample replays — through the automaton's own
    transition function — to a state that violates the predicate;
(c) failures are reported whatever the trace and cap settings, and a
    failing predicate surfaces as itself.

Plus targeted coverage for the supporting machinery: twin-node symmetry
reduction (exact orbit quotient on stars), the disk-spilled visited set, and
the reference loop that automata without a compiled kernel run on.
"""

from __future__ import annotations

import json

import pytest

from repro.core.bll import BinaryLinkLabels
from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.core.graph import LinkReversalInstance
from repro.experiments.check_engine import check_outcome
from repro.exploration.checker import ModelChecker
from repro.exploration.counterexample import describe_trace
from repro.exploration.state_space import StateSpaceExplorer
from repro.exploration.frontier import VisitedSet
from repro.kernels.signature import compile_expander, twin_node_classes
from repro.topology.generators import (
    grid_instance,
    random_dag_instance,
    star_instance,
    tree_instance,
    worst_case_chain_instance,
)

ALGORITHM_CLASSES = (
    PartialReversal, OneStepPartialReversal, NewPartialReversal, FullReversal,
    BinaryLinkLabels,
)

#: The report fields the checker shares with the reference explorer.
REPORT_FIELDS = (
    "states_explored", "transitions_explored", "quiescent_states", "max_depth", "truncated",
)


def random_topologies(seed: int):
    """Seeded random small instances spanning the generator families."""
    return [
        random_dag_instance(6, edge_probability=0.4, seed=seed),
        random_dag_instance(7, edge_probability=0.3, seed=seed + 100),
        tree_instance(7, seed=seed),
        worst_case_chain_instance(4),
    ]


def brute_force_signatures(automaton):
    """Independent depth-first enumeration oracle over state signatures."""
    initial = automaton.initial_state()
    seen = {initial.signature()}
    stack = [initial]
    while stack:
        state = stack.pop()
        for action in automaton.enabled_actions(state):
            successor = automaton.apply(state, action)
            signature = successor.signature()
            if signature not in seen:
                seen.add(signature)
                stack.append(successor)
    return seen


# ----------------------------------------------------------------------
# (a) state counts match a brute-force enumeration oracle
# ----------------------------------------------------------------------
class TestOracleCounts:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_state_count_matches_oracle(self, automaton_class, seed):
        for instance in random_topologies(seed):
            oracle = brute_force_signatures(automaton_class(instance))
            report = ModelChecker(automaton_class(instance)).run()
            assert report.states_explored == len(oracle)
            assert not report.truncated

    @pytest.mark.parametrize(
        "automaton_class",
        (FullReversal, OneStepPartialReversal, PartialReversal, BinaryLinkLabels),
    )
    def test_signature_sets_match_oracle_encoding(self, automaton_class, bad_grid):
        # FR / OneStepPR / PR / BLL compiled signatures use the states' own
        # encoding, so the sets (not just the counts) must coincide
        oracle = brute_force_signatures(automaton_class(bad_grid))
        report = ModelChecker(automaton_class(bad_grid), collect_signatures=True).run()
        assert report.signatures == oracle

    def test_oracle_counts_on_named_families(self):
        for instance in (grid_instance(3, 3, False), star_instance(5)):
            for automaton_class in ALGORITHM_CLASSES:
                oracle = brute_force_signatures(automaton_class(instance))
                report = ModelChecker(automaton_class(instance)).run()
                assert report.states_explored == len(oracle)


# ----------------------------------------------------------------------
# (b) every counterexample replays to a violating state
# ----------------------------------------------------------------------
def _planted_predicates(automaton):
    """Predicates guaranteed to fail somewhere in a non-trivial exploration."""
    initial_signature = automaton.initial_state().signature()
    return {
        "is-initial": lambda s: s.signature() == initial_signature,
        "at-most-one-reversal": lambda s: bin(s.graph_signature()).count("1") <= 1,
    }


class TestCounterexampleReplay:
    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_counterexamples_replay_to_violations(self, automaton_class, seed):
        for instance in random_topologies(seed):
            automaton = automaton_class(instance)
            predicates = _planted_predicates(automaton)
            report = ModelChecker(automaton, predicates, max_traced_failures=10_000).run()
            assert not report.all_predicates_hold
            for failure in report.failures:
                assert failure.trace.reconstructed
                execution = failure.trace.replay(automaton_class(instance))
                execution.validate()
                final = execution.final_state
                assert not predicates[failure.predicate_name](final), (
                    f"{failure.trace} replayed to a state satisfying the predicate"
                )

    def test_trace_serialisation_schema(self, bad_chain):
        automaton = NewPartialReversal(bad_chain)
        report = ModelChecker(automaton, _planted_predicates(automaton)).run()
        payload = report.failures[0].trace.to_dict()
        assert payload["automaton"] == "NewPR"
        assert payload["depth"] == len(payload["actions"])
        assert all("actors" in action for action in payload["actions"])
        assert len(payload["signatures"]) == payload["depth"] + 1
        assert payload["reconstructed"] is True

    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_traces_verify_against_signature_chain(self, automaton_class, bad_grid):
        # verify_signatures must re-encode replayed states through the
        # expander (NewPR's packed-int layout differs from the state's own
        # tuple signature), so it is exercised for every compiled kernel
        automaton = automaton_class(bad_grid)
        predicates = _planted_predicates(automaton)
        report = ModelChecker(automaton, predicates, max_traced_failures=10_000).run()
        expander = compile_expander(automaton_class(bad_grid))
        assert report.failures
        for failure in report.failures:
            failure.trace.verify_signatures(expander)

    def test_tampered_trace_fails_verification(self, bad_grid):
        import dataclasses

        automaton = OneStepPartialReversal(bad_grid)
        report = ModelChecker(automaton, _planted_predicates(automaton)).run()
        trace = report.failures[0].trace
        tampered = dataclasses.replace(
            trace, signatures=trace.signatures[:-1] + (trace.signatures[-1] ^ 1,)
        )
        with pytest.raises(ValueError, match="replayed signature"):
            tampered.verify_signatures(compile_expander(OneStepPartialReversal(bad_grid)))

    def test_newpr_symmetric_traces_verify(self):
        instance = star_instance(4)
        automaton = NewPartialReversal(instance)
        predicates = {"at-most-one-reversal": lambda s: bin(s.graph_signature()).count("1") <= 1}
        report = ModelChecker(automaton, predicates, symmetry=True).run()
        expander = compile_expander(NewPartialReversal(instance))
        assert report.failures
        for failure in report.failures:
            failure.trace.verify_signatures(expander)

    def test_trace_string_names_the_violation(self, bad_chain):
        automaton = NewPartialReversal(bad_chain)
        report = ModelChecker(automaton, _planted_predicates(automaton)).run()
        text = str(report.failures[0].trace)
        assert "violated at depth" in text
        assert "NewPR" in text

    @pytest.mark.parametrize("automaton_class", [PartialReversal, FullReversal])
    def test_stored_trace_prints_its_actions(self, automaton_class):
        # `repro check` prints the traces of the stored record: after a JSON
        # round trip each must read as the live actions do
        automaton = automaton_class(grid_instance(3, 3))
        report = ModelChecker(automaton, _planted_predicates(automaton)).run()
        widest = max(len(a.actors()) for f in report.failures for a in f.trace.actions)
        assert (widest > 1) == (automaton_class is PartialReversal)
        for failure in report.failures:
            stored = json.loads(json.dumps(failure.trace.to_dict()))
            steps = " ; ".join(str(action) for action in failure.trace.actions)
            assert describe_trace(stored).endswith(f": {steps or '<initial state>'}")
            assert describe_trace(stored) == str(failure.trace)

    def test_untraced_failures_refuse_to_replay(self, bad_chain):
        automaton = NewPartialReversal(bad_chain)
        report = ModelChecker(
            automaton, _planted_predicates(automaton), max_traced_failures=0
        ).run()
        assert not report.all_predicates_hold
        failure = report.failures[0]
        assert not failure.trace.reconstructed
        assert failure.trace.to_dict()["signatures"] is None
        with pytest.raises(ValueError, match="not reconstructed"):
            failure.trace.replay(automaton)
        with pytest.raises(ValueError, match="no signature chain"):
            failure.trace.verify_signatures(compile_expander(automaton))


# ----------------------------------------------------------------------
# (c) failures survive every trace and cap setting
# ----------------------------------------------------------------------
class TestCheckerRobustness:
    def test_exact_cap_fit_is_not_truncated(self, bad_grid):
        # a cap equal to the reachable-state count must report an exhaustive
        # run: the successors pending at the cap are all duplicates
        exact = ModelChecker(OneStepPartialReversal(bad_grid)).run().states_explored
        report = ModelChecker(OneStepPartialReversal(bad_grid), max_states=exact).run()
        assert not report.truncated
        assert report.states_explored == exact

    def test_no_traced_failures_still_reports_failures(self, bad_grid):
        automaton = OneStepPartialReversal(bad_grid)
        predicates = _planted_predicates(automaton)
        report = ModelChecker(automaton, predicates, max_traced_failures=0).run()
        assert not report.all_predicates_hold
        assert all(not f.trace.reconstructed for f in report.failures)

    def test_predicate_exception_propagates(self, bad_grid):
        def exploding(state):
            raise RuntimeError("predicate blew up")

        with pytest.raises(RuntimeError, match="predicate blew up"):
            ModelChecker(OneStepPartialReversal(bad_grid), {"boom": exploding}).run()

    def test_invariant_predicates_are_clean(self, bad_grid):
        from repro.verification.invariants import pr_invariant_checks

        report = ModelChecker(
            OneStepPartialReversal(bad_grid),
            pr_invariant_checks(),
            check_acyclicity=True,
            check_progress=True,
        ).run()
        assert report.all_predicates_hold
        assert not report.truncated

    @pytest.mark.parametrize("max_states", [0, -5])
    def test_max_states_below_one_rejected(self, max_states, bad_chain):
        with pytest.raises(ValueError, match="max_states must be at least 1"):
            ModelChecker(FullReversal(bad_chain), max_states=max_states)


# ----------------------------------------------------------------------
# twin-node symmetry reduction
# ----------------------------------------------------------------------
class TestSymmetryReduction:
    def test_star_leaves_form_one_twin_class(self):
        instance = star_instance(6)
        classes = twin_node_classes(instance)
        assert len(classes) == 1
        assert len(classes[0]) == 6

    def test_star_reduction_is_exact_orbit_quotient(self):
        # FR on a star: the full space is every subset of reversed leaf
        # edges (2^k states); orbits under leaf permutation are counted by
        # the number of reversed edges (k + 1 orbits)
        instance = star_instance(6)
        plain = ModelChecker(FullReversal(instance), collect_signatures=True).run()
        reduced = ModelChecker(FullReversal(instance), symmetry=True).run()
        assert plain.states_explored == 2 ** 6
        assert reduced.states_explored == 7
        assert reduced.symmetry_reduced
        expander = compile_expander(FullReversal(instance))
        orbits = {expander.canonicalize(sig) for sig in plain.signatures}
        assert len(orbits) == reduced.states_explored

    def test_reduction_never_loses_violations(self):
        instance = star_instance(5)
        automaton = FullReversal(instance)
        predicates = {"at-most-one-reversal": lambda s: bin(s.graph_signature()).count("1") <= 1}
        plain = ModelChecker(automaton, predicates, max_traced_failures=10_000).run()
        reduced = ModelChecker(
            FullReversal(instance), predicates, symmetry=True, max_traced_failures=10_000
        ).run()
        assert not plain.all_predicates_hold
        assert not reduced.all_predicates_hold
        # the reduced run sees every *distinct violation pattern* (orbit)
        expander = compile_expander(automaton)
        plain_orbits = {expander.canonicalize(f.trace.signatures[-1]) for f in plain.failures}
        reduced_orbits = {f.trace.signatures[-1] for f in reduced.failures}
        assert plain_orbits == reduced_orbits

    def test_symmetric_traces_verify_step_by_step(self):
        instance = star_instance(5)
        automaton = FullReversal(instance)
        predicates = {"at-most-one-reversal": lambda s: bin(s.graph_signature()).count("1") <= 1}
        report = ModelChecker(automaton, predicates, symmetry=True).run()
        expander = compile_expander(automaton)
        for failure in report.failures:
            failure.trace.verify_signatures(expander)
            with pytest.raises(ValueError):
                failure.trace.replay(automaton)

    def test_symmetry_with_paper_invariants_holds(self):
        from repro.verification.invariants import pr_invariant_checks

        report = ModelChecker(
            OneStepPartialReversal(star_instance(5)),
            pr_invariant_checks(),
            symmetry=True,
            check_acyclicity=True,
            check_progress=True,
        ).run()
        assert report.all_predicates_hold

    def test_newpr_symmetry_quotients_counter_fields(self):
        # NewPR signatures carry per-node step counters; the canonical form
        # must permute those alongside the edge bits.  A star has a single
        # twin class, so the reduction is an exact orbit quotient.
        instance = star_instance(4)
        plain = ModelChecker(NewPartialReversal(instance), collect_signatures=True).run()
        reduced = ModelChecker(
            NewPartialReversal(instance), symmetry=True, check_acyclicity=True
        ).run()
        expander = compile_expander(NewPartialReversal(instance))
        orbits = {expander.canonicalize(sig) for sig in plain.signatures}
        assert reduced.states_explored == len(orbits)
        assert reduced.states_explored < plain.states_explored
        assert reduced.all_predicates_hold

    def test_chain_has_no_twins(self, bad_chain):
        assert twin_node_classes(bad_chain) == []
        report = ModelChecker(FullReversal(bad_chain), symmetry=True).run()
        assert not report.symmetry_reduced


# ----------------------------------------------------------------------
# disk-spilled visited set
# ----------------------------------------------------------------------
class TestVisitedSetSpill:
    def test_spill_preserves_set_semantics(self, tmp_path):
        import random

        import numpy as np

        rng = random.Random(7)
        signatures = [rng.getrandbits(64) for _ in range(2000)]
        visited = VisitedSet(spill_threshold=128, spill_dir=str(tmp_path))
        fresh = sum(
            int(visited.add_many(np.array(signatures[i:i + 50], dtype=np.uint64)).sum())
            for i in range(0, len(signatures), 50)
        )
        assert fresh == len(set(signatures))
        assert len(visited) == len(set(signatures))
        assert visited.spilled_runs > 1
        # re-adds all rejected, membership exact, iteration complete
        assert not visited.add_many(np.array(signatures, dtype=np.uint64)).any()
        members = np.unique(np.array(signatures, dtype=np.uint64))
        assert visited.contains_many(members).all()
        absent = next(x for x in range(10_000) if x not in set(signatures))
        assert not visited.contains_many(np.array([absent], dtype=np.uint64))[0]
        assert set(visited) == set(signatures)
        visited.close()

    def test_checker_with_spill_matches_in_memory(self, bad_grid, tmp_path):
        automaton = OneStepPartialReversal(bad_grid)
        spilled = ModelChecker(
            automaton,
            collect_signatures=True,
            spill_threshold=4,
            spill_dir=str(tmp_path),
        ).run()
        plain = ModelChecker(OneStepPartialReversal(bad_grid), collect_signatures=True).run()
        assert spilled.spilled
        assert spilled.signatures == plain.signatures

    def test_spill_scratch_files_removed_on_close(self, bad_grid, tmp_path):
        spill_dir = tmp_path / "spill"
        report = ModelChecker(
            OneStepPartialReversal(bad_grid),
            spill_threshold=4,
            spill_dir=str(spill_dir),
        ).run()
        assert report.spilled
        assert list(spill_dir.glob("run-*.bin")) == []  # scratch cleaned up

    def test_truncated_signatures_stay_consistent(self, bad_grid):
        report = ModelChecker(
            OneStepPartialReversal(bad_grid), max_states=7, collect_signatures=True
        ).run()
        assert report.truncated
        assert len(report.signatures) == report.states_explored == 7


# ----------------------------------------------------------------------
# structural mask checks and the reference loop
# ----------------------------------------------------------------------
class TestMaskChecks:
    def test_builtin_invariants_hold_on_all_algorithms(self, bad_grid):
        for automaton_class in ALGORITHM_CLASSES:
            report = ModelChecker(
                automaton_class(bad_grid), check_acyclicity=True, check_progress=True
            ).run()
            assert report.all_predicates_hold, str(report)
            assert set(report.predicate_names) >= {"acyclic", "progress"}


class _CounterState:
    """Minimal state for a structural automaton: no orientation hooks at all."""

    def __init__(self, value):
        self.value = value

    def signature(self):
        return self.value

    def copy(self):
        return _CounterState(self.value)


class _CountdownAutomaton:
    """A tiny non-link-reversal automaton driving the checker's reference loop."""

    name = "countdown"

    def initial_state(self):
        return _CounterState(3)

    def enabled_actions(self, state):
        from repro.core.base import Reverse

        if state.value > 0:
            yield Reverse(state.value)

    def enabled_single_actions(self, state):
        return self.enabled_actions(state)

    def is_enabled(self, state, action):
        return state.value > 0 and action.node == state.value

    def apply(self, state, action):
        return _CounterState(state.value - 1)


def reference_bll(instance: LinkReversalInstance) -> BinaryLinkLabels:
    """BLL that never marks but starts with node 2's edge to node 1 marked.

    It is neither PR nor FR, so it has no compiled kernel and runs on the
    checker's reference loop (on ``bad_chain``: 20 states, all clean).
    """
    return BinaryLinkLabels(instance, initial_marks={2: [1]}, mark_on_reversal=False)


class TestGenericFallback:
    def test_countdown_automaton_explores(self):
        report = ModelChecker(_CountdownAutomaton()).run()
        assert report.states_explored == 4
        assert report.quiescent_states == 1

    def test_builtin_checks_refuse_states_without_hooks(self):
        # silently skipping the built-in checks would let the report (and a
        # stored record) claim invariants that were never evaluated
        with pytest.raises(ValueError, match="is_acyclic"):
            ModelChecker(_CountdownAutomaton(), check_acyclicity=True).run()
        with pytest.raises(ValueError, match="is_destination_oriented"):
            ModelChecker(_CountdownAutomaton(), check_progress=True).run()

    def test_bll_matches_the_explorer_and_the_oracle(self, bad_chain):
        report = ModelChecker(
            reference_bll(bad_chain), check_acyclicity=True, check_progress=True,
            collect_signatures=True,
        ).run()
        explored = StateSpaceExplorer(reference_bll(bad_chain)).explore()
        assert not report.vectorized
        assert report.predicate_names == ("acyclic", "progress")
        assert report.all_predicates_hold and report.states_explored == 20
        assert [getattr(report, name) for name in REPORT_FIELDS] == [
            getattr(explored, name) for name in REPORT_FIELDS
        ]
        assert report.signatures == brute_force_signatures(reference_bll(bad_chain))
        assert str(report) == str(explored)

    def test_bll_trace_cap_and_untracked_traces(self, bad_chain):
        # every non-initial state fails: the check engine's record carries
        # at most max_traced_failures traces, and violations still counts
        # them all
        automaton = reference_bll(bad_chain)
        initial_signature = automaton.initial_state().signature()
        predicates = {"is-initial": lambda s: s.signature() == initial_signature}
        failing = ModelChecker(automaton, predicates).run().states_explored - 1
        assert failing > 3
        capped = ModelChecker(automaton, predicates, max_traced_failures=2).run()
        assert not capped.vectorized
        record = check_outcome(capped)
        assert record["violations"] == failing
        assert len(record["counterexamples"]) == 2
        assert all(trace["reconstructed"] for trace in record["counterexamples"])
        for failure in capped.failures[:2]:
            failure.trace.replay(reference_bll(bad_chain)).validate()
        assert all(
            not f.trace.reconstructed and f.path == () for f in capped.failures[2:]
        )
        untracked = ModelChecker(automaton, predicates, max_traced_failures=0).run()
        untracked_record = check_outcome(untracked)
        assert (untracked_record["status"], untracked_record["violations"]) == (
            "violated", failing)
        assert untracked_record["counterexamples"] == []
        with pytest.raises(ValueError, match="not reconstructed"):
            untracked.failures[0].trace.replay(reference_bll(bad_chain))

    def test_progress_failure_names_the_stranded_node(self):
        # node 2 has no link at all, so the quiescent state cannot route it
        instance = LinkReversalInstance((0, 1, 2), 0, ((1, 0),))
        report = ModelChecker(
            BinaryLinkLabels(instance, initial_marks={1: [0]}, mark_on_reversal=False),
            check_acyclicity=True, check_progress=True,
        ).run()
        assert not report.vectorized
        assert [(f.predicate_name, f.detail) for f in report.failures] == [
            ("progress", "quiescent but nodes ['2'] cannot reach the destination")
        ]
        assert check_outcome(report)["acyclic_final"] is True

    def test_bll_counterexample_replays(self, bad_chain):
        automaton = reference_bll(bad_chain)
        initial_signature = automaton.initial_state().signature()
        predicates = {"is-initial": lambda s: s.signature() == initial_signature}
        report = ModelChecker(reference_bll(bad_chain), predicates).run()
        assert not report.all_predicates_hold and not report.vectorized
        execution = report.failures[0].trace.replay(reference_bll(bad_chain))
        execution.validate()
        assert execution.final_state.signature() != initial_signature

    def test_bll_refuses_symmetry(self, bad_chain):
        with pytest.raises(ValueError, match="symmetry"):
            ModelChecker(reference_bll(bad_chain), symmetry=True)

    def test_bll_refuses_spill(self, bad_chain):
        with pytest.raises(ValueError, match="spill"):
            ModelChecker(reference_bll(bad_chain), spill_threshold=10).run()
