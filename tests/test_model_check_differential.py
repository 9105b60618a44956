"""Differential regression tests: the model checker vs. the reference explorer.

The reference :class:`~repro.exploration.state_space.StateSpaceExplorer`
materialises a full state object per transition; the production
:class:`~repro.exploration.checker.ModelChecker` explores signature rows
through compiled batch kernels.  These tests pin the checker to the
reference semantics: identical state / transition / quiescence counts,
identical BFS depths, identical truncation behaviour, identical visited
sets and identical predicate-failure sequences (including the action
paths), so the engine provably preserves what "exhaustively explored"
means — for one-word and multi-word signatures, with and without symmetry
reduction and disk spill.
"""

from __future__ import annotations

import pytest

from repro.core.full_reversal import FullReversal
from repro.core.graph import LinkReversalInstance
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.exploration.checker import ModelChecker
from repro.exploration.state_space import StateSpaceExplorer
from repro.kernels.signature import compile_expander
from repro.kernels.vector import signature_words
from repro.topology.generators import grid_instance, star_instance
from repro.verification.acyclicity import is_acyclic
from repro.verification.invariants import newpr_invariant_checks, pr_invariant_checks

ALGORITHM_CLASSES = (PartialReversal, OneStepPartialReversal, NewPartialReversal, FullReversal)

#: The report fields that must match field-for-field between the engines.
REPORT_FIELDS = (
    "states_explored",
    "transitions_explored",
    "quiescent_states",
    "max_depth",
    "truncated",
)


def _legacy(automaton, predicates=None, **kwargs):
    return StateSpaceExplorer(automaton, predicates, **kwargs).explore()


def _frontier(automaton, predicates=None, **kwargs):
    kwargs.setdefault("max_traced_failures", 10_000)
    if "use_single_actions_only" in kwargs:
        kwargs["single_actions_only"] = kwargs.pop("use_single_actions_only")
    return ModelChecker(automaton, predicates, **kwargs).run()


def _summaries(report):
    return tuple(getattr(report, field) for field in REPORT_FIELDS)


@pytest.fixture(params=["bad_chain", "diamond", "bad_grid", "good_chain", "worst_chain"])
def seed_graph(request):
    """Every canonical seed instance from conftest, one at a time."""
    return request.getfixturevalue(request.param)


class TestReportEquivalence:
    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_counts_depth_and_quiescence_match(self, automaton_class, seed_graph):
        legacy = _legacy(automaton_class(seed_graph))
        frontier = _frontier(automaton_class(seed_graph))
        assert _summaries(frontier) == _summaries(legacy)

    @pytest.mark.parametrize("automaton_class", (PartialReversal,))
    def test_single_action_mode_matches(self, automaton_class, seed_graph):
        legacy = _legacy(automaton_class(seed_graph), use_single_actions_only=True)
        frontier = _frontier(automaton_class(seed_graph), use_single_actions_only=True)
        assert _summaries(frontier) == _summaries(legacy)

    @pytest.mark.parametrize("max_states", [1, 3, 10])
    def test_truncation_behaviour_matches(self, max_states, bad_grid):
        for automaton_class in ALGORITHM_CLASSES:
            legacy = _legacy(automaton_class(bad_grid), max_states=max_states)
            frontier = _frontier(automaton_class(bad_grid), max_states=max_states)
            assert _summaries(frontier) == _summaries(legacy)
            assert frontier.truncated


class TestPredicateFailureEquivalence:
    def _planted(self, automaton):
        initial_signature = automaton.initial_state().signature()
        return {
            "is-initial": lambda s: s.signature() == initial_signature,
            "at-most-two-reversals": lambda s: bin(s.graph_signature()).count("1") <= 2,
        }

    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_failures_and_paths_match_exactly(self, automaton_class, seed_graph):
        legacy = _legacy(
            automaton_class(seed_graph), self._planted(automaton_class(seed_graph))
        )
        frontier = _frontier(
            automaton_class(seed_graph), self._planted(automaton_class(seed_graph))
        )
        assert len(frontier.failures) == len(legacy.failures)
        # same discovery order, same predicate names, same action paths
        assert [
            (f.predicate_name, f.path) for f in frontier.failures
        ] == [(f.predicate_name, f.path) for f in legacy.failures]

    def test_invariant_bundles_clean_on_both(self, seed_graph):
        for automaton_class, predicates in (
            (PartialReversal, pr_invariant_checks()),
            (OneStepPartialReversal, pr_invariant_checks()),
            (NewPartialReversal, newpr_invariant_checks()),
            (FullReversal, {"acyclic": is_acyclic}),
        ):
            legacy = _legacy(automaton_class(seed_graph), dict(predicates))
            frontier = _frontier(automaton_class(seed_graph), dict(predicates))
            assert legacy.all_predicates_hold
            assert frontier.all_predicates_hold
            assert _summaries(frontier) == _summaries(legacy)


# ----------------------------------------------------------------------
# the one compiled loop, pinned to the oracle across its whole option space
# ----------------------------------------------------------------------
def _touching_twin_classes():
    """Twin classes {a1, a2} and {b1, b2, b3} that share every a–b edge."""
    a_side, b_side = ("a1", "a2"), ("b1", "b2", "b3")
    edges = [("d", a) for a in a_side] + [(a, b) for a in a_side for b in b_side]
    return LinkReversalInstance(("d",) + a_side + b_side, "d", tuple(edges))


def _dense_wide():
    """69 edges: K_12 oriented toward node 0 plus a bad 3-chain off node 11.

    The edge ``1 -> 0`` is listed last, so node 1's only outgoing edge sits
    in word 1 of every signature: a sink test that ignored word 1 would see
    node 1 as a sink.
    """
    core = [
        (u, v) for u in range(11, 0, -1) for v in range(u - 1, -1, -1) if (u, v) != (1, 0)
    ]
    edges = [(11, "x1"), ("x1", "x2"), ("x2", "x3")] + core + [(1, 0)]
    return LinkReversalInstance(tuple(range(12)) + ("x1", "x2", "x3"), 0, tuple(edges))


def _straddle_chain():
    """A 23-node path whose last three nodes start bad.

    With 22 edges, PR's list row of node 21 sits at bits 63–64, across the
    word boundary, and node 21 steps.
    """
    edges = [(i + 1, i) if i < 19 else (i, i + 1) for i in range(22)]
    return LinkReversalInstance(tuple(range(23)), 0, tuple(edges))


def _carry_chain():
    """A mixed-orientation 6-path plus ten good leaves on the destination.

    Node 3 steps three times under NewPR.  With 15 edges its counter sits at
    bits 63–78, one bit in word 0, so its second step carries into word 1.
    """
    path = [(0, 1), (2, 1), (2, 3), (4, 3), (5, 4)]
    leaves = [(leaf, 0) for leaf in range(6, 16)]
    return LinkReversalInstance(tuple(range(16)), 0, tuple(path + leaves))


#: Instances spanning one-word and multi-word signatures.  ``chain-23``
#: puts a PR/OneStepPR list row across bit 64; ``carry-chain`` a NewPR
#: counter; ``dense-69`` an outgoing edge into word 1.
ORACLE_INSTANCES = {
    "grid-3x3": lambda: grid_instance(3, 3, oriented_towards_destination=False),
    "star-5": lambda: star_instance(5),
    "touching-twins": _touching_twin_classes,
    "dense-69": _dense_wide,
    "chain-23": _straddle_chain,
    "carry-chain": _carry_chain,
}


class _Canonical:
    """An automaton seen through twin-node canonicalisation.

    Exploring it with the reference explorer is exploring with symmetry
    reduction: every state, the initial one included, is replaced by its
    canonical orbit representative.
    """

    def __init__(self, automaton, expander):
        self.name = automaton.name
        self._automaton = automaton
        self._expander = expander

    def _canonical(self, state):
        expander = self._expander
        return expander.state_for(expander.canonicalize(expander.encode_state(state)))

    def initial_state(self):
        return self._canonical(self._automaton.initial_state())

    def enabled_actions(self, state):
        return self._automaton.enabled_actions(state)

    def apply(self, state, action):
        return self._canonical(self._automaton.apply(state, action))


def _oracle_predicates(automaton):
    initial_signature = automaton.initial_state().signature()
    return {
        "is-initial": lambda s: s.signature() == initial_signature,
        "at-most-one-reversal": lambda s: bin(s.graph_signature()).count("1") <= 1,
    }


class TestOneLoopMatchesOracle:
    @pytest.mark.parametrize("max_states", [None, 1, 3, 10])
    @pytest.mark.parametrize("spill", [False, True], ids=["memory", "spill"])
    @pytest.mark.parametrize("symmetry", [False, True], ids=["plain", "symmetry"])
    @pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_counts_visited_sets_and_failures(
        self, automaton_class, name, symmetry, spill, max_states, tmp_path
    ):
        instance = ORACLE_INSTANCES[name]()
        expander = compile_expander(automaton_class(instance))
        predicates = _oracle_predicates(automaton_class(instance))
        options = dict(max_states=max_states or 1_000_000)

        visited = []
        oracle_automaton = automaton_class(instance)
        if symmetry:
            oracle_automaton = _Canonical(oracle_automaton, expander)
        oracle = _legacy(
            oracle_automaton,
            {"visit": lambda s: visited.append(expander.encode_state(s)) or True,
             **predicates},
            **options,
        )
        checker = _frontier(
            automaton_class(instance),
            predicates,
            symmetry=symmetry,
            check_acyclicity=True,
            check_progress=True,
            collect_signatures=True,
            spill_threshold=4 if spill else None,
            spill_dir=str(tmp_path) if spill else None,
            spill_max_runs=2,
            **options,
        )

        assert checker.vectorized
        assert _summaries(checker) == _summaries(oracle)
        assert checker.signatures == set(visited)
        assert [(f.predicate_name, f.path) for f in checker.failures] == [
            (f.predicate_name, f.path) for f in oracle.failures
        ]
        if max_states is None:
            assert oracle.failures, "the planted predicates must fail somewhere"
            assert checker.spilled == (spill and checker.states_explored >= 4)

    def test_instances_cover_one_and_many_words(self):
        widths = {
            (name, automaton_class.__name__): signature_words(
                compile_expander(automaton_class(build())).signature_bits
            )
            for name, build in ORACLE_INSTANCES.items()
            for automaton_class in ALGORITHM_CLASSES
        }
        assert widths[("grid-3x3", "FullReversal")] == 1
        assert widths[("grid-3x3", "PartialReversal")] == 1
        assert widths[("chain-23", "PartialReversal")] == 2
        assert widths[("carry-chain", "NewPartialReversal")] == 5
        assert all(
            width > 1 for (name, _), width in widths.items() if name == "dense-69"
        )
