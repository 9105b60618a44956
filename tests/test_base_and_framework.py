"""Unit tests for the shared base classes and small framework pieces.

Covers the pieces not exercised directly elsewhere: the :class:`Reverse`
action, the :class:`LinkReversalState` protocol (signatures, hashing,
cross-algorithm graph signatures), the default methods of
:class:`IOAutomaton`, the public package surface (``repro.__all__``) and the
README's architecture map.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.automata.ioa import IOAutomaton
from repro.core.base import LinkReversalState, Reverse
from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal


def _architecture_map_subpackages(readme: str) -> set:
    """Every ``repro.<subpackage>`` named in the README architecture-map table."""
    section = readme.split("## Architecture map", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| **")]
    assert rows, "the README has no architecture-map rows"
    modules = " ".join(row.split("|")[2] for row in rows)
    return set(re.findall(r"`repro\.(\w+)", modules))


class TestReverseAction:
    def test_actors(self):
        assert Reverse("x").actors() == ("x",)

    def test_hashable_and_equal(self):
        assert Reverse(3) == Reverse(3)
        assert hash(Reverse(3)) == hash(Reverse(3))
        assert Reverse(3) != Reverse(4)

    def test_str(self):
        assert str(Reverse("a")) == "reverse(a)"


class TestLinkReversalStateProtocol:
    def test_dir_view_matches_orientation(self, diamond):
        state = OneStepPartialReversal(diamond).initial_state()
        for u, v in diamond.initial_edges:
            assert state.dir(u, v) is state.orientation.dir(u, v)

    def test_graph_signature_is_shared_across_algorithms(self, diamond):
        """States of different automata with the same orientation have equal graph signatures."""
        signatures = set()
        for automaton_class in (PartialReversal, OneStepPartialReversal,
                                NewPartialReversal, FullReversal):
            signatures.add(automaton_class(diamond).initial_state().graph_signature())
        assert len(signatures) == 1

    def test_full_signature_distinguishes_algorithms_bookkeeping(self, diamond):
        pr_state = OneStepPartialReversal(diamond).initial_state()
        newpr_state = NewPartialReversal(diamond).initial_state()
        # different state types never compare equal even with identical graphs
        assert pr_state != newpr_state

    def test_states_usable_as_dict_keys(self, diamond):
        automaton = NewPartialReversal(diamond)
        s0 = automaton.initial_state()
        s1 = automaton.apply(s0, Reverse("c"))
        table = {s0: "initial", s1: "after-c"}
        assert table[automaton.initial_state()] == "initial"

    def test_sinks_and_is_sink_agree(self, bad_grid):
        state = FullReversal(bad_grid).initial_state()
        assert all(state.is_sink(u) for u in state.sinks())

    def test_base_state_copy(self, diamond):
        state = LinkReversalState(diamond, diamond.initial_orientation())
        clone = state.copy()
        clone.orientation.reverse_edge("a", "c")
        assert state.orientation.points_towards("a", "c")


class TestIOAutomatonDefaults:
    def test_is_quiescent(self, good_chain, bad_chain):
        assert PartialReversal(good_chain).is_quiescent(
            PartialReversal(good_chain).initial_state()
        )
        assert not PartialReversal(bad_chain).is_quiescent(
            PartialReversal(bad_chain).initial_state()
        )

    def test_has_enabled_action(self, bad_chain):
        automaton = NewPartialReversal(bad_chain)
        assert automaton.has_enabled_action(automaton.initial_state())

    def test_step_alias(self, diamond):
        automaton = NewPartialReversal(diamond)
        state = automaton.initial_state()
        assert automaton.step(state, Reverse("c")).signature() == automaton.apply(
            state, Reverse("c")
        ).signature()

    def test_run_to_quiescence_helper(self, bad_chain):
        from repro.schedulers.sequential import SequentialScheduler

        automaton = OneStepPartialReversal(bad_chain)
        result = automaton.run_to_quiescence(SequentialScheduler())
        assert result.converged
        assert result.final_state.is_destination_oriented()

    def test_enabled_single_actions_default_filter(self, bad_grid):
        automaton = PartialReversal(bad_grid)
        state = automaton.initial_state()
        singles = list(automaton.enabled_single_actions(state))
        assert all(len(action.actors()) == 1 for action in singles)

    def test_repr(self, diamond):
        assert "PartialReversal" in repr(PartialReversal(diamond))


class TestPackageSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_top_level_quickstart_flow(self):
        instance = repro.chain_instance(5, towards_destination=False)
        result = repro.run(repro.PartialReversal(instance), repro.GreedyScheduler())
        assert result.final_state.is_destination_oriented()
        assert repro.is_acyclic(result.final_state)

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.automata
        import repro.distributed
        import repro.exploration
        import repro.io
        import repro.routing
        import repro.schedulers
        import repro.topology
        import repro.verification

    def test_readme_architecture_map_matches_the_tree(self):
        root = Path(__file__).resolve().parents[1]
        named = _architecture_map_subpackages((root / "README.md").read_text())
        on_disk = {
            path.parent.name for path in (root / "src" / "repro").glob("*/__init__.py")
        }
        assert named - on_disk == set(), "the map names subpackages that do not exist"
        assert on_disk - named == set(), "subpackages missing from the map"
