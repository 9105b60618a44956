"""Unit tests for the Graphviz DOT and ASCII renderings of orientations."""

from __future__ import annotations

import pytest

from repro.automata.executions import run
from repro.core.graph import LinkReversalInstance
from repro.core.pr import PartialReversal
from repro.io.dot import orientation_to_dot, render_ascii, to_dot
from repro.schedulers.greedy import GreedyScheduler
from repro.topology.generators import chain_instance


def _node_lines(dot: str):
    return [line.strip() for line in dot.splitlines() if "[" in line and "->" not in line
            and "rankdir" not in line]


def _edge_lines(dot: str):
    return [line.strip() for line in dot.splitlines() if "->" in line]


class TestToDot:
    def test_is_a_named_digraph(self, diamond):
        dot = to_dot(diamond, name="Diamond")
        lines = dot.splitlines()
        assert lines[0] == "digraph Diamond {"
        assert lines[1] == "  rankdir=LR;"
        assert lines[-1] == "}"

    def test_one_line_per_node_and_per_edge(self, diamond):
        dot = to_dot(diamond)
        assert len(_node_lines(dot)) == diamond.node_count
        assert len(_edge_lines(dot)) == diamond.edge_count

    def test_edges_follow_the_initial_orientation(self, diamond):
        edges = set(_edge_lines(to_dot(diamond)))
        assert edges == {'"d" -> "a";', '"d" -> "b";', '"a" -> "c";', '"b" -> "c";'}

    def test_destination_is_a_double_circle(self, diamond):
        nodes = _node_lines(to_dot(diamond))
        assert [line for line in nodes if "doublecircle" in line] == [
            '"d" [shape=doublecircle];'
        ]

    def test_sinks_are_filled(self, diamond):
        # c is the only non-destination sink of the diamond
        filled = [line for line in _node_lines(to_dot(diamond)) if "filled" in line]
        assert filled == ['"c" [shape=circle style=filled fillcolor="lightgrey"];']

    def test_highlighting_can_be_switched_off(self, diamond):
        dot = orientation_to_dot(diamond.initial_orientation(), highlight_sinks=False)
        assert "filled" not in dot

    def test_destination_oriented_graph_has_no_filled_node(self, good_chain):
        assert "filled" not in to_dot(good_chain)

    def test_node_names_with_quotes_are_escaped(self):
        instance = LinkReversalInstance.from_directed_edges(
            nodes=['d"x', "a"], destination='d"x', edges=[('d"x', "a")]
        )
        dot = to_dot(instance)
        assert r'"d\"x" -> "a";' in dot

    def test_final_pr_state_is_destination_oriented_in_dot(self, bad_chain):
        final = run(PartialReversal(bad_chain), GreedyScheduler()).final_state
        dot = orientation_to_dot(final.orientation)
        assert "filled" not in dot
        # every edge of a destination-oriented chain points towards node 0
        for line in _edge_lines(dot):
            tail, head = (part.strip(' ";') for part in line.split("->"))
            assert int(head) == int(tail) - 1


class TestRenderAscii:
    def test_lists_destination_edges_and_sinks(self, diamond):
        text = render_ascii(diamond.initial_orientation())
        parts = text.split("  ")
        assert parts[0] == "destination=d"
        assert set(parts[1:-1]) == {"d->a", "d->b", "a->c", "b->c"}
        assert parts[-1] == "sinks={c}"

    def test_no_sinks_part_when_destination_oriented(self, good_chain):
        text = render_ascii(good_chain.initial_orientation())
        assert "sinks=" not in text
        assert text.count("->") == good_chain.edge_count

    @pytest.mark.parametrize("size", [2, 5])
    def test_bad_chain_has_one_sink_at_the_far_end(self, size):
        instance = chain_instance(size, towards_destination=False)
        text = render_ascii(instance.initial_orientation())
        assert text.endswith(f"sinks={{{size - 1}}}")
