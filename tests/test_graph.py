"""Unit tests for the graph substrate (Section 2 system model)."""

from __future__ import annotations

import pytest

from repro.core.graph import (
    EdgeDirection,
    GraphValidationError,
    LinkReversalInstance,
    Orientation,
    all_orientations,
    hop_distances,
    undirected,
)


def make_triangle() -> LinkReversalInstance:
    """d -> a, d -> b, a -> b (a DAG on a triangle)."""
    return LinkReversalInstance.from_directed_edges(
        nodes=["d", "a", "b"],
        destination="d",
        edges=[("d", "a"), ("d", "b"), ("a", "b")],
    )


class TestEdgeDirection:
    def test_flipped_in(self):
        assert EdgeDirection.IN.flipped() is EdgeDirection.OUT

    def test_flipped_out(self):
        assert EdgeDirection.OUT.flipped() is EdgeDirection.IN

    def test_values_match_paper_terms(self):
        assert EdgeDirection.IN.value == "in"
        assert EdgeDirection.OUT.value == "out"


class TestInstanceConstruction:
    def test_basic_fields(self, bad_chain):
        assert bad_chain.destination == 0
        assert bad_chain.node_count == 5
        assert bad_chain.edge_count == 4

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(GraphValidationError):
            LinkReversalInstance(nodes=(0, 0, 1), destination=0, initial_edges=((0, 1),))

    def test_unknown_destination_rejected(self):
        with pytest.raises(GraphValidationError):
            LinkReversalInstance(nodes=(0, 1), destination=9, initial_edges=((0, 1),))

    def test_edge_to_unknown_node_rejected(self):
        with pytest.raises(GraphValidationError):
            LinkReversalInstance(nodes=(0, 1), destination=0, initial_edges=((0, 5),))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError):
            LinkReversalInstance(nodes=(0, 1), destination=0, initial_edges=((1, 1),))

    def test_parallel_edge_rejected(self):
        with pytest.raises(GraphValidationError):
            LinkReversalInstance(
                nodes=(0, 1), destination=0, initial_edges=((0, 1), (1, 0))
            )

    def test_from_directed_edges_roundtrip(self, diamond):
        assert set(diamond.nodes) == {"d", "a", "b", "c"}
        assert ("a", "c") in diamond.initial_edges

    def test_from_networkx_and_back(self, bad_chain):
        graph = bad_chain.to_networkx()
        rebuilt = LinkReversalInstance.from_networkx(graph, destination=0)
        assert set(rebuilt.initial_edges) == set(bad_chain.initial_edges)
        assert rebuilt.destination == bad_chain.destination

    def test_relabelled(self, diamond):
        mapping = {"d": 0, "a": 1, "b": 2, "c": 3}
        relabelled = diamond.relabelled(mapping)
        assert relabelled.destination == 0
        assert (1, 3) in relabelled.initial_edges


class TestNeighbourSets:
    def test_nbrs_is_union_of_in_and_out(self, diamond):
        for u in diamond.nodes:
            assert diamond.nbrs(u) == diamond.in_nbrs(u) | diamond.out_nbrs(u)

    def test_in_and_out_disjoint(self, diamond):
        for u in diamond.nodes:
            assert not (diamond.in_nbrs(u) & diamond.out_nbrs(u))

    def test_chain_neighbour_sets(self, bad_chain):
        # edges are 0->1, 1->2, 2->3, 3->4
        assert bad_chain.out_nbrs(0) == frozenset({1})
        assert bad_chain.in_nbrs(0) == frozenset()
        assert bad_chain.in_nbrs(4) == frozenset({3})
        assert bad_chain.out_nbrs(4) == frozenset()
        assert bad_chain.nbrs(2) == frozenset({1, 3})

    def test_degree(self, diamond):
        assert diamond.degree("d") == 2
        assert diamond.degree("c") == 2

    def test_has_edge(self, diamond):
        assert diamond.has_edge("a", "c")
        assert diamond.has_edge("c", "a")
        assert not diamond.has_edge("a", "b")


class TestInstanceStructure:
    def test_non_destination_nodes(self, bad_chain):
        assert bad_chain.non_destination_nodes == (1, 2, 3, 4)

    def test_initial_sinks_of_bad_chain(self, bad_chain):
        # only the far end (node 4) has all incident edges incoming
        assert bad_chain.initial_sinks() == (4,)

    def test_initial_sources_of_bad_chain(self, bad_chain):
        assert bad_chain.initial_sources() == (0,)

    def test_initially_acyclic(self, bad_chain, diamond, random_dag):
        for instance in (bad_chain, diamond, random_dag):
            assert instance.is_initially_acyclic()

    def test_cycle_detected(self):
        instance = LinkReversalInstance(
            nodes=(0, 1, 2),
            destination=0,
            initial_edges=((0, 1), (1, 2), (2, 0)),
        )
        assert not instance.is_initially_acyclic()

    def test_validate_rejects_cycle(self):
        instance = LinkReversalInstance(
            nodes=(0, 1, 2),
            destination=0,
            initial_edges=((0, 1), (1, 2), (2, 0)),
        )
        with pytest.raises(GraphValidationError):
            instance.validate(require_dag=True)

    def test_validate_connectivity(self):
        instance = LinkReversalInstance(
            nodes=(0, 1, 2, 3), destination=0, initial_edges=((0, 1), (2, 3))
        )
        assert not instance.is_connected()
        with pytest.raises(GraphValidationError):
            instance.validate(require_connected=True)

    def test_bad_nodes_of_bad_chain(self, bad_chain):
        assert bad_chain.bad_nodes() == frozenset({1, 2, 3, 4})

    def test_bad_nodes_of_good_chain(self, good_chain):
        assert good_chain.bad_nodes() == frozenset()

    def test_connected(self, bad_chain, diamond):
        assert bad_chain.is_connected()
        assert diamond.is_connected()

    def test_hop_distances_search_once_per_alive_mask(self, diamond, monkeypatch):
        import repro.core.graph as graph

        searches = []
        search = graph._distances_from_destination
        monkeypatch.setattr(
            graph, "_distances_from_destination",
            lambda *args: searches.append(1) or search(*args),
        )
        every = (1 << diamond.edge_count) - 1
        full = hop_distances(diamond)
        # no alive mask and the all-links mask are one pair
        assert hop_distances(diamond, every) == full and len(searches) == 1
        survivors = hop_distances(diamond, every & ~1)
        assert hop_distances(diamond, every & ~1) == survivors
        assert len(searches) == 2


class TestOrientation:
    def test_initial_orientation_matches_instance(self, diamond):
        orientation = diamond.initial_orientation()
        assert set(orientation.directed_edges()) == set(diamond.initial_edges)

    def test_dir_view(self, diamond):
        orientation = diamond.initial_orientation()
        assert orientation.dir("d", "a") is EdgeDirection.OUT
        assert orientation.dir("a", "d") is EdgeDirection.IN
        assert orientation.dir("c", "a") is EdgeDirection.IN

    def test_invariant_3_1_by_construction(self, random_dag):
        orientation = random_dag.initial_orientation()
        for u, v in random_dag.initial_edges:
            assert (orientation.dir(u, v) is EdgeDirection.IN) == (
                orientation.dir(v, u) is EdgeDirection.OUT
            )

    def test_head_and_tail(self, diamond):
        orientation = diamond.initial_orientation()
        assert orientation.head("d", "a") == "a"
        assert orientation.tail("d", "a") == "d"

    def test_points_towards(self, diamond):
        orientation = diamond.initial_orientation()
        assert orientation.points_towards("d", "a")
        assert not orientation.points_towards("a", "d")

    def test_reverse_edge(self, diamond):
        orientation = diamond.initial_orientation()
        orientation.reverse_edge("a", "c")
        assert orientation.points_towards("c", "a")
        orientation.reverse_edge("a", "c")
        assert orientation.points_towards("a", "c")

    def test_reverse_edges_from_only_flips_incoming(self, diamond):
        orientation = diamond.initial_orientation()
        # c is a sink: reversing from c flips both edges
        flipped = orientation.reverse_edges_from("c", ["a", "b"])
        assert set(flipped) == {"a", "b"}
        # now nothing points at c, so a second call flips nothing
        assert orientation.reverse_edges_from("c", ["a", "b"]) == ()

    def test_copy_is_independent(self, diamond):
        orientation = diamond.initial_orientation()
        clone = orientation.copy()
        clone.reverse_edge("a", "c")
        assert orientation.points_towards("a", "c")
        assert clone.points_towards("c", "a")

    def test_current_in_out_nbrs(self, diamond):
        orientation = diamond.initial_orientation()
        assert orientation.current_in_nbrs("c") == frozenset({"a", "b"})
        assert orientation.current_out_nbrs("c") == frozenset()
        assert orientation.current_out_nbrs("d") == frozenset({"a", "b"})

    def test_sink_and_source_predicates(self, diamond):
        orientation = diamond.initial_orientation()
        assert orientation.is_sink("c")
        assert orientation.is_source("d")
        assert not orientation.is_sink("a")
        assert not orientation.is_source("a")

    def test_sinks_excludes_destination_by_default(self, good_chain):
        orientation = good_chain.initial_orientation()
        # destination 0 is the only structural sink in a destination-oriented chain
        assert orientation.sinks(exclude_destination=True) == ()
        assert orientation.sinks(exclude_destination=False) == (0,)

    def test_acyclicity_check(self, diamond):
        orientation = diamond.initial_orientation()
        assert orientation.is_acyclic()
        assert orientation.find_cycle() == ()

    def test_cycle_found_when_present(self):
        instance = LinkReversalInstance(
            nodes=(0, 1, 2), destination=0, initial_edges=((0, 1), (1, 2), (0, 2))
        )
        cyclic = Orientation.from_directed_edges(instance, [(0, 1), (1, 2), (2, 0)])
        assert not cyclic.is_acyclic()
        cycle = cyclic.find_cycle()
        assert len(cycle) == 3
        assert set(cycle) == {0, 1, 2}

    def test_path_reachability(self, bad_chain, good_chain):
        assert bad_chain.initial_orientation().nodes_with_path_to_destination() == frozenset({0})
        assert good_chain.initial_orientation().is_destination_oriented()

    def test_signature_and_hash(self, diamond):
        a = diamond.initial_orientation()
        b = diamond.initial_orientation()
        assert a.signature() == b.signature()
        assert hash(a) == hash(b)
        b.reverse_edge("a", "c")
        assert a.signature() != b.signature()

    def test_orientation_from_bad_edge_rejected(self, diamond):
        with pytest.raises(GraphValidationError):
            Orientation.from_directed_edges(diamond, [("a", "b")])

    def test_orientation_missing_edge_rejected(self, diamond):
        with pytest.raises(GraphValidationError):
            Orientation.from_directed_edges(diamond, [("d", "a")])


class TestAllOrientations:
    def test_count_is_two_to_the_edges(self):
        instance = make_triangle()
        orientations = list(all_orientations(instance))
        assert len(orientations) == 2 ** instance.edge_count

    def test_all_unique(self):
        instance = make_triangle()
        signatures = {o.signature() for o in all_orientations(instance)}
        assert len(signatures) == 2 ** instance.edge_count

    def test_includes_cyclic_and_acyclic(self):
        instance = make_triangle()
        acyclic = [o for o in all_orientations(instance) if o.is_acyclic()]
        cyclic = [o for o in all_orientations(instance) if not o.is_acyclic()]
        # a triangle has 8 orientations, exactly 2 of them are directed cycles
        assert len(cyclic) == 2
        assert len(acyclic) == 6


class TestUndirectedHelper:
    def test_undirected_is_symmetric(self):
        assert undirected(1, 2) == undirected(2, 1)

    def test_undirected_is_frozenset(self):
        assert undirected("a", "b") == frozenset({"a", "b"})
