"""The structural searches of :mod:`repro.core.graph` against networkx.

networkx is an oracle outside this repository.  Every orientation of every
connected DAG instance on at most four nodes (646 orientations), and seeded
orientation and alive-link masks on ``grid`` and ``geometric`` instances,
must get networkx's DAG verdict, its destination-orientation verdict (the
destination's ancestors are every other node), a cycle exactly when the
orientation is cyclic, and its undirected hop distances.  The bridge test of
the alive links, which every engine's link-failure churn asks, must agree
with networkx's path search on the survivors.
"""

from __future__ import annotations

import random

import pytest

nx = pytest.importorskip("networkx")

from repro.core.graph import (  # noqa: E402
    all_orientations,
    hop_distances,
    link_splits,
    mask_final_state_checks,
)
from repro.distributed.fast_network import FastAsyncNetwork  # noqa: E402
from repro.experiments.churn import LinkDraw  # noqa: E402
from repro.exploration.enumerate_graphs import all_connected_dag_instances  # noqa: E402
from repro.topology.generators import build_family  # noqa: E402

SMALL_INSTANCES = [
    instance for n in range(2, 5) for instance in all_connected_dag_instances(n)
]


def _oracle(instance, mask, alive):
    """``(acyclic, destination oriented, ancestors, hop distances)`` by networkx."""
    directed = nx.DiGraph()
    directed.add_nodes_from(instance.nodes)
    directed.add_edges_from(
        (v, u) if (mask >> e) & 1 else (u, v)
        for e, (u, v) in enumerate(instance.initial_edges)
        if (alive >> e) & 1
    )
    dest = instance.destination
    ancestors = nx.ancestors(directed, dest)
    lengths = nx.single_source_shortest_path_length(directed.to_undirected(), dest)
    unreached = instance.node_count + 1
    return (
        nx.is_directed_acyclic_graph(directed),
        ancestors == set(instance.nodes) - {dest},
        ancestors | {dest},
        tuple(lengths.get(u, unreached) for u in instance.nodes),
    )


@pytest.mark.parametrize("n,orientations", [(2, 2), (3, 20), (4, 624)])
def test_every_small_orientation_matches_networkx(n, orientations):
    seen = 0
    for instance in SMALL_INSTANCES:
        if instance.node_count != n:
            continue
        every = (1 << instance.edge_count) - 1
        assert instance.is_initially_acyclic()
        for orientation in all_orientations(instance):
            seen += 1
            mask = orientation.signature()
            acyclic, oriented, reaching, distances = _oracle(instance, mask, every)
            assert orientation.is_acyclic() == acyclic
            assert bool(orientation.find_cycle()) == (not acyclic)
            assert orientation.is_destination_oriented() == oriented
            assert orientation.nodes_with_path_to_destination() == reaching
            assert mask_final_state_checks(instance, mask) == (acyclic, oriented)
            assert hop_distances(instance) == distances
    assert seen == orientations


@pytest.mark.parametrize("family,size", [("grid", 9), ("grid", 16), ("geometric", 12)])
def test_seeded_alive_masks_match_networkx(family, size):
    for seed in range(4):
        instance = build_family(family, size, seed)
        rng = random.Random(seed)
        edges = instance.edge_count
        every = (1 << edges) - 1
        for trial in range(25):
            # the initial orientation, then random ones, each on all links
            # and on random survivors (about one link in four failed)
            mask = 0 if trial < 5 else rng.getrandbits(edges)
            alive = every
            if trial not in (0, 5):
                alive = sum(1 << e for e in range(edges) if rng.random() < 0.75)
            acyclic, oriented, _, distances = _oracle(instance, mask, alive)
            assert mask_final_state_checks(instance, mask, alive) == (acyclic, oriented)
            assert hop_distances(instance, alive) == distances


def _splits_oracle(instance, alive, link):
    """Whether ``link``'s endpoints lose their last path, by networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(instance.nodes)
    graph.add_edges_from(
        edge for e, edge in enumerate(instance.initial_edges)
        if e != link and (alive >> e) & 1
    )
    return not nx.has_path(graph, *instance.initial_edges[link])


@pytest.mark.parametrize("family,size", [("grid", 16), ("geometric", 12)])
def test_link_splits_matches_networkx(family, size):
    for seed in range(4):
        instance = build_family(family, size, seed)
        rng = random.Random(seed)
        edges = instance.edge_count
        for trial in range(10):
            # every link, then random survivors (about one link in four failed)
            alive = (1 << edges) - 1
            if trial:
                alive = sum(1 << e for e in range(edges) if rng.random() < 0.75)
            for link in range(edges):
                if (alive >> link) & 1:
                    assert link_splits(instance, alive, link) == _splits_oracle(
                        instance, alive, link
                    )


@pytest.mark.parametrize("family,size", [("grid", 16), ("geometric", 12)])
def test_partition_tests_agree_along_a_failure_sequence(family, size):
    for seed in range(3):
        instance = build_family(family, size, seed)
        network = FastAsyncNetwork(instance, seed=seed)
        draw = LinkDraw(instance)
        rng = random.Random(seed)
        alive = (1 << instance.edge_count) - 1
        while True:
            live = [e for e in range(instance.edge_count) if (alive >> e) & 1]
            verdicts = {}
            for e in live:
                u, v = instance.initial_edges[e]
                verdicts[e] = _splits_oracle(instance, alive, e)
                assert network.link_would_partition(u, v) == verdicts[e]
                assert draw.splits(alive, e) == verdicts[e]
            safe = [e for e in live if not verdicts[e]]
            if not safe:
                break  # a spanning tree: every link left is a bridge
            e = rng.choice(safe)
            network.fail_link(*instance.initial_edges[e])
            alive &= ~(1 << e)
        assert len(live) == instance.node_count - 1
        # a failed link and a pair that never was one are both non-links
        failed = next(e for e in range(instance.edge_count) if not (alive >> e) & 1)
        dest = instance.destination
        for pair in (instance.initial_edges[failed], (dest, dest)):
            with pytest.raises(ValueError):
                network.link_would_partition(*pair)
            with pytest.raises(ValueError):
                network.fail_link(*pair)
