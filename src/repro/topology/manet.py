"""Random geometric (unit-disk) networks — the standard MANET abstraction.

Link-reversal routing was designed for mobile ad-hoc networks, where nodes are
radios scattered in the plane and a link exists between two nodes when they
are within transmission range.  :class:`GeometricNetwork` captures exactly
that: node positions in the unit square, a communication radius, and helpers
to derive a :class:`~repro.core.graph.LinkReversalInstance` (with an initial
DAG orientation) and to recompute the link set after nodes move.

The paper itself has no MANET evaluation (it is a proof paper), but its
motivating application, routing, is exercised on this substrate in
experiment E15.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.graph import LinkReversalInstance

Node = Hashable
Position = Tuple[float, float]


@dataclass
class GeometricNetwork:
    """A set of nodes with planar positions and a communication radius.

    Attributes
    ----------
    positions:
        Mapping from node to ``(x, y)`` coordinates in the unit square.
    radius:
        Two nodes are linked iff their Euclidean distance is at most this.
    destination:
        The routing destination.
    """

    positions: Dict[Node, Position]
    radius: float
    destination: Node

    def __post_init__(self) -> None:
        if self.destination not in self.positions:
            raise ValueError("destination must have a position")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All nodes, in insertion order."""
        return tuple(self.positions)

    def distance(self, u: Node, v: Node) -> float:
        """Euclidean distance between two nodes."""
        (x1, y1), (x2, y2) = self.positions[u], self.positions[v]
        return math.hypot(x1 - x2, y1 - y2)

    def links(self) -> FrozenSet[FrozenSet[Node]]:
        """The current undirected link set induced by the radius."""
        nodes = self.nodes
        result = set()
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                if self.distance(u, v) <= self.radius:
                    result.add(frozenset((u, v)))
        return frozenset(result)

    def is_connected(self) -> bool:
        """Whether the current link set connects all nodes."""
        nodes = self.nodes
        if not nodes:
            return True
        adjacency: Dict[Node, List[Node]] = {u: [] for u in nodes}
        for link in self.links():
            u, v = tuple(link)
            adjacency[u].append(v)
            adjacency[v].append(u)
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            u = frontier.pop()
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == len(nodes)

    # ------------------------------------------------------------------
    def to_instance(self) -> LinkReversalInstance:
        """Derive a link-reversal instance with a destination-distance DAG orientation.

        Each link is oriented from the endpoint farther from the destination
        (in Euclidean distance, ties broken by node order) to the closer one,
        which yields an initial DAG that is already destination oriented —
        the state a MANET is in *before* mobility breaks links.
        """
        order = {u: i for i, u in enumerate(self.nodes)}
        # each node's (distance to the destination, node order), computed once
        # with the same hypot call as distance()
        dx, dy = self.positions[self.destination]
        key = {
            u: (math.hypot(x - dx, y - dy), order[u])
            for u, (x, y) in self.positions.items()
        }

        edges: List[Tuple[Node, Node]] = []
        for link in sorted(self.links(), key=lambda l: tuple(sorted(order[x] for x in l))):
            u, v = tuple(link)
            if key[u] > key[v]:
                edges.append((u, v))
            else:
                edges.append((v, u))
        return LinkReversalInstance(self.nodes, self.destination, tuple(edges))

    def moved(self, new_positions: Dict[Node, Position]) -> "GeometricNetwork":
        """Return a copy of the network with updated node positions."""
        positions = dict(self.positions)
        positions.update(new_positions)
        return GeometricNetwork(positions, self.radius, self.destination)


def random_geometric_instance(
    num_nodes: int,
    radius: float = 0.35,
    seed: int = 0,
    destination_index: int = 0,
    require_connected: bool = True,
    max_attempts: int = 200,
) -> Tuple[LinkReversalInstance, GeometricNetwork]:
    """Generate a connected random geometric network and its derived instance.

    Nodes are placed uniformly at random in the unit square.  If the induced
    link graph is disconnected the placement is retried (up to
    ``max_attempts``) with consecutive seeds, so the returned network is
    connected whenever ``require_connected`` is set.

    Returns the ``(instance, network)`` pair so callers can later move the
    nodes and diff the link sets.
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    attempt = 0
    while True:
        rng = random.Random(seed + attempt)
        positions = {i: (rng.random(), rng.random()) for i in range(num_nodes)}
        network = GeometricNetwork(positions, radius, destination=destination_index)
        if not require_connected or network.is_connected():
            return network.to_instance(), network
        attempt += 1
        if attempt >= max_attempts:
            raise RuntimeError(
                f"could not generate a connected geometric network with n={num_nodes}, "
                f"radius={radius} in {max_attempts} attempts; increase the radius"
            )
