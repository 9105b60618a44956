"""Random geometric (unit-disk) networks — the standard MANET abstraction.

Link-reversal routing was designed for mobile ad-hoc networks, where nodes are
radios scattered in the plane and a link exists between two nodes when they
are within transmission range.  :class:`GeometricNetwork` captures exactly
that: node positions in the unit square, a communication radius, and helpers
to derive a :class:`~repro.core.graph.LinkReversalInstance` (with an initial
DAG orientation) and to recompute the link set after nodes move.

The paper itself has no MANET evaluation (it is a proof paper), but its
motivating application, route maintenance under topology change, is
exercised on this substrate by the ``geometric`` family's ``link-failures``
and ``mobility`` campaign cells (experiment E15).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterator, Tuple

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
        return frozenset(frozenset(pair) for pair in self._linked_pairs())

    def _linked_pairs(self) -> Iterator[Tuple[Node, Node]]:
        """Every linked pair ``(u, v)``, ``u`` before ``v`` in node order.

        The pairs come sorted by their endpoints' node order.
        :meth:`distance` is inlined: the mobility trajectories of churn
        campaigns derive an instance per step.
        """
        placed = list(self.positions.items())
        radius = self.radius
        hypot = math.hypot
        for i, (u, (x1, y1)) in enumerate(placed):
            for v, (x2, y2) in placed[i + 1:]:
                if hypot(x1 - x2, y1 - y2) <= radius:
                    yield u, v

    # ------------------------------------------------------------------
    def to_instance(self) -> LinkReversalInstance:
        """Derive a link-reversal instance with a destination-distance DAG orientation.

        Each link is oriented from the endpoint farther from the destination
        (in Euclidean distance, ties broken by node order) to the closer one,
        which yields an initial DAG that is already destination oriented —
        the state a MANET is in *before* mobility breaks links.
        """
        # each node's (distance to the destination, node order), computed once
        # with the same hypot call as distance()
        dx, dy = self.positions[self.destination]
        key = {
            u: (math.hypot(x - dx, y - dy), i)
            for i, (u, (x, y)) in enumerate(self.positions.items())
        }
        # the edges in the order of their endpoints' node order
        edges = tuple(
            (u, v) if key[u] > key[v] else (v, u) for u, v in self._linked_pairs()
        )
        return LinkReversalInstance(self.nodes, self.destination, edges)

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
        instance = network.to_instance()
        if not require_connected or instance.is_connected():
            return instance, network
        attempt += 1
        if attempt >= max_attempts:
            raise RuntimeError(
                f"could not generate a connected geometric network with n={num_nodes}, "
                f"radius={radius} in {max_attempts} attempts; increase the radius"
            )
