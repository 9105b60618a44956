"""The Gafni–Bertsekas height rule and the height-based FR and PR automata.

The original acyclicity proof for Partial Reversal (Gafni & Bertsekas 1981,
recalled in Section 1 of the paper) assigns each node a *height* — a pair for
Full Reversal, a triple for Partial Reversal — and directs every edge from the
lexicographically larger height to the smaller one.  Because the heights form
a total order, the directed graph is trivially acyclic in every state; the
work of the proof is showing the height updates reproduce the reversal
behaviour of the list-based algorithm.

This module is the one home of that rule, shared by the automata below, the
asynchronous node protocol (:mod:`repro.distributed.protocol`) and both
asynchronous networks:

* :class:`HeightValue` ``(a, b, rank)`` is the one height type.  Full
  Reversal's pair ``(a_i, i)`` is the triple ``(a_i, 0, i)``, which orders
  exactly like the pair.
* :func:`initial_height_levels` is the one initial-level function: the
  negated longest-path level of each node in the initial DAG.
* :func:`full_reversal_height` — when ``i`` is a sink it sets
  ``a_i := 1 + max{a_j : j ∈ nbrs(i)}``, which lifts it above every
  neighbour and thus reverses all incident edges.
* :func:`partial_reversal_height` — when ``i`` is a sink it sets::

      a_i := 1 + min{a_j : j ∈ nbrs(i)}
      b_i := (min{b_j : j ∈ nbrs(i), a_j = a_i} - 1)   if that set is non-empty,
             b_i                                        otherwise.

  This lifts ``i`` above exactly the neighbours with the old minimum
  ``a``-value and keeps it below the rest — the "partial" reversal.

In the automata, heights live in the node state; edge directions are
*derived* from the height order, so acyclicity is structural.  The automata
expose the same ``reverse(u)`` interface as the rest of the library so they
plug into the same schedulers, analysis and benchmarks (experiment E14
compares the height-based PR against the list-based PR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

from repro.core.base import LinkReversalAutomaton
from repro.core.graph import LinkReversalInstance, Orientation

Node = Hashable


@dataclass(frozen=True, order=True)
class HeightValue:
    """A totally ordered node height ``(a, b, rank)``.

    Full Reversal keeps ``b = 0`` once a node has stepped; Partial Reversal
    uses all three components.  The order is lexicographic, so any snapshot
    of heights induces an acyclic orientation.
    """

    a: int
    b: int
    rank: int


def initial_height_levels(instance: LinkReversalInstance) -> Dict[Node, int]:
    """Initial levels consistent with the instance's DAG.

    Longest-path levels from the sources, negated so that every initial edge
    points from the larger level to the smaller: the initial orientation is
    exactly the one induced by heights ``(0, level[u], rank[u])`` (Partial
    Reversal and the asynchronous networks) or ``(level[u], 0, rank[u])``
    (Full Reversal).
    """
    from repro.core.embedding import topological_order

    level: Dict[Node, int] = {u: 0 for u in instance.nodes}
    for u in topological_order(instance):
        for v in instance.out_nbrs(u):
            level[v] = max(level[v], level[u] + 1)
    max_level = max(level.values(), default=0)
    return {u: max_level - level[u] for u in instance.nodes}


def full_reversal_height(rank: int, neighbours: Iterable[HeightValue]) -> HeightValue:
    """A Full Reversal sink's new height: one ``a`` above its highest neighbour."""
    return HeightValue(max(h.a for h in neighbours) + 1, 0, rank)


def partial_reversal_height(own: HeightValue, neighbours: Sequence[HeightValue]) -> HeightValue:
    """A Partial Reversal sink's new height (the Gafni–Bertsekas triple update)."""
    new_a = min(h.a for h in neighbours) + 1
    same_level = [h.b for h in neighbours if h.a == new_a]
    new_b = min(same_level) - 1 if same_level else own.b
    return HeightValue(new_a, new_b, own.rank)


class HeightState:
    """State of a height-based automaton: one height per node.

    Edge directions are derived: the edge ``{u, v}`` points from the node with
    the larger height to the node with the smaller height, so the orientation
    is acyclic by construction in every reachable state.
    """

    __slots__ = ("instance", "heights", "counts")

    def __init__(
        self,
        instance: LinkReversalInstance,
        heights: Mapping[Node, HeightValue],
        counts: Optional[Mapping[Node, int]] = None,
    ):
        self.instance = instance
        self.heights: Dict[Node, HeightValue] = dict(heights)
        self.counts: Dict[Node, int] = dict(counts) if counts else {u: 0 for u in instance.nodes}

    # ------------------------------------------------------------------
    # derived orientation
    # ------------------------------------------------------------------
    def points_towards(self, u: Node, v: Node) -> bool:
        """Whether the edge between ``u`` and ``v`` is directed ``u -> v``."""
        return self.heights[u] > self.heights[v]

    def directed_edges(self) -> Tuple[Tuple[Node, Node], ...]:
        """The current derived directed edge set."""
        result = []
        for u, v in self.instance.initial_edges:
            if self.points_towards(u, v):
                result.append((u, v))
            else:
                result.append((v, u))
        return tuple(result)

    def reversal_mask(self) -> int:
        """The derived orientation as a reversal bitmask over the edge index.

        Bit ``e`` is set iff edge ``e`` currently points against its initial
        direction, i.e. the initial tail's height dropped below the initial
        head's.  This is exactly :meth:`Orientation.signature`, computed
        without materialising an :class:`Orientation`.
        """
        mask = 0
        heights = self.heights
        for e, (u, v) in enumerate(self.instance.initial_edges):
            if heights[u] < heights[v]:
                mask |= 1 << e
        return mask

    def to_orientation(self) -> Orientation:
        """Materialise the derived orientation as an :class:`Orientation`."""
        return Orientation.from_mask(self.instance, self.reversal_mask())

    def is_sink(self, u: Node) -> bool:
        """Whether every incident edge currently points towards ``u``."""
        nbrs = self.instance.nbrs(u)
        if not nbrs:
            return False
        return all(self.heights[v] > self.heights[u] for v in nbrs)

    def sinks(self) -> Tuple[Node, ...]:
        """All non-destination sinks."""
        return tuple(
            u
            for u in self.instance.nodes
            if u != self.instance.destination and self.is_sink(u)
        )

    def is_acyclic(self) -> bool:
        """Always true: the height order is total, so no directed cycle can exist."""
        return True

    def is_destination_oriented(self) -> bool:
        """Whether every node has a directed path to the destination."""
        return self.to_orientation().is_destination_oriented()

    def graph_signature(self) -> int:
        """Fingerprint of the derived orientation (for cross-algorithm comparison)."""
        return self.reversal_mask()

    def copy(self) -> "HeightState":
        return HeightState(self.instance, dict(self.heights), dict(self.counts))

    def signature(self) -> Tuple:
        # heights in instance node order; node identity is positional
        return tuple(self.heights[u] for u in self.instance.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeightState):
            return NotImplemented
        # the signature is positional (heights in instance node order), so
        # equality is only meaningful over the same problem instance
        return (
            self.instance is other.instance or self.instance == other.instance
        ) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())


class _HeightAutomaton(LinkReversalAutomaton):
    """Shared plumbing for the two height-based automata.

    A subclass gives ``_initial_height(level, rank)``, a node's initial
    height, and ``_lift(own, neighbours)``, a sink's raised height.
    """

    def initial_state(self) -> HeightState:
        levels = initial_height_levels(self.instance)
        return HeightState(
            self.instance,
            {u: self._initial_height(levels[u], rank) for rank, u in enumerate(self.instance.nodes)},
        )

    def _apply_reverse(self, state: HeightState, node: Node) -> HeightState:
        new_state = state.copy()
        heights = state.heights
        new_state.heights[node] = self._lift(
            heights[node], [heights[v] for v in self.instance.nbrs(node)]
        )
        new_state.counts[node] += 1
        return new_state


class GBFullReversalHeights(_HeightAutomaton):
    """Gafni–Bertsekas Full Reversal via pair heights ``(a_i, 0, i)``."""

    name = "GB-FR-heights"

    @staticmethod
    def _initial_height(level: int, rank: int) -> HeightValue:
        return HeightValue(level, 0, rank)

    @staticmethod
    def _lift(own: HeightValue, neighbours: Sequence[HeightValue]) -> HeightValue:
        return full_reversal_height(own.rank, neighbours)


class GBPartialReversalHeights(_HeightAutomaton):
    """Gafni–Bertsekas Partial Reversal via triple heights ``(a_i, b_i, i)``."""

    name = "GB-PR-heights"

    @staticmethod
    def _initial_height(level: int, rank: int) -> HeightValue:
        return HeightValue(0, level, rank)

    _lift = staticmethod(partial_reversal_height)
