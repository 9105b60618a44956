"""The Full Reversal (FR) baseline algorithm of Gafni and Bertsekas.

Full Reversal is the simplest link-reversal algorithm: whenever a node is a
sink it reverses *all* of its incident edges.  The paper uses FR as the
contrast algorithm throughout Section 1:

* FR's acyclicity argument is immediate — the last node to step before a
  hypothetical cycle would have all edges outgoing, a contradiction
  (reproduced as experiment E9);
* FR and PR share the same Θ(n_b²) worst-case total-reversal bound even
  though PR "seems" more efficient (experiments E9/E10).

Both a single-node automaton (``reverse(u)``) and a concurrent-set view (via
:meth:`FullReversal.greedy_action`) are provided, mirroring the PR automata.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterator, Mapping, Optional, Tuple

from repro.automata.ioa import Action
from repro.core.base import LinkReversalAutomaton, LinkReversalState, Reverse
from repro.core.graph import LinkReversalInstance, Orientation

Node = Hashable


class FRState(LinkReversalState):
    """State of the FR automaton: edge directions plus a per-node step counter.

    The counter is not part of Gafni–Bertsekas' original description — FR
    needs no bookkeeping at all — but keeping it makes work accounting and the
    comparison benchmarks uniform across algorithms.  It does not influence
    the transition relation.
    """

    __slots__ = ("counts",)

    def __init__(
        self,
        instance: LinkReversalInstance,
        orientation: Orientation,
        counts: Optional[Mapping[Node, int]] = None,
    ):
        super().__init__(instance, orientation)
        if counts is None:
            counts = {u: 0 for u in instance.nodes}
        self.counts: Dict[Node, int] = dict(counts)

    def count(self, u: Node) -> int:
        """Number of steps node ``u`` has taken so far."""
        return self.counts[u]

    def total_steps(self) -> int:
        """Total number of steps taken by all nodes."""
        return sum(self.counts.values())

    def copy(self) -> "FRState":
        return FRState(self.instance, self.orientation.copy(), dict(self.counts))

    def signature(self) -> int:
        # The counter is history-only; two states with the same orientation are
        # behaviourally identical, so the signature deliberately excludes it.
        return self.graph_signature()


class FullReversal(LinkReversalAutomaton):
    """The Full Reversal automaton: a sink reverses all of its incident edges."""

    name = "FR"

    def initial_state(self) -> FRState:
        return FRState(self.instance, self.instance.initial_orientation())

    def reversal_targets(self, state: FRState, u: Node) -> FrozenSet[Node]:
        """FR always reverses the edges to every neighbour."""
        return self.instance.nbrs(u)

    def greedy_action_nodes(self, state: FRState) -> Tuple[Node, ...]:
        """The set of all current sinks (they may all step in one concurrent round)."""
        return state.sinks()

    def _apply_reverse(self, state: FRState, u: Node) -> FRState:
        new_state = state.copy()
        # u is a sink, so this flips every incident edge
        new_state.orientation.reverse_edges_from(u, self.instance.incident_neighbours(u))
        new_state.counts[u] = state.counts[u] + 1
        return new_state
