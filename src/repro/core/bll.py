"""Binary Link Labels (BLL) — the generalised link-reversal mechanism.

Section 1 of the paper recalls that one of the two pre-existing acyclicity
proofs for Partial Reversal goes through the *Binary Link Labels* algorithm of
Welch and Walter: every (node, incident edge) pair carries a binary label, a
sink reverses the incident edges selected by its labels, and acyclicity is
guaranteed under a condition on the labelling.  Partial Reversal is the
special case in which a label marks "this neighbour reversed towards me since
my last step", and Full Reversal is the special case in which no label is ever
set.

This module implements the label *mechanism* so that both specialisations can
be instantiated and compared against the direct PR / FR automata (experiment
E13).  Concretely, each node ``u`` keeps a label ``marked[u][v] ∈ {0, 1}`` for
every neighbour ``v``.  When a sink ``u`` steps:

* if some incident edge is unmarked, ``u`` reverses exactly its unmarked
  edges;
* if every incident edge is marked, ``u`` reverses all of them;
* every neighbour ``v`` whose edge was reversed sets ``marked[v][u] := 1``;
* finally all of ``u``'s own labels are cleared to 0.

With all labels initially 0 this is *exactly* the Partial Reversal automaton
(``marked[u]`` plays the role of ``list[u]``); the equivalence is checked by
:func:`bll_matches_partial_reversal` and by the E13 benchmark.  The
``mark_on_reversal=False`` mode never sets labels, which degenerates to Full
Reversal.

BLL is compiled on exactly that reading: marking BLL (from any labelling)
on the OneStepPR kernel, never-marking BLL from the all-unmarked labelling on
the FR kernel (:func:`repro.kernels.signature.compile_expander`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Mapping, Optional, Sequence, Tuple

from repro.core.base import LinkReversalAutomaton, LinkReversalState, Reverse
from repro.core.graph import LinkReversalInstance, Orientation

Node = Hashable


class BLLState(LinkReversalState):
    """State of the BLL automaton: edge directions plus binary labels per (node, edge)."""

    __slots__ = ("marks",)

    def __init__(
        self,
        instance: LinkReversalInstance,
        orientation: Orientation,
        marks: Optional[Mapping[Node, FrozenSet[Node]]] = None,
    ):
        super().__init__(instance, orientation)
        if marks is None:
            marks = {u: frozenset() for u in instance.nodes}
        self.marks: Dict[Node, FrozenSet[Node]] = dict(marks)

    def marked_neighbours(self, u: Node) -> FrozenSet[Node]:
        """Neighbours ``v`` of ``u`` whose incident edge is currently marked at ``u``."""
        return self.marks[u]

    def is_marked(self, u: Node, v: Node) -> bool:
        """Whether the edge to neighbour ``v`` is marked from ``u``'s perspective."""
        return v in self.marks[u]

    def copy(self) -> "BLLState":
        return BLLState(self.instance, self.orientation.copy(), dict(self.marks))

    def signature(self) -> int:
        """One compact int: ``marked[u]`` packed as neighbour bitmasks above
        the orientation's reversal bitmask (CSR bit layout of the instance)."""
        instance = self.instance
        return (
            instance.pack_neighbour_sets(self.marks) << instance.edge_count
        ) | self.graph_signature()


class BinaryLinkLabels(LinkReversalAutomaton):
    """The Binary Link Labels automaton.

    Parameters
    ----------
    instance:
        The link-reversal problem instance.
    initial_marks:
        Initial labelling, as a mapping from node to the set of neighbours
        whose incident edge is initially marked at that node.  Defaults to the
        all-unmarked labelling, which instantiates Partial Reversal.
    mark_on_reversal:
        When ``True`` (the default, PR semantics) a node marks the edge to any
        neighbour that reverses towards it.  When ``False`` labels are never
        set, which makes every step reverse all incident edges — i.e. Full
        Reversal.
    """

    name = "BLL"

    def __init__(
        self,
        instance: LinkReversalInstance,
        initial_marks: Optional[Mapping[Node, Sequence[Node]]] = None,
        mark_on_reversal: bool = True,
        require_dag: bool = True,
    ):
        super().__init__(instance, require_dag=require_dag)
        self.mark_on_reversal = mark_on_reversal
        marks: Dict[Node, FrozenSet[Node]] = {u: frozenset() for u in instance.nodes}
        if initial_marks:
            for u, neighbours in initial_marks.items():
                bad = set(neighbours) - set(instance.nbrs(u))
                if bad:
                    raise ValueError(
                        f"initial marks of node {u!r} reference non-neighbours {sorted(map(str, bad))}"
                    )
                marks[u] = frozenset(neighbours)
        self._initial_marks = marks

    def initial_state(self) -> BLLState:
        return BLLState(
            self.instance, self.instance.initial_orientation(), dict(self._initial_marks)
        )

    def reversal_targets(self, state: BLLState, u: Node) -> FrozenSet[Node]:
        """The neighbours whose edge ``u`` would reverse if it stepped now."""
        nbrs = self.instance.nbrs(u)
        marked = state.marks[u]
        if marked == nbrs:
            return nbrs
        return nbrs - marked

    def _apply_reverse(self, state: BLLState, u: Node) -> BLLState:
        new_state = state.copy()
        orientation = new_state.orientation
        marks = new_state.marks

        targets = self.reversal_targets(state, u)
        # u is a sink, so every targeted edge currently points at it
        for v in orientation.reverse_edges_from(u, targets):
            if self.mark_on_reversal:
                marks[v] = marks[v] | {u}
        marks[u] = frozenset()
        return new_state


def partial_reversal_as_bll(instance: LinkReversalInstance) -> BinaryLinkLabels:
    """The BLL instantiation that coincides with Partial Reversal."""
    return BinaryLinkLabels(instance, initial_marks=None, mark_on_reversal=True)


def full_reversal_as_bll(instance: LinkReversalInstance) -> BinaryLinkLabels:
    """The BLL instantiation that coincides with Full Reversal."""
    return BinaryLinkLabels(instance, initial_marks=None, mark_on_reversal=False)


def bll_matches_partial_reversal(
    instance: LinkReversalInstance, schedule: Sequence[Node]
) -> bool:
    """Check that BLL (all-unmarked start) and OneStepPR agree on a node schedule.

    Both automata are driven with the same sequence of stepping nodes; the
    function returns ``True`` if after every step the two directed graphs are
    identical and the BLL marks coincide with the PR lists.  Steps whose node
    is not a sink in the current state are skipped in both automata (so any
    node sequence is a valid "schedule hint").
    """
    from repro.core.one_step_pr import OneStepPartialReversal

    bll = partial_reversal_as_bll(instance)
    pr = OneStepPartialReversal(instance)
    bll_state = bll.initial_state()
    pr_state = pr.initial_state()
    for node in schedule:
        action = Reverse(node)
        bll_enabled = bll.is_enabled(bll_state, action)
        pr_enabled = pr.is_enabled(pr_state, action)
        if bll_enabled != pr_enabled:
            return False
        if not bll_enabled:
            continue
        bll_state = bll.apply(bll_state, action)
        pr_state = pr.apply(pr_state, action)
        if bll_state.graph_signature() != pr_state.graph_signature():
            return False
        if any(bll_state.marks[u] != pr_state.lists[u] for u in instance.nodes):
            return False
    return True
