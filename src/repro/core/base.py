"""Shared state and action machinery for the link-reversal automata.

Every algorithm in this package (PR, OneStepPR, NewPR, FR, BLL, the height
based formulations) operates on the same underlying state component: the
current :class:`~repro.core.graph.Orientation` of the edges.  The algorithms
differ only in the extra bookkeeping each node keeps (a neighbour list, a step
counter, link labels, or a height) and in which incident edges a sink reverses
when it takes a step.

This module provides:

* :class:`LinkReversalState` — the common base class holding the orientation
  and exposing the structural queries shared by all algorithms (sinks,
  destination-orientation, acyclicity, signatures for the model checker);
* :class:`Reverse` — the single-node ``reverse(u)`` action used by OneStepPR,
  NewPR, FR, BLL and the height automata;
* :class:`LinkReversalAutomaton` — a base class implementing the pieces of the
  :class:`~repro.automata.ioa.IOAutomaton` interface that are identical across
  algorithms (single-node action enumeration from the sink set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Iterator, Optional, Tuple

from repro.automata.ioa import Action, IOAutomaton, TransitionError
from repro.core.graph import EdgeDirection, LinkReversalInstance, Orientation

Node = Hashable


@dataclass(frozen=True)
class Reverse(Action):
    """The ``reverse(u)`` action: the single node ``u`` (a sink) takes a step."""

    node: Node

    def actors(self) -> Tuple[Node, ...]:
        return (self.node,)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"reverse({self.node})"


class LinkReversalState:
    """Base class for the state of every link-reversal automaton.

    Holds the immutable problem :class:`~repro.core.graph.LinkReversalInstance`
    and the current mutable :class:`~repro.core.graph.Orientation`.  Subclasses
    add their per-node bookkeeping and extend :meth:`signature` and
    :meth:`copy` accordingly.
    """

    __slots__ = ("instance", "orientation")

    def __init__(self, instance: LinkReversalInstance, orientation: Orientation):
        self.instance = instance
        self.orientation = orientation

    # ------------------------------------------------------------------
    # the paper's state variables
    # ------------------------------------------------------------------
    def dir(self, u: Node, v: Node) -> EdgeDirection:
        """The ``dir[u, v]`` state variable."""
        return self.orientation.dir(u, v)

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def is_sink(self, u: Node) -> bool:
        """Whether every edge incident to ``u`` currently points towards it."""
        return self.orientation.is_sink(u)

    def sinks(self) -> Tuple[Node, ...]:
        """All non-destination sinks (the nodes allowed to take a step)."""
        return self.orientation.sinks(exclude_destination=True)

    def is_acyclic(self) -> bool:
        """Whether the current directed graph ``G'`` is acyclic."""
        return self.orientation.is_acyclic()

    def is_destination_oriented(self) -> bool:
        """Whether every node currently has a directed path to the destination."""
        return self.orientation.is_destination_oriented()

    def directed_edges(self) -> Tuple[Tuple[Node, Node], ...]:
        """The current directed edge set of ``G'``."""
        return self.orientation.directed_edges()

    def graph_signature(self) -> int:
        """Canonical fingerprint of the orientation component only (``s.G'``).

        A compact int — the orientation's reversal bitmask over the instance's
        global edge index.  Simulation relations compare states of *different*
        automata by this component ("``s.G' = t.G'``" in the paper), so it is
        exposed separately from the full :meth:`signature`.
        """
        return self.orientation.signature()

    # ------------------------------------------------------------------
    # protocol expected by the framework (subclasses must extend)
    # ------------------------------------------------------------------
    def copy(self) -> "LinkReversalState":
        """Return an independent copy of this state."""
        return type(self)(self.instance, self.orientation.copy())

    def signature(self) -> Hashable:
        """A hashable canonical form of the full state (for reachability)."""
        return self.graph_signature()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkReversalState):
            return NotImplemented
        # signatures are instance-relative (bitmask over the instance's edge
        # index), so states only compare equal over the same problem instance
        return (
            type(self) is type(other)
            and (self.instance is other.instance or self.instance == other.instance)
            and self.signature() == other.signature()
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.signature()))

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"<{type(self).__name__} edges={self.graph_signature()}>"


class LinkReversalAutomaton(IOAutomaton):
    """Base class for automata whose only actions are single-node ``reverse(u)``.

    Subclasses implement :meth:`initial_state` and :meth:`_apply_reverse`,
    which returns the state after the enabled sink ``node`` takes its step
    (the edges it reverses and its per-node bookkeeping).  The state only
    needs ``sinks()`` and ``is_sink(u)``, so the height automata of
    :mod:`repro.core.heights`, whose states derive edges from heights, are
    subclasses too.
    """

    def __init__(self, instance: LinkReversalInstance, require_dag: bool = True):
        instance.validate(require_dag=require_dag)
        self.instance = instance

    # -- pieces shared by every single-node automaton ---------------------
    def enabled_actions(self, state: LinkReversalState) -> Iterator[Action]:
        for u in state.sinks():
            yield Reverse(u)

    def enabled_single_actions(self, state: LinkReversalState) -> Iterator[Action]:
        return self.enabled_actions(state)

    def is_enabled(self, state: LinkReversalState, action: Action) -> bool:
        if not isinstance(action, Reverse):
            return False
        u = action.node
        if u == self.instance.destination:
            return False
        return state.is_sink(u)

    def apply(self, state: LinkReversalState, action: Action) -> LinkReversalState:
        if not self.is_enabled(state, action):
            raise TransitionError(f"{action!r} is not enabled")
        return self._apply_reverse(state, action.node)

    # -- subclass responsibilities ----------------------------------------
    def _apply_reverse(self, state: LinkReversalState, node: Node) -> LinkReversalState:
        raise NotImplementedError
