"""Scheduler interface and simple building-block schedulers.

A scheduler plays the role of the adversary in the paper's execution model:
given the current state it selects one enabled action (or ``None`` to declare
quiescence).  Schedulers are deliberately stateful objects — some keep a
round structure or a replay position — so :meth:`Scheduler.reset` is called by
the execution engine before a run starts.
"""

from __future__ import annotations

import abc
from typing import Hashable, Iterable, List, Optional, Sequence

from repro.automata.ioa import Action, IOAutomaton
from repro.core.base import LinkReversalAutomaton, Reverse
from repro.core.pr import PartialReversal, ReverseSet

Node = Hashable

#: Automata whose enabled single-node actions are exactly the non-destination
#: sinks of the state — the invariant the sink-set fast path relies on.
_SINK_ENABLED_AUTOMATA = (LinkReversalAutomaton, PartialReversal)


class Scheduler(abc.ABC):
    """Abstract scheduler: picks the next action of an execution."""

    @abc.abstractmethod
    def select(self, automaton: IOAutomaton, state) -> Optional[Action]:
        """Return an action enabled in ``state``, or ``None`` if none should fire.

        Returning ``None`` ends the run; for the link-reversal automata every
        scheduler in this package returns ``None`` exactly when no action is
        enabled (quiescence), so runs always converge to the same final graph
        regardless of the scheduler (confluence).
        """

    def reset(self, automaton: IOAutomaton) -> None:
        """Reset internal bookkeeping before a fresh run (default: no-op)."""

    # ------------------------------------------------------------------
    # helpers shared by concrete schedulers
    # ------------------------------------------------------------------
    @staticmethod
    def _enabled_nodes(automaton: IOAutomaton, state) -> List[Node]:
        """All nodes with an enabled single-node action, in deterministic order.

        Fast path: for the link-reversal automata the enabled single-node
        actions are by definition exactly the non-destination sinks, and every
        such state maintains its sink set incrementally, so ``state.sinks()``
        answers without touching the action machinery.  The shortcut is keyed
        on the automaton types that own that invariant; anything else falls
        back to enumerating ``enabled_single_actions``.
        """
        if isinstance(automaton, _SINK_ENABLED_AUTOMATA):
            return list(state.sinks())
        nodes: List[Node] = []
        for action in automaton.enabled_single_actions(state):
            actors = action.actors()
            if len(actors) == 1:
                nodes.append(actors[0])
        return nodes

    @staticmethod
    def _single_action(automaton: IOAutomaton, node: Node) -> Action:
        """Build the single-node action appropriate for ``automaton``."""
        if isinstance(automaton, PartialReversal):
            return ReverseSet(frozenset((node,)))
        return Reverse(node)

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"<{type(self).__name__}>"


class TraceScheduler(Scheduler):
    """Replays an explicit sequence of stepping nodes.

    Nodes in the trace that are not enabled when their turn comes are either
    skipped (``strict=False``, the default) or cause a :class:`ValueError`
    (``strict=True``).  The scheduler declares quiescence when the trace is
    exhausted.
    """

    def __init__(self, nodes: Sequence[Node], strict: bool = False):
        self.trace = list(nodes)
        self.strict = strict
        self._position = 0

    def reset(self, automaton: IOAutomaton) -> None:
        self._position = 0

    def select(self, automaton: IOAutomaton, state) -> Optional[Action]:
        while self._position < len(self.trace):
            node = self.trace[self._position]
            self._position += 1
            action = self._single_action(automaton, node)
            if automaton.is_enabled(state, action):
                return action
            if self.strict:
                raise ValueError(f"trace node {node!r} is not enabled at position {self._position - 1}")
        return None


class RoundRobinScheduler(Scheduler):
    """Fair rotation: repeatedly cycles over the nodes, stepping each enabled one.

    Guarantees that every continuously enabled node is eventually scheduled,
    i.e. the executions it produces are weakly fair.
    """

    def __init__(self) -> None:
        self._cursor = 0
        self._order: List[Node] = []

    def reset(self, automaton: IOAutomaton) -> None:
        self._cursor = 0
        self._order = list(automaton.instance.non_destination_nodes)

    def select(self, automaton: IOAutomaton, state) -> Optional[Action]:
        if not self._order:
            self._order = list(automaton.instance.non_destination_nodes)
        n = len(self._order)
        for offset in range(n):
            node = self._order[(self._cursor + offset) % n]
            action = self._single_action(automaton, node)
            if automaton.is_enabled(state, action):
                self._cursor = (self._cursor + offset + 1) % n
                return action
        return None
