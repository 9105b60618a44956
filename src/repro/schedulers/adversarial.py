"""Adversarial and lazy schedulers.

The worst-case Θ(n_b²) bound on total reversals (Busch & Tirthapura, quoted in
Section 1 of the paper) is attained on chain-like topologies when reversals
are propagated as far as possible before the "good" part of the graph absorbs
them.  :class:`AdversarialScheduler` approximates that adversary with a
distance heuristic: among the enabled sinks it always fires the one whose
undirected hop distance to the destination
(:func:`repro.core.graph.hop_distances`) is largest, pushing reversal waves
back and forth across the bad region.  :class:`LazyScheduler` is the opposite
(closest sink first), which tends to finish quickly.

Both are heuristics, not exact worst/best cases; the work benchmarks compare
them against the greedy and random schedules to show the spread.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.automata.ioa import Action, IOAutomaton
from repro.core.graph import hop_distances
from repro.schedulers.base import Scheduler

Node = Hashable


class AdversarialScheduler(Scheduler):
    """Fire the enabled sink farthest (in hops) from the destination.

    Ties are broken by instance node order so runs are reproducible.
    """

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self._distance: Dict[Node, int] = {}
        self._order: Dict[Node, int] = {}

    def reset(self, automaton: IOAutomaton) -> None:
        instance = automaton.instance
        self._distance = dict(zip(instance.nodes, hop_distances(instance)))
        self._order = {u: i for i, u in enumerate(instance.nodes)}

    def select(self, automaton: IOAutomaton, state) -> Optional[Action]:
        if not self._distance:
            self.reset(automaton)
        nodes = self._enabled_nodes(automaton, state)
        if not nodes:
            return None
        node = max(nodes, key=lambda u: (self._distance[u], -self._order[u]))
        return self._single_action(automaton, node)


class LazyScheduler(Scheduler):
    """Fire the enabled sink closest (in hops) to the destination."""

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self._distance: Dict[Node, int] = {}
        self._order: Dict[Node, int] = {}

    def reset(self, automaton: IOAutomaton) -> None:
        instance = automaton.instance
        self._distance = dict(zip(instance.nodes, hop_distances(instance)))
        self._order = {u: i for i, u in enumerate(instance.nodes)}

    def select(self, automaton: IOAutomaton, state) -> Optional[Action]:
        if not self._distance:
            self.reset(automaton)
        nodes = self._enabled_nodes(automaton, state)
        if not nodes:
            return None
        node = min(nodes, key=lambda u: (self._distance[u], self._order[u]))
        return self._single_action(automaton, node)
