"""Random-waypoint mobility for the MANET routing experiments.

The random-waypoint model is the standard mobility workload in the ad-hoc
routing literature: each node repeatedly picks a random destination point in
the unit square and moves towards it at a constant speed.  As nodes move,
links appear and disappear; each :class:`TopologyChange` reports exactly which
links changed in a step so the route-maintenance layer can react (TORA-style
link reversal is triggered by a node losing its last outgoing link).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.topology.manet import GeometricNetwork

Node = Hashable
Position = Tuple[float, float]
Link = FrozenSet[Node]


@dataclass(frozen=True)
class TopologyChange:
    """Link-set difference produced by one mobility step."""

    step: int
    removed_links: FrozenSet[Link]
    added_links: FrozenSet[Link]

    @property
    def is_empty(self) -> bool:
        """Whether no link changed in this step."""
        return not self.removed_links and not self.added_links


class RandomWaypointMobility:
    """Random-waypoint movement over a :class:`GeometricNetwork`.

    Parameters
    ----------
    network:
        The initial network (positions are copied; the original is untouched).
    speed:
        Distance travelled per step (unit-square units).
    pause_steps:
        Number of steps a node rests after reaching its waypoint.
    seed:
        Seed for waypoint selection.
    pin_destination:
        When ``True`` (default) the routing destination does not move, which
        keeps the experiments focused on link failures among the other nodes.
    """

    def __init__(
        self,
        network: GeometricNetwork,
        speed: float = 0.05,
        pause_steps: int = 0,
        seed: int = 0,
        pin_destination: bool = True,
    ):
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.network = GeometricNetwork(
            dict(network.positions), network.radius, network.destination
        )
        self.speed = speed
        self.pause_steps = pause_steps
        self.pin_destination = pin_destination
        self._rng = random.Random(seed)
        self._waypoints: Dict[Node, Position] = {}
        self._pause_remaining: Dict[Node, int] = {u: 0 for u in self.network.nodes}
        self._step_count = 0
        # the current link set: each step diffs against it, then replaces it
        self._links = self.network.links()
        for u in self.network.nodes:
            self._waypoints[u] = self._pick_waypoint()

    # ------------------------------------------------------------------
    def _pick_waypoint(self) -> Position:
        return (self._rng.random(), self._rng.random())

    @property
    def step_count(self) -> int:
        """Number of mobility steps performed so far."""
        return self._step_count

    def positions(self) -> Dict[Node, Position]:
        """Current node positions (copy)."""
        return dict(self.network.positions)

    # ------------------------------------------------------------------
    def step(self) -> TopologyChange:
        """Advance every node by one step and return the induced link changes."""
        before = self._links
        new_positions: Dict[Node, Position] = {}
        for u in self.network.nodes:
            if self.pin_destination and u == self.network.destination:
                continue
            if self._pause_remaining[u] > 0:
                self._pause_remaining[u] -= 1
                continue
            new_positions[u] = self._advance(u)
        self.network = self.network.moved(new_positions)
        after = self._links = self.network.links()
        self._step_count += 1
        return TopologyChange(
            step=self._step_count,
            removed_links=frozenset(before - after),
            added_links=frozenset(after - before),
        )

    def run(self, steps: int) -> List[TopologyChange]:
        """Run several mobility steps and return every (possibly empty) change."""
        return [self.step() for _ in range(steps)]

    # ------------------------------------------------------------------
    def _advance(self, u: Node) -> Position:
        x, y = self.network.positions[u]
        wx, wy = self._waypoints[u]
        dx, dy = wx - x, wy - y
        dist = math.hypot(dx, dy)
        if dist <= self.speed:
            # reached the waypoint: pause, then pick a new one
            self._pause_remaining[u] = self.pause_steps
            self._waypoints[u] = self._pick_waypoint()
            return (wx, wy)
        scale = self.speed / dist
        return (x + dx * scale, y + dy * scale)
