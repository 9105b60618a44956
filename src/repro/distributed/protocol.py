"""The asynchronous height-based link-reversal node protocol.

In the distributed setting a node cannot atomically flip an edge shared with
a neighbour, so practical link-reversal protocols (Gafni–Bertsekas's original
formulation, and TORA after it) derive edge directions from per-node
*heights*: the edge between ``u`` and ``v`` points from the higher height to
the lower one, and a node changes the direction of its incident edges simply
by raising its own height and telling its neighbours.

Each :class:`LinkReversalNodeProcess` keeps:

* its own height,
* its latest knowledge of each neighbour's height (updated by ``HEIGHT``
  messages),
* the set of currently usable links to neighbours.

Whenever a node observes that it is a *local sink* — its height is lower than
every known neighbour height and it is not the destination — it raises its
height according to the configured :class:`ReversalMode`:

* ``FULL`` — pair heights, new ``a`` is one more than the maximum neighbour
  ``a`` (every incident edge reverses);
* ``PARTIAL`` — triple heights with the Gafni–Bertsekas partial-reversal
  update (only the edges to the lowest neighbours reverse).

The protocol is deliberately conservative about staleness: a node acts only on
the heights it has heard, so transient disagreement is possible while messages
are in flight; the network layer (:mod:`repro.distributed.network`) evaluates
the *true* global heights when checking acyclicity and destination
orientation, which is the standard correctness argument for height-based
reversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.distributed.channel import Message

Node = Hashable


class ReversalMode(Enum):
    """Which reversal rule the asynchronous protocol uses when a node is a sink."""

    FULL = "full"
    PARTIAL = "partial"


@dataclass(frozen=True, order=True)
class HeightValue:
    """A totally ordered node height ``(a, b, rank)``.

    For ``FULL`` mode only ``a`` and ``rank`` are meaningful (``b`` stays 0);
    for ``PARTIAL`` mode the triple implements the Gafni–Bertsekas partial
    reversal update.  The total order is lexicographic, so any snapshot of
    true heights induces an acyclic orientation.
    """

    a: int
    b: int
    rank: int


#: Signature of the send callback handed to a node process by the network:
#: ``send(neighbour, message)``.
SendFunction = Callable[[Node, Message], None]

#: Message kinds used by the protocol.
HEIGHT_MESSAGE = "HEIGHT"


class LinkReversalNodeProcess:
    """The per-node state machine of asynchronous height-based link reversal."""

    def __init__(
        self,
        node: Node,
        destination: Node,
        initial_height: HeightValue,
        neighbours: FrozenSet[Node],
        initial_neighbour_heights: Dict[Node, HeightValue],
        send: SendFunction,
        mode: ReversalMode = ReversalMode.PARTIAL,
        rank: Optional[int] = None,
    ):
        self.node = node
        self.destination = destination
        self.mode = mode
        self.height = initial_height
        self.rank = initial_height.rank if rank is None else rank
        self.neighbours: Set[Node] = set(neighbours)
        self.neighbour_heights: Dict[Node, HeightValue] = dict(initial_neighbour_heights)
        self._send = send
        self.reversal_count = 0
        self.messages_sent = 0

    # ------------------------------------------------------------------
    # local view
    # ------------------------------------------------------------------
    def is_local_sink(self) -> bool:
        """Whether, according to its local knowledge, every incident edge points at this node."""
        if self.node == self.destination or not self.neighbours:
            return False
        return all(
            self.neighbour_heights[v] > self.height
            for v in self.neighbours
            if v in self.neighbour_heights
        ) and all(v in self.neighbour_heights for v in self.neighbours)

    # ------------------------------------------------------------------
    # event handlers (called by the network layer)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Announce the initial height and react if already a sink."""
        self._broadcast_height()
        self.maybe_reverse()

    def on_message(self, message: Message) -> None:
        """Handle a received protocol message."""
        if message.kind != HEIGHT_MESSAGE:
            return
        sender = message.sender
        if sender not in self.neighbours:
            # stale message from a link that has since failed
            return
        height = message.payload
        known = self.neighbour_heights.get(sender)
        if known is None or height > known:
            self.neighbour_heights[sender] = height
        self.maybe_reverse()

    def on_link_down(self, neighbour: Node) -> None:
        """A link failed: forget the neighbour and re-evaluate sink-ness."""
        self.neighbours.discard(neighbour)
        self.neighbour_heights.pop(neighbour, None)
        self.maybe_reverse()

    # ------------------------------------------------------------------
    # the reversal rule
    # ------------------------------------------------------------------
    def maybe_reverse(self) -> None:
        """If the node is a local sink, raise its height and broadcast it."""
        # A node may need several reversals only after new information arrives;
        # one raise always makes it non-sink w.r.t. current knowledge, so a
        # single pass suffices here.
        if not self.is_local_sink():
            return
        self.height = self._raised_height()
        self.reversal_count += 1
        self._broadcast_height()

    def _raised_height(self) -> HeightValue:
        known = [self.neighbour_heights[v] for v in self.neighbours if v in self.neighbour_heights]
        if not known:
            return self.height
        if self.mode is ReversalMode.FULL:
            max_a = max(h.a for h in known)
            return HeightValue(a=max_a + 1, b=0, rank=self.rank)
        # PARTIAL: Gafni–Bertsekas triple update
        min_a = min(h.a for h in known)
        new_a = min_a + 1
        same_level = [h.b for h in known if h.a == new_a]
        new_b = (min(same_level) - 1) if same_level else self.height.b
        return HeightValue(a=new_a, b=new_b, rank=self.rank)

    def _broadcast_height(self) -> None:
        for v in sorted(self.neighbours, key=repr):
            self.messages_sent += 1
            self._send(v, Message(self.node, v, HEIGHT_MESSAGE, self.height))
