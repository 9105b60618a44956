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

* ``FULL`` — new ``a`` is one more than the maximum neighbour ``a`` (every
  incident edge reverses);
* ``PARTIAL`` — the Gafni–Bertsekas partial-reversal update (only the edges
  to the lowest neighbours reverse).

The height type and both raise rules are the ones of
:mod:`repro.core.heights` (:class:`~repro.core.heights.HeightValue`,
:func:`~repro.core.heights.full_reversal_height` and
:func:`~repro.core.heights.partial_reversal_height`), which the height
automata run too; the protocol adds only the message passing.  A node hears
every neighbour's initial height at construction and links only fail, so it
knows the height of every current neighbour at all times.

The protocol is deliberately conservative about staleness: a node acts only on
the heights it has heard, so transient disagreement is possible while messages
are in flight; the network layer (:mod:`repro.distributed.network`) evaluates
the *true* global heights when checking acyclicity and destination
orientation, which is the standard correctness argument for height-based
reversal.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, FrozenSet, Hashable, Set

from repro.core.heights import HeightValue, full_reversal_height, partial_reversal_height
from repro.distributed.channel import Message

Node = Hashable


class ReversalMode(Enum):
    """Which reversal rule the asynchronous protocol uses when a node is a sink."""

    FULL = "full"
    PARTIAL = "partial"


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
    ):
        self.node = node
        self.destination = destination
        self.mode = mode
        self.height = initial_height
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
        return all(self.neighbour_heights[v] > self.height for v in self.neighbours)

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
        if height > self.neighbour_heights[sender]:
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
        known = [self.neighbour_heights[v] for v in self.neighbours]
        if self.mode is ReversalMode.FULL:
            return full_reversal_height(self.height.rank, known)
        return partial_reversal_height(self.height, known)

    def _broadcast_height(self) -> None:
        for v in sorted(self.neighbours, key=repr):
            self.messages_sent += 1
            self._send(v, Message(self.node, v, HEIGHT_MESSAGE, self.height))
