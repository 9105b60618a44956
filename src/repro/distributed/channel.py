"""Point-to-point message channels with delay and loss.

Each undirected link of the network is modelled by two directed channels (one
per direction).  A channel delivers messages after a delay drawn uniformly
from ``[min_delay, max_delay]`` and drops each message independently with
``loss_probability``.  Channels keep per-link statistics so the benchmarks can
report message complexity alongside convergence time.

A channel can be taken *down* (link failure) for good; messages sent while
it is down are lost to the failure, and so are the messages already in
flight when it goes down — the usual fail-prone link model of the MANET
literature.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional

from repro.distributed.events import DiscreteEventSimulator, ScheduledEvent

Node = Hashable


@dataclass(frozen=True)
class Message:
    """A protocol message travelling on a channel."""

    sender: Node
    receiver: Node
    kind: str
    payload: Any = None

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.kind}({self.sender} -> {self.receiver}: {self.payload!r})"


@dataclass
class ChannelStats:
    """Per-channel delivery statistics."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    lost_to_failure: int = 0

    @property
    def in_flight_loss(self) -> int:
        """Messages lost for any reason."""
        return self.dropped + self.lost_to_failure


class Channel:
    """A unidirectional, delay- and loss-prone channel between two nodes.

    With ``fifo=True`` the channel additionally guarantees FIFO delivery: a
    message's delivery time is clamped to be no earlier than the previously
    scheduled delivery on this channel, so randomly drawn delays can no
    longer reorder messages (the classic reliable-FIFO link abstraction).

    ``draw`` is the link's random stream (uniform draws on ``[0, 1)``, see
    :meth:`~repro.distributed.streams.ChannelStreams.drawer`); a channel
    with loss or a random delay needs one.  Per message the channel draws
    the loss test ``u < loss_probability`` first, then the delay
    ``min_delay + (max_delay - min_delay) * u``.
    """

    def __init__(
        self,
        simulator: DiscreteEventSimulator,
        sender: Node,
        receiver: Node,
        deliver: Callable[[Message], None],
        min_delay: float = 1.0,
        max_delay: float = 1.0,
        loss_probability: float = 0.0,
        draw: Optional[Callable[[], float]] = None,
        fifo: bool = False,
    ):
        if min_delay < 0 or max_delay < min_delay:
            raise ValueError("delays must satisfy 0 <= min_delay <= max_delay")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if draw is None and (loss_probability > 0 or max_delay > min_delay):
            raise ValueError("a channel with loss or a random delay needs a draw stream")
        self.simulator = simulator
        self.sender = sender
        self.receiver = receiver
        self._deliver = deliver
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.loss_probability = loss_probability
        self.fifo = fifo
        self._last_scheduled_delivery = 0.0
        self._draw = draw
        self.up = True
        self.stats = ChannelStats()
        #: the delivery events in flight, by send number (in send order)
        self._in_flight: Dict[int, ScheduledEvent] = {}
        self._sends = 0

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send a message; it is delivered later unless lost or the link is down."""
        self.stats.sent += 1
        if not self.up:
            self.stats.lost_to_failure += 1
            return
        if self.loss_probability > 0 and self._draw() < self.loss_probability:
            self.stats.dropped += 1
            return
        if self.max_delay > self.min_delay:
            delay = self.min_delay + (self.max_delay - self.min_delay) * self._draw()
        else:
            delay = self.min_delay
        delivery_time = self.simulator.now + delay
        if self.fifo and delivery_time < self._last_scheduled_delivery:
            delivery_time = self._last_scheduled_delivery
        self._last_scheduled_delivery = delivery_time
        # the callback names its event by number and its channel through a
        # weak reference: the channel's in-flight table holds the event, so
        # a strong reference either way would close a reference cycle
        key = self._sends
        self._sends = key + 1
        ref = weakref.ref(self)

        def deliver_event(_sim: DiscreteEventSimulator, _message=message) -> None:
            channel = ref()
            channel.stats.delivered += 1
            # delivered messages are no longer in flight: without this a later
            # fail() would re-count them as lost_to_failure
            del channel._in_flight[key]
            channel._deliver(_message)

        self._in_flight[key] = self.simulator.schedule_at(
            delivery_time, deliver_event, label=f"deliver {message.kind}"
        )

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Take the link down, losing every in-flight message."""
        self.up = False
        for event in self._in_flight.values():
            if not event.cancelled:
                event.cancel()
                self.stats.lost_to_failure += 1
        self._in_flight.clear()

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        state = "up" if self.up else "down"
        return f"<Channel {self.sender}->{self.receiver} {state} sent={self.stats.sent}>"
