"""A small deterministic discrete-event simulator.

Events are callbacks scheduled at a simulated time; ties are broken by a
monotonically increasing sequence number so runs are fully deterministic for a
given seed and schedule of calls.  The simulator knows nothing about networks
or link reversal — it only orders and dispatches events — so the channel and
protocol logic stays in :mod:`repro.distributed.channel` and
:mod:`repro.distributed.network`.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Callable, List, Optional

EventCallback = Callable[["DiscreteEventSimulator"], None]


@dataclass(order=True)
class ScheduledEvent:
    """An event in the queue, ordered by ``(time, sequence)``."""

    time: float
    sequence: int
    callback: EventCallback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    #: Weak back-reference set by :meth:`DiscreteEventSimulator.schedule` so
    #: that a cancellation can be accounted for (and trigger queue
    #: compaction) without scanning the heap; weak because the simulator's
    #: queue holds the event.  Cleared when the event leaves the queue, so a
    #: late cancel() on an already-dispatched event is an inert flag set
    #: rather than a phantom entry in the pending-event accounting.
    _simulator: Optional["weakref.ref[DiscreteEventSimulator]"] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when dequeued."""
        if self.cancelled:
            return
        self.cancelled = True
        simulator = self._simulator and self._simulator()
        if simulator is not None:
            simulator._note_cancellation()
            self._simulator = None


class DiscreteEventSimulator:
    """Priority-queue discrete-event simulator with deterministic tie-breaking."""

    #: Cancelled events tolerated in the queue before it is compacted (and
    #: only once they outnumber the live events) — heavy cancellation, e.g. a
    #: lossy network failing links with thousands of in-flight messages, used
    #: to leave the heap growing without bound.
    COMPACTION_THRESHOLD = 64

    def __init__(self) -> None:
        self._queue: List[ScheduledEvent] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._cancelled_pending = 0
        self.events_dispatched = 0
        self._ref = weakref.ref(self)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The current simulated time."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still in the queue."""
        return len(self._queue) - self._cancelled_pending

    def _note_cancellation(self) -> None:
        """Account for one cancelled event; compact when they dominate."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACTION_THRESHOLD
            and self._cancelled_pending * 2 >= len(self._queue)
        ):
            self._queue = [event for event in self._queue if not event.cancelled]
            heapq.heapify(self._queue)
            self._cancelled_pending = 0

    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: EventCallback, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule an event in the past")
        return self.schedule_at(self._now + delay, callback, label=label)

    def schedule_at(self, time: float, callback: EventCallback, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` at an exact absolute simulated time (>= now)."""
        if time < self._now:
            raise ValueError("cannot schedule an event in the past")
        event = ScheduledEvent(
            time=time,
            sequence=next(self._sequence),
            callback=callback,
            label=label,
            _simulator=self._ref,
        )
        heapq.heappush(self._queue, event)
        return event

    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Dispatch events in time order.

        Parameters
        ----------
        until:
            Stop once the next event's time exceeds this; the clock then
            advances to ``until`` so consecutive windows sweep forward (the
            clock only stays at the last dispatched event when the event
            *budget* ran out with work still inside the window).
        max_events:
            Stop after dispatching this many events (guards against livelock
            in experiments that deliberately misconfigure protocols).

        Returns the number of events dispatched by this call.
        """
        dispatched = 0
        budget_exhausted = False
        while self._queue:
            if max_events is not None and dispatched >= max_events:
                budget_exhausted = True
                break
            event = self._queue[0]
            if until is not None and event.time > until:
                break
            heapq.heappop(self._queue)
            event._simulator = None  # out of the queue: late cancels are inert
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = event.time
            event.callback(self)
            dispatched += 1
            self.events_dispatched += 1
        if until is not None and self._now < until and not budget_exhausted:
            self._now = until
        return dispatched

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Dispatch every pending event (new events included) up to ``max_events``."""
        return self.run(until=None, max_events=max_events)
