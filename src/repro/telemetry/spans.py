"""Nestable span tracing with a batched JSONL sink.

A :class:`SpanTracer` measures named spans on a monotonic clock and buffers
the resulting event dicts, flushing them to a sink callback in batches —
never per-event I/O on a hot path (the rotorsim exemplar's batched-logging
idiom).  The campaign executor nests spans ``campaign → chunk`` and emits
flat ``scenario`` events per run; the sink is
:meth:`repro.experiments.store.ResultStore.record_telemetry`, which appends
to the ``telemetry.jsonl`` sidecar next to ``report.json``.

Event kinds written to the sidecar (all share ``kind``):

``span``
    ``{"kind", "name", "span_id", "parent_id", "depth", "t_start", "dur_s",
    "attrs"}`` — emitted when the span *closes*, so children precede their
    parent in the file.  ``t_start`` is seconds since the tracer's epoch;
    ``parent_id`` is ``None`` for roots and ``depth`` counts enclosing spans.
``event``
    ``{"kind", "name", "t", "attrs"}`` — a point-in-time marker (chunk
    crashes, quarantine retries, campaign summaries).
``scenario``
    ``{"kind", "t", "run_id", "engine", "status", "family", "algorithm",
    "wall_s"}`` — one flat record per executed run, emitted by the executor.
``metrics``
    ``{"kind", "t", "counters", "gauges", "histograms"}`` — a
    :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot`, emitted once
    per campaign after worker merges.

:data:`NULL_TRACER` is the disabled twin: ``span()`` yields without
touching a clock and every emit is a no-op.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

#: Buffered events per sink flush (batched, append-only writes).
DEFAULT_BATCH_SIZE = 256


class SpanTracer:
    """Collects span/event records and flushes them to a sink in batches.

    Parameters
    ----------
    sink:
        ``callback(events)`` receiving a list of event dicts; called every
        ``batch_size`` buffered events and on :meth:`flush`.  ``None``
        buffers indefinitely (drain with :meth:`drain` — handy in tests).
    batch_size:
        Events per sink call.
    clock:
        Monotonic clock; injectable for deterministic tests.
    """

    def __init__(
        self,
        sink: Optional[Callable[[List[Dict[str, Any]]], Any]] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self._clock = clock
        self.epoch = clock()
        self._sink = sink
        self._batch_size = max(1, batch_size)
        self._buffer: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_id = 1
        self.events_emitted = 0

    # -- clock ---------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer's epoch (monotonic)."""
        return self._clock() - self.epoch

    # -- spans ---------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Measure a nested span; the record is emitted when the span closes."""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        t_start = self.now()
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.emit({
                "kind": "span",
                "name": name,
                "span_id": span_id,
                "parent_id": parent_id,
                "depth": len(self._stack),
                "t_start": round(t_start, 6),
                "dur_s": round(self.now() - t_start, 6),
                "attrs": attrs,
            })

    def emit_span(
        self, name: str, t_start: float, dur_s: float, **attrs: Any
    ) -> int:
        """Record an externally measured span (e.g. a pooled worker's chunk).

        The span nests under whatever span is currently open in *this*
        tracer; ``t_start`` is on this tracer's epoch.
        """
        span_id = self._next_id
        self._next_id += 1
        self.emit({
            "kind": "span",
            "name": name,
            "span_id": span_id,
            "parent_id": self._stack[-1] if self._stack else None,
            "depth": len(self._stack),
            "t_start": round(t_start, 6),
            "dur_s": round(dur_s, 6),
            "attrs": attrs,
        })
        return span_id

    # -- point events ---------------------------------------------------------
    def event(self, name: str, **attrs: Any) -> None:
        self.emit({
            "kind": "event",
            "name": name,
            "t": round(self.now(), 6),
            "attrs": attrs,
        })

    def emit(self, record: Dict[str, Any]) -> None:
        """Buffer one event dict, flushing to the sink when the batch fills."""
        self._buffer.append(record)
        self.events_emitted += 1
        if self._sink is not None and len(self._buffer) >= self._batch_size:
            self.flush()

    # -- buffer management -----------------------------------------------------
    def flush(self) -> None:
        """Hand every buffered event to the sink (no-op without a sink)."""
        if self._sink is not None and self._buffer:
            batch, self._buffer = self._buffer, []
            self._sink(batch)

    def drain(self) -> List[Dict[str, Any]]:
        """Detach and return the buffered events (sink-less tracers, tests)."""
        batch, self._buffer = self._buffer, []
        return batch


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(SpanTracer):
    """The disabled tracer: no clock reads, no buffering, no sink."""

    def __init__(self) -> None:
        super().__init__(sink=None, clock=lambda: 0.0)

    def now(self) -> float:
        return 0.0

    def span(self, name: str, **attrs: Any):  # type: ignore[override]
        return _NULL_SPAN

    def emit_span(self, name: str, t_start: float, dur_s: float, **attrs: Any) -> int:
        return 0

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def emit(self, record: Dict[str, Any]) -> None:
        pass

    def flush(self) -> None:
        pass


#: Shared no-op tracer bound to ``telemetry.TRACER`` while disabled.
NULL_TRACER = NullTracer()
