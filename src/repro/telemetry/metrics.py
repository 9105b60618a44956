"""Process-local, mergeable metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` is a flat, dict-backed namespace of named
instruments.  It generalises the ``kernel_cache_stats()`` before/after-delta
pattern the campaign executor used for cache counters into one mechanism
every subsystem reports into: engines count scenarios per status, the cache
counts hits and builds, the model checker observes frontier sizes, and
``FastAsyncNetwork`` tracks peak heap depth.

Design constraints, in priority order:

* **cheap when enabled** — instruments are plain ``__slots__`` objects with
  integer/float fields; ``Counter.inc`` is one attribute add.  Hot loops
  hold an instrument handle (``registry.counter(name)``) rather than paying
  a dict lookup per event;
* **mergeable** — a worker process snapshots its registry and ships the
  plain-dict :meth:`MetricsRegistry.snapshot` back over the pool; the parent
  :meth:`MetricsRegistry.merge`\\ s it.  Counters add, gauges keep the max,
  histograms combine — all associative and commutative, so 1-worker and
  2-worker campaigns merge to identical counter totals;
* **zero-cost when disabled** — :data:`NULL_REGISTRY` accepts every call and
  records nothing, so instrumented code needs no conditionals beyond the
  module-level ``telemetry.ENABLED`` guard.

:data:`ENGINE_METRICS` is the always-on registry behind the engine cache;
``kernel_cache_stats()`` is a thin dict view over its counters.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; merging keeps the maximum observed."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Streaming summary of observed values: count / total / min / max.

    No buckets — the sidecar records per-scenario wall times exactly, so the
    in-process histogram only needs the moments cheap enough for hot paths.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
        }


class MetricsRegistry:
    """A flat namespace of counters, gauges and histograms.

    Instruments are created on first use and live for the registry's
    lifetime.  ``counter/gauge/histogram`` return the instrument itself so
    hot paths can hold the handle; the convenience methods (``inc``,
    ``max_gauge``, ``observe``) do the name lookup per call and are meant
    for cold paths.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument handles -------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- convenience (cold paths) -------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def max_gauge(self, name: str, value: float) -> None:
        self.gauge(name).max(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- snapshot / merge ----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every instrument (picklable, JSON-compatible)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a pooled worker) into this registry.

        Counters add, gauges keep the max, histograms combine their moments —
        all associative, so merge order never changes the result.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).max(value)
        for name, summary in snapshot.get("histograms", {}).items():
            if not summary.get("count"):
                continue
            histogram = self.histogram(name)
            histogram.count += summary["count"]
            histogram.total += summary["total"]
            if summary["min"] < histogram.min:
                histogram.min = summary["min"]
            if summary["max"] > histogram.max:
                histogram.max = summary["max"]

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class _NullInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every call is a no-op, every snapshot empty."""

    __slots__ = ()

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def max_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge(self, snapshot: Dict[str, Any]) -> None:
        pass


#: Shared no-op registry bound to ``telemetry.REGISTRY`` while disabled.
NULL_REGISTRY = NullMetricsRegistry()

#: Always-on process-local registry behind the engine cache.
#: ``kernel_cache_stats()`` reads its counters, so they must count regardless
#: of whether campaign telemetry is enabled; campaign snapshots still use the
#: per-campaign registry, keeping worker merges deterministic.
ENGINE_METRICS = MetricsRegistry()
