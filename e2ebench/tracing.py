"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: :meth:`SpanRecorder.wrap`
replaces a public function or method of the program with a timing wrapper
for the lifetime of one traced repetition, and :meth:`SpanRecorder.unwrap`
puts the original back.  Nothing under ``src/`` knows it is being traced,
and an untraced repetition runs the program's own, unwrapped code.

A span is ``[span_id, parent_id, name, start, end]`` (``perf_counter``
seconds).  Spans stay in memory and are written out once, when the run
ends, tagged with the run's id.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

_ID, _PARENT, _NAME, _START, _END = range(5)


class SpanRecorder:
    """In-memory spans of one workload run, plus per-span item tallies."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        #: span name -> items counted by the wrap's ``tally`` callback
        self.tallies: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> list:
        parent = self._stack[-1][_ID] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span {span[_NAME]!r} closed out of order")

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tally: Optional[Callable[[tuple, Any], int]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr`` until :meth:`unwrap`.

        ``owner`` is a class (for methods) or a module (for functions); the
        attribute is looked up in its ``__dict__`` so an inherited method is
        never shadowed by mistake.  ``tally(args, result)``, when given,
        adds a count of items handled by the call under ``name``.
        """
        original = owner.__dict__[attr]
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if tally is not None:
                recorder.tallies[name] += tally(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summarising ----------------------------------------------------
    def ledger(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``, over spans[first:].

        A span's self time is its duration minus the durations of its
        direct children, so the self times of nested spans partition the
        root spans' wall time.
        """
        spans = self.spans[first:]
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span[_PARENT] is not None:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        table: Dict[str, Dict[str, float]] = {}
        for span in spans:
            row = table.setdefault(span[_NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span[_END] - span[_START]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[span[_ID]]
        return table

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, each carrying the run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "run_id": self.run_id,
                    "span_id": span_id,
                    "parent_id": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                }) + "\n")


def install_program_spans(recorder: SpanRecorder) -> None:
    """Wrap the public calls at each layer boundary of the program.

    Span names are ``<module>.<call>``, named after the repository's modules
    (``visited`` is :class:`~repro.exploration.frontier.VisitedSet`).
    """
    from repro.dataplane.packets import PacketSimulator
    from repro.distributed.fast_network import FastAsyncNetwork
    from repro.experiments import aggregate, executor
    from repro.experiments.engines import ENGINE_REGISTRY
    from repro.experiments.spec import CampaignSpec
    from repro.experiments.store import ResultStore
    from repro.exploration import checker
    from repro.exploration.frontier import VisitedSet
    from repro.kernels.vector import VectorExpander

    wrap = recorder.wrap
    wrap(CampaignSpec, "expand", "spec.expand")
    wrap(executor, "run_campaign", "executor.run_campaign")
    for engine in ENGINE_REGISTRY.values():
        wrap(type(engine), "execute", f"engine.{engine.name}")
    wrap(ResultStore, "append", "store.append", tally=lambda args, _: len(args[1]))
    wrap(ResultStore, "record_telemetry", "store.record_telemetry",
         tally=lambda args, _: len(args[1]))
    wrap(ResultStore, "existing_run_ids", "store.existing_run_ids")
    wrap(aggregate, "build_report", "aggregate.build_report")
    wrap(FastAsyncNetwork, "__init__", "fast_network.build")
    wrap(FastAsyncNetwork, "run_to_quiescence", "fast_network.run")
    wrap(FastAsyncNetwork, "run_for", "fast_network.run")
    wrap(FastAsyncNetwork, "report", "fast_network.report")
    wrap(PacketSimulator, "inject_slot", "dataplane.inject_slot")
    wrap(PacketSimulator, "step", "dataplane.step")
    wrap(checker.ModelChecker, "__init__", "checker.compile")
    wrap(checker.ModelChecker, "run", "checker.run")
    wrap(VectorExpander, "expand", "vector.expand")
    # the checker calls the batch invariants through its own module globals
    wrap(checker, "mask_is_acyclic_batch", "vector.invariants")
    wrap(checker, "mask_is_destination_oriented_batch", "vector.invariants")
    wrap(VisitedSet, "contains_many", "visited.contains_many")
    # the checker loops insert batches through update_sorted; add_many is
    # the same operation for unsorted input, so both count as one layer
    wrap(VisitedSet, "add_many", "visited.add_many")
    wrap(VisitedSet, "update_sorted", "visited.add_many")
