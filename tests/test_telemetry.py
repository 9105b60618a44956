"""Tests for the telemetry layer: metrics, spans, sidecars and the trace CLI.

Covers the tentpole contract: registry merges are deterministic across
worker counts, the sidecar round-trips through ``io.serialization``, the
disabled path writes nothing, and ``repro trace`` renders a stored sweep.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.experiments.aggregate import count_by
from repro.experiments.executor import CampaignReport, run_campaign
from repro.experiments.runner import kernel_cache_stats
from repro.experiments.spec import CampaignSpec
from repro.experiments.store import ResultStore
from repro.io.serialization import (
    SerializationError,
    telemetry_event_from_dict,
    telemetry_events_to_jsonl,
)
from repro.telemetry.metrics import (
    ENGINE_METRICS,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.telemetry.spans import NULL_TRACER, SpanTracer
from repro.telemetry.trace import (
    check_span_nesting,
    summarise_telemetry,
    top_spans,
)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        registry.set_gauge("depth", 2.0)
        registry.max_gauge("depth", 7.0)
        registry.max_gauge("depth", 3.0)  # lower value does not win
        registry.observe("wall", 0.5)
        registry.observe("wall", 1.5)

        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits": 5}
        assert snapshot["gauges"] == {"depth": 7.0}
        wall = snapshot["histograms"]["wall"]
        assert wall["count"] == 2
        assert wall["min"] == 0.5
        assert wall["max"] == 1.5
        assert wall["mean"] == pytest.approx(1.0)

    def test_handles_are_memoised(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_merge_is_associative_on_all_instrument_kinds(self):
        # split one workload across two registries: the merged snapshot must
        # equal the single-registry run (the 2-worker == 1-worker guarantee)
        whole = MetricsRegistry()
        part_a = MetricsRegistry()
        part_b = MetricsRegistry()
        for i in range(10):
            target = part_a if i % 2 else part_b
            for registry in (whole, target):
                registry.inc("runs")
                registry.max_gauge("peak", float(i))
                registry.observe("wall", float(i))  # integer-exact sums

        merged = MetricsRegistry()
        merged.merge(part_a.snapshot())
        merged.merge(part_b.snapshot())
        assert merged.snapshot() == whole.snapshot()

    def test_clear_empties_the_registry(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.clear()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_null_registry_records_nothing(self):
        NULL_REGISTRY.inc("a")
        NULL_REGISTRY.max_gauge("b", 1.0)
        NULL_REGISTRY.observe("c", 1.0)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestSpanTracer:
    def test_nesting_depth_and_parents(self):
        events = []
        tracer = SpanTracer(sink=events.extend, batch_size=1)
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        tracer.flush()
        by_name = {event["name"]: event for event in events}
        inner, outer = by_name["inner"], by_name["outer"]
        assert outer["depth"] == 0 and outer["parent_id"] is None
        assert inner["depth"] == 1 and inner["parent_id"] == outer["span_id"]
        assert inner["attrs"] == {"detail": 1}
        assert check_span_nesting(events) == []

    def test_sink_receives_batches(self):
        batches = []
        tracer = SpanTracer(sink=batches.append, batch_size=3)
        for i in range(7):
            tracer.event("tick", i=i)
        tracer.flush()
        assert [len(batch) for batch in batches] == [3, 3, 1]

    def test_emit_span_nests_under_open_span(self):
        events = []
        tracer = SpanTracer(sink=events.extend)
        with tracer.span("campaign"):
            tracer.emit_span("chunk", t_start=tracer.now(), dur_s=0.0, runs=2)
        tracer.flush()
        chunk = next(e for e in events if e["name"] == "chunk")
        campaign = next(e for e in events if e["name"] == "campaign")
        assert chunk["parent_id"] == campaign["span_id"]
        assert chunk["depth"] == 1

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", x=1):
            NULL_TRACER.event("nothing")
        assert NULL_TRACER.drain() == []


class TestSessionGlobals:
    def test_disabled_by_default(self):
        assert telemetry.ENABLED is False
        assert telemetry.REGISTRY is telemetry.NULL_REGISTRY
        assert telemetry.TRACER is telemetry.NULL_TRACER

    def test_session_activates_and_restores(self):
        with telemetry.session() as (registry, tracer):
            assert telemetry.ENABLED is True
            assert telemetry.REGISTRY is registry
            assert telemetry.TRACER is tracer
        assert telemetry.ENABLED is False
        assert telemetry.REGISTRY is telemetry.NULL_REGISTRY

    def test_session_flushes_sink_on_exit(self):
        batches = []
        with telemetry.session(sink=batches.append) as (_, tracer):
            tracer.event("one")
        assert sum(len(batch) for batch in batches) == 1


class TestSidecarSerialization:
    def test_round_trip_through_jsonl(self):
        events = []
        tracer = SpanTracer(sink=events.extend)
        with tracer.span("campaign", pending=3):
            tracer.event("quarantine_retry", index=0, runs=2)
        tracer.flush()
        events.append({"kind": "scenario", "t": 0.1, "run_id": "r1",
                       "engine": "kernel", "status": "ok", "family": "chain",
                       "algorithm": "pr", "wall_s": 0.01})
        events.append({"kind": "metrics", "t": 0.2, "counters": {"runs": 1},
                       "gauges": {}, "histograms": {}})

        text = telemetry_events_to_jsonl(events)
        parsed = [
            telemetry_event_from_dict(json.loads(line))
            for line in text.splitlines()
        ]
        assert [event["kind"] for event in parsed] == [
            "event", "span", "scenario", "metrics",
        ]

    def test_int_widens_to_float(self):
        event = telemetry_event_from_dict(
            {"kind": "event", "name": "tick", "t": 3, "attrs": {}}
        )
        assert event["t"] == 3.0 and isinstance(event["t"], float)

    @pytest.mark.parametrize("bad", [
        {"kind": "warp", "name": "x"},                              # unknown kind
        {"kind": "event", "t": 0.0, "attrs": {}},                   # missing name
        {"kind": "event", "name": "x", "t": True, "attrs": {}},     # bool as number
        {"kind": "span", "name": "x", "span_id": 1, "parent_id": "root",
         "depth": 0, "t_start": 0.0, "dur_s": 0.0, "attrs": {}},    # bad parent
        "not even a dict",
    ])
    def test_malformed_events_rejected(self, bad):
        with pytest.raises(SerializationError):
            telemetry_event_from_dict(bad)


def _campaign() -> CampaignSpec:
    return CampaignSpec(
        name="tele", families=("chain",), algorithms=("pr", "fr"),
        sizes=(5, 8), replicates=2,
    )


def _final_counters(store: ResultStore) -> dict:
    metrics = [e for e in store.iter_telemetry() if e["kind"] == "metrics"]
    assert metrics, "campaign should snapshot its registry into the sidecar"
    return metrics[-1]["counters"]


class TestCampaignTelemetry:
    def test_worker_merge_is_deterministic(self, tmp_path):
        # the same campaign swept inline and over 2 workers must report
        # identical counter totals: merges only add, never lose
        inline_store = ResultStore(tmp_path / "inline")
        pooled_store = ResultStore(tmp_path / "pooled")
        run_campaign(_campaign(), inline_store, workers=1)
        run_campaign(_campaign(), pooled_store, workers=2, chunk_size=2)
        assert _final_counters(inline_store) == _final_counters(pooled_store)

    def test_sidecar_matches_engine_counts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(_campaign(), store, workers=2, chunk_size=3)
        scenario_counts: dict = {}
        for event in store.iter_telemetry():
            if event["kind"] == "scenario":
                engine = event.get("engine") or "none"
                scenario_counts[engine] = scenario_counts.get(engine, 0) + 1
        assert scenario_counts == count_by(store.records(), "engine")

    def test_sidecar_spans_are_well_nested(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(_campaign(), store, workers=1)
        events = list(store.iter_telemetry())
        assert check_span_nesting(events) == []
        summary = summarise_telemetry(events)
        assert summary["spans"]["campaign"]["count"] == 1
        assert summary["spans"]["chunk"]["count"] >= 1
        assert sum(w["runs"] for w in summary["workers"].values()) == 8

    def test_disabled_writes_no_sidecar(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = run_campaign(_campaign(), store, workers=1, telemetry=False)
        assert report.executed == 8
        assert not store.telemetry_path.exists()
        assert telemetry.ENABLED is False  # no leakage into the process

    def test_report_carries_timings(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        report = run_campaign(_campaign(), store, workers=1)
        assert report.execution_wall_s > 0
        assert report.execution_wall_s <= report.wall_time_s
        assert report.cpu_time_s > 0
        assert 0 < report.worker_utilisation <= 1.5  # clock jitter headroom
        payload = report.to_dict()
        assert payload["execution_wall_s"] > 0
        assert "worker_utilisation" in payload

    def test_engine_cache_counters_live_in_shared_registry(self):
        # satellite (a): the compat dicts are views over ENGINE_METRICS
        stats = kernel_cache_stats()
        snapshot = ENGINE_METRICS.snapshot()["counters"]
        for key in ("instance_hits", "kernel_compiles"):
            assert key in stats
        assert stats["kernel_compiles"] == snapshot.get("kernel_kernel_compiles", 0)


class TestRunsPerSecond:
    def test_uses_execution_wall_time(self):
        report = CampaignReport(total=10, skipped=0, executed=10)
        report.execution_wall_s = 2.0
        report.wall_time_s = 100.0  # store writes, resume scans, ...
        assert report.runs_per_second == pytest.approx(5.0)

    def test_zero_when_nothing_executed(self):
        report = CampaignReport(total=10, skipped=10, executed=0)
        report.wall_time_s = 1.0
        assert report.runs_per_second == 0.0

    def test_resume_then_report_stays_finite(self, tmp_path):
        # regression: a fully resumed sweep executes nothing, and the stored
        # report must show 0 runs/s, not executed/epsilon garbage
        store = ResultStore(tmp_path / "store")
        run_campaign(_campaign(), store, workers=1)
        resumed = run_campaign(_campaign(), store, workers=1)
        assert resumed.executed == 0
        assert resumed.skipped == 8
        assert resumed.runs_per_second == 0.0
        stored = store.load_report()
        assert stored["executed"] == 0


class TestTraceCli:
    def _sweep(self, store, extra=()):
        return main([
            "sweep", "--families", "chain", "--algorithms", "pr,fr",
            "--sizes", "5,8", "--replicates", "2", "--store", str(store),
            "--quiet", *extra,
        ])

    def test_trace_renders_a_swept_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert self._sweep(store, ["--workers", "2"]) == 0
        capsys.readouterr()
        assert main(["trace", str(store)]) == 0
        output = capsys.readouterr().out
        assert "campaign" in output
        assert "kernel" in output
        assert "scenarios.kernel" in output

    def test_trace_json_includes_nesting_check(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._sweep(store)
        capsys.readouterr()
        assert main(["trace", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nesting_problems"] == []
        assert payload["summary"]["scenarios"]["kernel"]["count"] == 8

    def test_trace_without_sidecar_fails_cleanly(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._sweep(store, ["--no-telemetry"])
        capsys.readouterr()
        assert main(["trace", str(store)]) == 2
        assert "no telemetry sidecar" in capsys.readouterr().err

    def test_report_shows_telemetry_section(self, tmp_path, capsys):
        store = tmp_path / "store"
        self._sweep(store)
        capsys.readouterr()
        assert main(["report", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "## Telemetry" in output
        assert "engine kernel" in output

    def test_top_spans_orders_by_total(self):
        summary = {"spans": {
            "a": {"count": 1, "total_s": 0.1, "max_s": 0.1},
            "b": {"count": 5, "total_s": 0.9, "max_s": 0.3},
        }}
        rows = top_spans(summary, limit=1)
        assert [row["name"] for row in rows] == ["b"]
