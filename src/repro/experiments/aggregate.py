"""Aggregation over stored campaign results: group-bys, curves, orderings.

Everything here consumes the flat records persisted by the
:class:`~repro.experiments.store.ResultStore` and produces plain-data
summaries, which ``repro report`` renders as tables (or dumps as JSON):

* :func:`group_summary` — ``analysis.statistics`` summaries of any metric,
  grouped by arbitrary record fields (family, algorithm, scheduler, ...);
* :func:`work_curves` — mean work as a function of instance size per
  (family, algorithm), with a quadratic least-squares fit when the campaign
  swept enough sizes — the stored-data analogue of the Θ(n_b²) experiment;
* :func:`pr_vs_fr_ordering` — checks the paper-adjacent worst-case ordering
  (Full Reversal does quadratic work on the bad chain where Partial Reversal
  stays linear) directly from stored results;
* :func:`build_report` — bundles all of the above into one dict.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.statistics import quadratic_fit_r2, summary_stats
from repro.experiments.store import ResultStore

#: Minimum distinct sizes before a quadratic fit is attempted.
MIN_FIT_POINTS = 4


def group_summary(
    records: Sequence[Dict[str, Any]],
    by: Sequence[str] = ("family", "algorithm"),
    metric: str = "node_steps",
) -> Dict[Tuple[Any, ...], Dict[str, float]]:
    """Summary statistics of ``metric`` grouped by the ``by`` fields."""
    groups: Dict[Tuple[Any, ...], List[float]] = defaultdict(list)
    for record in records:
        value = record.get(metric)
        if value is None:
            continue
        groups[tuple(record.get(field) for field in by)].append(float(value))
    return {key: summary_stats(values) for key, values in sorted(groups.items())}


def work_curves(
    records: Sequence[Dict[str, Any]],
    metric: str = "node_steps",
) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Mean work vs size per (family, algorithm), with quadratic fits.

    Returns ``{(family, algorithm): {"points": [(size, mean), ...],
    "fit": [a, b, c] | None, "r2": float | None}}``.  The fit is only
    attempted when at least :data:`MIN_FIT_POINTS` distinct sizes are present.
    """
    by_size: Dict[Tuple[str, str], Dict[int, List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for record in records:
        value = record.get(metric)
        if value is None:
            continue
        key = (record.get("family"), record.get("algorithm"))
        by_size[key][int(record.get("size"))].append(float(value))

    curves: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for key, size_map in sorted(by_size.items()):
        points = [
            (size, sum(values) / len(values)) for size, values in sorted(size_map.items())
        ]
        fit: Optional[List[float]] = None
        r2: Optional[float] = None
        if len(points) >= MIN_FIT_POINTS:
            xs = [float(size) for size, _ in points]
            ys = [value for _, value in points]
            try:
                fit, r2 = quadratic_fit_r2(xs, ys)
            except ValueError:
                fit, r2 = None, None  # degenerate sweep (e.g. constant sizes)
        curves[key] = {"points": points, "fit": fit, "r2": r2}
    return curves


def pr_vs_fr_ordering(
    records: Sequence[Dict[str, Any]],
    family: str = "chain",
    pr_algorithm: str = "pr",
    fr_algorithm: str = "fr",
    metric: str = "node_steps",
) -> Dict[str, Any]:
    """Check the worst-case PR-vs-FR work ordering from stored results.

    On the all-bad chain family, Full Reversal performs Θ(n²) total work
    while Partial Reversal stays linear (the Busch–Tirthapura bounds quoted
    in Section 1 of the paper).  This verifies the measured consequence:
    at every swept size FR's mean work is at least PR's, and at the largest
    size it is strictly larger (once sizes are past the trivial ones), with
    a growing FR/PR ratio.
    """
    curves = work_curves(
        [r for r in records if r.get("family") == family], metric=metric
    )
    pr_curve = {s: w for s, w in curves.get((family, pr_algorithm), {}).get("points", [])}
    fr_curve = {s: w for s, w in curves.get((family, fr_algorithm), {}).get("points", [])}
    shared_sizes = sorted(set(pr_curve) & set(fr_curve))

    comparison = [
        {
            "size": size,
            "pr": pr_curve[size],
            "fr": fr_curve[size],
            "ratio": (fr_curve[size] / pr_curve[size]) if pr_curve[size] else None,
        }
        for size in shared_sizes
    ]
    holds = bool(shared_sizes) and all(
        row["fr"] >= row["pr"] for row in comparison
    )
    if holds and len(shared_sizes) >= 2 and shared_sizes[-1] >= 4:
        holds = comparison[-1]["fr"] > comparison[-1]["pr"]
    return {
        "family": family,
        "pr_algorithm": pr_algorithm,
        "fr_algorithm": fr_algorithm,
        "metric": metric,
        "sizes": shared_sizes,
        "comparison": comparison,
        "ordering_holds": holds,
        "fr_fit": curves.get((family, fr_algorithm), {}).get("fit"),
        "fr_r2": curves.get((family, fr_algorithm), {}).get("r2"),
    }


def async_summary(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Message/time statistics of the async-engine runs, per delay model.

    Returns ``{"runs": n, "by_delay_model": {model: {"runs", "mean_messages",
    "mean_lost", "mean_simulated_time", "mean_reversals"}}}`` over the
    records that carry a ``delay_model`` (synchronous records are ignored).
    """
    async_records = [r for r in records if r.get("delay_model") is not None]
    by_model: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in async_records:
        by_model[record["delay_model"]].append(record)

    def _mean(rows: List[Dict[str, Any]], field: str) -> float:
        values = [float(r[field]) for r in rows if r.get(field) is not None]
        return round(sum(values) / len(values), 3) if values else 0.0

    return {
        "runs": len(async_records),
        "by_delay_model": {
            model: {
                "runs": len(rows),
                "mean_messages": _mean(rows, "messages_sent"),
                "mean_lost": _mean(rows, "messages_lost"),
                "mean_simulated_time": _mean(rows, "simulated_time"),
                "mean_reversals": _mean(rows, "node_steps"),
            }
            for model, rows in sorted(by_model.items())
        },
    }


def dataplane_summary(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Packet statistics of the data-plane runs, per traffic model.

    Returns ``{"runs": n, "by_traffic": {model: {"runs", "injected",
    "delivered", "dropped", "delivery_ratio", "drop_tail", "drop_ttl",
    "drop_no_route", "drop_link_down", "transient_loops",
    "mean_latency_slots", "mean_stretch", "peak_queue_depth"}}}`` over the
    records that carry a ``traffic`` model (control-plane-only records are
    ignored).  ``delivery_ratio`` is pooled (total delivered over total
    injected), not a mean of per-run ratios.
    """
    plane_records = [r for r in records if r.get("traffic") is not None]
    by_traffic: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in plane_records:
        by_traffic[record["traffic"]].append(record)

    def _total(rows: List[Dict[str, Any]], field: str) -> int:
        return sum(int(r[field]) for r in rows if r.get(field) is not None)

    def _mean(rows: List[Dict[str, Any]], field: str) -> Optional[float]:
        values = [float(r[field]) for r in rows if r.get(field) is not None]
        return round(sum(values) / len(values), 3) if values else None

    summary: Dict[str, Any] = {"runs": len(plane_records), "by_traffic": {}}
    for model, rows in sorted(by_traffic.items()):
        injected = _total(rows, "packets_injected")
        delivered = _total(rows, "packets_delivered")
        summary["by_traffic"][model] = {
            "runs": len(rows),
            "injected": injected,
            "delivered": delivered,
            "dropped": _total(rows, "packets_dropped"),
            "delivery_ratio": round(delivered / injected, 4) if injected else None,
            "drop_tail": _total(rows, "drop_tail"),
            "drop_ttl": _total(rows, "drop_ttl"),
            "drop_no_route": _total(rows, "drop_no_route"),
            "drop_link_down": _total(rows, "drop_link_down"),
            "transient_loops": _total(rows, "transient_loops"),
            "mean_latency_slots": _mean(rows, "mean_latency_slots"),
            "mean_stretch": _mean(rows, "mean_stretch"),
            "peak_queue_depth": max(
                (int(r["peak_queue_depth"]) for r in rows
                 if r.get("peak_queue_depth") is not None),
                default=0,
            ),
        }
    return summary


def resilience_summary(
    records: Sequence[Dict[str, Any]],
    last_report: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Node-fault outcomes plus the executor's self-healing counters.

    ``by_node_faults`` summarises the crash-stop axis (runs, quiescence rate
    and mean work per ``node_faults`` level, faulted levels only); the
    executor counters (retries, watchdog kills, pool reforms, injected
    faults, ...) come from the latest campaign report when present.
    """
    faulted = [r for r in records if r.get("node_faults")]
    by_level: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for record in faulted:
        by_level[int(record["node_faults"])].append(record)

    summary: Dict[str, Any] = {
        "faulted_runs": len(faulted),
        "by_node_faults": {
            level: {
                "runs": len(rows),
                "converged": sum(bool(r.get("converged")) for r in rows),
                "mean_steps": round(
                    sum(float(r.get("node_steps") or 0) for r in rows) / len(rows), 3
                ),
            }
            for level, rows in sorted(by_level.items())
        },
    }
    if last_report:
        executor = {
            field: last_report[field]
            for field in (
                "retries", "watchdog_kills", "pool_reforms", "corrupt_chunks",
                "faults_injected", "fault_kinds", "degraded_serial",
            )
            if last_report.get(field)
        }
        if executor:
            summary["executor"] = executor
    return summary


def invariant_outcomes(records: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Counts of the per-run invariant checks across all given records."""
    outcome = {
        "runs": len(records),
        "converged": 0,
        "destination_oriented": 0,
        "acyclic_final": 0,
        "violations": 0,
    }
    for record in records:
        outcome["converged"] += bool(record.get("converged"))
        outcome["destination_oriented"] += bool(record.get("destination_oriented"))
        outcome["acyclic_final"] += bool(record.get("acyclic_final"))
        # acyclic_final and destination_oriented are tri-state on a check
        # record: True (checked, held), False (checked, failed), None (that
        # check did not run) — only an actual failure is a violation.  A
        # check record also counts its own (the check group's
        # ``violations``, which no other record carries).
        if record.get("status") == "ok" and record.get("acyclic_final") is False:
            outcome["violations"] += 1
        outcome["violations"] += record.get("violations") or 0
    return outcome


def count_by(records: Sequence[Dict[str, Any]], field: str) -> Dict[str, int]:
    """How many records hold each value of ``field``, in value order.

    A missing or ``None`` value counts as ``"none"``: for ``engine`` that
    is a run that failed before an engine was selected, a crashed
    placeholder or a record stored before engines were named.
    """
    counts: Dict[str, int] = defaultdict(int)
    for record in records:
        value = record.get(field)
        counts["none" if value is None else value] += 1
    return dict(sorted(counts.items()))


def telemetry_summary(store: ResultStore) -> Optional[Dict[str, Any]]:
    """Summarised ``telemetry.jsonl`` sidecar, or ``None`` when absent.

    Thin wrapper over :func:`repro.telemetry.trace.summarise_telemetry` so
    ``repro report`` and ``repro trace`` share one summary shape.
    """
    if not store.telemetry_path.exists():
        return None
    from repro.telemetry.trace import summarise_telemetry

    return summarise_telemetry(store.iter_telemetry())


def build_report(
    store: ResultStore,
    by: Sequence[str] = ("family", "algorithm"),
    metric: str = "node_steps",
) -> Dict[str, Any]:
    """The full aggregation bundle behind ``repro report``.

    The store is read once: the status and engine counts span every stored
    record, everything else the ``ok`` ones.
    """
    stored = store.records()
    records = [record for record in stored if record.get("status") == "ok"]
    summaries = group_summary(records, by=by, metric=metric)
    curves = work_curves(records, metric=metric)
    last_report = store.load_report()
    return {
        "store": str(store.root),
        "campaign": store.load_campaign(),
        "status_counts": count_by(stored, "status"),
        "engine_counts": count_by(stored, "engine"),
        # the latest run_campaign invocation's engine/cache telemetry (how
        # the most recent sweep executed, incl. engine cache counters), as
        # opposed to engine_counts which spans every stored record
        "last_campaign_report": last_report,
        # summarised span/metrics sidecar of the sweeps run against this
        # store (None when telemetry was disabled or never ran)
        "telemetry": telemetry_summary(store),
        "invariants": invariant_outcomes(records),
        "async": async_summary(records),
        "dataplane": dataplane_summary(records),
        "resilience": resilience_summary(records, last_report),
        "group_by": list(by),
        "metric": metric,
        "groups": {
            "/".join(str(part) for part in key): stats
            for key, stats in summaries.items()
        },
        "curves": {
            f"{family}/{algorithm}": curve
            for (family, algorithm), curve in curves.items()
        },
        "pr_vs_fr": pr_vs_fr_ordering(records),
    }
