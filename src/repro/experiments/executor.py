"""Sharded campaign executor: chunked dispatch over a process pool.

The executor expands a :class:`~repro.experiments.spec.CampaignSpec` into its
run list, drops every run already present in the
:class:`~repro.experiments.store.ResultStore` (campaign **resume**), splits
the remainder into chunks of plain spec dicts and dispatches the chunks
across a ``multiprocessing`` worker pool.  Workers rebuild all heavyweight
objects (instances, automata, schedulers) locally from the dicts, so nothing
but plain data is ever pickled.

Failure containment is layered (the self-healing ladder, top rung first):

* a bad *run* (exception, timeout) is caught inside the worker and comes back
  as a record with ``status`` ``"error"`` / ``"timeout"``;
* a *hung* worker is caught by the heartbeat watchdog (``watchdog_s``):
  workers stamp a shared array per chunk and per group of lanes, and a
  chunk whose stamp goes stale is hard-killed and re-dispatched;
* a dead *worker process* (segfault, OOM-kill, watchdog kill) breaks the
  pool; the pool is **reformed** (up to ``max_pool_reforms`` times) and the
  surviving chunks re-dispatched with per-chunk retry budgets
  (``max_retries``) under exponential backoff with deterministic jitter;
* a chunk that keeps failing falls to **quarantine**: one single-use pool
  each, and only a chunk that kills its private pool is written out as
  ``status="crashed"`` records, so the campaign still completes;
* when no pool can be created at all, the executor **degrades to serial**
  in-process execution of the leftover chunks — slower, but the campaign
  finishes;
* an interrupted *campaign* (Ctrl-C, machine loss) is resumable: records are
  appended to the store as each chunk completes, so a re-run skips everything
  already recorded.

All of it is deterministic-testable: a seeded
:class:`~repro.faults.plan.FaultPlan` (``fault_plan=``) makes pooled workers
crash, hang, run slow or corrupt their results at plan-chosen chunk indices,
and the ladder above is what recovers (see :mod:`repro.faults`).

``workers <= 1`` bypasses multiprocessing entirely and executes inline —
deterministic, easy to debug, and what the tests mostly use.  Faults are
never injected inline: the plan only arms in pooled workers.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import random
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set


from repro import telemetry as _telemetry
from repro._mp import fork_preferring_context
from repro.faults import injector as _injector
from repro.faults.plan import FAULT_PLAN_ENV, FaultPlan
from repro.telemetry.metrics import MetricsRegistry
from repro.experiments.runner import ENGINE_AUTO, kernel_cache_stats, run_scenarios
from repro.experiments.spec import CRASH_SENTINEL, CampaignSpec
from repro.experiments.store import MESSAGE, PACKET, RESULT, ResultStore, group_defaults

logger = logging.getLogger(__name__)


@dataclass
class CampaignReport:
    """Outcome of one :func:`run_campaign` invocation."""

    total: int
    skipped: int
    executed: int
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    crashed: int = 0
    workers: int = 1
    wall_time_s: float = 0.0
    #: Span-measured wall time of the execution window alone — chunk dispatch
    #: through last absorb, excluding spec expansion and the resume scan.
    execution_wall_s: float = 0.0
    #: Summed worker CPU time across every executed chunk.
    cpu_time_s: float = 0.0
    #: Summed worker busy-wall over ``execution_wall_s × workers`` — how much
    #: of the pool's capacity the campaign actually used.
    worker_utilisation: float = 0.0
    shard: Optional[str] = None
    #: Executed runs per engine (``kernel``, ``legacy``, ``async`` or
    #: ``dataplane``; ``none`` for runs that failed before an engine was
    #: selected).
    engines: Dict[str, int] = field(default_factory=dict)
    #: Summed kernel-cache counters across every worker that ran a chunk.
    kernel_cache: Dict[str, int] = field(default_factory=dict)
    #: Chunk re-dispatches after a worker death / hang / corrupt result.
    retries: int = 0
    #: Hung workers hard-killed by the heartbeat watchdog.
    watchdog_kills: int = 0
    #: Shared worker pools rebuilt after ``BrokenProcessPool``.
    pool_reforms: int = 0
    #: Chunk results rejected because their records' run ids were mangled.
    corrupt_chunks: int = 0
    #: Faults the active :class:`~repro.faults.plan.FaultPlan` injected
    #: (counted on the dispatch side — a crashed worker can't report).
    faults_injected: int = 0
    #: Planned injections per fault kind (subset of ``faults_injected``).
    fault_kinds: Dict[str, int] = field(default_factory=dict)
    #: Chunks that fell to the last rung: serial in-process execution.
    degraded_serial: int = 0

    @property
    def runs_per_second(self) -> float:
        """Executed-run throughput of this invocation.

        Computed over the span-measured execution window
        (``execution_wall_s``), not the whole-invocation bracketing: a
        resumed campaign that mostly scans already-stored run ids must not
        report a misleadingly low (or, with ``executed == 0``, undefined)
        throughput.  Falls back to ``wall_time_s`` for reports loaded from
        stores written before the execution window existed.
        """
        wall = self.execution_wall_s or self.wall_time_s
        if self.executed <= 0 or wall <= 0:
            return 0.0
        return self.executed / wall

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (printed by ``repro sweep --json``)."""
        return {
            "total": self.total,
            "skipped": self.skipped,
            "executed": self.executed,
            "ok": self.ok,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "crashed": self.crashed,
            "workers": self.workers,
            "wall_time_s": round(self.wall_time_s, 4),
            "execution_wall_s": round(self.execution_wall_s, 4),
            "cpu_time_s": round(self.cpu_time_s, 4),
            "worker_utilisation": round(self.worker_utilisation, 3),
            "runs_per_second": round(self.runs_per_second, 2),
            "shard": self.shard,
            "engines": dict(sorted(self.engines.items())),
            "kernel_cache": dict(sorted(self.kernel_cache.items())),
            "retries": self.retries,
            "watchdog_kills": self.watchdog_kills,
            "pool_reforms": self.pool_reforms,
            "corrupt_chunks": self.corrupt_chunks,
            "faults_injected": self.faults_injected,
            "fault_kinds": dict(sorted(self.fault_kinds.items())),
            "degraded_serial": self.degraded_serial,
        }


def _run_chunk_with_stats(
    chunk: List[Dict[str, Any]],
    timeout_s: Optional[float],
    engine: str,
    collect: bool = False,
    beat: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """Run one chunk and report the kernel-cache counter *delta* alongside.

    The cache is process-global and chunks from other campaigns may have
    warmed it, so only the delta is attributable to this chunk.  Chunk wall
    and CPU time are always measured (four clock reads); ``collect``
    additionally activates a fresh per-chunk
    :class:`~repro.telemetry.metrics.MetricsRegistry` — pooled workers can't
    write into the parent campaign's registry, so they ship a snapshot back
    in the result for the parent to merge.
    """
    before = kernel_cache_stats()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    token = None
    local: Optional[MetricsRegistry] = None
    if collect:
        local = MetricsRegistry()
        token = _telemetry.activate(registry=local)
    try:
        records = run_scenarios(chunk, timeout_s=timeout_s, engine=engine, beat=beat)
    finally:
        if token is not None:
            _telemetry.restore(token)
    after = kernel_cache_stats()
    result = {
        "records": records,
        "kernel_cache": {name: after[name] - before[name] for name in after},
        "worker": {
            "pid": os.getpid(),
            "wall_s": round(time.perf_counter() - wall_start, 6),
            "cpu_s": round(time.process_time() - cpu_start, 6),
        },
    }
    if local is not None:
        result["metrics"] = local.snapshot()
    return result


def _execute_chunk(
    chunk: List[Dict[str, Any]],
    timeout_s: Optional[float],
    engine: str = ENGINE_AUTO,
    collect: bool = False,
    index: Optional[int] = None,
    attempt: int = 0,
) -> Dict[str, Any]:
    """*Worker* entry point: run one chunk of scenario dicts.

    ``index``/``attempt`` identify this dispatch to the fault plane: the
    heartbeat array is stamped under ``index``, and an armed
    :class:`~repro.faults.plan.FaultPlan` rolls ``(index, attempt)`` to
    decide whether this very dispatch crashes, hangs, slows down or corrupts
    its records.  The parent evaluates the identical roll for accounting.

    The crash sentinel hard-exits here by design — it must only ever run in
    a pooled worker process; the inline (``workers <= 1``) path calls
    :func:`_run_chunk_with_stats` directly so a sentinel spec is executed
    in-process and recorded as an error instead of killing the campaign.
    """
    _injector.beat(index)
    plan = _injector.active_plan()
    fault = None
    if plan is not None and index is not None:
        fault = plan.fault_for(index, attempt)
        _injector.inject_before_chunk(fault, plan)
    for spec in chunk:
        if spec.get("algorithm") == CRASH_SENTINEL:
            os._exit(43)
    result = _run_chunk_with_stats(
        chunk, timeout_s, engine, collect=collect,
        beat=(lambda: _injector.beat(index)) if index is not None else None,
    )
    if fault == "corrupt":
        _injector.corrupt_records(result["records"])
    return result


#: A crashed run's placeholder fields: every declared group, since no
#: engine was resolved for it.
_CRASHED_INIT = group_defaults(RESULT, MESSAGE, PACKET)


def _crashed_records(chunk: Sequence[Dict[str, Any]], detail: str) -> List[Dict[str, Any]]:
    """Placeholder records for runs whose worker died before reporting."""
    return [
        {**spec, **_CRASHED_INIT, "status": "crashed", "error": detail}
        for spec in chunk
    ]


def _chunked(items: List[Dict[str, Any]], chunk_size: int) -> List[List[Dict[str, Any]]]:
    return [items[i:i + chunk_size] for i in range(0, len(items), chunk_size)]


def _default_chunk_size(pending: int, workers: int) -> int:
    # aim for ~8 chunks per worker so stragglers balance, but keep chunks
    # big enough that per-chunk dispatch overhead stays negligible; derived
    # from the pending count rather than capped at a constant, so huge
    # campaigns don't degenerate into thousands of tiny dispatches
    if pending <= 0:
        return 1
    return max(1, -(-pending // (max(1, workers) * 8)))


def _pool_context():
    return fork_preferring_context()


def run_campaign(
    campaign: CampaignSpec,
    store: ResultStore,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    timeout_s: Optional[float] = None,
    resume: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    engine: str = ENGINE_AUTO,
    telemetry: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    watchdog_s: Optional[float] = None,
    max_retries: int = 3,
    backoff_s: float = 0.05,
    max_pool_reforms: int = 2,
) -> CampaignReport:
    """Execute (the missing part of) a campaign and persist every record.

    Parameters
    ----------
    campaign:
        The cross-product spec to sweep.
    store:
        Result store; already-stored runs are skipped when ``resume`` is set.
    workers:
        Pool size; ``<= 1`` executes inline without multiprocessing.
    chunk_size:
        Runs per dispatched chunk, at least 1 (default: derived from the
        pending count and worker count).
    timeout_s:
        Cooperative per-run wall-clock budget on every engine; over-budget
        runs are recorded with ``status="timeout"``.  Without one, a chunk's
        kernel runs of one batch key execute as one lockstep group (see
        :func:`repro.experiments.runner.run_scenarios`).
    progress:
        Optional ``callback(done, pending_total)`` invoked after every chunk.
    engine:
        Execution engine for every run (see
        :func:`repro.experiments.runner.run_scenarios`): ``"auto"``
        (default — the highest-priority engine that supports each spec), or
        any registered engine name (``"kernel"``, ``"legacy"``, ``"async"``,
        ``"dataplane"``).
    telemetry:
        When set (the default), the campaign runs under an enabled
        :mod:`repro.telemetry` session: per-chunk spans, per-run scenario
        events and a merged metrics snapshot are appended to the store's
        ``telemetry.jsonl`` sidecar.  ``False`` keeps the whole substrate on
        its zero-cost no-op path and writes no sidecar.
    fault_plan:
        Optional seeded :class:`~repro.faults.plan.FaultPlan` injected into
        pooled workers (chaos testing).  Ignored — with a warning — when
        ``workers <= 1``, because faults only ever arm in pooled workers.
    watchdog_s:
        Heartbeat staleness deadline.  A pooled chunk whose worker has not
        stamped a heartbeat for this long is presumed hung: the worker is
        hard-killed and the chunk re-dispatched.  Must exceed the worst
        single-*group* runtime: heartbeats are stamped per group of lanes
        (one lockstep group of kernel runs, or one run on any other engine
        or under a ``timeout_s``).
        ``None`` (default) disables the watchdog.
    max_retries:
        Re-dispatches a chunk may consume (worker death, watchdog kill or
        corrupt result) before its runs are recorded as ``crashed``.
    backoff_s:
        Base delay of the exponential backoff (with deterministic jitter)
        between pool generations after a failure.
    max_pool_reforms:
        Shared-pool rebuilds allowed after ``BrokenProcessPool`` before the
        executor falls back to per-chunk quarantine pools.
    """
    start = time.perf_counter()
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if fault_plan is not None:
        fault_plan.validate()
        if workers <= 1:
            logger.warning(
                "fault plan ignored: inline execution (workers <= 1) never "
                "injects faults"
            )
    specs = [spec.to_dict() for spec in campaign.expand()]
    store.record_campaign(campaign.to_dict())

    existing = store.existing_run_ids() if resume else set()
    pending = [spec for spec in specs if spec["run_id"] not in existing]
    report = CampaignReport(
        total=len(specs),
        skipped=len(specs) - len(pending),
        executed=len(pending),
        workers=max(1, workers),
    )
    if not pending:
        report.wall_time_s = time.perf_counter() - start
        store.record_report(report.to_dict())
        return report

    shard = store.new_shard()
    report.shard = str(shard)
    if chunk_size is None:
        chunk_size = _default_chunk_size(len(pending), workers)
    chunks = _chunked(pending, chunk_size)

    logger.info(
        "campaign %s: %d pending of %d runs in %d chunks across %d workers "
        "(engine=%s)", campaign.name, len(pending), len(specs), len(chunks),
        report.workers, engine,
    )

    session = _telemetry.session(sink=store.record_telemetry) if telemetry else None
    registry = tracer = None
    if session is not None:
        registry, tracer = session.__enter__()
    done = 0
    busy = {"wall_s": 0.0, "cpu_s": 0.0}

    def _absorb(records: List[Dict[str, Any]]) -> None:
        nonlocal done
        store.append(records, shard)
        done += len(records)
        for record in records:
            status = record.get("status")
            if status == "ok":
                report.ok += 1
            elif status == "timeout":
                report.timeouts += 1
            elif status == "crashed":
                report.crashed += 1
            else:
                report.errors += 1
            engine_used = record.get("engine") or "none"
            report.engines[engine_used] = report.engines.get(engine_used, 0) + 1
        if tracer is not None:
            now = round(tracer.now(), 6)
            for record in records:
                tracer.emit({
                    "kind": "scenario",
                    "t": now,
                    "run_id": record.get("run_id"),
                    "engine": record.get("engine"),
                    "status": record.get("status"),
                    "family": record.get("family"),
                    "algorithm": record.get("algorithm"),
                    "wall_s": record.get("wall_time_s") or 0.0,
                })
        if progress is not None:
            progress(done, len(pending))

    def _absorb_chunk_result(result: Dict[str, Any], index: Optional[int] = None) -> None:
        for name, value in result.get("kernel_cache", {}).items():
            report.kernel_cache[name] = report.kernel_cache.get(name, 0) + value
        worker = result.get("worker") or {}
        busy["wall_s"] += worker.get("wall_s", 0.0)
        busy["cpu_s"] += worker.get("cpu_s", 0.0)
        if registry is not None and "metrics" in result:
            registry.merge(result["metrics"])
        if tracer is not None and worker:
            wall_s = worker.get("wall_s", 0.0)
            tracer.emit_span(
                "chunk",
                t_start=max(0.0, tracer.now() - wall_s),
                dur_s=wall_s,
                index=index,
                runs=len(result["records"]),
                pid=worker.get("pid"),
                cpu_s=worker.get("cpu_s", 0.0),
            )
        _absorb(result["records"])

    exec_start = time.perf_counter()
    try:
        campaign_span = nullcontext() if tracer is None else tracer.span(
            "campaign", campaign=campaign.name, pending=len(pending),
            workers=report.workers, engine=engine,
        )
        with campaign_span:
            if workers <= 1:
                for index, chunk in enumerate(chunks):
                    _absorb_chunk_result(
                        _run_chunk_with_stats(chunk, timeout_s, engine), index
                    )
            else:
                _run_pooled(
                    chunks, workers, timeout_s, engine,
                    _absorb, _absorb_chunk_result, collect=telemetry,
                    fault_plan=fault_plan, watchdog_s=watchdog_s,
                    max_retries=max_retries, backoff_s=backoff_s,
                    max_pool_reforms=max_pool_reforms, report=report,
                )
        report.execution_wall_s = time.perf_counter() - exec_start
        report.cpu_time_s = busy["cpu_s"]
        if report.execution_wall_s > 0:
            report.worker_utilisation = busy["wall_s"] / (
                report.execution_wall_s * report.workers
            )
        if registry is not None:
            for name, value in (
                ("faults.injected", report.faults_injected),
                ("executor.retries", report.retries),
                ("executor.watchdog_kills", report.watchdog_kills),
                ("executor.pool_reforms", report.pool_reforms),
                ("executor.corrupt_chunks", report.corrupt_chunks),
                ("executor.degraded_serial", report.degraded_serial),
            ):
                if value:
                    registry.inc(name, value)
        if tracer is not None:
            snapshot = registry.snapshot()
            tracer.emit({"kind": "metrics", "t": round(tracer.now(), 6), **snapshot})
            tracer.event(
                "campaign_summary",
                executed=report.executed, ok=report.ok, errors=report.errors,
                timeouts=report.timeouts, crashed=report.crashed,
                execution_wall_s=round(report.execution_wall_s, 6),
                cpu_time_s=round(report.cpu_time_s, 6),
                worker_utilisation=round(report.worker_utilisation, 3),
            )
    finally:
        if session is not None:
            session.__exit__(None, None, None)

    report.wall_time_s = time.perf_counter() - start
    logger.info(
        "campaign %s: executed %d (%d ok, %d errors, %d timeouts, %d crashed) "
        "in %.3fs", campaign.name, report.executed, report.ok, report.errors,
        report.timeouts, report.crashed, report.wall_time_s,
    )
    store.record_report(report.to_dict())
    return report


def _run_pooled(
    chunks: List[List[Dict[str, Any]]],
    workers: int,
    timeout_s: Optional[float],
    engine: str,
    absorb: Callable[[List[Dict[str, Any]]], None],
    absorb_chunk_result: Callable[[Dict[str, Any], Optional[int]], None],
    collect: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    watchdog_s: Optional[float] = None,
    max_retries: int = 3,
    backoff_s: float = 0.05,
    max_pool_reforms: int = 2,
    report: Optional[CampaignReport] = None,
) -> None:
    """Dispatch chunks over a process pool, self-healing around failures.

    Fast path: one shared pool for every chunk.  When a worker process dies
    (or the watchdog kills a hung one) the pool is broken and *every* pending
    future fails, which says nothing about which chunk was at fault — so the
    pool is reformed and the surviving chunks re-dispatched, with attempts
    counted only against chunks that had actually *started* (stamped a
    heartbeat) in the broken generation.  Chunks that exhaust their retry
    budget, and everything left when the reform budget runs out, fall to
    quarantine mode: each runs in its own single-use pool, and only a chunk
    that kills its private pool is recorded as crashed.  If no pool can be
    created at all, the leftovers run serially in-process.
    """
    context = _pool_context()
    remaining = {index: chunk for index, chunk in enumerate(chunks)}
    expected_ids = {
        index: {spec.get("run_id") for spec in chunk}
        for index, chunk in remaining.items()
    }
    attempts = {index: 0 for index in remaining}
    tracer = _telemetry.TRACER if _telemetry.ENABLED else None
    report = report if report is not None else CampaignReport(
        total=0, skipped=0, executed=0
    )

    # Shared heartbeat/pid arrays, always allocated: the watchdog reads them,
    # and the generation logic uses the stamps to tell started-but-unfinished
    # chunks from never-started ones after a pool break.  lock=False — each
    # slot has a single writer (the worker owning that chunk) and a reader
    # that tolerates a torn double (worst case: one late watchdog poll).
    heartbeats = context.Array("d", len(chunks), lock=False)
    pids = context.Array("l", len(chunks), lock=False)

    armed = fault_plan is not None and fault_plan.any_faults()

    def _note_planned_fault(index: int, attempt: int) -> None:
        # a crashing/hanging worker can never report its own injection, so
        # the parent mirrors the (deterministic) roll at dispatch time
        if not armed:
            return
        fault = fault_plan.fault_for(index, attempt)
        if fault is None:
            return
        report.faults_injected += 1
        report.fault_kinds[fault] = report.fault_kinds.get(fault, 0) + 1
        if tracer is not None:
            tracer.event("fault_planned", index=index, attempt=attempt, kind=fault)

    def _fail_or_retry(index: int, detail: str, event: str) -> None:
        # one strike against `index`; past the budget its runs are recorded
        # as crashed placeholders, otherwise it re-enters the next generation
        chunk = remaining[index]
        attempts[index] += 1
        if attempts[index] > max_retries:
            remaining.pop(index)
            logger.error(
                "chunk %d (%d runs) failed %d times (%s); recording crashed "
                "placeholders", index, len(chunk), attempts[index], detail,
            )
            if tracer is not None:
                tracer.event(
                    "chunk_crashed", index=index, runs=len(chunk), error=detail,
                )
            absorb(_crashed_records(chunk, detail))
        else:
            report.retries += 1
            logger.warning(
                "chunk %d (%d runs) will be re-dispatched (attempt %d/%d): %s",
                index, len(chunk), attempts[index] + 1, max_retries + 1, detail,
            )
            if tracer is not None:
                tracer.event(
                    event, index=index, runs=len(chunk),
                    attempt=attempts[index], error=detail,
                )

    def _run_serially(index: int, chunk: List[Dict[str, Any]]) -> None:
        # last rung: no pool at all — execute in-process (faults never arm
        # here; a crash sentinel becomes an error record, not a dead parent)
        report.degraded_serial += 1
        if tracer is not None:
            tracer.event("degraded_serial", index=index, runs=len(chunk))
        try:
            result = _run_chunk_with_stats(chunk, timeout_s, engine, collect=collect)
        except Exception as exc:  # noqa: BLE001 — keep the campaign alive
            logger.error(
                "chunk %d (%d runs) failed even in serial fallback",
                index, len(chunk), exc_info=exc,
            )
            absorb(_crashed_records(chunk, f"{type(exc).__name__}: {exc}"))
            return
        absorb_chunk_result(result, index)

    def _handle_success(index: int, result: Dict[str, Any]) -> bool:
        # reject results whose run ids don't match the dispatched specs —
        # the signature of a corrupting worker; True = chunk settled
        got_ids = {record.get("run_id") for record in result["records"]}
        if got_ids != expected_ids[index]:
            report.corrupt_chunks += 1
            _fail_or_retry(index, "worker returned corrupted records", "chunk_corrupt")
            return index not in remaining
        absorb_chunk_result(result, index)
        remaining.pop(index)
        return True

    if armed:
        os.environ[FAULT_PLAN_ENV] = fault_plan.to_json()
    try:
        _run_pool_generations(
            remaining, workers, timeout_s, engine, collect, context,
            heartbeats, pids, attempts, watchdog_s, backoff_s,
            max_pool_reforms, report, tracer, absorb,
            _note_planned_fault, _fail_or_retry, _handle_success, _run_serially,
        )
    finally:
        if armed:
            os.environ.pop(FAULT_PLAN_ENV, None)


def _run_pool_generations(
    remaining: Dict[int, List[Dict[str, Any]]],
    workers: int,
    timeout_s: Optional[float],
    engine: str,
    collect: bool,
    context,
    heartbeats,
    pids,
    attempts: Dict[int, int],
    watchdog_s: Optional[float],
    backoff_s: float,
    max_pool_reforms: int,
    report: CampaignReport,
    tracer,
    absorb: Callable[[List[Dict[str, Any]]], None],
    note_planned_fault: Callable[[int, int], None],
    fail_or_retry: Callable[[int, str, str], None],
    handle_success: Callable[[int, Dict[str, Any]], bool],
    run_serially: Callable[[int, List[Dict[str, Any]]], None],
) -> None:
    """The generation loop behind :func:`_run_pooled` (shared-pool rungs)."""
    poll_s = None
    if watchdog_s is not None:
        poll_s = min(0.25, max(0.05, watchdog_s / 4.0))
    pool_reforms_used = 0
    generation = 0
    degraded = False

    while remaining:
        generation += 1
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=context,
                initializer=_injector.arm_pool_worker,
                initargs=(heartbeats, pids),
            )
        except OSError as exc:
            logger.error(
                "cannot create a worker pool (%s); degrading %d chunks to "
                "serial in-process execution", exc, len(remaining),
            )
            degraded = True
            break
        gen_start = time.monotonic()
        pool_broke = False
        killed: Set[int] = set()
        with pool:
            futures = {}
            for index in sorted(remaining):
                try:
                    future = pool.submit(
                        _execute_chunk, remaining[index], timeout_s, engine,
                        collect, index, attempts[index],
                    )
                except BrokenProcessPool:
                    # an already-dispatched chunk killed its worker before
                    # the dispatch loop even finished; stop submitting —
                    # undispatched chunks never started, so they keep their
                    # full budget for the next generation
                    pool_broke = True
                    break
                note_planned_fault(index, attempts[index])
                futures[future] = index
            not_done = set(futures)
            while not_done:
                finished, not_done = wait(
                    not_done, timeout=poll_s, return_when=FIRST_COMPLETED
                )
                if watchdog_s is not None and not_done:
                    now = time.monotonic()
                    for future in not_done:
                        index = futures[future]
                        stamp = heartbeats[index]
                        pid = int(pids[index])
                        # only stamps from *this* generation are live: a
                        # stale stamp + recycled pid must never be killed
                        if (
                            index not in killed
                            and stamp >= gen_start
                            and now - stamp > watchdog_s
                            and pid > 0
                        ):
                            logger.warning(
                                "watchdog: chunk %d silent for %.2fs "
                                "(> %.2fs); killing worker %d",
                                index, now - stamp, watchdog_s, pid,
                            )
                            report.watchdog_kills += 1
                            killed.add(index)
                            if tracer is not None:
                                tracer.event(
                                    "watchdog_kill", index=index, pid=pid,
                                    silent_s=round(now - stamp, 3),
                                )
                            try:
                                os.kill(pid, signal.SIGKILL)
                            except ProcessLookupError:
                                pass  # already gone; the pool will notice
                for future in finished:
                    index = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        pool_broke = True
                        continue  # stays in `remaining` for the next rung
                    except Exception as exc:  # noqa: BLE001 — keep going
                        fail_or_retry(
                            index, f"{type(exc).__name__}: {exc}", "chunk_failed"
                        )
                        continue
                    handle_success(index, result)
                if pool_broke:
                    break
        if not remaining:
            return
        if pool_broke:
            pool_reforms_used += 1
            report.pool_reforms += 1
            # strike only the chunks that actually started in the broken
            # generation — the guilty crash/hang plus in-flight casualties;
            # never-started chunks keep their full budget
            started = sorted(
                index for index in remaining
                if heartbeats[index] >= gen_start or index in killed
            )
            if tracer is not None:
                tracer.event(
                    "pool_broken", generation=generation,
                    surviving_chunks=len(remaining), started_chunks=len(started),
                )
            for index in started:
                if index in remaining:
                    fail_or_retry(index, "worker process died mid-chunk", "chunk_interrupted")
            if pool_reforms_used > max_pool_reforms:
                logger.warning(
                    "pool reform budget exhausted (%d); retrying %d surviving "
                    "chunks in quarantine", max_pool_reforms, len(remaining),
                )
                break
        if remaining:
            # exponential backoff with deterministic jitter before reforming
            delay = min(2.0, backoff_s * (2 ** (generation - 1)))
            delay *= 1.0 + 0.5 * random.Random(generation).random()
            time.sleep(delay)

    # quarantine: isolate each surviving chunk in a throwaway pool
    for index in sorted(remaining):
        if degraded:
            break
        chunk = remaining.pop(index)
        note_planned_fault(index, attempts[index])
        if tracer is not None:
            tracer.event("quarantine_retry", index=index, runs=len(chunk))
        try:
            quarantine = ProcessPoolExecutor(
                max_workers=1, mp_context=context,
                initializer=_injector.arm_pool_worker,
                initargs=(heartbeats, pids),
            )
        except OSError as exc:
            logger.error(
                "cannot create a quarantine pool (%s); degrading to serial "
                "in-process execution", exc,
            )
            degraded = True
            remaining[index] = chunk
            break
        try:
            with quarantine:
                future = quarantine.submit(
                    _execute_chunk, chunk, timeout_s, engine, collect,
                    index, attempts[index],
                )
                result = _await_quarantined(
                    future, index, heartbeats, pids, watchdog_s, poll_s,
                    report, tracer,
                )
        except Exception as exc:  # noqa: BLE001 — BrokenProcessPool included
            logger.error(
                "chunk %d (%d runs) killed its quarantine pool; recording "
                "crashed placeholders", index, len(chunk), exc_info=exc,
            )
            if tracer is not None:
                tracer.event(
                    "chunk_crashed", index=index, runs=len(chunk),
                    error=f"{type(exc).__name__}: {exc}",
                )
            absorb(_crashed_records(
                chunk, f"worker process died: {type(exc).__name__}: {exc}"
            ))
            continue
        remaining[index] = chunk
        if handle_success(index, result):
            continue
        # corrupt result in quarantine past the retry budget was already
        # settled by handle_success/fail_or_retry; if the chunk survived
        # with budget left, spend the rest of it serially — the quarantine
        # rung is the end of pooled dispatch
        if index in remaining:
            run_serially(index, remaining.pop(index))

    # serial degradation: the very last rung
    if degraded:
        for index in sorted(remaining):
            run_serially(index, remaining.pop(index))


def _await_quarantined(
    future,
    index: int,
    heartbeats,
    pids,
    watchdog_s: Optional[float],
    poll_s: Optional[float],
    report: CampaignReport,
    tracer,
):
    """Wait on a quarantine future, watchdogging the hung-worker case."""
    if watchdog_s is None:
        return future.result()
    q_start = time.monotonic()
    already_killed = False
    while True:
        finished, _ = wait([future], timeout=poll_s)
        if finished:
            return future.result()
        now = time.monotonic()
        stamp = heartbeats[index]
        reference = stamp if stamp >= q_start else q_start
        pid = int(pids[index]) if stamp >= q_start else 0
        # a worker that has not stamped yet is still starting up, not hung —
        # its pid slot may hold a dead predecessor, which must not be killed
        if not already_killed and now - reference > watchdog_s and pid > 0:
            already_killed = True
            report.watchdog_kills += 1
            logger.warning(
                "watchdog: quarantined chunk %d silent for %.2fs; "
                "killing worker %d", index, now - reference, pid,
            )
            if tracer is not None:
                tracer.event(
                    "watchdog_kill", index=index, pid=pid,
                    silent_s=round(now - reference, 3),
                )
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            # the kill breaks the private pool; the next wait() returns the
            # future as failed and future.result() raises BrokenProcessPool
