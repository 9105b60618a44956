"""Sharded campaign executor: chunked dispatch over a process pool.

The executor expands a :class:`~repro.experiments.spec.CampaignSpec` into its
run list, drops every run already present in the
:class:`~repro.experiments.store.ResultStore` (campaign **resume**), splits
the remainder into chunks of plain spec dicts and dispatches the chunks
across a ``multiprocessing`` worker pool.  Workers rebuild all heavyweight
objects (instances, automata, schedulers) locally from the dicts, so nothing
but plain data is ever pickled.

Failure containment, from the cheapest case up:

* a bad *run* (exception, timeout) is caught inside the worker and comes back
  as a record with ``status`` ``"error"`` / ``"timeout"``;
* a chunk whose worker raises or returns records with mangled run ids takes
  a strike and is resubmitted to the same pool;
* a *hung* worker is caught by the heartbeat watchdog (``watchdog_s``):
  workers stamp a shared array per chunk and per group of lanes, and the
  worker of a chunk whose stamp goes stale is hard-killed, which breaks the
  pool like any dead *worker process* (segfault, OOM-kill);
* when a shared pool breaks, every chunk that had started in it (stamped a
  heartbeat since its dispatch, or was killed by the watchdog) takes a
  strike and reruns **alone** in a one-worker pool; a chunk that breaks a
  pool it has to itself, or runs out of strikes (``max_retries``), is
  written out as ``status="crashed"`` records, so the campaign still
  completes.  Chunks that never started go to a fresh shared pool with
  their budget intact.  Each break is followed by an exponential backoff
  with deterministic jitter, and isolates at least one chunk, so the shared
  pool is rebuilt at most once per chunk;
* when a pool cannot be created at all, the executor **degrades to serial**
  in-process execution of the leftover chunks — slower, but the campaign
  finishes;
* an interrupted *campaign* (Ctrl-C, machine loss) is resumable: records are
  appended to the store as each chunk completes, so a re-run skips everything
  already recorded.

All of it is deterministic-testable: a seeded
:class:`~repro.faults.plan.FaultPlan` (``fault_plan=``) makes pooled workers
crash, hang, run slow or corrupt their results at plan-chosen chunk indices,
and the policy above is what recovers (see :mod:`repro.faults`).

``workers <= 1`` bypasses multiprocessing entirely and executes inline —
deterministic, easy to debug, and what the tests mostly use.  Faults are
never injected inline: the plan only arms in pooled workers.
"""

from __future__ import annotations

import logging
import os
import random
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry as _telemetry
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
    #: Runs that completed: status ``ok``, or a model check's ``violated``
    #: or ``truncated`` verdict.
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
    #: (counted on the dispatch side — a crashed worker can't report —
    #: once per ``(chunk, attempt)``).
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
        """JSON-compatible form (printed by ``repro sweep --json``): every
        field, times rounded, plus ``runs_per_second``."""
        data = asdict(self)
        for name, digits in (
            ("wall_time_s", 4), ("execution_wall_s", 4), ("cpu_time_s", 4),
            ("worker_utilisation", 3),
        ):
            data[name] = round(data[name], digits)
        data["runs_per_second"] = round(self.runs_per_second, 2)
        return data


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


#: Base delay of the exponential backoff (with deterministic jitter) taken
#: after a shared pool breaks; it doubles with every further break.
BACKOFF_S = 0.05


def _fork_preferring_context():
    """The ``fork`` multiprocessing context where available, default otherwise.

    Forked workers start with the parent's modules already imported; on
    spawn-only platforms (Windows) each worker imports them afresh.
    """
    return get_context("fork" if "fork" in get_all_start_methods() else None)


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
        kernel runs of one batch key execute as one lockstep group, and so
        do all its data-plane runs (see
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
        Heartbeat staleness deadline, above 0.  A pooled chunk whose worker
        has not stamped a heartbeat for this long is presumed hung and its
        worker hard-killed, which breaks the pool.  Must exceed the worst
        single-*group* runtime: heartbeats are stamped per group of lanes
        (one lockstep group of kernel or data-plane runs, or one run on
        any other engine or under a ``timeout_s``).
        ``None`` (default) disables the watchdog.
    max_retries:
        Failed attempts a chunk may retry, at least 0.  A chunk fails an
        attempt when its pool broke while it ran (a worker died or was
        killed by the watchdog) or it returned an exception or corrupt
        records; past the budget its runs are recorded ``crashed``.  The
        module docstring gives the whole pooled failure policy.

    Raises ``ValueError`` for a ``chunk_size`` below 1, a ``watchdog_s`` of
    0 or less, or a negative ``max_retries``, before the store is touched.
    """
    start = time.perf_counter()
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if watchdog_s is not None and watchdog_s <= 0:
        raise ValueError(f"watchdog_s must be above 0, got {watchdog_s}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be at least 0, got {max_retries}")
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

    def _absorb(result: Dict[str, Any], index: Optional[int]) -> None:
        # one chunk's records into the store, the report and the telemetry;
        # a crashed chunk's placeholders come without worker figures
        nonlocal done
        for name, value in result.get("kernel_cache", {}).items():
            report.kernel_cache[name] = report.kernel_cache.get(name, 0) + value
        worker = result.get("worker") or {}
        busy["wall_s"] += worker.get("wall_s", 0.0)
        busy["cpu_s"] += worker.get("cpu_s", 0.0)
        if registry is not None and "metrics" in result:
            registry.merge(result["metrics"])
        records = result["records"]
        if tracer is not None and worker:
            wall_s = worker.get("wall_s", 0.0)
            tracer.emit_span(
                "chunk",
                t_start=max(0.0, tracer.now() - wall_s),
                dur_s=wall_s,
                index=index,
                runs=len(records),
                pid=worker.get("pid"),
                cpu_s=worker.get("cpu_s", 0.0),
            )
        store.append(records, shard)
        done += len(records)
        for record in records:
            status = record.get("status")
            if status == "timeout":
                report.timeouts += 1
            elif status == "crashed":
                report.crashed += 1
            elif status == "error":
                report.errors += 1
            else:  # ok, or a completed check's violated/truncated verdict
                report.ok += 1
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

    exec_start = time.perf_counter()
    try:
        campaign_span = nullcontext() if tracer is None else tracer.span(
            "campaign", campaign=campaign.name, pending=len(pending),
            workers=report.workers, engine=engine,
        )
        with campaign_span:
            if workers <= 1:
                for index, chunk in enumerate(chunks):
                    _absorb(_run_chunk_with_stats(chunk, timeout_s, engine), index)
            else:
                _PooledDispatch(
                    chunks, workers, _absorb, timeout_s=timeout_s, engine=engine,
                    collect=telemetry, fault_plan=fault_plan,
                    watchdog_s=watchdog_s, max_retries=max_retries, report=report,
                ).run()
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


class _NoPool(Exception):
    """No worker pool could be created; the ``OSError`` is the cause."""


class _PooledDispatch:
    """Chunks dispatched over process pools, healing around broken ones.

    :meth:`_pool` is the one place a pool is created, polled and
    watchdogged; :meth:`run` decides what the next pool runs after one
    breaks (the policy is in the module docstring).
    """

    def __init__(
        self,
        chunks: List[List[Dict[str, Any]]],
        workers: int,
        settle: Callable[[Dict[str, Any], Optional[int]], None],
        *,
        timeout_s: Optional[float],
        engine: str,
        collect: bool,
        fault_plan: Optional[FaultPlan],
        watchdog_s: Optional[float],
        max_retries: int,
        report: CampaignReport,
    ) -> None:
        self.remaining = dict(enumerate(chunks))
        self.attempts = dict.fromkeys(self.remaining, 0)
        self.workers = workers
        self.settle = settle
        self.job = (timeout_s, engine, collect)
        armed = fault_plan is not None and fault_plan.any_faults()
        self.fault_plan = fault_plan if armed else None
        self.watchdog_s = watchdog_s
        self.poll_s = None if watchdog_s is None else min(0.25, max(0.05, watchdog_s / 4.0))
        self.max_retries = max_retries
        self.report = report
        self.planned: Set[Tuple[int, int]] = set()  # (index, attempt) counted
        self.tracer = _telemetry.TRACER if _telemetry.ENABLED else None
        self.context = _fork_preferring_context()
        # one heartbeat and pid slot per chunk, shared by every pool: the
        # watchdog reads them, and a broken pool's stamps tell the chunks
        # that started in it from those that never did.  lock=False — each
        # slot has a single writer (the worker running that chunk) and a
        # reader that tolerates a torn double (worst case: one late poll).
        self.heartbeats = self.context.Array("d", len(chunks), lock=False)
        self.pids = self.context.Array("l", len(chunks), lock=False)

    def run(self) -> None:
        if self.fault_plan is not None:
            os.environ[FAULT_PLAN_ENV] = self.fault_plan.to_json()
        try:
            breaks = 0
            while self.remaining:
                started = self._pool(sorted(self.remaining), self.workers)
                if started is None:
                    break
                breaks += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "pool_broken", breaks=breaks,
                        surviving_chunks=len(self.remaining),
                        started_chunks=len(started),
                    )
                delay = min(2.0, BACKOFF_S * 2 ** (breaks - 1))
                time.sleep(delay * (1.0 + 0.5 * random.Random(breaks).random()))
                for index in started:
                    if (
                        self._strike(index, "worker process died mid-chunk", "chunk_interrupted")
                        and self._pool([index], 1) is not None
                    ):
                        self._crash(index, "worker process died with the chunk alone in its pool")
                if self.remaining:
                    self.report.pool_reforms += 1
        except _NoPool as exc:
            logger.error(
                "cannot create a worker pool (%s); degrading %d chunks to "
                "serial in-process execution", exc, len(self.remaining),
            )
            for index in sorted(self.remaining):
                self._run_serially(index)
        finally:
            if self.fault_plan is not None:
                os.environ.pop(FAULT_PLAN_ENV, None)

    def _pool(self, indices: List[int], size: int) -> Optional[List[int]]:
        """Run chunks ``indices`` in a fresh pool of ``size`` workers.

        Submits the chunks, polls them, runs the heartbeat watchdog and
        settles every result, resubmitting a failed or corrupt chunk while
        its budget lasts.  Returns ``None`` once every chunk is settled, or —
        when the pool broke — the chunks that had started in it: those that
        stamped a heartbeat since their dispatch or were killed by the
        watchdog (every chunk it still held, if none had).  Raises
        :class:`_NoPool` when the pool cannot be created.
        """
        try:
            pool = ProcessPoolExecutor(
                max_workers=size, mp_context=self.context,
                initializer=_injector.arm_pool_worker,
                initargs=(self.heartbeats, self.pids),
            )
        except OSError as exc:
            raise _NoPool(exc) from exc
        futures: Dict[Any, int] = {}
        dispatched: Dict[int, float] = {}  # unsettled chunk -> dispatch time
        killed: Set[int] = set()
        broken = False

        def submit(index: int) -> None:
            nonlocal broken
            # stamped before the submit, so the worker's first beat is later
            dispatched[index] = time.monotonic()
            try:
                future = pool.submit(
                    _execute_chunk, self.remaining[index], *self.job,
                    index, self.attempts[index],
                )
            except BrokenProcessPool:
                broken = True
                return
            except OSError as exc:  # the first submit starts the workers
                raise _NoPool(exc) from exc
            self._note_planned_fault(index)
            futures[future] = index

        with pool:
            for index in indices:
                if broken:
                    break
                submit(index)
            while futures:
                finished, _ = wait(futures, timeout=self.poll_s, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as exc:  # noqa: BLE001 — keep going
                        detail, event = f"{type(exc).__name__}: {exc}", "chunk_failed"
                    else:
                        expected = {spec.get("run_id") for spec in self.remaining[index]}
                        if {record.get("run_id") for record in result["records"]} == expected:
                            del dispatched[index]
                            self.remaining.pop(index)
                            self.settle(result, index)
                            continue
                        # mangled run ids: the signature of a corrupting worker
                        self.report.corrupt_chunks += 1
                        detail, event = "worker returned corrupted records", "chunk_corrupt"
                    del dispatched[index]
                    if self._strike(index, detail, event) and not broken:
                        submit(index)
                if broken or self.watchdog_s is None:
                    continue
                now = time.monotonic()
                for index in futures.values():
                    stamp = self.heartbeats[index]
                    pid = int(self.pids[index])
                    # only a stamp made since this dispatch is live: a chunk
                    # still queued is not hung, and an older stamp's pid may
                    # have been recycled
                    if (
                        index in killed or stamp < dispatched[index]
                        or now - stamp <= self.watchdog_s or pid <= 0
                    ):
                        continue
                    logger.warning(
                        "watchdog: chunk %d silent for %.2fs (> %.2fs); "
                        "killing worker %d", index, now - stamp, self.watchdog_s, pid,
                    )
                    self.report.watchdog_kills += 1
                    killed.add(index)
                    if self.tracer is not None:
                        self.tracer.event(
                            "watchdog_kill", index=index, pid=pid,
                            silent_s=round(now - stamp, 3),
                        )
                    try:
                        os.kill(pid, signal.SIGKILL)  # breaks the pool
                    except ProcessLookupError:
                        pass  # already gone; the pool will notice
        if not broken:
            return None
        started = [
            index for index, at in sorted(dispatched.items())
            if self.heartbeats[index] >= at or index in killed
        ]
        return started or sorted(dispatched)

    def _note_planned_fault(self, index: int) -> None:
        # a crashing or hanging worker can never report its own injection,
        # so the parent mirrors the (deterministic) roll at dispatch time;
        # a chunk that never started in a broken pool is resubmitted with
        # the same attempt, and that planned fault is counted once
        attempt = self.attempts[index]
        if self.fault_plan is None or (index, attempt) in self.planned:
            return
        self.planned.add((index, attempt))
        fault = self.fault_plan.fault_for(index, attempt)
        if fault is None:
            return
        self.report.faults_injected += 1
        self.report.fault_kinds[fault] = self.report.fault_kinds.get(fault, 0) + 1
        if self.tracer is not None:
            self.tracer.event("fault_planned", index=index, attempt=attempt, kind=fault)

    def _strike(self, index: int, detail: str, event: str) -> bool:
        """Count a failed attempt of chunk ``index``; ``True`` while it may
        run again, else its runs are recorded ``crashed``."""
        self.attempts[index] += 1
        if self.attempts[index] > self.max_retries:
            self._crash(index, detail)
            return False
        self.report.retries += 1
        runs = len(self.remaining[index])
        logger.warning(
            "chunk %d (%d runs) will be re-dispatched (attempt %d/%d): %s",
            index, runs, self.attempts[index] + 1, self.max_retries + 1, detail,
        )
        if self.tracer is not None:
            self.tracer.event(
                event, index=index, runs=runs, attempt=self.attempts[index], error=detail,
            )
        return True

    def _crash(self, index: int, detail: str) -> None:
        chunk = self.remaining.pop(index)
        logger.error(
            "chunk %d (%d runs): %s; recording crashed placeholders",
            index, len(chunk), detail,
        )
        if self.tracer is not None:
            self.tracer.event("chunk_crashed", index=index, runs=len(chunk), error=detail)
        self.settle({"records": _crashed_records(chunk, detail)}, index)

    def _run_serially(self, index: int) -> None:
        # the last rung: no pool at all, so execute in-process (faults never
        # arm here; a crash sentinel becomes an error record, not a dead parent)
        chunk = self.remaining.pop(index)
        self.report.degraded_serial += 1
        if self.tracer is not None:
            self.tracer.event("degraded_serial", index=index, runs=len(chunk))
        try:
            result = _run_chunk_with_stats(chunk, *self.job)
        except Exception as exc:  # noqa: BLE001 — keep the campaign alive
            logger.error(
                "chunk %d (%d runs) failed even in serial fallback",
                index, len(chunk), exc_info=exc,
            )
            result = {"records": _crashed_records(chunk, f"{type(exc).__name__}: {exc}")}
        self.settle(result, index)
