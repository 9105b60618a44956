"""Command-line interface: ``python -m repro <command> ...``.

The CLI exposes the workflows a user typically wants without writing code:

``run``
    Run one link-reversal algorithm on a generated topology as one scenario
    through the engine registry (``--engine``) and print the work summary
    (optionally the final orientation as DOT).  ``--delay-model`` and
    ``--loss`` make it an asynchronous message-passing run, and
    ``--failures`` injects seeded link failures after convergence; both
    add the record's message and churn columns to the summary.
``compare``
    Run every algorithm on the same topology, one scenario each through the
    engine registry, and print a comparison table.
``verify``
    Exhaustively model-check the paper's invariants and the acyclicity
    theorems over every connected DAG with up to N nodes.
``check``
    Exhaustively model-check one algorithm on one generated topology with
    the production engine: one compiled frontier loop over int state
    signatures, optional twin-node symmetry reduction (``--symmetry``) and
    disk-spilled visited set (``--spill``), with verdicts and replayable
    counterexample traces written into an experiments result store
    (``--store``, resumable).
``worst-case``
    Print the Θ(n_b²) worst-case sweep for FR and PR with a quadratic fit.
``sweep``
    Expand a campaign cross-product (families × algorithms × schedulers ×
    sizes × replicates × failure models), execute it across a worker pool and
    persist every run in a resumable result store.
``report``
    Aggregate a result store: group-by work summaries, work-vs-size curves
    with quadratic fits, and the PR-vs-FR worst-case ordering check.
``trace``
    Summarise the ``telemetry.jsonl`` sidecar a sweep wrote next to its
    result store: top spans, per-engine scenario timings, worker timeline
    and the final metrics snapshot.
``fsck``
    Verify a result store's integrity: per-line CRC32 checksums, torn
    shard tails and index drift; quarantine corrupt lines and rebuild the
    SQLite index so an interrupted campaign resumes cleanly.

Every command accepts ``--seed`` so runs are reproducible, and ``-v`` /
``-vv`` raise the stderr log level (INFO / DEBUG) of the library loggers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.statistics import quadratic_fit_r2
from repro.analysis.work import worst_case_sweep
from repro.core.full_reversal import FullReversal
from repro.core.graph import LinkReversalInstance
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.experiments.aggregate import build_report
from repro.experiments.executor import run_campaign
from repro.experiments.runner import (
    ENGINE_ASYNC,
    ENGINE_CHOICES,
    ENGINE_DATAPLANE,
    execute_scenario,
)
from repro.experiments.spec import (
    ALGORITHM_FACTORIES,
    DELAY_MODEL_NAMES,
    FAILURE_MODELS,
    CampaignSpec,
    ScenarioSpec,
    derive_seed,
)
from repro.experiments.store import ResultStore
from repro.exploration.checker import ModelChecker
from repro.exploration.enumerate_graphs import all_connected_dag_instances
from repro.exploration.state_space import explore_and_check
from repro.io.dot import orientation_to_dot
from repro.schedulers import SCHEDULER_FACTORIES
from repro import telemetry as _telemetry
from repro.telemetry.trace import check_span_nesting, summarise_telemetry, top_spans
from repro.schedulers.greedy import GreedyScheduler
from repro.topology.generators import FAMILY_NAMES, build_family
from repro.verification.acyclicity import is_acyclic
from repro.verification.invariants import newpr_invariant_checks, pr_invariant_checks


#: Algorithm / scheduler / topology tables — shared with the experiment
#: campaigns so the CLI axes and the campaign axes can never drift apart.
ALGORITHMS: Dict[str, Callable[[LinkReversalInstance], object]] = dict(ALGORITHM_FACTORIES)
SCHEDULERS: Dict[str, Callable[[int], object]] = dict(SCHEDULER_FACTORIES)
TOPOLOGIES = FAMILY_NAMES


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
#: Record fields of one algorithm's work, as ``compare`` reports them.
WORK_FIELDS = (
    "node_steps", "edge_reversals", "dummy_steps", "converged", "destination_oriented",
)
#: Fields of ``repro run``'s summary; an async spec adds the message
#: columns and a churn spec the churn columns, each with its text label.
RUN_FIELDS = WORK_FIELDS + ("engine", "nodes", "edges", "bad_nodes")
MESSAGE_COLUMNS = (
    ("messages_sent", "msgs sent"), ("messages_delivered", "msgs delivered"),
    ("messages_lost", "msgs lost"), ("simulated_time", "simulated time"),
)
CHURN_COLUMNS = (("failures_applied", "links failed"), ("partition_skips", "cuts skipped"))


def cmd_run(args: argparse.Namespace) -> int:
    # one scenario through the engine registry: ``auto`` picks the async
    # engine for a spec with a delay model, the compiled kernel where the
    # algorithm has one and the legacy oracle otherwise, and an explicit
    # engine that cannot run the spec is an error, not a swap
    spec = ScenarioSpec(
        family=args.topology, size=args.nodes, algorithm=args.algorithm,
        scheduler=args.scheduler, topology_seed=args.seed,
        scheduler_seed=args.seed, max_steps=args.max_steps,
        delay_model=args.delay_model, loss=args.loss,
        failure_model="link-failures" if args.failures else "none",
        failure_count=args.failures,
    )
    if args.dot and (spec.delay_model is not None or spec.failure_model != "none"):
        print("error: --dot writes the final orientation of a synchronous run "
              "without --failures", file=sys.stderr)
        return 2
    record = execute_scenario(spec, engine=args.engine)
    if record["status"] == "error":
        print(f"error: {record['error']}", file=sys.stderr)
        return 2
    columns = ()
    if spec.delay_model is not None:
        columns += MESSAGE_COLUMNS
    if spec.failure_model != "none":
        columns += CHURN_COLUMNS
    # labelled like the object-level work summary: automaton and scheduler names
    algorithm = ALGORITHMS[args.algorithm].name
    scheduler = type(SCHEDULERS[args.scheduler](args.seed)).__name__
    if args.json:
        payload = {key: record[key] for key in RUN_FIELDS}
        payload.update((key, record[key]) for key, _ in columns)
        payload.update(
            algorithm=algorithm, scheduler=scheduler, topology=args.topology, seed=args.seed
        )
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"topology      : {args.topology} ({record['nodes']} nodes, "
              f"{record['edges']} edges, {record['bad_nodes']} bad)")
        print(f"algorithm     : {algorithm}")
        print(f"scheduler     : {scheduler}")
        print(f"engine        : {record['engine']}")
        print(f"node steps    : {record['node_steps']}")
        print(f"edge reversals: {record['edge_reversals']}")
        print(f"dummy steps   : {record['dummy_steps']}")
        print(f"converged     : {record['converged']}")
        print(f"dest oriented : {record['destination_oriented']}")
        for key, label in columns:
            print(f"{label:<14}: {record[key]}")
    if args.dot:
        from repro.automata.executions import run as run_execution

        instance = build_family(args.topology, args.nodes, args.seed)
        result = run_execution(
            ALGORITHMS[args.algorithm](instance), SCHEDULERS[args.scheduler](args.seed)
        )
        orientation = getattr(result.final_state, "orientation", None)
        if orientation is None:
            orientation = result.final_state.to_orientation()
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(orientation_to_dot(orientation))
        print(f"final orientation written to {args.dot}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    # one scenario per algorithm through the engine registry; every algorithm
    # gets its own scheduler seed derived from --seed and its name, so the
    # randomised schedulers are not correlated across the compared runs (a
    # shared schedule would make the comparison hinge on one sample)
    scheduler = type(SCHEDULERS[args.scheduler](args.seed)).__name__
    results = {}
    for name in ALGORITHMS:
        record = execute_scenario(ScenarioSpec(
            family=args.topology, size=args.nodes, algorithm=name,
            scheduler=args.scheduler, topology_seed=args.seed,
            scheduler_seed=derive_seed(args.seed, "compare", name),
        ))
        if record["status"] == "error":
            print(f"error: {record['error']}", file=sys.stderr)
            return 2
        results[name] = record
    if args.json:
        payload = {
            "topology": args.topology,
            "nodes": record["nodes"],
            "seed": args.seed,
            "scheduler": args.scheduler,
            "results": {
                name: {
                    "algorithm": ALGORITHMS[name].name,
                    "scheduler": scheduler,
                    **{key: record[key] for key in WORK_FIELDS},
                }
                for name, record in results.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{'algorithm':<12} {'steps':>8} {'reversals':>10} {'dummy':>6} {'oriented':>9}")
    for name, record in results.items():
        print(f"{ALGORITHMS[name].name:<12} {record['node_steps']:>8} "
              f"{record['edge_reversals']:>10} {record['dummy_steps']:>6} "
              f"{str(record['destination_oriented']):>9}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    total_failures = 0
    graphs = 0
    states = 0
    for size in range(2, args.max_nodes + 1):
        for instance in all_connected_dag_instances(size):
            graphs += 1
            for automaton_class, predicates in (
                (PartialReversal, pr_invariant_checks()),
                (NewPartialReversal, newpr_invariant_checks()),
                (FullReversal, {"acyclic": is_acyclic}),
            ):
                report = explore_and_check(automaton_class(instance), dict(predicates))
                states += report.states_explored
                total_failures += len(report.failures)
    print(f"checked {graphs} graphs, {states} automaton states")
    print(f"violations: {total_failures}")
    if total_failures == 0:
        print("all invariants and acyclicity claims hold on every reachable state")
    return 0 if total_failures == 0 else 1


#: Invariant groups selectable via ``repro check --invariants``.
CHECK_INVARIANTS = ("acyclic", "progress", "paper")


def _check_run_id(args: argparse.Namespace) -> str:
    """Stable content hash identifying one ``repro check`` verification run.

    Spill settings and the store layout are excluded — they change how the
    check executes, not what it verifies — so a resumed run with a different
    spill configuration still matches the stored verdict.  Stored checks
    from before the single-loop checker carry a ``workers`` field their id
    never included, so they resume too.
    """
    identity = {
        "kind": "check",
        "family": args.topology,
        "size": args.nodes,
        "algorithm": args.algorithm,
        "seed": args.seed,
        "invariants": sorted(_csv(args.invariants)),
        "max_states": args.max_states,
        "single_actions": args.single_actions,
        "symmetry": args.symmetry,
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]


def cmd_check(args: argparse.Namespace) -> int:
    invariants = _csv(args.invariants)
    unknown = set(invariants) - set(CHECK_INVARIANTS)
    if unknown:
        print(f"error: unknown invariant group(s) {sorted(unknown)}; "
              f"choose from {', '.join(CHECK_INVARIANTS)}", file=sys.stderr)
        return 2

    if args.nodes < 2:
        print("error: size must be at least 2", file=sys.stderr)
        return 2

    run_id = _check_run_id(args)
    store = ResultStore(args.store) if args.store else None
    if store is not None and not args.no_resume and run_id in store.existing_run_ids():
        stored = store.records(run_id=run_id)[0]
        if args.json:
            stored["skipped"] = True
            print(json.dumps(stored, indent=2, sort_keys=True))
        else:
            print(f"check {run_id} already stored (status {stored['status']}); "
                  f"use --no-resume to re-verify")
        return 0 if stored["status"] in ("ok", "truncated") else 1

    instance = build_family(args.topology, args.nodes, args.seed)
    automaton = ALGORITHMS[args.algorithm](instance)
    predicates = {}
    if "paper" in invariants:
        if args.algorithm in ("pr", "onestep-pr"):
            predicates.update(pr_invariant_checks())
        elif args.algorithm == "new-pr":
            predicates.update(newpr_invariant_checks())
        else:
            print(f"warning: no paper invariant bundle for {args.algorithm!r}; "
                  f"checking structural invariants only", file=sys.stderr)

    try:
        checker = ModelChecker(
            automaton,
            predicates,
            max_states=args.max_states,
            single_actions_only=args.single_actions,
            symmetry=args.symmetry,
            check_acyclicity="acyclic" in invariants,
            check_progress="progress" in invariants,
            spill_threshold=args.spill_threshold if args.spill else None,
            spill_dir=args.spill_dir,
            spill_max_runs=args.spill_max_runs,
            max_traced_failures=args.max_traced,
        )
        if store is not None and not args.no_telemetry:
            with _telemetry.session(sink=store.record_telemetry) as (registry, tracer):
                report = checker.run()
                tracer.emit({
                    "kind": "metrics",
                    "t": round(tracer.now(), 6),
                    **registry.snapshot(),
                })
        else:
            report = checker.run()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    record = report.to_record(
        run_id=run_id,
        kind="check",
        campaign=args.name,
        family=args.topology,
        size=args.nodes,
        algorithm=args.algorithm,
        scheduler="exhaustive",
        seed=args.seed,
        nodes=instance.node_count,
        edges=instance.edge_count,
        invariants=sorted(invariants),
        max_states=args.max_states,
        single_actions=args.single_actions,
        symmetry=args.symmetry,
    )
    if store is not None:
        store.append([record])

    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(f"topology      : {args.topology} ({instance.node_count} nodes, "
              f"{instance.edge_count} edges)")
        print(f"algorithm     : {report.automaton_name}")
        print(f"invariants    : {', '.join(report.predicate_names)}")
        print(f"states        : {report.states_explored}"
              + (" (truncated)" if report.truncated else " (exhaustive)"))
        print(f"transitions   : {report.transitions_explored}")
        print(f"max depth     : {report.max_depth}")
        print(f"quiescent     : {report.quiescent_states}")
        print("engine        : " + ("compiled" if report.vectorized else "reference")
              + (" [symmetry-reduced]" if report.symmetry_reduced else "")
              + (" [spilled]" if report.spilled else ""))
        print(f"wall time     : {report.wall_time_s:.2f}s")
        print(f"violations    : {len(report.failures)}")
        for failure in report.failures[:args.max_traced]:
            print(f"  {failure.trace}")
        if store is not None:
            print(f"stored        : {run_id} -> {store.root}")
    return 1 if report.failures else 0


def cmd_worst_case(args: argparse.Namespace) -> int:
    sizes = range(1, args.max_bad + 1)
    fr_series = worst_case_sweep(sizes, FullReversal, GreedyScheduler)
    pr_series = worst_case_sweep(sizes, OneStepPartialReversal, GreedyScheduler)
    print(f"{'n_bad':>6} {'FR steps':>10} {'PR steps':>10}")
    for (n_bad, fr_steps), (_, pr_steps) in zip(fr_series, pr_series):
        print(f"{n_bad:>6} {fr_steps:>10} {pr_steps:>10}")
    if len(fr_series) >= 4:
        xs = [float(n) for n, _ in fr_series]
        ys = [float(s) for _, s in fr_series]
        coefficients, r2 = quadratic_fit_r2(xs, ys)
        print(f"FR quadratic fit: {coefficients[0]:.3f}x² + {coefficients[1]:.3f}x "
              f"+ {coefficients[2]:.3f}  (R²={r2:.5f})")
    return 0


def _csv(text: str) -> tuple:
    """Split a comma-separated CLI list, dropping empties."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _fault_plan_from_args(args: argparse.Namespace):
    """A validated :class:`FaultPlan` from the ``--chaos-*`` flags, or ``None``."""
    rates = (args.chaos_crash, args.chaos_hang, args.chaos_slow, args.chaos_corrupt)
    if not any(rates):
        return None
    from repro.faults import FaultPlan

    plan = FaultPlan(
        seed=args.chaos_seed if args.chaos_seed is not None else args.seed,
        crash=args.chaos_crash,
        hang=args.chaos_hang,
        slow=args.chaos_slow,
        corrupt=args.chaos_corrupt,
        strikes=args.chaos_strikes,
    )
    plan.validate()
    return plan


def _campaign_from_args(args: argparse.Namespace) -> CampaignSpec:
    """The :class:`CampaignSpec` of the sweep flags (``ValueError`` if invalid)."""
    delay_models = tuple(
        None if name == "none" else name for name in _csv(args.delay_models)
    )
    if args.engine == ENGINE_ASYNC:
        # an async sweep needs async cells: default the axis, drop sync cells
        if not delay_models:
            delay_models = ("uniform",)
        if None in delay_models:
            print("warning: --engine async cannot run synchronous cells; "
                  "dropping 'none' from --delay-models", file=sys.stderr)
            delay_models = tuple(m for m in delay_models if m is not None)
    elif not delay_models:
        delay_models = (None,)
    losses = tuple(float(p) for p in _csv(args.losses)) or (0.0,)
    traffics = tuple(
        None if name == "none" else name for name in _csv(args.traffics)
    )
    if args.engine == ENGINE_DATAPLANE:
        # a data-plane sweep needs traffic cells: default the axis, drop
        # control-plane-only cells
        if not traffics:
            traffics = ("steady",)
        if None in traffics:
            print("warning: --engine dataplane cannot run cells without "
                  "traffic; dropping 'none' from --traffics", file=sys.stderr)
            traffics = tuple(t for t in traffics if t is not None)
    elif not traffics:
        traffics = (None,)
    campaign = CampaignSpec(
        name=args.name,
        families=_csv(args.families),
        algorithms=_csv(args.algorithms),
        schedulers=_csv(args.schedulers),
        sizes=tuple(int(s) for s in _csv(args.sizes)),
        replicates=args.replicates,
        base_seed=args.seed,
        failure_models=[(args.failure_model, args.failure_count)],
        max_steps=args.max_steps,
        delay_models=delay_models,
        losses=losses,
        traffics=traffics,
        node_fault_counts=tuple(int(k) for k in _csv(args.node_faults)) or (0,),
    )
    campaign.expand()  # validates every scenario
    return campaign


def cmd_sweep(args: argparse.Namespace) -> int:
    # everything is validated before the store is opened, so a bad flag
    # leaves no directory behind
    try:
        if args.chunk_size is not None and args.chunk_size < 1:
            raise ValueError(f"--chunk-size must be at least 1, got {args.chunk_size}")
        if args.watchdog is not None and args.watchdog <= 0:
            raise ValueError(f"--watchdog must be above 0 seconds, got {args.watchdog}")
        if args.max_retries < 0:
            raise ValueError(f"--max-retries must be at least 0, got {args.max_retries}")
        campaign = _campaign_from_args(args)
        fault_plan = _fault_plan_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.failure_model == "mobility":
        dropped = [f for f in campaign.families if f != "geometric"]
        if dropped:
            print(f"warning: mobility only applies to the geometric family; "
                  f"dropping {', '.join(dropped)} from the cross-product", file=sys.stderr)
    if campaign.run_count == 0:
        print("error: the campaign cross-product expands to zero runs", file=sys.stderr)
        return 2
    store = ResultStore(args.store)

    report = run_campaign(
        campaign,
        store,
        workers=args.workers,
        chunk_size=args.chunk_size,
        timeout_s=args.timeout,
        resume=not args.no_resume,
        progress=_make_progress(args.quiet),
        engine=args.engine,
        telemetry=not args.no_telemetry,
        fault_plan=fault_plan,
        watchdog_s=args.watchdog,
        max_retries=args.max_retries,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        engines = ", ".join(f"{k}={v}" for k, v in sorted(report.engines.items())) or "-"
        cache = ", ".join(f"{k}={v}" for k, v in sorted(report.kernel_cache.items())) or "-"
        print(f"campaign      : {campaign.name} ({report.total} runs)")
        print(f"store         : {store.root}")
        print(f"skipped       : {report.skipped} (already stored)")
        print(f"executed      : {report.executed} with {report.workers} worker(s)")
        print(f"ok/err/timeout/crash: {report.ok}/{report.errors}/{report.timeouts}/{report.crashed}")
        print(f"engines       : {engines}")
        print(f"kernel cache  : {cache}")
        print(f"wall time     : {report.wall_time_s:.2f}s "
              f"({report.runs_per_second:.1f} runs/s)")
        resilience = {
            "retries": report.retries,
            "watchdog_kills": report.watchdog_kills,
            "pool_reforms": report.pool_reforms,
            "corrupt_chunks": report.corrupt_chunks,
            "degraded_serial": report.degraded_serial,
        }
        if report.faults_injected or any(resilience.values()):
            kinds = ", ".join(
                f"{k}={v}" for k, v in sorted(report.fault_kinds.items())
            ) or "-"
            healing = ", ".join(f"{k}={v}" for k, v in resilience.items() if v) or "-"
            print(f"faults        : {report.faults_injected} injected ({kinds})")
            print(f"self-healing  : {healing}")
        if report.execution_wall_s:
            print(f"utilisation   : {report.worker_utilisation:.0%} "
                  f"({report.cpu_time_s:.2f}s CPU over {report.execution_wall_s:.2f}s)")
        if not args.no_telemetry:
            print(f"telemetry     : {store.telemetry_path} "
                  f"(inspect with `repro trace {store.root}`)")
    return 0 if report.errors == 0 and report.crashed == 0 else 1


def _make_progress(quiet: bool) -> Optional[Callable[[int, int], None]]:
    """Per-chunk progress callback for ``repro sweep`` (``None`` when quiet).

    On a TTY the line rewrites itself in place with a live rate and ETA; when
    stderr is redirected it falls back to one plain append-only line per
    update, so logs stay diffable.
    """
    if quiet:
        return None
    if sys.stderr.isatty():
        start = time.perf_counter()

        def live(done: int, total: int) -> None:
            elapsed = time.perf_counter() - start
            rate = done / elapsed if elapsed > 0 else 0.0
            eta = (total - done) / rate if rate > 0 else 0.0
            end = "\n" if done >= total else ""
            print(f"\r  {done}/{total} runs ({rate:.0f}/s, ETA {eta:.0f}s)  ",
                  end=end, file=sys.stderr, flush=True)

        return live

    def plain(done: int, total: int) -> None:
        print(f"  {done}/{total} runs completed", file=sys.stderr)

    return plain


def _existing_store(path: str) -> Optional[ResultStore]:
    """The result store at ``path``, or ``None`` (reported) when there is none.

    Opening a :class:`ResultStore` creates its directories, so read-only
    commands check first and never leave an empty store behind a typo.
    """
    if not (Path(path) / "shards").is_dir():
        print(f"error: no result store at {path}", file=sys.stderr)
        return None
    return ResultStore(path)


def cmd_report(args: argparse.Namespace) -> int:
    store = _existing_store(args.store)
    if store is None:
        return 2
    if args.consolidate:
        store.consolidate()
    if not store.existing_run_ids():  # consolidates from shards if index is missing
        print(f"error: no stored runs under {store.root}", file=sys.stderr)
        return 2
    data = build_report(store, by=_csv(args.by), metric=args.metric)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0

    print(f"store    : {data['store']}")
    print(f"statuses : {data['status_counts']}")
    print(f"engines  : {data['engine_counts']}")
    last = data.get("last_campaign_report") or {}
    if last.get("kernel_cache"):
        cache = ", ".join(f"{k}={v}" for k, v in sorted(last["kernel_cache"].items()) if v)
        print(f"last sweep: engines {last.get('engines')}; cache {cache or '-'}")
    invariants = data["invariants"]
    print(f"invariants: {invariants['runs']} ok runs, "
          f"{invariants['acyclic_final']} acyclic, "
          f"{invariants['destination_oriented']} destination oriented, "
          f"{invariants['violations']} violations")
    async_stats = data.get("async") or {}
    if async_stats.get("runs"):
        print(f"async    : {async_stats['runs']} runs")
        for model, stats in async_stats["by_delay_model"].items():
            print(f"  {model:<8} runs={stats['runs']} "
                  f"msgs={stats['mean_messages']:.1f} lost={stats['mean_lost']:.1f} "
                  f"sim_t={stats['mean_simulated_time']:.1f} "
                  f"reversals={stats['mean_reversals']:.1f}")
    plane_stats = data.get("dataplane") or {}
    if plane_stats.get("runs"):
        print(f"dataplane: {plane_stats['runs']} runs")
        for model, stats in plane_stats["by_traffic"].items():
            ratio = stats["delivery_ratio"]
            latency = stats["mean_latency_slots"]
            stretch = stats["mean_stretch"]
            print(f"  {model:<8} runs={stats['runs']} "
                  f"injected={stats['injected']} "
                  f"delivered={stats['delivered']} "
                  f"ratio={ratio if ratio is not None else '-'} "
                  f"drops(tail/ttl/route/link)="
                  f"{stats['drop_tail']}/{stats['drop_ttl']}/"
                  f"{stats['drop_no_route']}/{stats['drop_link_down']} "
                  f"loops={stats['transient_loops']} "
                  f"latency={latency if latency is not None else '-'} "
                  f"stretch={stretch if stretch is not None else '-'}")
    resilience = data.get("resilience") or {}
    if resilience.get("faulted_runs"):
        print(f"resilience: {resilience['faulted_runs']} crash-stop runs")
        for level, stats in resilience["by_node_faults"].items():
            print(f"  node_faults={level} runs={stats['runs']} "
                  f"quiescent={stats['converged']} "
                  f"mean_steps={stats['mean_steps']:.1f}")
    if resilience.get("executor"):
        healing = ", ".join(
            f"{k}={v}" for k, v in sorted(resilience["executor"].items())
            if k != "fault_kinds"
        )
        print(f"last sweep self-healing: {healing}")

    header = f"{'group (' + '/'.join(data['group_by']) + ')':<32}"
    print(f"\n{header} {'count':>6} {'mean':>10} {'p50':>8} {'p90':>8} {'max':>10}")
    for key, stats in data["groups"].items():
        print(f"{key:<32} {stats['count']:>6} {stats['mean']:>10.1f} "
              f"{stats['p50']:>8.1f} {stats['p90']:>8.1f} {stats['max']:>10.1f}")

    fitted = {k: c for k, c in data["curves"].items() if c["fit"] is not None}
    if fitted:
        print(f"\n{'work curve':<32} {'fit (ax²+bx+c)':<28} {'R²':>8}")
        for key, curve in fitted.items():
            a, b, c = curve["fit"]
            print(f"{key:<32} {a:>8.3f}x² {b:>+8.3f}x {c:>+8.3f} {curve['r2']:>8.5f}")

    ordering = data["pr_vs_fr"]
    if ordering["comparison"]:
        print(f"\nPR vs FR worst-case ordering on {ordering['family']!r} "
              f"({ordering['metric']}):")
        for row in ordering["comparison"]:
            ratio = f"{row['ratio']:.2f}" if row["ratio"] else "-"
            print(f"  size {row['size']:>4}: PR={row['pr']:>10.1f} "
                  f"FR={row['fr']:>10.1f} FR/PR={ratio:>7}")
        print(f"  ordering holds: {ordering['ordering_holds']}")

    telemetry = data.get("telemetry")
    if telemetry:
        print("\n## Telemetry")
        print(f"sidecar events: {telemetry['events']}")
        for row in top_spans(telemetry, 5):
            print(f"  span {row['name']:<12} count={row['count']:<6} "
                  f"total={row['total_s']:.3f}s max={row['max_s']:.4f}s")
        for engine, stats in telemetry["scenarios"].items():
            wall = stats["wall_s"]
            print(f"  engine {engine:<10} runs={stats['count']:<6} "
                  f"mean={wall['mean'] * 1e3:.2f}ms p90={wall['p90'] * 1e3:.2f}ms")
        for pid, worker in telemetry["workers"].items():
            print(f"  worker {pid:<10} chunks={worker['chunks']:<4} "
                  f"runs={worker['runs']:<6} busy={worker['busy_s']:.3f}s")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    store = _existing_store(args.store)
    if store is None:
        return 2
    if not store.telemetry_path.exists():
        print(f"error: no telemetry sidecar at {store.telemetry_path}; "
              f"run `repro sweep` without --no-telemetry first", file=sys.stderr)
        return 2
    events = list(store.iter_telemetry())
    summary = summarise_telemetry(events)
    problems = check_span_nesting(events)
    if args.json:
        payload = {
            "store": str(store.root),
            "summary": summary,
            "nesting_problems": problems,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if problems else 0

    print(f"store   : {store.root}")
    print(f"events  : {summary['events']}")

    rows = top_spans(summary, args.top)
    if rows:
        print(f"\n{'span':<16} {'count':>8} {'total_s':>10} {'max_s':>10}")
        for row in rows:
            print(f"{row['name']:<16} {row['count']:>8} "
                  f"{row['total_s']:>10.4f} {row['max_s']:>10.4f}")

    if summary["scenarios"]:
        print(f"\n{'engine':<12} {'runs':>7} {'mean_ms':>9} {'p50_ms':>8} "
              f"{'p90_ms':>8} {'max_ms':>9} statuses")
        for engine, stats in summary["scenarios"].items():
            wall = stats["wall_s"]
            statuses = ", ".join(f"{k}={v}" for k, v in stats["statuses"].items())
            print(f"{engine:<12} {stats['count']:>7} {wall['mean'] * 1e3:>9.3f} "
                  f"{wall['p50'] * 1e3:>8.3f} {wall['p90'] * 1e3:>8.3f} "
                  f"{wall['max'] * 1e3:>9.3f} {statuses}")

    if summary["workers"]:
        print(f"\n{'worker':<12} {'chunks':>7} {'runs':>7} {'busy_s':>9} {'cpu_s':>9}")
        for pid, worker in summary["workers"].items():
            print(f"{pid:<12} {worker['chunks']:>7} {worker['runs']:>7} "
                  f"{worker['busy_s']:>9.4f} {worker['cpu_s']:>9.4f}")

    if summary["counters"]:
        print("\ncounters:")
        for name, value in summary["counters"].items():
            print(f"  {name:<36} {value}")
    if summary["gauges"]:
        print("gauges:")
        for name, value in summary["gauges"].items():
            print(f"  {name:<36} {value}")
    if summary.get("histograms"):
        print("histograms:")
        for name, h in summary["histograms"].items():
            print(f"  {name:<36} count={h['count']} mean={h['mean']:.1f} "
                  f"min={h['min']:.0f} max={h['max']:.0f}")
    if summary["point_events"]:
        print("events:")
        for name, value in summary["point_events"].items():
            print(f"  {name:<36} {value}")

    if problems:
        print(f"\nspan nesting problems ({len(problems)}):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    store = _existing_store(args.store)
    if store is None:
        return 2
    report = store.fsck(repair=not args.no_repair)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 1 if report["bad_lines"] and args.no_repair else 0

    print(f"store        : {store.root}")
    print(f"shards       : {report['shards']}")
    print(f"records      : {report['records']} "
          f"({report['checksummed_lines']} checksummed, "
          f"{report['legacy_lines']} legacy)")
    print(f"bad lines    : {len(report['bad_lines'])}")
    for bad in report["bad_lines"][:args.max_shown]:
        print(f"  {bad['shard']}:{bad['line']}: {bad['reason']}")
    if len(report["bad_lines"]) > args.max_shown:
        print(f"  ... and {len(report['bad_lines']) - args.max_shown} more")
    if report["truncated_tails"]:
        print(f"torn tails   : {len(report['truncated_tails'])} "
              "(interrupted append)")
    if report["quarantined"]:
        print(f"quarantined  : {len(report['bad_lines'])} line(s) -> "
              f"{store.quarantine_dir}")
    if report["repaired"]:
        print(f"index        : rebuilt with {report['index_records']} record(s)")
    else:
        print("index        : untouched (--no-repair)")
    if not report["bad_lines"]:
        print("store is clean")
        return 0
    return 1 if args.no_repair else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Link reversal algorithms (Partial Reversal Acyclicity reproduction)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log to stderr: -v for INFO, -vv for DEBUG")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one algorithm on a topology")
    run_parser.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="pr")
    run_parser.add_argument("--topology", choices=TOPOLOGIES, default="chain")
    run_parser.add_argument("--nodes", type=int, default=20)
    run_parser.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="greedy")
    run_parser.add_argument("--max-steps", type=int, default=None)
    run_parser.add_argument("--delay-model", choices=sorted(DELAY_MODEL_NAMES), default=None,
                            help="run the asynchronous message-passing protocol "
                                 "over channels with this delay model")
    run_parser.add_argument("--loss", type=float, default=0.0,
                            help="per-message loss probability (needs --delay-model)")
    run_parser.add_argument("--failures", type=int, default=0,
                            help="inject this many seeded link failures after "
                                 "convergence and repair after each")
    run_parser.add_argument("--engine", choices=ENGINE_CHOICES, default="auto",
                            help="execution engine: compiled int kernels (auto/kernel), "
                                 "the object-level oracle (legacy) or the compiled "
                                 "message-passing network (async); an engine that "
                                 "cannot run the scenario is an error")
    run_parser.add_argument("--dot", help="write the final orientation to this DOT file")
    run_parser.add_argument("--json", action="store_true",
                            help="print the work summary as JSON")
    run_parser.set_defaults(handler=cmd_run)

    compare_parser = subparsers.add_parser("compare", help="compare all algorithms")
    compare_parser.add_argument("--topology", choices=TOPOLOGIES, default="chain")
    compare_parser.add_argument("--nodes", type=int, default=20)
    compare_parser.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="greedy")
    compare_parser.add_argument("--json", action="store_true",
                                help="print the comparison as JSON")
    compare_parser.set_defaults(handler=cmd_compare)

    verify_parser = subparsers.add_parser(
        "verify", help="exhaustively model-check the paper's invariants"
    )
    verify_parser.add_argument("--max-nodes", type=int, default=4)
    verify_parser.set_defaults(handler=cmd_verify)

    check_parser = subparsers.add_parser(
        "check",
        help="exhaustively model-check one algorithm",
    )
    check_parser.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="pr")
    check_parser.add_argument("--topology", choices=TOPOLOGIES, default="chain")
    check_parser.add_argument("--nodes", type=int, default=8)
    check_parser.add_argument("--invariants", default="acyclic,progress",
                              help=f"comma-separated invariant groups "
                                   f"({','.join(CHECK_INVARIANTS)})")
    check_parser.add_argument("--max-states", type=int, default=1_000_000,
                              help="truncation bound on distinct states")
    check_parser.add_argument("--single-actions", action="store_true",
                              help="restrict PR to singleton reverse({u}) actions")
    check_parser.add_argument("--symmetry", action="store_true",
                              help="canonicalise over twin-node permutations "
                                   "(sound for label-invariant predicates only)")
    check_parser.add_argument("--spill", action="store_true",
                              help="spill the visited set to disk beyond --spill-threshold")
    check_parser.add_argument("--spill-threshold", type=int, default=1_000_000,
                              help="in-memory signatures before spilling")
    check_parser.add_argument("--spill-dir", default=None,
                              help="directory for spill runs (default: a temp dir)")
    check_parser.add_argument("--spill-max-runs", type=int, default=8,
                              help="compact spill runs down to one once more than "
                                   "this many accumulate")
    check_parser.add_argument("--no-telemetry", action="store_true",
                              help="skip the metrics/span sidecar (telemetry.jsonl) "
                                   "when writing to --store")
    check_parser.add_argument("--store", default=None,
                              help="write the verdict + counterexample traces into "
                                   "this result store (resumable)")
    check_parser.add_argument("--name", default="check", help="campaign name in the store")
    check_parser.add_argument("--no-resume", action="store_true",
                              help="re-verify even if the run is already stored")
    check_parser.add_argument("--max-traced", type=int, default=10,
                              help="counterexamples reconstructed into full traces")
    check_parser.add_argument("--json", action="store_true",
                              help="print the verdict record as JSON")
    check_parser.set_defaults(handler=cmd_check)

    worst_parser = subparsers.add_parser("worst-case", help="Θ(n_b²) worst-case sweep")
    worst_parser.add_argument("--max-bad", type=int, default=12)
    worst_parser.set_defaults(handler=cmd_worst_case)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a sharded experiment campaign into a result store"
    )
    sweep_parser.add_argument("--name", default="sweep", help="campaign name")
    sweep_parser.add_argument("--families", default="chain,random-dag",
                              help="comma-separated topology families")
    sweep_parser.add_argument("--algorithms", default="pr,fr",
                              help=f"comma-separated algorithms ({','.join(sorted(ALGORITHMS))})")
    sweep_parser.add_argument("--schedulers", default="greedy",
                              help=f"comma-separated schedulers ({','.join(sorted(SCHEDULERS))})")
    sweep_parser.add_argument("--sizes", default="5,10,20",
                              help="comma-separated instance sizes")
    sweep_parser.add_argument("--replicates", type=int, default=1,
                              help="seed replicates per cross-product cell")
    sweep_parser.add_argument("--failure-model", choices=FAILURE_MODELS, default="none")
    sweep_parser.add_argument("--failure-count", type=int, default=0,
                              help="failures / mobility steps per run")
    sweep_parser.add_argument("--delay-models", default="",
                              help="comma-separated channel delay models "
                                   f"({','.join(sorted(DELAY_MODEL_NAMES))}, or 'none' for "
                                   "synchronous cells); setting one routes the cells "
                                   "to the async message-passing engine")
    sweep_parser.add_argument("--losses", default="",
                              help="comma-separated channel loss probabilities "
                                   "for the async cells (default 0)")
    sweep_parser.add_argument("--traffics", default="",
                              help="comma-separated traffic models "
                                   "(trickle/steady/heavy/bursty, or 'none'); "
                                   "cells with traffic run on the packet-level "
                                   "data-plane engine")
    sweep_parser.add_argument("--node-faults", default="",
                              help="comma-separated crash-stop node counts per run "
                                   "(e.g. '0,2'); faulted cells run on the kernel "
                                   "or async engines")
    sweep_parser.add_argument("--max-steps", type=int, default=None,
                              help="per-run step bound")
    sweep_parser.add_argument("--engine", choices=ENGINE_CHOICES, default="auto",
                              help="execution engine for every run: auto picks the "
                                   "compiled kernel engine whenever the algorithm "
                                   "has one (without --timeout it runs a chunk's "
                                   "runs of one shape in lockstep); legacy forces "
                                   "the object-path oracle")
    sweep_parser.add_argument("--store", required=True,
                              help="result store directory (created if missing)")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes (1 = inline, no pool)")
    sweep_parser.add_argument("--chunk-size", type=int, default=None,
                              help="runs per dispatched chunk")
    sweep_parser.add_argument("--timeout", type=float, default=None,
                              help="per-run wall-clock budget in seconds")
    sweep_parser.add_argument("--no-resume", action="store_true",
                              help="re-execute runs already present in the store")
    sweep_parser.add_argument("--quiet", action="store_true",
                              help="suppress progress lines on stderr")
    sweep_parser.add_argument("--no-telemetry", action="store_true",
                              help="skip the metrics/span sidecar (telemetry.jsonl) "
                                   "and per-chunk instrumentation")
    sweep_parser.add_argument("--json", action="store_true",
                              help="print the campaign report as JSON")
    chaos = sweep_parser.add_argument_group(
        "chaos", "seeded worker fault injection (needs --workers >= 2); "
                 "every fault is recovered by the self-healing executor, so a "
                 "chaos sweep must produce the same records as a clean one")
    chaos.add_argument("--chaos-crash", type=float, default=0.0,
                       help="per-chunk probability of a worker hard-exit")
    chaos.add_argument("--chaos-hang", type=float, default=0.0,
                       help="per-chunk probability of a worker hang "
                            "(recovered by the watchdog)")
    chaos.add_argument("--chaos-slow", type=float, default=0.0,
                       help="per-chunk probability of an injected stall")
    chaos.add_argument("--chaos-corrupt", type=float, default=0.0,
                       help="per-chunk probability of corrupted worker results "
                            "(detected and re-executed)")
    chaos.add_argument("--chaos-seed", type=int, default=None,
                       help="fault-plan seed (default: --seed)")
    chaos.add_argument("--chaos-strikes", type=int, default=1,
                       help="attempts per chunk that may fault (default 1: "
                            "every fault recovers on first retry)")
    sweep_parser.add_argument("--watchdog", type=float, default=None,
                              help="heartbeat watchdog: kill the worker of a chunk "
                                   "silent for this many seconds (above 0) and "
                                   "rerun the chunk alone")
    sweep_parser.add_argument("--max-retries", type=int, default=3,
                              help="re-dispatch budget per chunk (at least 0) "
                                   "before its runs are recorded as crashed")
    sweep_parser.set_defaults(handler=cmd_sweep)

    report_parser = subparsers.add_parser(
        "report", help="aggregate a result store into summary tables"
    )
    report_parser.add_argument("--store", required=True, help="result store directory")
    report_parser.add_argument("--by", default="family,algorithm",
                               help="comma-separated record fields to group by")
    report_parser.add_argument("--metric", default="node_steps",
                               help="record field to summarise")
    report_parser.add_argument("--consolidate", action="store_true",
                               help="rebuild the SQLite index from the JSONL shards first")
    report_parser.add_argument("--json", action="store_true",
                               help="print the full report as JSON")
    report_parser.set_defaults(handler=cmd_report)

    trace_parser = subparsers.add_parser(
        "trace", help="summarise a store's telemetry.jsonl sidecar"
    )
    trace_parser.add_argument("store", help="result store directory swept with telemetry")
    trace_parser.add_argument("--top", type=int, default=10,
                              help="span groups to show, by total duration")
    trace_parser.add_argument("--json", action="store_true",
                              help="print the summary (and nesting check) as JSON")
    trace_parser.set_defaults(handler=cmd_trace)

    fsck_parser = subparsers.add_parser(
        "fsck", help="verify and repair a result store's integrity"
    )
    fsck_parser.add_argument("store", help="result store directory to check")
    fsck_parser.add_argument("--no-repair", action="store_true",
                             help="report problems only: keep bad lines in place "
                                  "and leave the SQLite index untouched "
                                  "(exit 1 if any are found)")
    fsck_parser.add_argument("--max-shown", type=int, default=10,
                             help="bad lines to list individually")
    fsck_parser.add_argument("--json", action="store_true",
                             help="print the integrity report as JSON")
    fsck_parser.set_defaults(handler=cmd_fsck)

    return parser


def _configure_logging(verbosity: int) -> None:
    """Point the library's loggers at stderr at the requested level.

    Only the CLI entry point configures logging — library modules create
    plain ``logging.getLogger(__name__)`` loggers and never touch handlers,
    so embedding :mod:`repro` in another application keeps full control.
    """
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("repro")
    root.handlers[:] = [handler]
    root.setLevel(level)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
