"""The benchmark's three workloads: ``sweep_sync``, ``sweep_net`` and ``check``.

A workload runs in one process as a series of repetitions.  Each
repetition builds its inputs (:meth:`Workload.build`, the set-up), runs its
timed phase, and then checks every output (:meth:`Workload.run`).  The
repetition index is folded into the campaign seed, so every repetition of a
sweep meets fresh topologies and cold engine caches, as a new ``repro
sweep`` would.

Why each workload exists is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple


@dataclass
class Outcome:
    """What one repetition measured and whether its outputs were right."""

    #: wall time of the timed phase(s); the tracing overhead compares this
    timed_s: float
    #: end-to-end values of this repetition (``runs_per_s`` ...)
    end_to_end: Dict[str, float]
    #: per-layer values read from records and reports (counts, ratios)
    layers: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)


def campaign_seed(seed: int, rep: int) -> int:
    """``CampaignSpec.base_seed`` of one repetition of a run."""
    return seed * 1000 + rep


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Workload:
    """A named workload at one scale (``full`` for runs, ``tiny`` for the smoke test)."""

    name = ""

    def __init__(self, scale: str = "full"):
        if scale not in ("full", "tiny"):
            raise ValueError(f"unknown scale {scale!r}")
        self.scale = scale

    def import_program(self) -> None:
        """Import the parts of ``repro`` the workload drives (part of set-up)."""
        import repro.experiments  # noqa: F401

    def build(self, seed: int, rep: int, work_dir: Path) -> Any:
        """Build one repetition's inputs."""
        raise NotImplementedError

    def run(self, inputs: Any, work_dir: Path) -> Outcome:
        """Run the timed phase on ``inputs`` and check every output."""
        raise NotImplementedError


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# sweep_sync
# ----------------------------------------------------------------------
class SweepSync(Workload):
    """A synchronous campaign into a fresh store, then a read phase over it.

    The runs are tiny, so the spec, executor, store and telemetry layers
    carry a visible share of the wall time.
    """

    name = "sweep_sync"

    def build(self, seed: int, rep: int, work_dir: Path) -> Any:
        from repro.experiments.spec import CampaignSpec

        return CampaignSpec(
            name=self.name,
            families=("chain", "grid", "random-dag", "geometric"),
            algorithms=("pr", "onestep-pr", "new-pr", "fr"),
            schedulers=("greedy", "random", "adversarial"),
            sizes=(8, 12, 16) if self.scale == "full" else (6, 9),
            replicates=16 if self.scale == "full" else 1,
            base_seed=campaign_seed(seed, rep),
            failure_models=[("none", 0), ("link-failures", 2), ("mobility", 2)],
        )

    def run(self, campaign: Any, work_dir: Path) -> Outcome:
        from repro.experiments import aggregate, executor
        from repro.experiments.store import ResultStore

        store_dir = _fresh_dir(work_dir / f"store-{self.name}")
        with ResultStore(store_dir) as store:
            start = time.perf_counter()
            report = executor.run_campaign(campaign, store, workers=1)
            run_s = time.perf_counter() - start
            start = time.perf_counter()
            resumed = executor.run_campaign(campaign, store, workers=1)
            summary = aggregate.build_report(store)
            read_s = time.perf_counter() - start
            records = store.records()
            bytes_written = sum(
                path.stat().st_size for path in store.shard_dir.glob("shard-*.jsonl")
            )
        shutil.rmtree(store_dir, ignore_errors=True)

        expected = campaign.run_count
        bad_runs = sum(record["status"] != "ok" for record in records)
        problems = []
        if bad_runs:
            problems.append(f"{bad_runs} runs did not end ok")
        checks = {
            "count": (
                len(records) == expected,
                f"{len(records)} records stored, expected {expected}",
            ),
            "resume": (
                resumed.skipped == expected and resumed.executed == 0,
                f"resume skipped {resumed.skipped} and ran {resumed.executed} "
                f"of {expected} runs",
            ),
            "report": (
                summary["invariants"]["violations"] == 0
                and summary["pr_vs_fr"]["ordering_holds"],
                f"report: {summary['invariants']['violations']} invariant "
                f"violations, PR <= FR work ordering holds: "
                f"{summary['pr_vs_fr']['ordering_holds']}",
            ),
        }
        problems.extend(detail for passed, detail in checks.values() if not passed)
        failed_checks = sum(not passed for passed, _ in checks.values())
        cache = report.kernel_cache
        hits = cache.get("instance_hits", 0) + cache.get("kernel_hits", 0)
        misses = cache.get("instance_builds", 0) + cache.get("kernel_compiles", 0)
        return Outcome(
            timed_s=run_s + read_s,
            end_to_end={"runs_per_s": len(records) / run_s, "read_s": read_s},
            layers={
                "executor.utilisation": report.worker_utilisation,
                "engine.kernel_cache_hit_ratio": _ratio(hits, hits + misses),
                "churn.failures_applied": sum(r["failures_applied"] for r in records),
                "store.bytes_written": bytes_written,
            },
            attempted=expected + len(checks),
            failed=bad_runs + failed_checks,
            problems=problems,
        )


# ----------------------------------------------------------------------
# sweep_net
# ----------------------------------------------------------------------
def _net_record_ok(record: Dict[str, Any]) -> bool:
    """Output check of one ``sweep_net`` record.

    Every run must end ``ok`` with an acyclic orientation.  A data-plane run
    must conserve packets.  An async run must conserve messages (quiescent:
    nothing in flight), end destination oriented, and, when lossless, be
    converged.  A lossy run may record ``converged: false``: a churn phase
    can use up all of the engine's beacon rounds, and the run says so.
    """
    if record["status"] != "ok" or not record["acyclic_final"]:
        return False
    if record["traffic"] is not None:
        return record["packets_injected"] == (
            record["packets_delivered"] + record["packets_dropped"]
            + record["packets_in_flight"]
        )
    if record["messages_sent"] != record["messages_delivered"] + record["messages_lost"]:
        return False
    return record["destination_oriented"] and (record["loss"] > 0 or record["converged"])


class SweepNet(Workload):
    """An async-engine campaign and a data-plane campaign into one store.

    The engines take nearly all of the wall time, so
    ``repro.distributed.fast_network`` and ``repro.dataplane`` do the work.
    """

    name = "sweep_net"

    def build(self, seed: int, rep: int, work_dir: Path) -> Any:
        from repro.experiments.spec import CampaignSpec

        full = self.scale == "full"
        base_seed = campaign_seed(seed, rep)
        message_passing = CampaignSpec(
            name=f"{self.name}-async",
            families=("grid", "geometric"),
            algorithms=("pr", "fr"),
            schedulers=("greedy",),
            sizes=(25, 49) if full else (9, 16),
            replicates=8 if full else 1,
            base_seed=base_seed,
            failure_models=[("link-failures", 2)],
            delay_models=("uniform", "fifo"),
            losses=(0.0, 0.1),
        )
        data_plane = CampaignSpec(
            name=f"{self.name}-dataplane",
            families=("grid", "geometric"),
            algorithms=("pr", "fr"),
            schedulers=("greedy",),
            sizes=(16,) if full else (9,),
            replicates=4 if full else 1,
            base_seed=base_seed,
            failure_models=[("link-failures", 2)],
            traffics=("steady", "heavy"),
        )
        return [message_passing, data_plane]

    def run(self, campaigns: Any, work_dir: Path) -> Outcome:
        from repro.experiments import executor
        from repro.experiments.store import ResultStore

        store_dir = _fresh_dir(work_dir / f"store-{self.name}")
        with ResultStore(store_dir) as store:
            start = time.perf_counter()
            for campaign in campaigns:
                executor.run_campaign(campaign, store, workers=1)
            run_s = time.perf_counter() - start
            records = store.records()
        shutil.rmtree(store_dir, ignore_errors=True)

        expected = sum(campaign.run_count for campaign in campaigns)
        bad = sum(not _net_record_ok(record) for record in records)
        problems = []
        if bad:
            problems.append(
                f"{bad} runs failed: not ok, cyclic, messages or packets not "
                "conserved, an async run not destination oriented, or a "
                "lossless one not converged"
            )
        missing = max(0, expected - len(records))
        if len(records) != expected:
            problems.append(f"{len(records)} records stored, expected {expected}")

        plane = [record for record in records if record["traffic"] is not None]
        injected = sum(record["packets_injected"] for record in plane)
        return Outcome(
            timed_s=run_s,
            end_to_end={"runs_per_s": len(records) / run_s},
            layers={
                "fast_network.events": sum(r["events_dispatched"] or 0 for r in records),
                "fast_network.delivered_ratio": _ratio(
                    sum(r["messages_delivered"] or 0 for r in records),
                    sum(r["messages_sent"] or 0 for r in records),
                ),
                "dataplane.slots": sum(r["slots"] for r in plane),
                "dataplane.packets_injected": injected,
                "dataplane.delivered_ratio": _ratio(
                    sum(r["packets_delivered"] for r in plane), injected
                ),
            },
            attempted=expected,
            failed=bad + missing,
            problems=problems,
        )


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckEntry:
    """One exhaustive model check with its exact expected counts."""

    name: str
    algorithm: str
    topology: Tuple[str, int, int]  # ("grid", rows, cols) or ("tree", nodes, seed)
    states: int
    transitions: int
    options: Tuple[Tuple[str, Any], ...] = ()


#: The full-scale entries: one per checker loop (vector, vector with spill,
#: multi-action vector, scalar over 64 bits, scalar with symmetry, generic).
CHECK_ENTRIES = (
    CheckEntry("fr-grid5x5", "fr", ("grid", 5, 5), 193662, 1070948),
    CheckEntry("fr-grid5x5-spill", "fr", ("grid", 5, 5), 193662, 1070948,
               (("spill_threshold", 16384),)),
    CheckEntry("pr-tree14", "pr", ("tree", 14, 1), 984, 39327),
    CheckEntry("newpr-tree20", "new-pr", ("tree", 20, 1), 18288, 117920),
    CheckEntry("fr-grid4x5-sym", "fr", ("grid", 4, 5), 18150, 81036,
               (("symmetry", True),)),
    CheckEntry("bll-tree20", "bll", ("tree", 20, 1), 18288, 117920),
)

#: The same six loops on small instances, for the smoke test.
TINY_CHECK_ENTRIES = (
    CheckEntry("fr-grid5x5", "fr", ("grid", 3, 3), 82, 172),
    CheckEntry("fr-grid5x5-spill", "fr", ("grid", 3, 3), 82, 172,
               (("spill_threshold", 4),)),
    CheckEntry("pr-tree14", "pr", ("tree", 8, 0), 25, 74),
    CheckEntry("newpr-tree20", "new-pr", ("tree", 10, 0), 49, 105),
    CheckEntry("fr-grid4x5-sym", "fr", ("grid", 3, 3), 82, 172,
               (("symmetry", True),)),
    CheckEntry("bll-tree20", "bll", ("tree", 10, 0), 49, 105),
)


class Check(Workload):
    """Six exhaustive model checks, with acyclicity and progress on.

    The entries are fixed instances, so their state and transition counts
    are asserted exactly; the workload seed does not change them.
    """

    name = "check"

    @property
    def entries(self) -> Tuple[CheckEntry, ...]:
        return CHECK_ENTRIES if self.scale == "full" else TINY_CHECK_ENTRIES

    def import_program(self) -> None:
        import repro.exploration.checker  # noqa: F401
        import repro.experiments.spec  # noqa: F401

    def build(self, seed: int, rep: int, work_dir: Path) -> Any:
        from repro.experiments.spec import ALGORITHM_FACTORIES
        from repro.exploration.checker import ModelChecker
        from repro.topology.generators import grid_instance, tree_instance

        spill_dir = work_dir / "spill"
        spill_dir.mkdir(parents=True, exist_ok=True)
        checkers = []
        for entry in self.entries:
            kind, a, b = entry.topology
            if kind == "grid":
                instance = grid_instance(a, b)
            else:
                instance = tree_instance(a, seed=b)
            options = dict(entry.options)
            if "spill_threshold" in options:
                options["spill_dir"] = str(spill_dir)
            checker = ModelChecker(
                ALGORITHM_FACTORIES[entry.algorithm](instance),
                check_acyclicity=True,
                check_progress=True,
                **options,
            )
            checkers.append((entry, checker))
        return checkers

    def run(self, checkers: Any, work_dir: Path) -> Outcome:
        entry_s: Dict[str, float] = {}
        reports = []
        problems = []
        for entry, checker in checkers:
            start = time.perf_counter()
            report = checker.run()
            entry_s[entry.name] = time.perf_counter() - start
            reports.append(report)
            wrong = []
            if not report.all_predicates_hold:
                wrong.append(f"{len(report.failures)} predicate failures")
            if report.truncated:
                wrong.append("truncated")
            if (report.states_explored, report.transitions_explored) != (
                entry.states, entry.transitions
            ):
                wrong.append(
                    f"{report.states_explored} states / {report.transitions_explored} "
                    f"transitions, expected {entry.states} / {entry.transitions}"
                )
            if "spill_threshold" in dict(entry.options) and not (
                report.spill_stats and report.spill_stats["compactions"]
            ):
                wrong.append("the visited set never compacted")
            if wrong:
                problems.append(f"{entry.name}: " + ", ".join(wrong))

        timed_s = sum(entry_s.values())
        states = sum(report.states_explored for report in reports)
        spill = [report.spill_stats or {} for report in reports]
        layers: Dict[str, float] = {
            f"check.{name}_s": seconds for name, seconds in entry_s.items()
        }
        layers.update({
            "frontier.states": states,
            "frontier.transitions": sum(r.transitions_explored for r in reports),
            "frontier.vector_state_share": _ratio(
                sum(r.states_explored for r in reports if r.vectorized), states
            ),
            "visited.spills": sum(stats.get("spills", 0) for stats in spill),
            "visited.compactions": sum(stats.get("compactions", 0) for stats in spill),
        })
        return Outcome(
            timed_s=timed_s,
            end_to_end={
                "runs_per_s": len(reports) / timed_s,
                "states_per_s": states / timed_s,
            },
            layers=layers,
            attempted=len(reports),
            failed=len(problems),
            problems=problems,
        )


WORKLOADS = {workload.name: workload for workload in (SweepSync, SweepNet, Check)}
