"""Persistent campaign result store: append-only JSONL shards.

Layout of a store directory::

    <root>/
        campaign.json          # provenance: the last CampaignSpec swept here
        report.json            # how the latest sweep invocation executed
        telemetry.jsonl        # span/metrics sidecar (see repro.telemetry)
        shards/
            shard-00001.jsonl  # one JSON record per line, append-only
            shard-00002.jsonl
        quarantine/            # lines fsck pulled out of damaged shards

The JSONL shards are the only store format: append-only, diffable, and safe
to copy around or concatenate.  Every query (campaign resume,
:meth:`ResultStore.records`, ``repro report``) reads them through
:meth:`ResultStore.iter_shard_records`.  The last line for a ``run_id``
wins, and a shard copied in from another store counts at once.  (The SQLite
index file that older versions kept beside the shards is ignored.)

Only the executor's parent process writes; workers hand their records back
over the pool, so there is no cross-process write contention.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from repro.io.serialization import (
    checksummed_line,
    encode_record,
    split_checksummed_line,
)

logger = logging.getLogger(__name__)


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    ``os.replace`` is atomic on POSIX and Windows, so a crash mid-write
    leaves either the old file or the new one — never a truncated hybrid.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)

#: Field groups.  Every scenario record carries its ``spec`` fields (the
#: :meth:`~repro.experiments.spec.ScenarioSpec.to_dict` keys) and the
#: ``result`` group; the engine that ran it adds the groups it declares in
#: :attr:`~repro.experiments.engines.ExecutionEngine.record_groups`.  A model
#: check record (:class:`~repro.experiments.spec.CheckSpec`) carries the
#: ``check`` group instead, beside the spec and result fields it shares.
SPEC, RESULT, MESSAGE, PACKET, CHECK = "spec", "result", "message", "packet", "check"

#: Field marks: a ``volatile`` field differs between two runs of the same
#: spec (the wall clock), and the ``stamp`` names the engine that ran it.
VOLATILE, STAMP = "volatile", "stamp"


class Field(NamedTuple):
    """One run-record field."""

    name: str
    #: The value a fresh record starts from (spec fields take the spec's).
    default: Any
    group: str
    mark: Optional[str] = None


#: The run record: one row per field.  Every field table below is derived
#: from it.
RECORD_FIELDS: Tuple[Field, ...] = (
    Field("run_id", None, SPEC),
    Field("campaign", None, SPEC),
    Field("family", None, SPEC),
    Field("algorithm", None, SPEC),
    Field("scheduler", None, SPEC),
    Field("size", None, SPEC),
    Field("topology_seed", None, SPEC),
    Field("scheduler_seed", None, SPEC),
    Field("replicate", None, SPEC),
    Field("failure_model", None, SPEC),
    Field("failure_count", None, SPEC),
    Field("max_steps", None, SPEC),
    Field("node_faults", None, SPEC),
    Field("delay_model", None, SPEC),
    Field("loss", None, SPEC),
    Field("traffic", None, SPEC),
    # result: the instance facts, work counters, verdicts and churn counters
    # every engine fills in place
    Field("status", "ok", RESULT),
    Field("error", None, RESULT),
    Field("engine", None, RESULT, STAMP),
    Field("nodes", None, RESULT),
    Field("edges", None, RESULT),
    Field("bad_nodes", None, RESULT),
    Field("node_steps", 0, RESULT),
    Field("edge_reversals", 0, RESULT),
    Field("dummy_steps", 0, RESULT),
    Field("rounds", 0, RESULT),
    Field("steps_taken", 0, RESULT),
    Field("converged", False, RESULT),
    Field("destination_oriented", False, RESULT),
    Field("acyclic_final", False, RESULT),
    Field("failures_applied", 0, RESULT),
    Field("partition_skips", 0, RESULT),
    Field("reorientations", 0, RESULT),
    Field("crashed_nodes", 0, RESULT),
    # message: the control-plane message statistics of the async and
    # data-plane engines
    Field("messages_sent", None, MESSAGE),
    Field("messages_delivered", None, MESSAGE),
    Field("messages_lost", None, MESSAGE),
    Field("simulated_time", None, MESSAGE),
    Field("events_dispatched", None, MESSAGE),
    # packet: the data-plane engine's packet counters and latency summaries
    Field("slots", 0, PACKET),
    Field("packets_injected", 0, PACKET),
    Field("packets_delivered", 0, PACKET),
    Field("packets_dropped", 0, PACKET),
    Field("packets_in_flight", 0, PACKET),
    Field("packets_forwarded", 0, PACKET),
    Field("drop_tail", 0, PACKET),
    Field("drop_ttl", 0, PACKET),
    Field("drop_no_route", 0, PACKET),
    Field("drop_link_down", 0, PACKET),
    Field("transient_loops", 0, PACKET),
    Field("peak_queue_depth", 0, PACKET),
    Field("mean_latency_slots", None, PACKET),
    Field("max_latency_slots", None, PACKET),
    Field("mean_hops", None, PACKET),
    Field("mean_stretch", None, PACKET),
    # check: a model check's own spec fields, then what the check engine
    # fills in
    Field("kind", None, CHECK),
    Field("seed", None, CHECK),
    Field("invariants", None, CHECK),
    Field("max_states", None, CHECK),
    Field("single_actions", None, CHECK),
    Field("symmetry", None, CHECK),
    Field("states_explored", 0, CHECK),
    Field("transitions_explored", 0, CHECK),
    Field("quiescent_states", 0, CHECK),
    Field("max_depth", 0, CHECK),
    Field("truncated", False, CHECK),
    Field("violations", 0, CHECK),
    Field("predicates", None, CHECK),
    Field("symmetry_reduced", False, CHECK),
    Field("spilled", False, CHECK),
    Field("vectorized", False, CHECK),
    Field("counterexamples", None, CHECK),
    Field("wall_time_s", 0.0, RESULT, VOLATILE),
)


def group_defaults(*groups: str) -> Dict[str, Any]:
    """The fields of ``groups`` with the values a fresh record starts from."""
    return {f.name: f.default for f in RECORD_FIELDS if f.group in groups}


RESULT_INIT = group_defaults(RESULT)

#: The result fields that are pure run results: all but the marked ones.
OUTCOME_FIELDS = tuple(
    f.name for f in RECORD_FIELDS if f.group == RESULT and f.mark is None
)

#: Fields that differ between two runs of one spec on one engine, and
#: between two engines that agree on a spec.
VOLATILE_FIELDS = tuple(f.name for f in RECORD_FIELDS if f.mark == VOLATILE)
ENGINE_VOLATILE_FIELDS = tuple(f.name for f in RECORD_FIELDS if f.mark is not None)

#: Every declared field: what :meth:`ResultStore.records` may filter on.
FIELD_NAMES = frozenset(f.name for f in RECORD_FIELDS)


class ResultStore:
    """A directory-backed, resumable store of campaign run records."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.shard_dir = self.root / "shards"
        self.quarantine_dir = self.root / "quarantine"
        self.campaign_path = self.root / "campaign.json"
        self.report_path = self.root / "report.json"
        self.telemetry_path = self.root / "telemetry.jsonl"
        self.shard_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # low-level plumbing
    # ------------------------------------------------------------------
    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        """Nothing to release: every read and write opens its own file."""

    def _shard_paths(self) -> List[Path]:
        return sorted(self.shard_dir.glob("shard-*.jsonl"))

    def new_shard(self) -> Path:
        """Path of the next unused shard file (not created until written to)."""
        existing = self._shard_paths()
        next_number = 1
        if existing:
            next_number = int(existing[-1].stem.split("-")[1]) + 1
        return self.shard_dir / f"shard-{next_number:05d}.jsonl"

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, records: Sequence[Dict[str, Any]], shard: Union[str, Path, None] = None) -> Path:
        """Append records to a shard; returns the shard path.

        Each shard line carries a CRC32 suffix (``<json>\\t<crc hex>``, see
        :func:`repro.io.serialization.checksummed_line`) so torn or
        bit-rotted lines are detected on read.
        """
        shard_path = Path(shard) if shard is not None else self.new_shard()
        with shard_path.open("a", encoding="utf-8") as handle:
            handle.write("".join(
                checksummed_line(encode_record(record)) + "\n" for record in records
            ))
        return shard_path

    def record_campaign(self, campaign_dict: Dict[str, Any]) -> None:
        """Persist the campaign spec next to its results for provenance.

        Atomic (temp file + rename): a crash mid-write cannot leave a
        half-written ``campaign.json`` that breaks the next resume.
        """
        _atomic_write_text(
            self.campaign_path,
            json.dumps(campaign_dict, indent=2, sort_keys=True) + "\n",
        )

    def load_campaign(self) -> Optional[Dict[str, Any]]:
        """The recorded campaign spec, if any."""
        if not self.campaign_path.exists():
            return None
        return json.loads(self.campaign_path.read_text(encoding="utf-8"))

    def record_report(self, report_dict: Dict[str, Any]) -> None:
        """Persist the latest campaign report (engines, cache counters).

        Overwritten on every :func:`~repro.experiments.executor.run_campaign`
        invocation against this store, so ``repro report`` can show how the
        most recent (possibly resumed) sweep actually executed.  Atomic, like
        :meth:`record_campaign`.
        """
        _atomic_write_text(
            self.report_path,
            json.dumps(report_dict, indent=2, sort_keys=True) + "\n",
        )

    def load_report(self) -> Optional[Dict[str, Any]]:
        """The recorded campaign report, if any."""
        if not self.report_path.exists():
            return None
        return json.loads(self.report_path.read_text(encoding="utf-8"))

    def record_telemetry(self, events: Sequence[Dict[str, Any]]) -> Path:
        """Append telemetry events to the ``telemetry.jsonl`` sidecar.

        The batched sink of the campaign tracer (see
        :mod:`repro.telemetry.spans`): one appending write per batch, never
        per event.  Append-only like the record shards, so resumed campaigns
        accumulate their invocations' telemetry in order.
        """
        if events:
            from repro.io.serialization import telemetry_events_to_jsonl

            with self.telemetry_path.open("a", encoding="utf-8") as handle:
                handle.write(telemetry_events_to_jsonl(events))
        return self.telemetry_path

    def iter_telemetry(self) -> Iterator[Dict[str, Any]]:
        """Every sidecar telemetry event, in write order, schema-validated.

        A *torn* line (unparseable JSON — typically the truncated tail of a
        crash mid-append) is logged and skipped so the sidecar stays
        readable; a line that parses but violates the event schema still
        raises :class:`repro.io.serialization.SerializationError` — schema
        drift between writer and reader must fail loudly, not silently.
        """
        if not self.telemetry_path.exists():
            return
        from repro.io.serialization import telemetry_event_from_dict

        with self.telemetry_path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except ValueError:
                    logger.warning(
                        "skipping torn telemetry line %s:%d", self.telemetry_path, number
                    )
                    continue
                yield telemetry_event_from_dict(data)

    # ------------------------------------------------------------------
    # reading: every query goes through the shards
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_shard_line(line: str) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """Parse one shard line into ``(record, why_bad)``.

        Exactly one of the two is ``None``: a healthy line (checksummed or
        legacy plain-JSON) yields its record; a corrupt one yields the reason
        it was rejected.
        """
        payload, crc_ok = split_checksummed_line(line)
        if crc_ok is False:
            return None, "checksum mismatch"
        try:
            record = json.loads(payload)
        except ValueError:
            return None, "unparseable JSON (torn line?)"
        if not isinstance(record, dict):
            return None, f"record is {type(record).__name__}, not an object"
        if not isinstance(record.get("run_id"), str):
            return None, "record has no run_id"
        return record, None

    def iter_shard_records(self) -> Iterator[Dict[str, Any]]:
        """Every healthy shard line's record, in shard order.

        Tolerant by design: a torn trailing line (crash mid-append) or a
        checksum-failing line is logged and skipped, never raised — an
        interrupted campaign must stay resumable without manual surgery.
        Run :meth:`fsck` to quarantine such lines out of the shards.
        """
        for path in self._shard_paths():
            with path.open("r", encoding="utf-8") as handle:
                for number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    record, why_bad = self._parse_shard_line(line)
                    if record is None:
                        logger.warning(
                            "skipping corrupt shard line %s:%d (%s)",
                            path, number, why_bad,
                        )
                        continue
                    yield record

    def existing_run_ids(self) -> Set[str]:
        """The run ids already stored (what campaign resume skips)."""
        return {record["run_id"] for record in self.iter_shard_records()}

    def records(self, **filters: Any) -> List[Dict[str, Any]]:
        """Stored records matching equality filters on declared fields.

        One record per ``run_id``, the last shard line for it (a re-run
        replaces, never duplicates), in ``run_id`` order.  Example:
        ``store.records(family="chain", status="ok")``.
        """
        unknown = set(filters).difference(FIELD_NAMES)
        if unknown:
            raise ValueError(f"cannot filter on undeclared fields: {sorted(unknown)}")
        latest = {record["run_id"]: record for record in self.iter_shard_records()}
        conditions = filters.items()
        return [
            record for _, record in sorted(latest.items())
            if all(record.get(name) == value for name, value in conditions)
        ]

    def fsck(self, repair: bool = True) -> Dict[str, Any]:
        """Verify shard integrity; quarantine bad lines.

        Walks every shard line, checking the CRC32 suffix where present and
        JSON-parseability always (legacy pre-checksum lines stay valid).  A
        truncated tail — a final line without a newline that fails to parse —
        is reported separately from mid-file corruption, since it is the
        signature of a crash mid-append rather than bit rot.

        With ``repair=True`` (the default) every bad line is moved to
        ``quarantine/<shard>.bad`` and the shard is rewritten atomically with
        only its healthy lines.  With ``repair=False`` nothing is touched —
        the returned report just describes the damage.

        Returns a plain-data report: per-shard and total line/record counts,
        bad-line locations, truncated-tail detection and quarantine paths.
        """
        report: Dict[str, Any] = {
            "shards": 0,
            "records": 0,
            "checksummed_lines": 0,
            "legacy_lines": 0,
            "bad_lines": [],
            "truncated_tails": [],
            "quarantined": [],
            "repaired": repair,
        }
        for path in self._shard_paths():
            report["shards"] += 1
            text = path.read_text(encoding="utf-8")
            ends_with_newline = text.endswith("\n")
            raw_lines = text.splitlines()
            good: List[str] = []
            bad: List[Tuple[int, str, str]] = []
            for number, raw in enumerate(raw_lines, start=1):
                stripped = raw.strip()
                if not stripped:
                    continue
                record, why_bad = self._parse_shard_line(stripped)
                if record is None:
                    if number == len(raw_lines) and not ends_with_newline:
                        why_bad = "truncated tail (crash mid-append?)"
                        report["truncated_tails"].append(str(path))
                    bad.append((number, raw, why_bad))
                    report["bad_lines"].append(
                        {"shard": str(path), "line": number, "reason": why_bad}
                    )
                    continue
                _, crc_ok = split_checksummed_line(stripped)
                report["checksummed_lines" if crc_ok else "legacy_lines"] += 1
                report["records"] += 1
                good.append(stripped)
            if bad and repair:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                quarantine_path = self.quarantine_dir / f"{path.name}.bad"
                with quarantine_path.open("a", encoding="utf-8") as handle:
                    for number, raw, why_bad in bad:
                        handle.write(raw + "\n")
                report["quarantined"].append(str(quarantine_path))
                _atomic_write_text(
                    path, "".join(line + "\n" for line in good)
                )
                logger.warning(
                    "fsck quarantined %d bad line(s) from %s to %s",
                    len(bad), path, quarantine_path,
                )
        return report
