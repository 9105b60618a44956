"""Persistent campaign result store: JSONL shards + a SQLite index.

Layout of a store directory::

    <root>/
        campaign.json          # provenance: the last CampaignSpec swept here
        report.json            # how the latest sweep invocation executed
        telemetry.jsonl        # span/metrics sidecar (see repro.telemetry)
        shards/
            shard-00001.jsonl  # one JSON record per line, append-only
            shard-00002.jsonl
        index.sqlite           # consolidated queryable index over all shards

The JSONL shards are the source of truth: append-only, diffable, and safe to
copy around or concatenate.  The SQLite index is derived — it exists so
``repro report`` and campaign resume can answer "which runs exist / give me
the chain-family rows" without re-parsing every shard, and it can always be
rebuilt from the shards with :meth:`ResultStore.consolidate`.

Only the executor's parent process writes; workers hand their records back
over the pool, so there is no cross-process write contention.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
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
    #: SQLite column type of the index, or ``None`` when not indexed (the
    #: field is still available via the ``record`` JSON column).
    column: Optional[str]
    #: The value a fresh record starts from (spec fields take the spec's).
    default: Any
    group: str
    mark: Optional[str] = None


#: The run record: one row per field, in index-column order.  Every field
#: table below is derived from it.
RECORD_FIELDS: Tuple[Field, ...] = (
    Field("run_id", "TEXT PRIMARY KEY", None, SPEC),
    Field("campaign", "TEXT", None, SPEC),
    Field("family", "TEXT", None, SPEC),
    Field("algorithm", "TEXT", None, SPEC),
    Field("scheduler", "TEXT", None, SPEC),
    Field("size", "INTEGER", None, SPEC),
    Field("topology_seed", None, None, SPEC),
    Field("scheduler_seed", None, None, SPEC),
    Field("replicate", "INTEGER", None, SPEC),
    Field("failure_model", "TEXT", None, SPEC),
    Field("failure_count", "INTEGER", None, SPEC),
    Field("max_steps", None, None, SPEC),
    Field("node_faults", "INTEGER", None, SPEC),
    Field("delay_model", "TEXT", None, SPEC),
    Field("loss", None, None, SPEC),
    Field("traffic", "TEXT", None, SPEC),
    # result: the instance facts, work counters, verdicts and churn counters
    # every engine fills in place
    Field("status", "TEXT", "ok", RESULT),
    Field("error", None, None, RESULT),
    Field("engine", "TEXT", None, RESULT, STAMP),
    Field("nodes", None, None, RESULT),
    Field("edges", None, None, RESULT),
    Field("bad_nodes", None, None, RESULT),
    Field("node_steps", "INTEGER", 0, RESULT),
    Field("edge_reversals", "INTEGER", 0, RESULT),
    Field("dummy_steps", "INTEGER", 0, RESULT),
    Field("rounds", "INTEGER", 0, RESULT),
    Field("steps_taken", None, 0, RESULT),
    Field("converged", "INTEGER", False, RESULT),
    Field("destination_oriented", "INTEGER", False, RESULT),
    Field("acyclic_final", "INTEGER", False, RESULT),
    Field("failures_applied", None, 0, RESULT),
    Field("partition_skips", None, 0, RESULT),
    Field("reorientations", None, 0, RESULT),
    Field("crashed_nodes", None, 0, RESULT),
    # message: the control-plane message statistics of the async and
    # data-plane engines
    Field("messages_sent", "INTEGER", None, MESSAGE),
    Field("messages_delivered", None, None, MESSAGE),
    Field("messages_lost", None, None, MESSAGE),
    Field("simulated_time", "REAL", None, MESSAGE),
    Field("events_dispatched", None, None, MESSAGE),
    # packet: the data-plane engine's packet counters and latency summaries
    Field("slots", "INTEGER", 0, PACKET),
    Field("packets_injected", "INTEGER", 0, PACKET),
    Field("packets_delivered", "INTEGER", 0, PACKET),
    Field("packets_dropped", "INTEGER", 0, PACKET),
    Field("packets_in_flight", "INTEGER", 0, PACKET),
    Field("packets_forwarded", None, 0, PACKET),
    Field("drop_tail", "INTEGER", 0, PACKET),
    Field("drop_ttl", "INTEGER", 0, PACKET),
    Field("drop_no_route", "INTEGER", 0, PACKET),
    Field("drop_link_down", "INTEGER", 0, PACKET),
    Field("transient_loops", "INTEGER", 0, PACKET),
    Field("peak_queue_depth", "INTEGER", 0, PACKET),
    Field("mean_latency_slots", "REAL", None, PACKET),
    Field("max_latency_slots", "REAL", None, PACKET),
    Field("mean_hops", "REAL", None, PACKET),
    Field("mean_stretch", "REAL", None, PACKET),
    # check: a model check's own spec fields, then what the check engine
    # fills in; not indexed, so sweep stores keep their schema
    Field("kind", None, None, CHECK),
    Field("seed", None, None, CHECK),
    Field("invariants", None, None, CHECK),
    Field("max_states", None, None, CHECK),
    Field("single_actions", None, None, CHECK),
    Field("symmetry", None, None, CHECK),
    Field("states_explored", None, 0, CHECK),
    Field("transitions_explored", None, 0, CHECK),
    Field("quiescent_states", None, 0, CHECK),
    Field("max_depth", None, 0, CHECK),
    Field("truncated", None, False, CHECK),
    Field("violations", None, 0, CHECK),
    Field("predicates", None, None, CHECK),
    Field("symmetry_reduced", None, False, CHECK),
    Field("spilled", None, False, CHECK),
    Field("vectorized", None, False, CHECK),
    Field("counterexamples", None, None, CHECK),
    Field("wall_time_s", "REAL", 0.0, RESULT, VOLATILE),
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

#: The indexed fields and their SQLite column types.
_COLUMNS = tuple((f.name, f.column) for f in RECORD_FIELDS if f.column is not None)

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS runs ("
    + ", ".join(f"{name} {kind}" for name, kind in _COLUMNS)
    + ", record TEXT NOT NULL)"
)

_COLUMN_NAMES = tuple(name for name, _ in _COLUMNS)

#: One index row per record: the column values, then the record's JSON.
_INSERT = (
    f"INSERT OR REPLACE INTO runs ({', '.join(_COLUMN_NAMES)}, record) "
    f"VALUES ({', '.join('?' * (len(_COLUMN_NAMES) + 1))})"
)

#: Row positions of the INTEGER columns, where a bool is stored as 0/1.
_INTEGER_POSITIONS = tuple(
    i for i, (_, kind) in enumerate(_COLUMNS) if kind == "INTEGER"
)


class ResultStore:
    """A directory-backed, resumable store of campaign run records."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.shard_dir = self.root / "shards"
        self.quarantine_dir = self.root / "quarantine"
        self.index_path = self.root / "index.sqlite"
        self.campaign_path = self.root / "campaign.json"
        self.report_path = self.root / "report.json"
        self.telemetry_path = self.root / "telemetry.jsonl"
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        self._connection: Optional[sqlite3.Connection] = None

    # ------------------------------------------------------------------
    # low-level plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        if self._connection is None:
            self._connection = sqlite3.connect(self.index_path)
            # the index is *derived* data, always rebuildable from the JSONL
            # shards (the source of truth), so durability pragmas are waived
            # for write throughput: a torn index after a crash is repaired by
            # consolidate(), never a data loss
            self._connection.execute("PRAGMA journal_mode=MEMORY")
            self._connection.execute("PRAGMA synchronous=OFF")
            self._connection.execute(_SCHEMA)
            # migrate indexes written before a column existed (the JSONL
            # shards are authoritative, so adding a NULL column is safe; a
            # consolidate() backfills it from the records)
            existing = {
                row[1] for row in self._connection.execute("PRAGMA table_info(runs)")
            }
            for name, kind in _COLUMNS:
                if name not in existing:
                    self._connection.execute(
                        f"ALTER TABLE runs ADD COLUMN {name} {kind.replace(' PRIMARY KEY', '')}"
                    )
            self._connection.commit()
        return self._connection

    def close(self) -> None:
        """Close the SQLite connection (the JSONL shards need no closing)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        """Append records to a shard and index them; returns the shard path.

        Each shard line carries a CRC32 suffix (``<json>\\t<crc hex>``, see
        :func:`repro.io.serialization.checksummed_line`) so torn or
        bit-rotted lines are detected on read; the index's ``record`` column
        keeps the pure JSON.
        """
        shard_path = Path(shard) if shard is not None else self.new_shard()
        # serialise each record once; the same JSON goes into the shard line
        # (checksummed) and the index's record column (plain)
        dumped = [encode_record(record) for record in records]
        with shard_path.open("a", encoding="utf-8") as handle:
            handle.write("".join(checksummed_line(line) + "\n" for line in dumped))
        self._index(records, dumped)
        return shard_path

    def _index(
        self,
        records: Sequence[Dict[str, Any]],
        dumped: Optional[Sequence[str]] = None,
    ) -> None:
        connection = self._connect()
        if dumped is None:
            dumped = [encode_record(record) for record in records]
        rows = []
        for record, line in zip(records, dumped):
            values = list(map(record.get, _COLUMN_NAMES))
            for i in _INTEGER_POSITIONS:
                if isinstance(values[i], bool):
                    values[i] = int(values[i])
            values.append(line)
            rows.append(values)
        connection.executemany(_INSERT, rows)
        connection.commit()

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
    # consolidation / resume
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
        return record, None

    def iter_shard_records(self) -> Iterator[Dict[str, Any]]:
        """Every healthy record in every JSONL shard, in shard order.

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

    def consolidate(self) -> int:
        """Rebuild the SQLite index from the JSONL shards; returns row count.

        The shards are authoritative, so this is safe to call any time — e.g.
        after concatenating shards from another machine, or when the index
        file was deleted or is suspected stale.
        """
        self.close()
        if self.index_path.exists():
            self.index_path.unlink()
        records = list(self.iter_shard_records())
        if records:
            self._index(records)
        else:
            self._connect()
        count = self.count()
        logger.info(
            "rebuilt index at %s: %d records from %d shards",
            self.index_path, count, len(self._shard_paths()),
        )
        return count

    def fsck(self, repair: bool = True) -> Dict[str, Any]:
        """Verify shard integrity; quarantine bad lines and rebuild the index.

        Walks every shard line, checking the CRC32 suffix where present and
        JSON-parseability always (legacy pre-checksum lines stay valid).  A
        truncated tail — a final line without a newline that fails to parse —
        is reported separately from mid-file corruption, since it is the
        signature of a crash mid-append rather than bit rot.

        With ``repair=True`` (the default) every bad line is moved to
        ``quarantine/<shard>.bad``, the shard is rewritten atomically with
        only its healthy lines, and the SQLite index is rebuilt from the
        cleaned shards.  With ``repair=False`` nothing is touched — the
        returned report just describes the damage.

        Returns a plain-data report: per-shard and total line/record counts,
        bad-line locations, truncated-tail detection, quarantine paths, and
        the rebuilt index's row count (``None`` when ``repair=False``).
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
        report["index_records"] = self.consolidate() if repair else None
        return report

    def existing_run_ids(self) -> Set[str]:
        """The run ids already stored (what campaign resume skips)."""
        if not self.index_path.exists() and self._shard_paths():
            self.consolidate()
        connection = self._connect()
        return {row[0] for row in connection.execute("SELECT run_id FROM runs")}

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Number of stored runs."""
        connection = self._connect()
        return connection.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def status_counts(self) -> Dict[str, int]:
        """Stored runs per status, aggregated in SQLite (no record parsing)."""
        connection = self._connect()
        return dict(
            connection.execute("SELECT status, COUNT(*) FROM runs GROUP BY status")
        )

    def engine_counts(self) -> Dict[str, int]:
        """Stored runs per execution engine.

        The engines are ``kernel``, ``legacy``, ``async``, ``dataplane`` and
        ``check`` (stores written before the ``batch`` name folded into
        ``kernel`` may also count ``batch``).

        ``none`` aggregates runs with no recorded engine: failures before an
        engine was selected, crashed placeholders and pre-engine records
        (model checks stored before the ``check`` engine among them).
        """
        connection = self._connect()
        return {
            engine if engine is not None else "none": count
            for engine, count in connection.execute(
                "SELECT engine, COUNT(*) FROM runs GROUP BY engine"
            )
        }

    def records(self, **filters: Any) -> List[Dict[str, Any]]:
        """Full records matching equality filters on the indexed columns.

        Example: ``store.records(family="chain", status="ok")``.
        """
        unknown = set(filters).difference(_COLUMN_NAMES)
        if unknown:
            raise ValueError(f"cannot filter on non-indexed fields: {sorted(unknown)}")
        sql = "SELECT record FROM runs"
        values: List[Any] = []
        if filters:
            clauses = []
            for name, value in sorted(filters.items()):
                clauses.append(f"{name} = ?")
                values.append(int(value) if isinstance(value, bool) else value)
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY run_id"
        connection = self._connect()
        return [json.loads(row[0]) for row in connection.execute(sql, values)]
