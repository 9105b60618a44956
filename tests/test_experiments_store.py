"""Unit tests for the persistent campaign result store."""

from __future__ import annotations

import json

import pytest

from repro.experiments.store import ResultStore


def _record(run_id: str, **overrides) -> dict:
    record = {
        "run_id": run_id,
        "campaign": "test",
        "family": "chain",
        "algorithm": "pr",
        "scheduler": "greedy",
        "size": 6,
        "replicate": 0,
        "failure_model": "none",
        "failure_count": 0,
        "status": "ok",
        "node_steps": 5,
        "edge_reversals": 7,
        "dummy_steps": 0,
        "rounds": 3,
        "converged": True,
        "destination_oriented": True,
        "acyclic_final": True,
        "wall_time_s": 0.01,
    }
    record.update(overrides)
    return record


class TestAppendAndQuery:
    def test_append_writes_jsonl_and_indexes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        shard = store.append([_record("a"), _record("b", family="grid")])
        assert shard.exists()
        assert len(shard.read_text().strip().splitlines()) == 2
        assert store.count() == 2
        assert store.existing_run_ids() == {"a", "b"}

    def test_records_filtering(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append([
            _record("a"),
            _record("b", family="grid"),
            _record("c", family="grid", status="error"),
        ])
        assert [r["run_id"] for r in store.records(family="grid")] == ["b", "c"]
        assert [r["run_id"] for r in store.records(family="grid", status="ok")] == ["b"]
        assert store.records(converged=True) and store.records(converged=False) == []

    def test_filter_on_unknown_field_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.records(flavour="vanilla")

    def test_duplicate_run_id_replaces(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append([_record("a", node_steps=1)])
        store.append([_record("a", node_steps=99)])
        assert store.count() == 1
        assert store.records()[0]["node_steps"] == 99

    def test_full_record_preserved_through_index(self, tmp_path):
        store = ResultStore(tmp_path)
        record = _record("a", custom_metric=123.5, error=None)
        store.append([record])
        assert store.records()[0] == json.loads(json.dumps(record))


class TestShards:
    def test_new_shard_numbers_increase(self, tmp_path):
        store = ResultStore(tmp_path)
        first = store.append([_record("a")])
        second = store.append([_record("b")])
        assert first.name == "shard-00001.jsonl"
        assert second.name == "shard-00002.jsonl"

    def test_explicit_shard_appends(self, tmp_path):
        store = ResultStore(tmp_path)
        shard = store.new_shard()
        store.append([_record("a")], shard)
        store.append([_record("b")], shard)
        assert len(shard.read_text().strip().splitlines()) == 2
        assert len(list((store.shard_dir).glob("*.jsonl"))) == 1


class TestConsolidate:
    def test_index_rebuilt_from_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append([_record("a"), _record("b")])
        store.close()
        store.index_path.unlink()

        reopened = ResultStore(tmp_path)
        # existing_run_ids transparently consolidates when the index is gone
        assert reopened.existing_run_ids() == {"a", "b"}
        assert reopened.count() == 2

    def test_consolidate_after_manual_shard_copy(self, tmp_path):
        source = ResultStore(tmp_path / "src")
        source.append([_record("a"), _record("b")])
        target = ResultStore(tmp_path / "dst")
        target.append([_record("c")])
        # simulate merging stores by copying shard files
        shard = source.shard_dir / "shard-00001.jsonl"
        (target.shard_dir / "shard-00099.jsonl").write_text(shard.read_text())
        assert target.consolidate() == 3
        assert target.existing_run_ids() == {"a", "b", "c"}

    def test_empty_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.consolidate() == 0
        assert store.existing_run_ids() == set()
        assert store.records() == []


class TestCampaignProvenance:
    def test_campaign_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load_campaign() is None
        store.record_campaign({"name": "x", "sizes": [4, 8]})
        assert store.load_campaign() == {"name": "x", "sizes": [4, 8]}

    def test_sidecars_written_atomically(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record_campaign({"name": "x"})
        store.record_report({"ok": 1})
        assert store.load_report() == {"ok": 1}
        # the write-then-rename leaves no temp files behind
        leftovers = [p.name for p in store.root.iterdir()
                     if p.name.startswith(".") or p.name.endswith(".tmp")]
        assert leftovers == []


class TestIntegrity:
    def _shard(self, store: ResultStore):
        return store.shard_dir / "shard-00001.jsonl"

    def test_new_lines_are_checksummed(self, tmp_path):
        from repro.io.serialization import split_checksummed_line

        store = ResultStore(tmp_path)
        store.append([_record("a")])
        line = self._shard(store).read_text().strip()
        payload, crc_ok = split_checksummed_line(line)
        assert crc_ok is True
        assert json.loads(payload)["run_id"] == "a"

    def test_legacy_plain_json_lines_still_readable(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append([_record("a")])
        with self._shard(store).open("a") as handle:
            handle.write(json.dumps(_record("legacy")) + "\n")
        assert {r["run_id"] for r in store.iter_shard_records()} == {"a", "legacy"}
        store.consolidate()
        assert store.existing_run_ids() == {"a", "legacy"}
        report = store.fsck()
        assert report["legacy_lines"] == 1
        assert report["checksummed_lines"] == 1
        assert report["bad_lines"] == []

    def test_torn_tail_skipped_and_resumable(self, tmp_path):
        # regression: a crash mid-append used to poison every later read of
        # the shard; now the torn line is skipped and the campaign resumes
        store = ResultStore(tmp_path)
        store.append([_record("a"), _record("b")])
        with self._shard(store).open("a") as handle:
            handle.write('{"run_id": "torn", "status"')  # no newline: torn
        assert {r["run_id"] for r in store.iter_shard_records()} == {"a", "b"}
        assert store.consolidate() == 2
        assert store.existing_run_ids() == {"a", "b"}

    def test_corrupt_checksum_line_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append([_record("a"), _record("b")])
        shard = self._shard(store)
        lines = shard.read_text().splitlines()
        # flip one byte inside the first record's JSON: the CRC must catch it
        lines[0] = lines[0].replace('"ok"', '"ko"', 1)
        shard.write_text("\n".join(lines) + "\n")
        assert [r["run_id"] for r in store.iter_shard_records()] == ["b"]

    def test_fsck_quarantines_and_rebuilds(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append([_record("a"), _record("b"), _record("c")])
        shard = self._shard(store)
        lines = shard.read_text().splitlines()
        lines[1] = lines[1][:-4] + "dead"  # corrupt b's CRC suffix
        shard.write_text("\n".join(lines) + '\n{"torn"')

        report = store.fsck()
        assert report["records"] == 2
        assert len(report["bad_lines"]) == 2
        assert len(report["truncated_tails"]) == 1
        assert report["index_records"] == 2
        quarantined = (store.quarantine_dir / "shard-00001.jsonl.bad").read_text()
        assert "dead" in quarantined and '{"torn"' in quarantined
        # the shard itself is clean now: a second fsck finds nothing
        second = store.fsck()
        assert second["bad_lines"] == []
        assert store.existing_run_ids() == {"a", "c"}

    def test_fsck_no_repair_reports_only(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append([_record("a")])
        shard = self._shard(store)
        shard.write_text(shard.read_text() + "garbage\n")
        before = shard.read_text()
        report = store.fsck(repair=False)
        assert len(report["bad_lines"]) == 1
        assert report["index_records"] is None
        assert shard.read_text() == before
        assert not store.quarantine_dir.exists()

    def test_telemetry_torn_tail_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record_telemetry([
            {"kind": "event", "name": "x", "t": 0.0, "attrs": {}},
        ])
        with store.telemetry_path.open("a") as handle:
            handle.write('{"kind": "eve')
        events = list(store.iter_telemetry())
        assert [e["name"] for e in events] == ["x"]


def _awkward_records():
    """Records holding every value kind the shared encoder must keep as ``json.dumps`` does."""
    return [
        _record("bools", converged=False, drop_tail=True, slots=False),
        _record("none", error=None, engine=None, nodes=None, mean_hops=None),
        _record("floats", simulated_time=1e-07, mean_latency_slots=float("nan"),
                mean_stretch=float("inf"), wall_time_s=2.5e-12),
        _record("unicode", campaign="kampagne-äß-→-\U0001f600",
                error="line\tbreak\nquote\"slash\\"),
    ]


def _parent_append(store: ResultStore, records) -> None:
    """``ResultStore.append`` as it was before the shared encoder: one
    ``json.dumps`` per record, one write per line, the SQL built per call."""
    from repro.experiments.store import _COLUMNS
    from repro.io.serialization import checksummed_line

    dumped = [json.dumps(record, sort_keys=True) for record in records]
    with store.new_shard().open("a", encoding="utf-8") as handle:
        for line in dumped:
            handle.write(checksummed_line(line) + "\n")
    names = [name for name, _ in _COLUMNS]
    placeholders = ", ".join("?" for _ in range(len(names) + 1))
    rows = []
    for record, line in zip(records, dumped):
        values = [record.get(name) for name in names]
        for i, (name, kind) in enumerate(_COLUMNS):
            if kind == "INTEGER" and isinstance(values[i], bool):
                values[i] = int(values[i])
        rows.append((*values, line))
    connection = store._connect()
    connection.executemany(
        f"INSERT OR REPLACE INTO runs ({', '.join(names)}, record) VALUES ({placeholders})",
        rows,
    )
    connection.commit()


def _index_rows(store: ResultStore):
    return list(store._connect().execute("SELECT * FROM runs ORDER BY run_id"))


class TestSharedEncoder:
    def test_shard_and_index_text_equal_json_dumps(self, tmp_path):
        from repro.io.serialization import split_checksummed_line

        records = _awkward_records()
        store = ResultStore(tmp_path)
        shard = store.append(records)
        lines = shard.read_text(encoding="utf-8").splitlines()
        expected = [json.dumps(record, sort_keys=True) for record in records]
        assert [split_checksummed_line(line) for line in lines] == [
            (text, True) for text in expected
        ]
        indexed = dict(store._connect().execute("SELECT run_id, record FROM runs"))
        assert indexed == {r["run_id"]: text for r, text in zip(records, expected)}
        bools = store._connect().execute(
            "SELECT converged, drop_tail, slots FROM runs WHERE run_id = 'bools'"
        ).fetchone()
        assert bools == (0, 1, 0) and all(type(v) is int for v in bools)

    def test_telemetry_lines_equal_compact_json_dumps(self):
        from repro.io.serialization import telemetry_events_to_jsonl

        events = [
            {"kind": "event", "name": "évènement", "t": 1e-07, "attrs": {"b": True, "a": None}},
            {"kind": "span", "name": "x", "t": float("nan"), "parent_id": None, "attrs": {}},
        ]
        assert telemetry_events_to_jsonl(events) == "".join(
            json.dumps(event, separators=(",", ":"), sort_keys=True) + "\n"
            for event in events
        )
        assert telemetry_events_to_jsonl([]) == ""

    def test_parent_written_store_resumes_as_a_no_op(self, tmp_path):
        from repro.experiments.executor import run_campaign
        from repro.experiments.runner import run_scenarios
        from repro.experiments.spec import CampaignSpec

        campaign = CampaignSpec(
            name="encoder", families=("chain", "grid"), algorithms=("pr", "fr"),
            sizes=(6,), failure_models=[("none", 0), ("link-failures", 1)],
        )
        records = run_scenarios([spec.to_dict() for spec in campaign.expand()])
        records += _awkward_records()
        parent = ResultStore(tmp_path / "parent")
        _parent_append(parent, records)
        parent.record_campaign(campaign.to_dict())

        report = run_campaign(campaign, parent, workers=1)
        assert report.executed == 0 and report.skipped == campaign.run_count
        check = parent.fsck()
        assert check["bad_lines"] == [] and check["legacy_lines"] == 0
        assert check["checksummed_lines"] == check["index_records"] == len(records)

        # equal records give byte-identical shard lines and index rows
        fresh = ResultStore(tmp_path / "fresh")
        fresh.append(records)
        parent_bytes = (parent.shard_dir / "shard-00001.jsonl").read_bytes()
        assert (fresh.shard_dir / "shard-00001.jsonl").read_bytes() == parent_bytes
        reference = ResultStore(tmp_path / "reference")
        _parent_append(reference, records)
        assert repr(_index_rows(fresh)) == repr(_index_rows(reference))
        for store in (parent, fresh, reference):
            store.close()
