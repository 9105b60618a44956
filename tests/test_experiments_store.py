"""Unit tests for the persistent campaign result store."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.experiments.aggregate import build_report
from repro.experiments.executor import run_campaign
from repro.experiments.spec import CampaignSpec
from repro.experiments.store import ResultStore

#: A store the version with the SQLite index wrote (its shard, its
#: ``index.sqlite``, ``campaign.json`` and ``report.json``; telemetry off),
#: and that version's ``build_report`` of it less the ``store`` path.
PARENT_STORE = Path(__file__).resolve().parent / "data" / "parent_store"
PARENT_REPORT = PARENT_STORE.with_name("parent_store_report.json")


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
    def test_append_writes_jsonl(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        shard = store.append([_record("a"), _record("b", family="grid")])
        assert shard.exists()
        assert len(shard.read_text().strip().splitlines()) == 2
        assert len(store.records()) == 2
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
        # the last line for a run_id wins, within a shard and across shards
        store = ResultStore(tmp_path)
        shard = store.append([_record("a", node_steps=1), _record("b")])
        store.append([_record("a", node_steps=2)], shard)
        store.append([_record("a", node_steps=99, status="error")])
        assert store.existing_run_ids() == {"a", "b"}
        assert [(r["run_id"], r["node_steps"]) for r in store.records()] == [
            ("a", 99), ("b", 5),
        ]
        assert store.records(status="ok") == [_record("b")]
        assert build_report(store)["status_counts"] == {"error": 1, "ok": 1}

    def test_full_record_preserved(self, tmp_path):
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


def _campaign(name: str, sizes) -> CampaignSpec:
    return CampaignSpec(name=name, families=("chain", "grid"), algorithms=("pr", "fr"),
                        sizes=tuple(sizes))


def _report_counts(store: ResultStore):
    report = build_report(store)
    return report["status_counts"], report["engine_counts"]


class TestOneStoreFormat:
    """The shards answer every query: resume, ``records`` and ``build_report``."""

    def test_copied_shard_is_seen_without_an_extra_step(self, tmp_path):
        first, second = _campaign("a", (4, 5)), _campaign("b", (6,))
        source = ResultStore(tmp_path / "a")
        run_campaign(first, source, workers=1, telemetry=False)
        target = ResultStore(tmp_path / "b")
        run_campaign(second, target, workers=1, telemetry=False)
        shutil.copy(source.shard_dir / "shard-00001.jsonl",
                    target.shard_dir / "shard-00101.jsonl")

        total = first.run_count + second.run_count
        assert len(target.existing_run_ids()) == len(target.records()) == total == 12
        assert _report_counts(target) == ({"ok": total}, {"kernel": total})
        for campaign in (first, second):
            report = run_campaign(campaign, target, workers=1, telemetry=False)
            assert (report.executed, report.skipped) == (0, campaign.run_count)

    def test_corrupt_line_is_skipped_alike_and_resume_reruns_it(self, tmp_path):
        campaign = _campaign("corrupt", (4, 5))
        store = ResultStore(tmp_path)
        run_campaign(campaign, store, workers=1, telemetry=False)
        shard = store.shard_dir / "shard-00001.jsonl"
        lines = shard.read_text().splitlines()
        lost = json.loads(lines[2].rpartition("\t")[0])["run_id"]
        lines[2] = lines[2].replace('"ok"', '"ko"', 1)  # the CRC must catch it
        shard.write_text("\n".join(lines) + "\n")

        left = campaign.run_count - 1
        assert lost not in store.existing_run_ids()
        assert len(store.existing_run_ids()) == len(store.records()) == left
        assert lost not in {r["run_id"] for r in store.records()}
        assert _report_counts(store)[0] == {"ok": left}
        report = run_campaign(campaign, store, workers=1, telemetry=False)
        assert (report.executed, report.skipped) == (1, left)
        assert store.records(run_id=lost)[0]["status"] == "ok"
        assert _report_counts(store)[0] == {"ok": campaign.run_count}

    def test_parent_written_store_reports_and_resumes_unchanged(self, tmp_path):
        root = tmp_path / "parent"
        shutil.copytree(PARENT_STORE, root)
        store = ResultStore(root)
        expected = json.loads(PARENT_REPORT.read_text(encoding="utf-8"))
        report = build_report(store)
        assert report.pop("store") == str(root)
        assert json.loads(json.dumps(report)) == expected

        campaign = CampaignSpec.from_dict(store.load_campaign())
        before = store.records()
        resumed = run_campaign(campaign, store, workers=1, telemetry=False)
        assert (resumed.executed, resumed.skipped) == (0, campaign.run_count) == (0, 32)
        assert store.records() == before
        assert (root / "index.sqlite").read_bytes() == (
            PARENT_STORE / "index.sqlite"
        ).read_bytes()

    def test_empty_store(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.existing_run_ids() == set()
        assert store.records() == []
        assert _report_counts(store) == ({}, {})


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

    def test_fsck_quarantines_bad_lines(self, tmp_path):
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
        quarantined = (store.quarantine_dir / "shard-00001.jsonl.bad").read_text()
        assert "dead" in quarantined and '{"torn"' in quarantined
        # the shard itself is clean now: a second fsck finds nothing
        second = store.fsck()
        assert second["bad_lines"] == []
        assert store.existing_run_ids() == {"a", "c"}

    def test_record_without_a_run_id_is_damage(self, tmp_path):
        from repro.io.serialization import checksummed_line

        store = ResultStore(tmp_path)
        store.append([_record("a")])
        with self._shard(store).open("a") as handle:
            handle.write(checksummed_line(json.dumps({"status": "ok"})) + "\n")
        assert [r["run_id"] for r in store.records()] == ["a"]
        assert store.fsck(repair=False)["bad_lines"][0]["reason"] == "record has no run_id"

    def test_fsck_no_repair_reports_only(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append([_record("a")])
        shard = self._shard(store)
        shard.write_text(shard.read_text() + "garbage\n")
        before = shard.read_text()
        report = store.fsck(repair=False)
        assert len(report["bad_lines"]) == 1
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
    ``json.dumps`` per record, one write per line."""
    from repro.io.serialization import checksummed_line

    with store.new_shard().open("a", encoding="utf-8") as handle:
        for record in records:
            handle.write(checksummed_line(json.dumps(record, sort_keys=True)) + "\n")


class TestSharedEncoder:
    def test_shard_text_equals_json_dumps(self, tmp_path):
        from repro.io.serialization import split_checksummed_line

        records = _awkward_records()
        store = ResultStore(tmp_path)
        shard = store.append(records)
        lines = shard.read_text(encoding="utf-8").splitlines()
        expected = [json.dumps(record, sort_keys=True) for record in records]
        assert [split_checksummed_line(line) for line in lines] == [
            (text, True) for text in expected
        ]
        bools = store.records(run_id="bools")[0]
        assert [bools[name] for name in ("converged", "drop_tail", "slots")] == [
            False, True, False,
        ]

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
        from repro.experiments.runner import run_scenarios

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
        assert check["checksummed_lines"] == len(records)

        # equal records give byte-identical shard lines
        fresh = ResultStore(tmp_path / "fresh")
        fresh.append(records)
        parent_bytes = (parent.shard_dir / "shard-00001.jsonl").read_bytes()
        assert (fresh.shard_dir / "shard-00001.jsonl").read_bytes() == parent_bytes
