"""Async lanes of one topology cell run as one group on one network template.

The campaign runner hands the async lanes that share a topology and a
channel seed to one ``execute`` call, which builds their networks from one
:class:`~repro.distributed.fast_network.NetworkTemplate`.  These tests pin
the grouped path to the single-run one: the golden async campaign through
``run_scenarios`` as one chunk, at the executor's default chunking and
under a per-run timeout (groups of one); a group falling back lane by lane
when one lane raises; and no template outliving its group.
"""

from __future__ import annotations

import gc
import json
import weakref
from collections import Counter

import pytest

import repro.experiments.async_engine as async_engine
import repro.experiments.dataplane_engine as dataplane_engine
from repro.distributed.fast_network import NetworkTemplate
from repro.experiments import executor
from repro.experiments.engines import get_engine
from repro.experiments.runner import run_scenarios
from repro.experiments.store import VOLATILE_FIELDS, ResultStore

from test_net_campaign_records import FIXTURE, _campaigns


def _stable(record):
    """A record's stored fields except the volatile ones, as JSON reads them."""
    return json.loads(json.dumps({k: v for k, v in record.items() if k not in VOLATILE_FIELDS}))


def _golden_async():
    records = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    return {r["run_id"]: r for r in records if r["engine"] == "async"}


def _assert_golden(records, golden):
    assert sorted(r["run_id"] for r in records) == sorted(golden)
    for record in records:
        expected = golden[record["run_id"]]
        mismatched = {
            key: (record.get(key), expected.get(key))
            for key in record.keys() | expected.keys()
            if record.get(key) != expected.get(key)
        }
        assert not mismatched, (record["run_id"], mismatched)


def _async_specs():
    return list(_campaigns()[0].expand())


@pytest.fixture
def execute_calls(monkeypatch):
    """The lane count of every async ``execute`` call."""
    calls = []
    engine = get_engine("async")
    real = type(engine).execute

    def counting(self, lanes, deadline):
        calls.append(len(lanes))
        return real(self, lanes, deadline)

    monkeypatch.setattr(type(engine), "execute", counting)
    return calls


# ----------------------------------------------------------------------
# the golden campaign, grouped
# ----------------------------------------------------------------------
def test_golden_campaign_as_one_chunk(execute_calls):
    specs = _async_specs()
    records = [_stable(r) for r in run_scenarios(specs)]
    assert all(r["status"] == "ok" for r in records)
    _assert_golden(records, _golden_async())
    # one group per (topology, channel seed) cell
    cells = Counter(get_engine("async").group_key(spec) for spec in specs)
    assert sorted(execute_calls) == sorted(cells.values())
    assert len(execute_calls) < len(specs)


def test_golden_campaign_at_the_default_chunking(tmp_path, execute_calls):
    campaign = _campaigns()[0]
    width = executor._default_chunk_size(campaign.run_count, 1)
    assert 1 < width < campaign.run_count
    with ResultStore(tmp_path / "store") as store:
        report = executor.run_campaign(campaign, store, workers=1)
        records = [_stable(r) for r in store.records()]
    assert report.ok == campaign.run_count
    _assert_golden(records, _golden_async())
    assert max(execute_calls) > 1


def test_golden_campaign_under_a_timeout_runs_groups_of_one(execute_calls):
    specs = _async_specs()
    records = [_stable(r) for r in run_scenarios(specs, timeout_s=600.0)]
    assert all(r["status"] == "ok" for r in records)
    _assert_golden(records, _golden_async())
    assert execute_calls == [1] * len(specs)


def test_a_lane_that_raises_sends_its_group_lane_by_lane(monkeypatch, execute_calls):
    specs = _async_specs()[:8]
    assert len({get_engine("async").group_key(spec) for spec in specs}) == 1
    bad = specs[5].run_id
    real = async_engine.AsyncEngine._run

    def failing(self, spec, record, instance, network, deadline):
        # raises after the lanes before it finished on the shared template
        if record["run_id"] == bad:
            network.run_to_quiescence()
            raise RuntimeError("injected lane failure")
        real(self, spec, record, instance, network, deadline)

    monkeypatch.setattr(async_engine.AsyncEngine, "_run", failing)
    records = {r["run_id"]: _stable(r) for r in run_scenarios(specs)}
    assert execute_calls == [8] + [1] * 8
    assert records[bad]["status"] == "error"
    assert "injected lane failure" in records[bad]["error"]
    golden = _golden_async()
    del records[bad]
    _assert_golden(list(records.values()), {k: golden[k] for k in records})


# ----------------------------------------------------------------------
# template lifetime
# ----------------------------------------------------------------------
def test_no_template_outlives_its_group(monkeypatch):
    templates = []

    class Recorded(NetworkTemplate):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            templates.append(weakref.ref(self))

    monkeypatch.setattr(async_engine, "NetworkTemplate", Recorded)
    monkeypatch.setattr(dataplane_engine, "NetworkTemplate", Recorded)
    live_at_group_start = []

    def beat():
        live_at_group_start.append(sum(ref() is not None for ref in templates))

    # async cells, then a data-plane group holding a template per cell
    plane = list(_campaigns()[1].expand())
    plane = plane[:6] + plane[-6:]
    specs = _async_specs() + plane

    def cells(group):
        return len({(spec.family, spec.size, spec.topology_seed) for spec in group})

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        records = run_scenarios(specs, beat=beat)
        assert all(ref() is None for ref in templates)
    finally:
        if was_enabled:
            gc.enable()
    assert all(r["status"] == "ok" for r in records)
    assert len(live_at_group_start) == 3  # two async cells, one data-plane group
    assert live_at_group_start == [0, 0, 0]
    # one per async cell, and one per cell within the data-plane group
    assert len(templates) == cells(_async_specs()) + cells(plane) == 4
