"""Lockstep data-plane lanes: grouped runs record exactly what single runs do.

The campaign runner hands every data-plane lane of a chunk to one
``execute`` call, and the engine steps them on one shared
:class:`~repro.dataplane.packets.PacketSimulator`.  These tests pin the
grouped path to the single-run one: the golden data-plane campaign through
``run_scenarios`` (one chunk, and the executor's default chunking), a group
mixing sizes and slot counts, a group falling back lane by lane when one
lane raises, and the float stretch total of a lane that delivers many
packets in one slot.
"""

from __future__ import annotations

import json

import pytest

np = pytest.importorskip("numpy")

import repro.experiments.dataplane_engine as dataplane_engine
from repro.dataplane.packets import PacketSimulator, TrafficLane
from repro.experiments import executor
from repro.experiments.runner import execute_scenario, run_scenarios
from repro.experiments.spec import ScenarioSpec
from repro.experiments.store import ResultStore, VOLATILE_FIELDS

from test_net_campaign_records import FIXTURE, _campaigns


def _stable(record):
    """A record's stored fields except the volatile ones, as JSON reads them."""
    return json.loads(json.dumps({k: v for k, v in record.items() if k not in VOLATILE_FIELDS}))


def _golden_dataplane():
    records = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    return {r["run_id"]: r for r in records if r["engine"] == "dataplane"}


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


# ----------------------------------------------------------------------
# the golden campaign, grouped
# ----------------------------------------------------------------------
def test_golden_campaign_as_one_chunk():
    specs = list(_campaigns()[1].expand())
    records = [_stable(r) for r in run_scenarios(specs)]
    assert all(r["status"] == "ok" for r in records)
    _assert_golden(records, _golden_dataplane())


def test_golden_campaign_at_the_default_chunking(tmp_path):
    campaign = _campaigns()[1]
    # the executor's own chunks, so lanes run in groups of its default width
    width = executor._default_chunk_size(campaign.run_count, 1)
    assert 1 < width < campaign.run_count
    with ResultStore(tmp_path / "store") as store:
        report = executor.run_campaign(campaign, store, workers=1)
        records = [_stable(r) for r in store.records()]
    assert report.ok == campaign.run_count
    _assert_golden(records, _golden_dataplane())


def test_a_group_mixing_sizes_and_slot_counts_matches_single_runs():
    # lanes stop injecting and finish draining at different slots, and
    # differ in family, size, algorithm, traffic, loss and churn
    specs = [
        ScenarioSpec(family, size, algorithm, "greedy", seed, seed + 1,
                     failure_model=failure, failure_count=count,
                     max_steps=slots, delay_model=delay, loss=loss,
                     traffic=traffic, campaign="lockstep-mix")
        for seed, (family, size, algorithm, failure, count, slots, delay, loss, traffic)
        in enumerate([
            ("grid", 16, "pr", "link-failures", 2, 96, "uniform", 0.0, "heavy"),
            ("chain", 6, "fr", "none", 0, 0, None, 0.0, "steady"),
            ("geometric", 12, "fr", "link-failures", 1, 40, "fixed", 0.1, "bursty"),
            ("grid", 9, "pr", "none", 0, 200, "fifo", 0.0, "trickle"),
            ("random-dag", 10, "pr", "link-failures", 3, 64, "uniform", 0.1, "heavy"),
        ])
    ]
    grouped = [_stable(r) for r in run_scenarios(specs)]
    single = [_stable(execute_scenario(spec)) for spec in specs]
    assert [r["status"] for r in grouped] == ["ok"] * len(specs)
    assert grouped == single
    assert len({r["slots"] for r in grouped}) == len(specs)


def test_a_lane_that_raises_sends_its_group_lane_by_lane(monkeypatch):
    specs = list(_campaigns()[1].expand())[:6]
    bad = specs[2].run_id
    real = dataplane_engine.fail_seeded_links

    def failing(network, rng, count, record, fail):
        # raises mid-slot-loop, after every lane of the group has moved
        if record["run_id"] == bad:
            raise RuntimeError("injected lane failure")
        real(network, rng, count, record, fail)

    monkeypatch.setattr(dataplane_engine, "fail_seeded_links", failing)
    records = {r["run_id"]: _stable(r) for r in run_scenarios(specs)}
    assert records[bad]["status"] == "error"
    assert "injected lane failure" in records[bad]["error"]
    golden = _golden_dataplane()
    del records[bad]
    _assert_golden(list(records.values()), {k: golden[k] for k in records})


# ----------------------------------------------------------------------
# the float stretch total of a crowded slot
# ----------------------------------------------------------------------
def _broom(leaves: int):
    """A sink 0 with ``leaves`` spokes 1..L, each with one more hop L+1..2L.

    The distance table is made up so that stretches are fractions like 2/3
    and 2/7, whose float sum depends on the order it is added in.
    """
    link_from, link_to, next_hop = [], [], [-1] * (2 * leaves + 1)
    for spoke in range(1, leaves + 1):
        tip = spoke + leaves
        for u, v in ((spoke, 0), (0, spoke), (tip, spoke), (spoke, tip)):
            link_from.append(u)
            link_to.append(v)
        next_hop[spoke] = len(link_from) - 4
        next_hop[tip] = len(link_from) - 2
    dist = [0] + [3 + spoke % 5 for spoke in range(leaves)] * 2
    return link_from, link_to, dist, next_hop


@pytest.mark.parametrize("link_capacity", [1, 8])
def test_crowded_slot_stretch_is_bit_exact_in_a_group(link_capacity):
    leaves = 12
    link_from, link_to, dist, next_hop = _broom(leaves)
    n = 2 * leaves + 1
    crowded = TrafficLane(link_from, link_to, n, 0, [1.5] * n, dist, ttl=8, seed=4)
    chain = TrafficLane([1, 0, 2, 1], [0, 1, 1, 2], 3, 0, [0.0, 0.7, 0.7], [0, 3, 7], seed=5)
    hops = [next_hop, [-1, 0, 2]]
    lanes = [crowded, chain]
    group = PacketSimulator.lockstep(lanes, queue_capacity=16, link_capacity=link_capacity)
    alone = [
        PacketSimulator(**lane._asdict(), queue_capacity=16, link_capacity=link_capacity)
        for lane in lanes
    ]
    for index, table in enumerate(hops):
        for u, lid in enumerate(table):
            if lid >= 0:
                group.set_next_hop_link(
                    group.node_offset[index] + u, group.link_offset[index] + lid
                )
                alone[index].set_next_hop_link(u, lid)
    most = 0
    for _ in range(60):
        before = alone[0].delivered
        for sim in (group, *alone):
            sim.inject_slot()
            sim.step()
        most = max(most, alone[0].delivered - before)
    assert most >= 8, "no slot delivered 8 packets: the pairwise sum went unused"
    for index, sim in enumerate(alone):
        grouped = group.counters(index)
        assert grouped == sim.counters()
        # == on floats: the same bits, not just close
        assert grouped["mean_stretch"].hex() == sim.counters()["mean_stretch"].hex()
