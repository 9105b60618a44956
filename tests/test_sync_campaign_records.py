"""Golden records: a small synchronous churn campaign, pinned field for field.

The link-failure and mobility churn phases of the synchronous engines are
optimised without changing a single stored value, so a fixed campaign's
records are kept in ``data/sync_campaign_records.jsonl`` and every field
except ``wall_time_s`` (and the ``engine`` that ran it) must match under the
``kernel`` engine — in lockstep groups, and one run at a time under a
per-run timeout — and the ``legacy`` engine (crash-stop cells: ``kernel``
only).  The campaign's base seed is
chosen so that its mobility cells meet every churn branch: steps without a
link change, partitioning steps that are skipped, and carried orientations
that would form a cycle and are reoriented.  To re-record after a deliberate
behaviour change::

    PYTHONPATH=src python tests/test_sync_campaign_records.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.store import ENGINE_VOLATILE_FIELDS

FIXTURE = Path(__file__).resolve().parent / "data" / "sync_campaign_records.jsonl"


def churn_campaign():
    """Four families × four compiled algorithms × three schedulers × three churn models."""
    from repro.experiments.spec import CampaignSpec

    return CampaignSpec(
        name="golden-sync",
        families=("chain", "grid", "random-dag", "geometric"),
        algorithms=("pr", "onestep-pr", "new-pr", "fr"),
        schedulers=("greedy", "random", "adversarial"),
        sizes=(8, 12),
        base_seed=57,
        failure_models=[("none", 0), ("link-failures", 2), ("mobility", 2)],
    )


def node_fault_campaign():
    """One crash-stop cell (the legacy oracle has no crash-stop support)."""
    from repro.experiments.spec import CampaignSpec

    return CampaignSpec(
        name="golden-sync-faults",
        families=("grid",),
        algorithms=("pr", "fr"),
        sizes=(9,),
        base_seed=57,
        node_fault_counts=(2,),
    )


def campaign_records(campaign, engine="kernel", timeout_s=None, per_run=False):
    """The records of ``campaign`` run on ``engine``, as the fixture stores them.

    One :func:`run_scenarios` call over the whole campaign, or with
    ``per_run`` one call per scenario (width-1 groups, no deadline).
    """
    from repro.experiments.runner import run_scenarios

    specs = [spec.to_dict() for spec in campaign.expand()]
    if per_run:
        records = [
            run_scenarios([spec], timeout_s=timeout_s, engine=engine)[0]
            for spec in specs
        ]
    else:
        records = run_scenarios(specs, timeout_s=timeout_s, engine=engine)
    # a JSON round trip, so tuples and floats compare as the fixture stores them
    return [json.loads(json.dumps(record)) for record in records]



def _golden():
    return [json.loads(line) for line in FIXTURE.read_text().splitlines()]


def assert_matches(records, golden, engine):
    assert [r["run_id"] for r in records] == [r["run_id"] for r in golden]
    for record, expected in zip(records, golden):
        assert record["status"] == "ok", record["run_id"]
        assert record["engine"] == engine, record["run_id"]
        mismatched = {
            key: (record.get(key), expected.get(key))
            for key in record.keys() | expected.keys()
            if key not in ENGINE_VOLATILE_FIELDS and record.get(key) != expected.get(key)
        }
        assert not mismatched, (engine, record["run_id"], mismatched)


def test_fixture_covers_every_churn_branch():
    golden = _golden()
    mobility = [r for r in golden if r["failure_model"] == "mobility"]
    links = [r for r in golden if r["failure_model"] == "link-failures"]
    assert sum(r["reorientations"] for r in mobility) > 0
    assert sum(r["partition_skips"] for r in mobility) > 0
    # a mobility step that changed no link is neither applied nor skipped
    assert any(
        r["failures_applied"] + r["partition_skips"] < r["failure_count"]
        for r in mobility
    )
    assert sum(r["partition_skips"] for r in links) > 0
    assert sum(r["failures_applied"] for r in links) > 0
    assert any(r["crashed_nodes"] for r in golden)


@pytest.mark.parametrize(
    "engine,timeout_s",
    [("kernel", None), ("kernel", 600), ("legacy", None)],
    ids=["kernel-lockstep", "kernel-per-run-timeout", "legacy"],
)
def test_churn_records_match_the_golden_campaign(engine, timeout_s):
    golden = [r for r in _golden() if not r["node_faults"]]
    assert_matches(
        campaign_records(churn_campaign(), engine, timeout_s), golden, engine
    )


@pytest.mark.parametrize("timeout_s", [None, 600], ids=["lockstep", "per-run-timeout"])
def test_node_fault_records_match_the_golden_campaign(timeout_s):
    golden = [r for r in _golden() if r["node_faults"]]
    assert golden
    assert_matches(
        campaign_records(node_fault_campaign(), timeout_s=timeout_s), golden, "kernel"
    )


# ----------------------------------------------------------------------
# initial-phase reuse: a cell's churn runs restore its cached first phase
# ----------------------------------------------------------------------
def churn_first_campaign():
    """The golden churn campaign with every cell's churn runs ahead of ``none``.

    Two replicates: on the seedless families (chain, grid) both share one
    topology but not the ``random`` scheduler's seed, which the phase key
    must therefore hold.
    """
    campaign = churn_campaign()
    campaign.failure_models = tuple(reversed(campaign.failure_models))
    campaign.replicates = 2
    return campaign


@pytest.fixture(scope="module")
def churn_first_oracle():
    return campaign_records(churn_first_campaign(), "legacy")


def _phase_entries():
    from repro.experiments.batch_engine import _KERNEL_CACHE, _Phase

    return [entry for entry in _KERNEL_CACHE._kernels.values() if isinstance(entry, _Phase)]


@pytest.mark.parametrize("capacity", [None, 1])
@pytest.mark.parametrize("per_run", [False, True], ids=["lockstep", "per-run"])
def test_phase_reuse_depends_on_neither_order_nor_cache_size(
    per_run, capacity, churn_first_oracle
):
    from contextlib import nullcontext
    from unittest import mock

    from repro import telemetry
    from repro.experiments import batch_engine
    from repro.experiments.batch_engine import _Phase, reset_kernel_caches
    from repro.kernels import KernelCache

    reset_kernel_caches()
    cache = (
        nullcontext() if capacity is None else mock.patch.object(
            # every topology evicts the last one
            batch_engine, "_KERNEL_CACHE",
            KernelCache(capacity=capacity, metrics=telemetry.ENGINE_METRICS,
                        prefix="kernel_"),
        )
    )
    with cache, mock.patch.object(
        _Phase, "restore", autospec=True, side_effect=_Phase.restore
    ) as restore:
        records = campaign_records(churn_first_campaign(), per_run=per_run)
    assert restore.call_count > 0
    assert_matches(records, churn_first_oracle, "kernel")


def test_crash_stop_phases_are_kept_per_topology_seed():
    from repro.experiments.batch_engine import reset_kernel_caches

    campaign = node_fault_campaign()
    campaign.replicates = 3  # one grid, but each replicate crash-stops other nodes
    reset_kernel_caches()
    phase_free = campaign_records(campaign, timeout_s=600)
    reset_kernel_caches()
    assert_matches(campaign_records(campaign), phase_free, "kernel")


@pytest.mark.parametrize("per_run", [False, True], ids=["lockstep", "per-run"])
def test_deadlined_runs_neither_write_nor_read_phases(per_run):
    from repro.experiments.batch_engine import reset_kernel_caches

    golden = [r for r in _golden() if not r["node_faults"]]
    reset_kernel_caches()
    deadlined = campaign_records(churn_campaign(), timeout_s=600)
    assert not _phase_entries()
    assert_matches(deadlined, golden, "kernel")

    # the phases are written by un-deadlined runs, grouped either way
    campaign_records(churn_campaign(), per_run=per_run)
    phases = _phase_entries()
    assert phases and all(phase.filled for phase in phases)
    try:
        for phase in phases:  # a deadlined run that read one would record these
            phase.steps, phase.work, phase.rounds = 10**6, (-1, -1, -1), -1
        assert_matches(
            campaign_records(churn_campaign(), timeout_s=600), golden, "kernel"
        )
    finally:
        reset_kernel_caches()


def test_a_restored_seen_set_is_a_copy():
    from repro.experiments.batch_engine import _Phase
    from repro.kernels import RoundTally, WorkTally

    work, tally = WorkTally(), RoundTally()
    tally.observe((0,), ("a",))
    tally.observe((1,), ("a", "b"))
    phase = _Phase()
    phase.fill(0b101, 2, True, work, tally)
    tally.observe((0,), ("c",))  # the lane that ran the phase goes on counting
    assert phase.seen == {"a", "b"}

    restored = RoundTally()
    phase.restore(WorkTally(), restored)
    assert (restored.rounds, restored._seen) == (1, {"a", "b"})
    restored.observe((0,), ("c",))  # a repair phase adds to the restored set
    assert restored._seen == {"a", "b", "c"}
    assert phase.seen == {"a", "b"}

    again = RoundTally()
    phase.restore(WorkTally(), again)
    assert (again.rounds, again._seen) == (1, {"a", "b"})


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    records = campaign_records(churn_campaign()) + campaign_records(node_fault_campaign())
    FIXTURE.write_text(
        "".join(
            json.dumps({k: v for k, v in record.items() if k != "wall_time_s"}, sort_keys=True)
            + "\n"
            for record in records
        )
    )
    print(f"wrote {FIXTURE}")
