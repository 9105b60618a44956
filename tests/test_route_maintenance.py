"""Route maintenance under churn, run as scenarios through the engine registry.

Link reversal exists to keep a destination-oriented routing structure alive
in a network whose links come and go.  A scenario with ``link-failures``
fails seeded links after convergence and repairs after each one; a
``mobility`` scenario moves the nodes of a geometric network.  These tests
pin the two route-maintenance claims on single records: every failure that
does not partition the network is recovered, and one repair costs far less
work than converging from scratch.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import execute_scenario
from repro.experiments.spec import ScenarioSpec


def _record(family, size, algorithm, seed=0, **axes):
    record = execute_scenario(ScenarioSpec(
        family=family, size=size, algorithm=algorithm, scheduler="greedy",
        topology_seed=seed, scheduler_seed=seed, **axes,
    ))
    assert record["status"] == "ok", record["error"]
    return record


def _recovered(record):
    return record["converged"] and record["destination_oriented"] and record["acyclic_final"]


class TestLinkFailureRecovery:
    @pytest.mark.parametrize("algorithm", ["pr", "onestep-pr", "new-pr", "fr"])
    def test_synchronous_repair_restores_orientation(self, algorithm):
        record = _record("grid", 16, algorithm, failure_model="link-failures",
                         failure_count=4)
        assert record["engine"] == "kernel"
        assert _recovered(record)
        # every seeded failure is either applied and repaired or skipped as a cut
        assert record["failures_applied"] + record["partition_skips"] == 4
        assert record["failures_applied"] > 0

    @pytest.mark.parametrize("algorithm", ["pr", "fr"])
    def test_asynchronous_repair_restores_orientation(self, algorithm):
        record = _record("geometric", 25, algorithm, seed=2, delay_model="uniform",
                         failure_model="link-failures", failure_count=8)
        assert record["engine"] == "async"
        assert _recovered(record)
        assert record["failures_applied"] == 8
        assert record["messages_sent"] == record["messages_delivered"] > 0

    def test_lossy_channels_still_recover(self):
        # lost height updates are never retransmitted; beacon rounds recover
        record = _record("geometric", 25, "pr", seed=2, delay_model="fifo", loss=0.2,
                         failure_model="link-failures", failure_count=8)
        assert record["messages_lost"] > 0
        assert record["failures_applied"] == 8
        assert _recovered(record)

    @pytest.mark.parametrize("family", ["chain", "tree"])
    def test_a_failure_that_partitions_is_skipped(self, family):
        # every link of a tree is a bridge: no failure is applied, each draw
        # is counted as a skipped cut and the routes stay intact
        record = _record(family, 10, "pr", failure_model="link-failures",
                         failure_count=3)
        assert record["failures_applied"] == 0
        assert record["partition_skips"] == 3
        assert _recovered(record)


class TestRepairLocality:
    @pytest.mark.parametrize("algorithm", ["pr", "fr"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_repair_costs_less_than_a_node_count(self, algorithm, seed):
        # paired with the no-churn run of the same topology and schedule, the
        # extra work per applied failure stays below the grid's 25 nodes
        baseline = _record("grid", 25, algorithm, seed=seed)
        churned = _record("grid", 25, algorithm, seed=seed,
                          failure_model="link-failures", failure_count=4)
        assert churned["failures_applied"] > 0
        extra = churned["node_steps"] - baseline["node_steps"]
        assert 0 <= extra / churned["failures_applied"] < 25


class TestMobility:
    @pytest.mark.parametrize("algorithm", ["pr", "fr"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_waypoint_moves_are_all_recovered(self, algorithm, seed):
        record = _record("geometric", 20, algorithm, seed=seed,
                         failure_model="mobility", failure_count=12)
        assert record["failures_applied"] == 12
        assert _recovered(record)
