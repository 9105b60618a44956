"""The shared churn layer: trajectories, re-packing, and the engine caches.

The synchronous engines re-pack an instance per repair phase at the id
level and share one mobility trajectory per topology seed through their
per-process caches.  These tests pin each shortcut to the plain
construction it replaces, and check that no cache state can change a
stored record.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro import telemetry
from repro.core.graph import LinkReversalInstance
from repro.experiments import batch_engine
from repro.experiments.batch_engine import reset_kernel_caches
from repro.experiments.churn import (
    PARTITION,
    ScenarioChurn,
    carried_over_instance,
    fail_seeded_link,
    mobility_trajectory,
)
from repro.experiments.runner import execute_scenario, run_scenarios
from repro.experiments.spec import CampaignSpec, ScenarioSpec
from repro.experiments.store import VOLATILE_FIELDS
from repro.kernels import KernelCache, mask_directed_edges
from repro.topology.generators import build_family


def _reference_carried_over(fresh, directed_edges):
    """The frozenset-keyed re-packing the O(E) version replaced."""
    surviving = {
        frozenset(edge): edge
        for edge in directed_edges
        if frozenset(edge) in fresh.undirected_edges
    }
    edges = tuple(surviving.get(frozenset(edge), edge) for edge in fresh.initial_edges)
    candidate = LinkReversalInstance(fresh.nodes, fresh.destination, edges)
    if candidate.is_initially_acyclic():
        return candidate, False
    return fresh, True


def _same_tables(derived, built):
    for name in (
        "_node_id", "_edge_id", "_edge_node_ids", "_incident_eids",
        "_incident_nbrs", "_incident_nbr_ids", "_incident_mask", "_tail_sel",
        "_degree", "_csr_offsets", "_init_in_count", "_init_sink_ids",
        "_dest_id", "_nbrs", "_in_nbrs", "_out_nbrs", "undirected_edges",
    ):
        assert getattr(derived, name) == getattr(built, name), name


class TestOrientedBy:
    @pytest.mark.parametrize("family", ["grid", "random-dag", "geometric"])
    def test_matches_an_instance_built_from_the_edge_list(self, family):
        instance = build_family(family, 12, 5)
        rng = random.Random(family)
        for _ in range(20):
            mask = rng.getrandbits(instance.edge_count)
            drop = rng.choice([None, rng.randrange(instance.edge_count)])
            edges = [
                edge for e, edge in enumerate(mask_directed_edges(instance, mask))
                if e != drop
            ]
            built = LinkReversalInstance(instance.nodes, instance.destination, tuple(edges))
            derived = instance.oriented_by(mask, drop=drop)
            assert derived == built
            _same_tables(derived, built)
            assert derived.is_initially_acyclic() == built.is_initially_acyclic()
            assert derived.is_connected() == built.is_connected()

    def test_is_connected_without_an_edge(self):
        instance = build_family("random-dag", 10, 3)
        for e, edge in enumerate(instance.initial_edges):
            rest = tuple(x for x in instance.initial_edges if x != edge)
            survivor = LinkReversalInstance(instance.nodes, instance.destination, rest)
            assert instance.is_connected(without_edge=e) == survivor.is_connected()


class TestChurnHelpers:
    @pytest.mark.parametrize("seed", range(6))
    def test_carried_over_matches_the_frozenset_reference(self, seed):
        trajectory = mobility_trajectory(12, seed, 8)
        previous = build_family("geometric", 12, seed)
        rng = random.Random(seed)
        for fresh in trajectory:
            if fresh is None or fresh is PARTITION:
                continue
            mask = rng.getrandbits(previous.edge_count)
            got = carried_over_instance(fresh, previous, mask)
            want = _reference_carried_over(fresh, mask_directed_edges(previous, mask))
            assert got == want
            previous = got[0]

    def test_failed_link_is_the_seeded_draw(self):
        instance = build_family("grid", 16, 0)
        mask = 0b1011
        got = fail_seeded_link(instance, mask, random.Random(7))
        candidates = sorted(instance.initial_edges)
        dropped = candidates[random.Random(7).randrange(len(candidates))]
        surviving = tuple(
            edge for edge in mask_directed_edges(instance, mask)
            if set(edge) != set(dropped)
        )
        assert got == LinkReversalInstance(instance.nodes, instance.destination, surviving)

    def test_a_bridge_failure_is_a_partition(self):
        chain = build_family("chain", 5, 0)
        assert fail_seeded_link(chain, 0, random.Random(1)) is PARTITION


class TestTrajectoryCache:
    def _spec(self, seed=3, count=4):
        return ScenarioSpec(
            family="geometric", size=12, algorithm="pr", scheduler="greedy",
            topology_seed=seed, scheduler_seed=1, failure_model="mobility",
            failure_count=count,
        )

    def test_cached_trajectory_equals_a_fresh_one(self):
        spec = self._spec()
        key = (spec.family, spec.size, spec.topology_seed)
        cache = KernelCache(capacity=2)
        cache.instance(key, lambda: build_family(spec.family, spec.size, spec.topology_seed))
        first = ScenarioChurn(spec, cache, key).trajectory
        assert ScenarioChurn(spec, cache, key).trajectory is first
        assert first == ScenarioChurn(spec).trajectory
        assert first == mobility_trajectory(spec.size, spec.topology_seed, spec.failure_count)
        assert cache.stats()["kernel_hits"] == 1

    def test_entries_are_kept_only_beside_a_cached_instance(self):
        spec = self._spec()
        cache = KernelCache(capacity=1)
        key = ("geometric", 12, spec.topology_seed)
        ScenarioChurn(spec, cache, key)
        ScenarioChurn(spec, cache, key)
        assert cache.stats()["kernel_compiles"] == 2
        assert not cache._kernels


def _churn_specs():
    campaign = CampaignSpec(
        name="cache-churn",
        families=("grid", "random-dag", "geometric"),
        algorithms=("pr", "new-pr", "fr"),
        schedulers=("greedy", "random"),
        sizes=(9, 12),
        replicates=3,
        base_seed=5,
        failure_models=[("link-failures", 3), ("mobility", 4)],
    )
    return [spec.to_dict() for spec in campaign.expand()]


def _stable(records):
    return [{k: v for k, v in r.items() if k not in VOLATILE_FIELDS} for r in records]


@pytest.mark.parametrize("per_run", [False, True], ids=["lockstep", "per-run"])
def test_no_cache_state_changes_a_churn_record(per_run):
    def run():
        if per_run:
            return _stable([execute_scenario(spec) for spec in _churn_specs()])
        return _stable(run_scenarios(_churn_specs(), engine="kernel"))

    reset_kernel_caches()
    cold = run()
    warm = run()
    reset_kernel_caches()
    with mock.patch.object(
        # every topology evicts the previous one
        batch_engine, "_KERNEL_CACHE",
        KernelCache(capacity=1, metrics=telemetry.ENGINE_METRICS, prefix="kernel_"),
    ):
        thrashing = run()
    for field in ("failures_applied", "partition_skips", "reorientations"):
        assert any(r[field] for r in cold), field
    assert cold == warm == thrashing
    legacy = _stable(run_scenarios(_churn_specs(), engine="legacy"))
    for record, oracle in zip(cold, legacy):
        assert {**record, "engine": None} == {**oracle, "engine": None}
