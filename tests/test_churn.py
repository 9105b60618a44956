"""The shared churn layer: trajectories, packed links, re-packing, and the caches.

The kernel engine churns on packed state (an alive-link mask and an
orientation mask in the topology's edge ids) where the legacy oracle
re-packs an instance per repair phase, and both share one mobility
trajectory per topology seed through the engine cache.  These tests pin
each shortcut to the plain construction it replaces, pin the packed draw
and partition test to the oracle's, check the property the packed path no
longer re-checks (every repair starts connected and acyclic), and check
that no cache state can change a stored record.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro import telemetry
from repro.core.graph import LinkReversalInstance, mask_directed_edges
from repro.experiments import batch_engine
from repro.experiments.batch_engine import reset_kernel_caches
from repro.experiments import churn
from repro.experiments.churn import (
    PARTITION,
    LinkDraw,
    Links,
    ScenarioChurn,
    carried_over_instance,
    fail_seeded_link,
    mobility_trajectory,
)
from repro.experiments.runner import execute_scenario, run_scenarios
from repro.experiments.spec import CampaignSpec, ScenarioSpec
from repro.experiments.store import VOLATILE_FIELDS
from repro.kernels import KernelCache
from repro.topology.generators import FAMILY_NAMES, build_family


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


def _link_failure_spec(family, size, seed, count):
    return ScenarioSpec(
        family=family, size=size, algorithm="pr", scheduler="greedy",
        topology_seed=seed, scheduler_seed=seed, failure_model="link-failures",
        failure_count=count,
    )


def _surviving_instance(links: Links, mask: int) -> LinkReversalInstance:
    """The instance the oracle would build from packed links in orientation ``mask``."""
    topology = links.topology
    edges = tuple(
        edge for e, edge in enumerate(mask_directed_edges(topology, mask))
        if (links.alive >> e) & 1
    )
    return LinkReversalInstance(topology.nodes, topology.destination, edges)


def _draw_topology(name: str, seed: int) -> LinkReversalInstance:
    """A family's topology, or one relabelled so that pairs sort unlike ids.

    ``grid-tuples`` labels the grid's nodes ``(row, column)``, so pairs
    compare as nested tuples; ``geometric-reversed`` gives the nodes labels
    that sort in reverse id order.
    """
    if name == "grid-tuples":
        grid = build_family("grid", 16, seed)
        return grid.relabelled({i: divmod(i, 4) for i in grid.nodes})
    if name == "geometric-reversed":
        geometric = build_family("geometric", 12, seed)
        return geometric.relabelled({i: f"n{99 - i}" for i in geometric.nodes})
    return build_family(name, 12, seed)


class TestPackedDraw:
    """The packed draw and partition test give the oracle's decisions."""

    @pytest.mark.parametrize(
        "name", FAMILY_NAMES + ("grid-tuples", "geometric-reversed")
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_failure_sequences_match_the_instance_oracle(self, name, seed):
        topology = _draw_topology(name, seed)
        spec = _link_failure_spec("grid", 16, seed, topology.edge_count + 3)
        packed, oracle = ScenarioChurn(spec), ScenarioChurn(spec)
        links = Links(topology, (1 << topology.edge_count) - 1, 0)
        instance = topology
        orientations = random.Random(f"{name}-{seed}")
        outcomes = set()
        for index in range(spec.failure_count):
            # any orientation will do: a repair phase may end anywhere
            links.mask = orientations.getrandbits(topology.edge_count) & links.alive
            want = _surviving_instance(links, links.mask)
            mask = 0
            for k, edge in enumerate(instance.initial_edges):
                mask |= (edge not in want.initial_edges) << k
            got_record = {"partition_skips": 0, "reorientations": 0}
            want_record = dict(got_record)
            start = packed.next_links(index, links, got_record)
            candidate = oracle.next_instance(index, instance, mask, want_record)
            assert got_record == want_record
            assert packed._rng.getstate() == oracle._rng.getstate()
            if candidate is None:
                assert start is None
                outcomes.add("skip" if got_record["partition_skips"] else "empty")
                continue
            assert start is not None and start.base == start.mask
            assert _surviving_instance(start, start.mask) == candidate
            outcomes.add("failure")
            links, instance = start, candidate
        # trees (chains and stars too) are all bridges
        assert outcomes == ({"skip"} if topology.edge_count < topology.node_count
                            else {"skip", "failure"})

    def test_every_bridge_of_a_grid_with_failed_links(self):
        grid = build_family("grid", 16, 0)
        draw = LinkDraw(grid)
        rng = random.Random(4)
        full = (1 << grid.edge_count) - 1
        for _ in range(30):
            alive = full
            for e in rng.sample(range(grid.edge_count), 4):
                if not draw.splits(alive, e):
                    alive &= ~(1 << e)
            survivor = _surviving_instance(Links(grid, alive, 0), 0)
            assert survivor.is_connected()
            for k, e in enumerate(e for e in range(grid.edge_count) if (alive >> e) & 1):
                assert draw.splits(alive, e) == (not survivor.is_connected(without_edge=k))


def _repair_starts(specs):
    """The records of a kernel run over cold caches, and every repair start."""
    starts = []
    next_links = ScenarioChurn.next_links

    def spy(self, index, links, record):
        start = next_links(self, index, links, record)
        if start is not None:
            starts.append(Links(start.topology, start.alive, start.mask))
        return start

    reset_kernel_caches()
    with mock.patch.object(ScenarioChurn, "next_links", spy):
        records = run_scenarios([spec.to_dict() for spec in specs], engine="kernel")
    return records, starts


def _broken_starts(starts):
    """The starts whose alive links are disconnected or cyclic in the start mask."""
    return [
        start for start in starts
        if not (
            (survivor := _surviving_instance(start, start.mask)).is_connected()
            and survivor.is_initially_acyclic()
        )
    ]


class TestRepairStarts:
    """Every packed repair starts from a connected, acyclic orientation.

    The automaton constructor validated each rebuilt instance; the packed
    path relies on a failure never cutting a bridge and a carried-over
    orientation always passing its cycle test instead.
    """

    @staticmethod
    def _specs():
        campaign = CampaignSpec(
            name="repair-starts",
            families=FAMILY_NAMES,
            algorithms=("pr", "onestep-pr", "new-pr", "fr", "bll"),
            schedulers=("greedy", "random"),
            sizes=(9,),
            replicates=2,
            base_seed=11,
            failure_models=[("link-failures", 4), ("mobility", 6)],
            # a mutant's broken start may never quiesce: bound its phases
            max_steps=120,
        )
        return campaign.expand()

    def test_every_start_is_connected_and_acyclic(self):
        records, starts = _repair_starts(self._specs())
        assert all(r["status"] == "ok" and r["converged"] for r in records)
        assert sum(r["failures_applied"] for r in records) == len(starts) > 0
        for field in ("partition_skips", "reorientations"):
            assert any(r[field] for r in records), field
        assert not _broken_starts(starts)

    def test_a_carry_over_without_its_cycle_test_is_caught(self):
        with mock.patch.object(churn, "mask_is_acyclic", lambda instance, mask: True):
            _, starts = _repair_starts(self._specs())
        assert _broken_starts(starts)

    def test_a_failure_applied_to_a_bridge_is_caught(self):
        with mock.patch.object(LinkDraw, "splits", lambda self, alive, link: False):
            _, starts = _repair_starts(self._specs())
        assert _broken_starts(starts)


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
