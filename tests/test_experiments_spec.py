"""Unit tests for the campaign / scenario specification layer."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.spec import (
    ALGORITHM_FACTORIES,
    CampaignSpec,
    ScenarioSpec,
    derive_seed,
)
from repro.schedulers import SCHEDULER_FACTORIES
from repro.topology.generators import FAMILY_NAMES


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        family="chain", size=6, algorithm="pr", scheduler="greedy",
        topology_seed=1, scheduler_seed=2,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(0, "topology", "chain", 10, 0) == derive_seed(
            0, "topology", "chain", 10, 0
        )

    def test_sensitive_to_every_component(self):
        base = derive_seed(0, "a", "b")
        assert derive_seed(1, "a", "b") != base
        assert derive_seed(0, "a", "c") != base
        assert derive_seed(0, "a") != base

    def test_component_boundaries_not_confusable(self):
        # ("ab", "c") must not collide with ("a", "bc")
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_non_negative_63_bit(self):
        for i in range(50):
            seed = derive_seed("x", i)
            assert 0 <= seed < 2 ** 63


class TestScenarioSpec:
    def test_run_id_is_stable_and_identity_based(self):
        assert _spec().run_id == _spec().run_id
        assert _spec().run_id != _spec(size=7).run_id
        assert _spec().run_id != _spec(algorithm="fr").run_id
        assert _spec().run_id != _spec(scheduler_seed=3).run_id

    def test_run_id_ignores_campaign_label(self):
        assert _spec(campaign="a").run_id == _spec(campaign="b").run_id

    def test_dict_round_trip(self):
        spec = _spec(failure_model="link-failures", failure_count=2, max_steps=99)
        data = json.loads(json.dumps(spec.to_dict()))
        rebuilt = ScenarioSpec.from_dict(data)
        assert rebuilt == spec
        assert rebuilt.run_id == data["run_id"]

    @pytest.mark.parametrize("bad", [
        dict(family="moebius"),
        dict(algorithm="dijkstra"),
        dict(scheduler="fifo"),
        dict(failure_model="asteroid"),
        dict(failure_model="mobility"),  # only valid on the geometric family
        dict(size=1),
        dict(failure_count=-1),
        dict(max_steps=-1),
    ])
    def test_validate_rejects_bad_axes(self, bad):
        with pytest.raises(ValueError):
            _spec(**bad).validate()

    def test_mobility_valid_on_geometric(self):
        _spec(family="geometric", failure_model="mobility", failure_count=2).validate()


class TestCampaignSpec:
    def test_expansion_is_deterministic(self):
        campaign = CampaignSpec(
            families=("chain", "grid"), algorithms=("pr", "fr"),
            schedulers=("greedy", "random"), sizes=(4, 8), replicates=2,
        )
        first = campaign.expand()
        second = campaign.expand()
        assert first == second
        assert [s.run_id for s in first] == [s.run_id for s in second]

    def test_run_count_matches_expansion(self):
        campaign = CampaignSpec(
            families=("chain", "geometric"), algorithms=("pr",),
            sizes=(5, 8), replicates=2,
            failure_models=[("none", 0), ("mobility", 3)],
        )
        runs = campaign.expand()
        # mobility applies to the geometric family only: chain gets 1 failure
        # model, geometric 2 → 3 family×model cells × 2 sizes × 2 replicates
        assert len(runs) == campaign.run_count == 3 * 2 * 2
        assert len({s.run_id for s in runs}) == len(runs)

    def test_negative_replicates_are_rejected(self):
        # run_count == len(expand()) must hold: a negative count cannot
        empty = CampaignSpec(replicates=0)
        assert empty.run_count == len(empty.expand()) == 0
        with pytest.raises(ValueError, match="replicates"):
            CampaignSpec(replicates=-1)

    def test_topology_seed_shared_across_algorithms(self):
        campaign = CampaignSpec(algorithms=("pr", "fr", "bll"), replicates=2)
        runs = campaign.expand()
        by_replicate = {}
        for spec in runs:
            by_replicate.setdefault(spec.replicate, set()).add(spec.topology_seed)
        # one topology per replicate, shared by every algorithm (paired runs)
        for seeds in by_replicate.values():
            assert len(seeds) == 1
        assert by_replicate[0] != by_replicate[1]

    def test_scheduler_seeds_independent_per_algorithm(self):
        campaign = CampaignSpec(algorithms=("pr", "fr", "bll"), schedulers=("random",))
        seeds = [spec.scheduler_seed for spec in campaign.expand()]
        assert len(set(seeds)) == len(seeds)

    def test_base_seed_changes_everything(self):
        a = CampaignSpec(base_seed=0).expand()
        b = CampaignSpec(base_seed=1).expand()
        assert {s.run_id for s in a}.isdisjoint({s.run_id for s in b})

    def test_dict_round_trip(self):
        campaign = CampaignSpec(
            name="x", families=("grid",), algorithms=("new-pr",),
            sizes=(9,), replicates=3, base_seed=5,
            failure_models=[("link-failures", 2)], max_steps=1000,
        )
        rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(campaign.to_dict())))
        assert rebuilt.expand() == campaign.expand()

    def test_registries_cover_defaults(self):
        campaign = CampaignSpec(
            families=FAMILY_NAMES,
            algorithms=tuple(ALGORITHM_FACTORIES),
            schedulers=tuple(SCHEDULER_FACTORIES),
            sizes=(4,),
        )
        for spec in campaign.expand():
            spec.validate()


class TestStreamVersionInRunId:
    """A spec whose channels draw hashes the channel-stream version."""

    PARENT_SHARD = (
        Path(__file__).resolve().parent / "data" / "parent_store" / "shards"
        / "shard-00001.jsonl"
    )

    def test_synchronous_run_ids_are_unchanged(self):
        lines = self.PARENT_SHARD.read_text().splitlines()
        records = [json.loads(line.rsplit("\t", 1)[0]) for line in lines]
        assert records and all(r["delay_model"] is None for r in records)
        for record in records:
            assert ScenarioSpec.from_dict(record).run_id == record["run_id"]

    def test_async_and_dataplane_run_ids_change(self):
        # the run ids these golden-campaign specs had before the stream
        # version joined the identity
        churn = dict(size=9, failure_model="link-failures", failure_count=2)
        before = {
            "23b112e0e1daab6c": _spec(
                family="grid", topology_seed=6059224078317680019,
                scheduler_seed=6669024442409199897, delay_model="zero", **churn,
            ),
            "f11e3290474ad1ee": _spec(
                family="geometric", algorithm="fr", topology_seed=6557140556117260560,
                scheduler_seed=8680218182203202792, max_steps=160,
                delay_model="uniform", loss=0.1, traffic="bursty", **churn,
            ),
        }
        for run_id, spec in before.items():
            assert spec.run_id != run_id
