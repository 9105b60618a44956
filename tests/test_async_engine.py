"""The async campaign engine, the engine registry and the async plumbing.

Three layers under test:

* **registry** — engines are peers: ``auto`` routes delay-model specs to the
  async engine and synchronous specs to kernel/legacy; explicit mismatches
  raise with actionable messages.
* **differential** — an async run with zero delay, zero loss and sequential
  (FIFO) delivery must agree with the kernel/legacy engines field-for-field
  on convergence outcome and final orientation (the engines model the same
  algorithm, so the confluent final state is engine-independent).
* **plumbing** — spec validation and run_id stability, campaign
  cross-product expansion, the store's async columns, campaign
  interrupt+resume, CLI sweep, and the aggregate summary.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.graph import mask_directed_edges
from repro.distributed.fast_network import FastAsyncNetwork
from repro.distributed.network import DELAY_MODELS
from repro.distributed.protocol import ReversalMode
from repro.experiments import resolve_engine
from repro.experiments.async_engine import ASYNC_MODES, AsyncEngine
from repro.experiments.check_engine import ENGINE_CHECK
from repro.experiments.engines import (
    ENGINE_REGISTRY,
    engine_names,
    get_engine,
    register_engine,
)
from repro.experiments.executor import run_campaign
from repro.experiments.runner import (
    ENGINE_ASYNC,
    ENGINE_CHOICES,
    ENGINE_DATAPLANE,
    ENGINE_KERNEL,
    ENGINE_LEGACY,
    execute_scenario,
)
from repro.experiments.spec import (
    DELAY_MODEL_NAMES,
    CampaignSpec,
    CheckSpec,
    ScenarioSpec,
    derive_seed,
)
from repro.experiments.store import ResultStore
from repro.kernels import BatchSimulator, compile_expander, make_mask_scheduler
from repro.experiments.spec import ALGORITHM_FACTORIES
from repro.topology.generators import build_family


def _spec(**overrides):
    base = dict(
        family="grid",
        size=12,
        algorithm="pr",
        scheduler="greedy",
        topology_seed=derive_seed(0, "topology", "grid", 12, 0),
        scheduler_seed=derive_seed(0, "scheduler", "grid", 12, 0, "pr", "greedy"),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestRegistry:
    def test_registry_names(self):
        assert set(ENGINE_REGISTRY) == {
            ENGINE_KERNEL, ENGINE_LEGACY, ENGINE_ASYNC, ENGINE_DATAPLANE, ENGINE_CHECK,
        }
        assert engine_names() == (
            "auto", ENGINE_KERNEL, ENGINE_LEGACY, ENGINE_ASYNC, ENGINE_DATAPLANE,
            ENGINE_CHECK,
        )
        assert ENGINE_CHOICES == engine_names()

    def test_auto_routes_by_spec_content(self):
        assert resolve_engine("auto", _spec()) == ENGINE_KERNEL
        assert resolve_engine("auto", _spec(algorithm="bll")) == ENGINE_KERNEL
        assert resolve_engine("auto", _spec(delay_model="uniform")) == ENGINE_ASYNC
        assert resolve_engine("auto", CheckSpec()) == ENGINE_CHECK
        with pytest.raises(ValueError, match="CheckSpec"):
            resolve_engine(ENGINE_CHECK, _spec())

    def test_explicit_engine_must_support_the_spec(self):
        with pytest.raises(ValueError, match="async"):
            resolve_engine(ENGINE_KERNEL, _spec(delay_model="zero"))
        with pytest.raises(ValueError, match="async"):
            resolve_engine(ENGINE_LEGACY, _spec(delay_model="zero"))
        with pytest.raises(ValueError, match="delay_model"):
            resolve_engine(ENGINE_ASYNC, _spec())
        with pytest.raises(ValueError, match="bll"):
            resolve_engine(ENGINE_ASYNC, _spec(algorithm="bll", delay_model="zero"))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("warp-drive", _spec())
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("warp-drive")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine(AsyncEngine())

    def test_async_supports_table(self):
        engine = get_engine(ENGINE_ASYNC)
        assert engine.supports(_spec(algorithm="fr", delay_model="fixed"))
        assert not engine.supports(_spec(algorithm="new-pr", delay_model="fixed"))
        assert not engine.supports(_spec())
        assert not engine.supports(
            _spec(family="geometric", delay_model="fixed",
                  failure_model="mobility", failure_count=1)
        )


class TestSpecValidation:
    def test_delay_model_names_match_the_network_table(self):
        assert set(DELAY_MODEL_NAMES) == set(DELAY_MODELS)

    def test_unknown_delay_model_rejected(self):
        with pytest.raises(ValueError, match="delay model"):
            _spec(delay_model="warp").validate()

    def test_loss_requires_a_delay_model(self):
        with pytest.raises(ValueError, match="loss"):
            _spec(loss=0.1).validate()

    def test_loss_range_checked(self):
        with pytest.raises(ValueError, match="loss"):
            _spec(delay_model="zero", loss=1.0).validate()

    def test_async_mobility_rejected(self):
        with pytest.raises(ValueError, match="mobility"):
            _spec(family="geometric", delay_model="zero",
                  failure_model="mobility", failure_count=1).validate()

    def test_valid_async_spec_passes(self):
        _spec(delay_model="fifo", loss=0.3,
              failure_model="link-failures", failure_count=2).validate()

    def test_sync_run_id_unchanged_by_the_async_fields(self):
        """Pre-async stores must keep resuming: old identities hash identically."""
        spec = _spec()
        legacy_identity = {
            "family": spec.family,
            "size": spec.size,
            "algorithm": spec.algorithm,
            "scheduler": spec.scheduler,
            "topology_seed": spec.topology_seed,
            "scheduler_seed": spec.scheduler_seed,
            "replicate": spec.replicate,
            "failure_model": spec.failure_model,
            "failure_count": spec.failure_count,
            "max_steps": spec.max_steps,
        }
        blob = json.dumps(legacy_identity, sort_keys=True, separators=(",", ":"))
        assert spec.run_id == hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]

    def test_async_axes_change_the_run_id(self):
        assert _spec().run_id != _spec(delay_model="zero").run_id
        assert _spec(delay_model="zero").run_id != _spec(delay_model="fixed").run_id
        assert (
            _spec(delay_model="zero").run_id
            != _spec(delay_model="zero", loss=0.1).run_id
        )

    def test_to_dict_round_trips_the_async_fields(self):
        spec = _spec(delay_model="uniform", loss=0.25)
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.run_id == spec.run_id


class TestCampaignExpansion:
    def test_delay_and_loss_axes_cross_product(self):
        campaign = CampaignSpec(
            families=("chain",), algorithms=("pr", "fr"), sizes=(6,),
            delay_models=("zero", "uniform"), losses=(0.0, 0.2),
        )
        runs = campaign.expand()
        assert campaign.run_count == len(runs) == 2 * 2 * 2
        assert {(r.delay_model, r.loss) for r in runs} == {
            ("zero", 0.0), ("zero", 0.2), ("uniform", 0.0), ("uniform", 0.2),
        }

    def test_sync_cells_skip_lossy_combinations(self):
        campaign = CampaignSpec(
            families=("chain",), algorithms=("pr",), sizes=(6,),
            delay_models=(None, "fixed"), losses=(0.0, 0.2),
        )
        runs = campaign.expand()
        assert campaign.run_count == len(runs) == 3  # (None,0), (fixed,0), (fixed,.2)
        assert (None, 0.2) not in {(r.delay_model, r.loss) for r in runs}

    def test_async_cells_skip_mobility(self):
        campaign = CampaignSpec(
            families=("geometric",), algorithms=("pr",), sizes=(8,),
            failure_models=[("mobility", 2)], delay_models=(None, "fixed"),
        )
        runs = campaign.expand()
        assert campaign.run_count == len(runs) == 1
        assert runs[0].delay_model is None

    def test_campaign_dict_round_trip(self):
        campaign = CampaignSpec(
            delay_models=("zero", None), losses=(0.0, 0.1),
        )
        rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(campaign.to_dict())))
        assert rebuilt.delay_models == campaign.delay_models
        assert rebuilt.losses == campaign.losses
        assert [s.run_id for s in rebuilt.expand()] == [
            s.run_id for s in campaign.expand()
        ]


def _kernel_final_edges(spec):
    instance = build_family(spec.family, spec.size, spec.topology_seed)
    automaton = ALGORITHM_FACTORIES[spec.algorithm](instance)
    kernel = compile_expander(automaton)
    batch = BatchSimulator()
    batch.add_lane(kernel, make_mask_scheduler(spec.scheduler, spec.scheduler_seed))
    (outcome,) = batch.run()
    mask = kernel.orientation_mask(outcome.signature)
    return set(mask_directed_edges(instance, mask)), instance


class TestAsyncVsKernelDifferential:
    """Zero delay + zero loss + sequential delivery matches the sync engines."""

    @pytest.mark.parametrize("family,size", [
        ("chain", 10), ("grid", 16), ("random-dag", 16), ("tree", 12),
    ])
    @pytest.mark.parametrize("algorithm", sorted(ASYNC_MODES))
    def test_convergence_outcome_matches_kernel_and_legacy(self, family, size, algorithm):
        seeds = dict(
            topology_seed=derive_seed(3, "topology", family, size, 0),
            scheduler_seed=derive_seed(3, "scheduler", family, size, 0, algorithm, "greedy"),
        )
        sync_spec = _spec(family=family, size=size, algorithm=algorithm, **seeds)
        async_spec = _spec(
            family=family, size=size, algorithm=algorithm,
            delay_model="zero", **seeds,
        )
        kernel = execute_scenario(sync_spec, engine=ENGINE_KERNEL)
        legacy = execute_scenario(sync_spec, engine=ENGINE_LEGACY)
        async_record = execute_scenario(async_spec, engine=ENGINE_ASYNC)
        for record in (kernel, legacy, async_record):
            assert record["status"] == "ok"
        for field in ("converged", "destination_oriented", "acyclic_final",
                      "nodes", "edges", "bad_nodes"):
            assert async_record[field] == kernel[field] == legacy[field], field

    @pytest.mark.parametrize("algorithm", sorted(ASYNC_MODES))
    def test_final_orientation_matches_the_kernel_engine(self, algorithm):
        spec = _spec(algorithm=algorithm, delay_model="zero")
        kernel_edges, instance = _kernel_final_edges(spec)
        network = FastAsyncNetwork(
            instance,
            mode=ASYNC_MODES[algorithm],
            min_delay=0.0,
            max_delay=0.0,
            seed=derive_seed(spec.topology_seed, "async-channels"),
        )
        network.run_to_quiescence()
        assert set(network.global_directed_edges()) == kernel_edges

    def test_auto_uses_async_and_records_message_stats(self):
        record = execute_scenario(_spec(delay_model="uniform", loss=0.1))
        assert record["engine"] == ENGINE_ASYNC
        assert record["status"] == "ok"
        assert record["messages_sent"] > record["messages_delivered"] > 0
        assert record["messages_lost"] == record["messages_sent"] - record["messages_delivered"]
        assert record["simulated_time"] > 0
        assert record["events_dispatched"] > 0
        assert record["acyclic_final"] is True

    def test_async_churn_records_failures(self):
        record = execute_scenario(
            _spec(delay_model="fixed", failure_model="link-failures", failure_count=3)
        )
        assert record["status"] == "ok"
        assert record["failures_applied"] + record["partition_skips"] == 3
        assert record["converged"] is True
        assert record["destination_oriented"] is True

    def test_async_timeout_is_recorded_with_partial_work(self):
        record = execute_scenario(
            _spec(size=30, delay_model="uniform"), timeout_s=0.0
        )
        assert record["status"] == "timeout"
        assert record["engine"] == ENGINE_ASYNC
        assert record["events_dispatched"] >= 1

    def test_paired_channels_across_algorithms(self):
        """pr and fr of one replicate derive the same channel seed base."""
        pr = _spec(algorithm="pr", delay_model="uniform")
        fr = _spec(algorithm="fr", delay_model="uniform")
        assert derive_seed(pr.topology_seed, "async-channels") == derive_seed(
            fr.topology_seed, "async-channels"
        )


class TestAsyncCampaigns:
    def _campaign(self):
        return CampaignSpec(
            name="async-test",
            families=("chain", "grid"),
            algorithms=("pr", "fr"),
            schedulers=("greedy",),
            sizes=(6,),
            replicates=1,
            delay_models=("zero", "uniform"),
            losses=(0.0, 0.2),
            failure_models=[("link-failures", 1)],
        )

    def test_campaign_runs_and_store_indexes_async_columns(self, tmp_path):
        campaign = self._campaign()
        store = ResultStore(tmp_path / "store")
        report = run_campaign(campaign, store, workers=1)
        assert report.executed == campaign.run_count == 16
        assert report.engines == {"async": 16}
        assert report.ok == 16
        # the async fields are filterable
        zero_rows = store.records(delay_model="zero")
        assert len(zero_rows) == 8
        assert all(row["messages_sent"] > 0 for row in zero_rows)
        assert all(row["simulated_time"] is not None for row in zero_rows)
        lossy = store.records(delay_model="uniform", status="ok")
        assert any(row["messages_lost"] > 0 for row in lossy)

    def test_interrupt_and_resume(self, tmp_path):
        """A half-written store resumes exactly the missing runs."""
        campaign = self._campaign()
        store = ResultStore(tmp_path / "store")
        runs = campaign.expand()
        half = [execute_scenario(spec) for spec in runs[: len(runs) // 2]]
        store.append(half)  # simulate a campaign killed mid-flight
        report = run_campaign(campaign, store, workers=1)
        assert report.skipped == len(half)
        assert report.executed == len(runs) - len(half)
        again = run_campaign(campaign, store, workers=1)
        assert again.executed == 0
        assert again.skipped == len(runs)

    def test_mixed_engine_campaign(self, tmp_path):
        campaign = CampaignSpec(
            name="mixed",
            families=("chain",),
            algorithms=("pr",),
            sizes=(6,),
            delay_models=(None, "fixed"),
        )
        store = ResultStore(tmp_path / "store")
        report = run_campaign(campaign, store, workers=1)
        assert report.engines == {"kernel": 1, "async": 1}

    def test_aggregate_async_summary(self, tmp_path):
        from repro.experiments.aggregate import async_summary, build_report

        campaign = self._campaign()
        store = ResultStore(tmp_path / "store")
        run_campaign(campaign, store, workers=1)
        summary = async_summary(store.records(status="ok"))
        assert summary["runs"] == 16
        assert set(summary["by_delay_model"]) == {"zero", "uniform"}
        assert summary["by_delay_model"]["zero"]["mean_messages"] > 0
        report = build_report(store)
        assert report["async"]["runs"] == 16


class TestAsyncSweepCli:
    def test_sweep_engine_async_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        args = [
            "sweep", "--name", "cli-async", "--engine", "async",
            "--families", "chain", "--algorithms", "pr,fr", "--sizes", "5,7",
            "--delay-models", "zero,fifo", "--losses", "0,0.1",
            "--failure-model", "link-failures", "--failure-count", "1",
            "--store", store, "--quiet", "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"] == {"async": 16}
        assert payload["ok"] == 16
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed"] == 0
        assert payload["skipped"] == payload["total"] == 16

    def test_sweep_defaults_delay_model_for_async_engine(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "sweep", "--engine", "async", "--families", "chain",
            "--algorithms", "pr", "--sizes", "5",
            "--store", str(tmp_path / "store"), "--quiet", "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"] == {"async": 1}

    def test_run_async_engine(self, capsys):
        from repro.cli import main

        code = main(["run", "--topology", "grid", "--nodes", "16",
                     "--delay-model", "fixed", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["engine"] == "async"
        assert payload["destination_oriented"] is True
        assert payload["messages_sent"] == payload["messages_delivered"] > 0


class TestNetworkReportSerialization:
    def test_round_trip(self):
        from repro.io.serialization import (
            network_report_from_dict,
            network_report_to_dict,
        )

        instance = build_family("chain", 8, 0)
        report = FastAsyncNetwork(instance, seed=3).run_to_quiescence()
        data = json.loads(json.dumps(network_report_to_dict(report)))
        assert network_report_from_dict(data) == report

    def test_missing_field_rejected(self):
        from repro.io.serialization import SerializationError, network_report_from_dict

        with pytest.raises(SerializationError, match="missing"):
            network_report_from_dict({"simulated_time": 1.0})

    def test_wrong_type_rejected(self):
        from repro.io.serialization import (
            SerializationError,
            network_report_from_dict,
            network_report_to_dict,
        )

        instance = build_family("chain", 6, 0)
        data = network_report_to_dict(FastAsyncNetwork(instance, seed=1).run_to_quiescence())
        data["messages_sent"] = "many"
        with pytest.raises(SerializationError, match="messages_sent"):
            network_report_from_dict(data)

    def test_int_accepted_for_float_fields(self):
        from repro.io.serialization import network_report_from_dict, network_report_to_dict

        instance = build_family("chain", 6, 0)
        data = network_report_to_dict(FastAsyncNetwork(instance, seed=1).run_to_quiescence())
        data["simulated_time"] = 7  # JSON may narrow whole floats
        assert network_report_from_dict(data).simulated_time == 7.0
