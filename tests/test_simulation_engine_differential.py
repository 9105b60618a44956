"""Differential tests: kernel simulation engine vs the legacy object oracle.

The scenario runner's fast path executes entire campaigns on compiled int
kernels.  Its contract is *field-for-field equality* with the legacy object
path — final orientation signature, work counters, round counts, convergence
step counts, churn bookkeeping — across every kernel algorithm × every
registry scheduler × every failure model, for seeded (hence reproducible)
scenarios.  These tests pin that contract, plus the engine plumbing around
it (selection, stores, CLI).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import resolve_engine
from repro.experiments.executor import run_campaign
from repro.experiments.runner import (
    ENGINE_KERNEL,
    ENGINE_LEGACY,
    algorithm_has_kernel,
    execute_scenario,
)
from repro.experiments.spec import ScenarioSpec, derive_seed
from repro.experiments.spec import CampaignSpec
from repro.experiments.store import ResultStore

KERNEL_ALGORITHMS = ("pr", "onestep-pr", "new-pr", "fr")
ALL_SCHEDULERS = ("greedy", "sequential", "random", "adversarial", "lazy", "round-robin")

#: Everything except the wall clock and the engine stamp must be identical.
VOLATILE = ("wall_time_s", "engine")


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        family="random-dag", size=12, algorithm="pr", scheduler="greedy",
        topology_seed=derive_seed("diff-topo"), scheduler_seed=derive_seed("diff-sched"),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _stable(record):
    return {k: v for k, v in record.items() if k not in VOLATILE}


def _assert_engines_agree(spec: ScenarioSpec) -> dict:
    fast = execute_scenario(spec.to_dict(), engine=ENGINE_KERNEL)
    legacy = execute_scenario(spec.to_dict(), engine=ENGINE_LEGACY)
    assert fast["engine"] == ENGINE_KERNEL
    assert legacy["engine"] == ENGINE_LEGACY
    assert _stable(fast) == _stable(legacy)
    return fast


class TestFieldForFieldEquality:
    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_plain_convergence(self, algorithm, scheduler):
        record = _assert_engines_agree(_spec(algorithm=algorithm, scheduler=scheduler))
        assert record["status"] == "ok"
        assert record["converged"] is True
        assert record["destination_oriented"] is True

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("scheduler", ("greedy", "random", "adversarial"))
    def test_link_failure_churn(self, algorithm, scheduler):
        record = _assert_engines_agree(_spec(
            family="grid", size=16, algorithm=algorithm, scheduler=scheduler,
            failure_model="link-failures", failure_count=3,
        ))
        assert record["status"] == "ok"
        assert record["failures_applied"] >= 1

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("scheduler", ("greedy", "random"))
    def test_mobility_churn(self, algorithm, scheduler):
        record = _assert_engines_agree(_spec(
            family="geometric", size=12, algorithm=algorithm, scheduler=scheduler,
            failure_model="mobility", failure_count=5,
        ))
        assert record["status"] == "ok"

    def test_truncated_run_matches(self):
        record = _assert_engines_agree(_spec(
            family="chain", size=12, algorithm="fr", failure_model="link-failures",
            failure_count=2, max_steps=2,
        ))
        assert record["converged"] is False

    def test_kernel_engine_is_deterministic(self):
        spec = _spec(scheduler="random").to_dict()
        first = execute_scenario(dict(spec), engine=ENGINE_KERNEL)
        second = execute_scenario(dict(spec), engine=ENGINE_KERNEL)
        assert _stable(first) == _stable(second)

    def test_kernel_timeout_recorded(self):
        record = execute_scenario(
            _spec(family="chain", size=60), timeout_s=0.0, engine=ENGINE_KERNEL
        )
        assert record["status"] == "timeout"
        assert record["engine"] == ENGINE_KERNEL


class TestEngineSelection:
    def test_auto_prefers_kernel(self):
        assert resolve_engine("auto", _spec()) == ENGINE_KERNEL

    def test_auto_falls_back_for_bll(self):
        assert resolve_engine("auto", _spec(algorithm="bll")) == ENGINE_LEGACY
        record = execute_scenario(_spec(algorithm="bll", size=8).to_dict())
        assert record["status"] == "ok"
        assert record["engine"] == ENGINE_LEGACY

    def test_forced_kernel_on_bll_is_an_error_record(self):
        record = execute_scenario(_spec(algorithm="bll").to_dict(), engine=ENGINE_KERNEL)
        assert record["status"] == "error"
        assert "kernel" in record["error"]
        assert record["engine"] is None

    def test_unknown_engine_is_an_error_record(self):
        record = execute_scenario(_spec().to_dict(), engine="warp-drive")
        assert record["status"] == "error"
        assert "unknown engine" in record["error"]

    def test_algorithm_has_kernel_registry(self):
        for name in KERNEL_ALGORITHMS:
            assert algorithm_has_kernel(name)
        assert not algorithm_has_kernel("bll")
        assert not algorithm_has_kernel("no-such-algorithm")


class TestCampaignEnginePlumbing:
    def _campaign(self, **overrides) -> CampaignSpec:
        base = dict(
            name="diff", families=("chain", "random-dag"), algorithms=("pr", "fr"),
            schedulers=("greedy", "random"), sizes=(5, 9), replicates=1,
        )
        base.update(overrides)
        return CampaignSpec(**base)

    def test_engines_and_cache_stats_reported(self, tmp_path):
        with ResultStore(tmp_path) as store:
            report = run_campaign(self._campaign(), store, workers=1)
            payload = report.to_dict()
            assert payload["engines"] == {"kernel": 16}
            assert payload["kernel_cache"]["kernel_compiles"] >= 1
            assert payload["kernel_cache"]["kernel_hits"] >= 1
            assert store.engine_counts() == {"kernel": 16}
            assert len(store.records(engine="kernel")) == 16

    def test_legacy_engine_forced_campaign_matches_kernel_campaign(self, tmp_path):
        kernel_store = ResultStore(tmp_path / "kernel")
        legacy_store = ResultStore(tmp_path / "legacy")
        campaign = self._campaign()
        run_campaign(campaign, kernel_store, workers=1, engine=ENGINE_KERNEL)
        report = run_campaign(campaign, legacy_store, workers=1, engine=ENGINE_LEGACY)
        assert report.engines == {"legacy": 16}
        kernel_records = {r["run_id"]: _stable(r) for r in kernel_store.records()}
        legacy_records = {r["run_id"]: _stable(r) for r in legacy_store.records()}
        assert kernel_records == legacy_records

    def test_inline_crash_sentinel_does_not_kill_the_parent(self, tmp_path):
        # workers<=1 executes in-process: the crash sentinel must become an
        # error record, not an os._exit of the calling process
        from repro.experiments.spec import CRASH_SENTINEL

        with ResultStore(tmp_path) as store:
            report = run_campaign(
                self._campaign(algorithms=("pr", CRASH_SENTINEL), schedulers=("greedy",),
                               families=("chain",), sizes=(5,)),
                store, workers=1,
            )
            assert report.ok == 1
            assert report.errors == 1
            assert store.records(algorithm=CRASH_SENTINEL)[0]["status"] == "error"

    def test_mixed_campaign_counts_both_engines(self, tmp_path):
        with ResultStore(tmp_path) as store:
            report = run_campaign(
                self._campaign(algorithms=("pr", "bll"), schedulers=("greedy",)),
                store, workers=1,
            )
            assert report.engines == {"kernel": 4, "legacy": 4}
            assert store.engine_counts() == {"kernel": 4, "legacy": 4}

    def test_pooled_engine_plumbing_matches_inline(self, tmp_path):
        inline_store = ResultStore(tmp_path / "inline")
        pooled_store = ResultStore(tmp_path / "pooled")
        campaign = self._campaign()
        run_campaign(campaign, inline_store, workers=1)
        report = run_campaign(campaign, pooled_store, workers=2, chunk_size=3)
        assert report.engines == {"kernel": 16}
        assert sum(report.kernel_cache.values()) > 0
        inline_records = {r["run_id"]: _stable(r) for r in inline_store.records()}
        pooled_records = {r["run_id"]: _stable(r) for r in pooled_store.records()}
        assert inline_records == pooled_records


class TestMaskSimulationChainDifferential:
    @pytest.mark.parametrize("scheduler_seed", [3, 17])
    @pytest.mark.parametrize("subset_probability", [0.0, 0.5])
    def test_mask_chain_matches_object_chain(self, scheduler_seed, subset_probability):
        from repro.automata.executions import run
        from repro.core.pr import PartialReversal
        from repro.kernels import BatchSimulator, SignatureSimulator, compile_expander
        from repro.kernels.schedulers import MaskRandomScheduler
        from repro.schedulers.random_scheduler import RandomScheduler
        from repro.topology.generators import grid_instance
        from repro.verification.simulation import (
            MaskSimulationChain,
            check_full_simulation_chain,
        )

        instance = grid_instance(4, 4, oriented_towards_destination=False)
        simulator = SignatureSimulator(compile_expander(PartialReversal(instance)))
        trace = []
        batch = BatchSimulator()
        batch.add_lane(
            simulator,
            MaskRandomScheduler(seed=scheduler_seed, subset_probability=subset_probability),
            trace=trace,
        )
        (outcome,) = batch.run()
        fast = MaskSimulationChain(instance).check(trace)

        result = run(
            PartialReversal(instance),
            RandomScheduler(seed=scheduler_seed, subset_probability=subset_probability),
        )
        oracle = check_full_simulation_chain(result.execution)
        assert outcome.steps == result.steps_taken
        assert fast.holds == oracle.holds
        assert fast.r_prime_holds == oracle.r_prime.holds
        assert fast.r_holds == oracle.r.holds
        assert fast.r_prime_points == oracle.r_prime.correspondence_points
        assert fast.r_points == oracle.r.correspondence_points
        assert fast.onestep_steps == oracle.r_prime.corresponding_execution.length
        assert fast.newpr_steps == oracle.r.corresponding_execution.length

    def test_mask_chain_flags_a_corrupted_trace(self):
        from repro.kernels import BatchSimulator, SignatureSimulator, compile_expander
        from repro.kernels.schedulers import MaskGreedyScheduler
        from repro.core.pr import PartialReversal
        from repro.topology.generators import worst_case_chain_instance
        from repro.verification.simulation import MaskSimulationChain

        instance = worst_case_chain_instance(6)
        simulator = SignatureSimulator(compile_expander(PartialReversal(instance)))
        trace = []
        batch = BatchSimulator()
        batch.add_lane(simulator, MaskGreedyScheduler(), trace=trace)
        batch.run()
        # duplicate the first action: its actors are no longer sinks there
        corrupted = [trace[0], trace[0]] + trace[1:]
        report = MaskSimulationChain(instance).check(corrupted)
        assert not report.r_prime_holds
        assert report.failures


class TestCliEngine:
    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("scheduler", ["random", "adversarial", "round-robin"])
    def test_run_engine_flag_outputs_match(self, capsys, algorithm, scheduler):
        from repro.cli import main

        base = ["run", "--topology", "grid", "--nodes", "9", "--algorithm", algorithm,
                "--scheduler", scheduler, "--json"]
        assert main(["--seed", "5"] + base + ["--engine", "kernel"]) == 0
        fast = json.loads(capsys.readouterr().out)
        assert main(["--seed", "5"] + base + ["--engine", "legacy"]) == 0
        legacy = json.loads(capsys.readouterr().out)
        assert fast.pop("engine") == "kernel"
        assert legacy.pop("engine") == "legacy"
        assert fast == legacy

    def test_run_forced_kernel_on_bll_fails(self, capsys):
        from repro.cli import main

        assert main(["run", "--algorithm", "bll", "--engine", "kernel"]) == 2
        assert "no signature kernel" in capsys.readouterr().err

    def test_sweep_json_reports_engines_and_cache(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--families", "chain", "--algorithms", "pr,fr",
            "--sizes", "5,7", "--store", str(tmp_path / "s"), "--quiet", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"] == {"kernel": 4}
        assert "kernel_compiles" in payload["kernel_cache"]

    def test_sweep_engine_legacy_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--families", "chain", "--algorithms", "pr",
            "--sizes", "5", "--engine", "legacy",
            "--store", str(tmp_path / "s"), "--quiet", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"] == {"legacy": 1}

    def test_report_includes_engine_counts(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--families", "chain", "--algorithms", "pr",
            "--sizes", "5", "--store", str(tmp_path / "s"), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(tmp_path / "s"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine_counts"] == {"kernel": 1}
