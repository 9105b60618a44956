"""Differential tests: the compiled synchronous engine vs the legacy oracle.

Every lane of a ``run_scenarios`` call on the ``kernel`` engine (lanes of
one batch key run as one lockstep group) must be **field-for-field
identical** to the legacy object oracle's record for the same fault-free
spec, and to the single-scenario (width-1) record of the same engine —
final orientation, work counters, round counts, convergence step counts and
churn bookkeeping — across every kernel algorithm × every registry
scheduler × every churn model, regardless of which other lanes shared the
group and in which order.  On top of the record contract these tests pin
the lockstep plumbing: lanes sharing one phase entry (crash-stop lanes
included), per-run timeout records, engine selection, the shared engine
cache, campaign interrupt+resume through the store, the mask-level
simulation chain, and the CLI/report surface.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.experiments.batch_engine import (
    _KERNEL_CACHE,
    kernel_cache_stats,
    reset_kernel_caches,
)
from repro.experiments.executor import _default_chunk_size, run_campaign
from repro.experiments.runner import (
    ENGINE_KERNEL,
    ENGINE_LEGACY,
    execute_scenario,
    run_scenarios,
)
from repro.experiments import resolve_engine
from repro.experiments.aggregate import count_by
from repro.experiments.engines import ENGINE_REGISTRY
from repro.experiments.spec import (
    ALGORITHM_FACTORIES,
    CampaignSpec,
    ScenarioSpec,
    derive_seed,
)
from repro.experiments.store import ENGINE_VOLATILE_FIELDS, OUTCOME_FIELDS, ResultStore
from repro.kernels.batch import BatchSimulator
from repro.kernels.signature import compile_expander
from repro.topology.generators import SEEDLESS_FAMILIES, build_family

KERNEL_ALGORITHMS = ("pr", "onestep-pr", "new-pr", "fr", "bll")
ALL_SCHEDULERS = ("greedy", "sequential", "random", "adversarial", "lazy", "round-robin")


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        family="random-dag", size=12, algorithm="pr", scheduler="greedy",
        topology_seed=derive_seed("batch-topo"), scheduler_seed=derive_seed("batch-sched"),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _stable(record):
    """Everything except the wall clock and the engine stamp must be identical."""
    return {k: v for k, v in record.items() if k not in ENGINE_VOLATILE_FIELDS}


def _assert_batch_matches_oracle(specs, batched=None) -> list:
    """Run the specs in one call (unless ``batched`` holds their records);
    pin each lane to the legacy oracle and to its single-scenario record."""
    if batched is None:
        batched = run_scenarios([s.to_dict() for s in specs])
    for spec, record in zip(specs, batched):
        assert record["engine"] == ENGINE_KERNEL
        legacy = execute_scenario(spec.to_dict(), engine=ENGINE_LEGACY)
        assert _stable(record) == _stable(legacy), spec.run_id
        kernel = execute_scenario(spec.to_dict(), engine=ENGINE_KERNEL)
        assert _stable(record) == _stable(kernel), spec.run_id
    return batched


class TestFieldForFieldEquality:
    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_plain_convergence(self, algorithm, scheduler):
        records = _assert_batch_matches_oracle([
            _spec(algorithm=algorithm, scheduler=scheduler, replicate=r,
                  scheduler_seed=derive_seed("batch-sched", r))
            for r in range(3)
        ])
        assert all(r["status"] == "ok" and r["converged"] for r in records)

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_link_failure_churn(self, algorithm, scheduler):
        # chain's links are all bridges, so its failures are all skipped;
        # adversarial and lazy read hop distances on the surviving links
        records = _assert_batch_matches_oracle([
            _spec(family=family, size=size, algorithm=algorithm,
                  scheduler=scheduler, failure_model="link-failures",
                  failure_count=3, topology_seed=derive_seed("batch-churn-topo", family),
                  scheduler_seed=derive_seed("batch-churn", family))
            for family, size in (
                ("chain", 8), ("grid", 16), ("random-dag", 12), ("geometric", 12),
            )
        ])
        chain, *meshed = records
        assert chain["partition_skips"] == 3 and not chain["failures_applied"]
        assert all(r["failures_applied"] >= 1 for r in meshed)

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_mobility_churn(self, algorithm, scheduler):
        records = _assert_batch_matches_oracle([
            _spec(family="geometric", size=12, algorithm=algorithm,
                  scheduler=scheduler, failure_model="mobility", failure_count=5,
                  replicate=r, topology_seed=derive_seed("batch-mob", r))
            for r in range(2)
        ])
        assert all(r["status"] == "ok" and r["failures_applied"] for r in records)

    def test_truncated_runs_match(self):
        _assert_batch_matches_oracle([
            _spec(family="chain", size=12, algorithm="fr",
                  failure_model="link-failures", failure_count=2, max_steps=2),
            _spec(family="chain", size=12, algorithm="fr",
                  failure_model="link-failures", failure_count=2, max_steps=2,
                  replicate=1, scheduler_seed=derive_seed("other")),
        ])

    def test_batch_agrees_with_legacy_oracle(self):
        # a lone lane: no other lane to share a group or an outcome with
        spec = _spec(family="tree", size=14, scheduler="random")
        batched = run_scenarios([spec.to_dict()])[0]
        legacy = execute_scenario(spec.to_dict(), engine=ENGINE_LEGACY)
        assert _stable(batched) == _stable(legacy)

    def test_mixed_batch_keys_in_one_call(self):
        # one call spanning several batch keys, sizes and families
        _assert_batch_matches_oracle([
            _spec(family=f, size=s, algorithm=a, scheduler=sc, replicate=r)
            for f, s in (("chain", 10), ("grid", 9), ("tree", 12))
            for a in ("pr", "fr")
            for sc in ("greedy", "lazy")
            for r in range(2)
        ])


class TestLaneIndependence:
    def test_lane_order_independence(self):
        specs = [
            _spec(family=f, size=10, algorithm=a, scheduler=sc, replicate=r,
                  scheduler_seed=derive_seed("order", r))
            for f in ("chain", "tree")
            for a in ("pr", "fr")
            for sc in ("greedy", "random")
            for r in range(3)
        ]
        straight = run_scenarios([s.to_dict() for s in specs])
        reversed_ = run_scenarios([s.to_dict() for s in reversed(specs)])
        for record, mirrored in zip(straight, reversed(reversed_)):
            assert _stable(record) == _stable(mirrored)

    def test_batching_is_deterministic(self):
        specs = [_spec(scheduler="random", replicate=r) for r in range(4)]
        first = run_scenarios([s.to_dict() for s in specs])
        second = run_scenarios([s.to_dict() for s in specs])
        assert [_stable(r) for r in first] == [_stable(r) for r in second]

    @staticmethod
    def _seedless_replicates():
        return [
            _spec(family="chain", size=18, topology_seed=derive_seed("t", r),
                  scheduler_seed=derive_seed("s", r), replicate=r)
            for r in range(8)
        ]

    @staticmethod
    def _lanes_added(specs, timeout_s=None):
        """The records of one call over cold caches, and the lanes it ran."""
        reset_kernel_caches()
        with mock.patch.object(
            BatchSimulator, "add_lane", autospec=True,
            side_effect=BatchSimulator.add_lane,
        ) as add_lane:
            records = run_scenarios([s.to_dict() for s in specs], timeout_s=timeout_s)
        return records, add_lane.call_count

    def test_seedless_family_lanes_share_one_outcome(self):
        # chain ignores its topology seed, and greedy ignores its scheduler
        # seed: every replicate meets the same phase entry, so one lane runs
        # and seven follow it — and every record still matches the oracle
        assert "chain" in SEEDLESS_FAMILIES
        specs = self._seedless_replicates()
        records, lanes = self._lanes_added(specs)
        assert lanes == 1
        _assert_batch_matches_oracle(specs, records)

    def test_deadlined_seedless_lanes_each_run(self):
        # deadlined runs neither read nor write phases: all eight run
        specs = self._seedless_replicates()
        records, lanes = self._lanes_added(specs, timeout_s=600)
        assert lanes == 8
        _assert_batch_matches_oracle(specs, records)

    def test_crash_stop_lanes_keep_their_topology_seed(self):
        # chain ignores its topology seed, but the crash-stopped nodes are
        # drawn from it: replicates must not share one leader's phase
        specs = [
            _spec(family="chain", size=12, node_faults=1, replicate=r,
                  topology_seed=derive_seed("faults", r))
            for r in range(8)
        ]
        batched = run_scenarios([s.to_dict() for s in specs])
        solo = []
        for spec in specs:
            reset_kernel_caches()  # no phase carries between the runs
            solo.append(execute_scenario(spec.to_dict(), engine=ENGINE_KERNEL))
        assert [_stable(r) for r in batched] == [_stable(r) for r in solo]
        outcomes = {tuple(r[k] for k in OUTCOME_FIELDS) for r in solo}
        assert len(outcomes) > 1

    def test_seedless_registry_is_accurate(self):
        for family in SEEDLESS_FAMILIES:
            a = build_family(family, 12, seed=1)
            b = build_family(family, 12, seed=2)
            assert a.nodes == b.nodes
            assert a.initial_edges == b.initial_edges


class TestTimeouts:
    def test_expired_deadline_matches_kernel_per_lane(self):
        specs = [
            _spec(family="chain", size=40, algorithm=a, scheduler=sc, replicate=r)
            for a in ("pr", "fr") for sc in ("greedy", "random") for r in range(2)
        ]
        batched = run_scenarios([s.to_dict() for s in specs], timeout_s=0.0)
        for spec, record in zip(specs, batched):
            kernel = execute_scenario(spec.to_dict(), timeout_s=0.0, engine=ENGINE_KERNEL)
            assert record["status"] == "timeout"
            assert _stable(record) == _stable(kernel)
            assert record["error"] == "deadline exceeded at step 0"

    def test_kernel_timeout_recorded(self):
        record = execute_scenario(
            _spec(family="chain", size=60), timeout_s=0.0, engine=ENGINE_KERNEL
        )
        assert record["status"] == "timeout"
        assert record["engine"] == ENGINE_KERNEL

    def test_timeout_keeps_partial_tallies(self):
        record = run_scenarios(
            [_spec(family="chain", size=40).to_dict()], timeout_s=0.0
        )[0]
        assert record["status"] == "timeout"
        assert record["node_steps"] >= 1  # the aborted step's work is kept
        assert record["steps_taken"] == 0  # but not counted as completed
        assert record["converged"] is False

    def test_mid_chunk_timeout_mixes_ok_and_timeout(self):
        # an already-converged lane retires before the deadline check fires,
        # so an expired budget still lets trivial lanes complete
        specs = [
            _spec(family="oriented-chain", size=10),  # starts converged
            _spec(family="chain", size=40),           # needs Θ(n²) work
        ]
        records = run_scenarios([s.to_dict() for s in specs], timeout_s=0.0)
        assert records[0]["status"] == "ok" and records[0]["converged"]
        assert records[1]["status"] == "timeout"


class TestEngineSelection:
    def test_auto_prefers_kernel(self):
        assert resolve_engine("auto", _spec()) == ENGINE_KERNEL

    def test_auto_runs_bll_on_the_kernel(self):
        # BLL from the all-unmarked labelling is OneStepPR: no synchronous
        # spec resolves to the legacy oracle any more
        assert resolve_engine("auto", _spec(algorithm="bll")) == ENGINE_KERNEL
        spec = _spec(algorithm="bll", size=8)
        record = execute_scenario(spec.to_dict())
        assert record["status"] == "ok"
        assert record["engine"] == ENGINE_KERNEL
        legacy = execute_scenario(spec.to_dict(), engine=ENGINE_LEGACY)
        assert _stable(record) == _stable(legacy)

    def test_auto_rejection_lists_every_engine_reason(self):
        spec = _spec(algorithm="onestep-pr", delay_model="uniform")
        with pytest.raises(ValueError) as rejected:
            resolve_engine("auto", spec)
        for engine in ENGINE_REGISTRY.values():
            reason = f"[{engine.name}] {engine.unsupported_reason(spec)}"
            # auto offers a scenario spec to the scenario engines only
            assert (reason in str(rejected.value)) == (engine.name != "check")

    def test_unknown_engine_is_an_error_record(self):
        record = execute_scenario(_spec().to_dict(), engine="warp-drive")
        assert record["status"] == "error"
        assert "unknown engine" in record["error"]

    def test_algorithm_has_kernel_registry(self):
        # every registered algorithm compiles from its default start, which
        # is what lets the kernel engine answer from the name alone
        instance = build_family("grid", 9, 0)
        kernel = ENGINE_REGISTRY[ENGINE_KERNEL]
        assert set(KERNEL_ALGORITHMS) == set(ALGORITHM_FACTORIES)
        for name, factory in ALGORITHM_FACTORIES.items():
            assert kernel.supports(_spec(algorithm=name))
            assert compile_expander(factory(instance)) is not None
        assert not kernel.supports(_spec(algorithm="no-such-algorithm"))


class TestUnsupportedLanes:
    def test_traffic_lane_is_an_error_record(self):
        records = run_scenarios([
            _spec(size=8).to_dict(),
            _spec(algorithm="bll", size=8, traffic="trickle").to_dict(),
        ], engine=ENGINE_KERNEL)
        assert records[0]["status"] == "ok"
        assert records[1]["status"] == "error"
        assert "moves no packets" in records[1]["error"]
        assert records[1]["engine"] is None

    def test_async_lane_is_an_error_record(self):
        record = run_scenarios([
            _spec(algorithm="fr", delay_model="uniform").to_dict()
        ], engine=ENGINE_KERNEL)[0]
        assert record["status"] == "error"
        assert "delay_model" in record["error"]

    def test_forced_kernel_engine_on_traffic_raises_in_resolution(self):
        with pytest.raises(ValueError, match="dataplane"):
            resolve_engine(ENGINE_KERNEL, _spec(algorithm="bll", traffic="trickle"))


class TestExecutorIntegration:
    def _campaign(self, replicates=3):
        return CampaignSpec(
            name="batch-diff",
            families=("chain", "tree"),
            sizes=(8, 10),
            algorithms=("pr", "fr"),
            schedulers=("greedy", "random"),
            replicates=replicates,
        )

    def test_campaign_records_match_legacy_engine(self, tmp_path):
        campaign = self._campaign()
        with ResultStore(tmp_path / "legacy") as store:
            run_campaign(campaign, store, workers=1, engine=ENGINE_LEGACY)
            legacy = {r["run_id"]: _stable(r) for r in store.records()}
        with ResultStore(tmp_path / "kernel") as store:
            report = run_campaign(campaign, store, workers=1, engine=ENGINE_KERNEL)
            kernel = {r["run_id"]: _stable(r) for r in store.records()}
        assert report.engines == {"kernel": report.executed}
        assert kernel == legacy

    def test_pooled_campaign_matches_inline(self, tmp_path):
        campaign = self._campaign(replicates=2)
        with ResultStore(tmp_path / "inline") as store:
            run_campaign(campaign, store, workers=1, engine=ENGINE_KERNEL)
            inline = {r["run_id"]: _stable(r) for r in store.records()}
        with ResultStore(tmp_path / "pooled") as store:
            report = run_campaign(campaign, store, workers=2, engine=ENGINE_KERNEL)
            pooled = {r["run_id"]: _stable(r) for r in store.records()}
        assert report.crashed == 0
        assert report.engines == {"kernel": report.executed}
        assert sum(report.kernel_cache.values()) > 0
        assert pooled == inline

    def test_interrupt_and_resume_through_the_store(self, tmp_path):
        campaign = self._campaign()
        specs = campaign.expand()
        half = [s.to_dict() for s in specs[: len(specs) // 2]]
        with ResultStore(tmp_path / "resume") as store:
            # simulate an interrupted sweep: half the records already stored
            store.append(run_scenarios(half))
            report = run_campaign(campaign, store, workers=1, engine=ENGINE_KERNEL)
            assert report.skipped == len(half)
            assert report.executed == len(specs) - len(half)
            resumed = {r["run_id"]: _stable(r) for r in store.records()}
        with ResultStore(tmp_path / "oneshot") as store:
            run_campaign(campaign, store, workers=1, engine=ENGINE_KERNEL)
            oneshot = {r["run_id"]: _stable(r) for r in store.records()}
        assert resumed == oneshot
        # and a second invocation is a no-op
        with ResultStore(tmp_path / "resume") as store:
            report = run_campaign(campaign, store, workers=1, engine=ENGINE_KERNEL)
            assert report.executed == 0

    def test_chunk_sizes_derive_from_workload(self):
        # sizing scales with the pending count instead of a cap
        assert _default_chunk_size(10_000, workers=4) == 313
        assert _default_chunk_size(10, workers=4) == 1
        assert _default_chunk_size(0, workers=4) == 1

    def test_campaign_report_sidecar_records_cache_stats(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            run_campaign(self._campaign(replicates=2), store, workers=1,
                         engine=ENGINE_KERNEL)
            sidecar = store.load_report()
        assert sidecar["engines"] == {"kernel": sidecar["executed"]}
        assert set(sidecar["kernel_cache"]) == set(kernel_cache_stats())


class TestBLLCampaignConformance:
    """BLL campaigns: the kernel against the legacy oracle, and old stores."""

    @staticmethod
    def _campaign() -> CampaignSpec:
        return CampaignSpec(
            name="bll-twin",
            families=("chain", "grid", "random-dag", "geometric"),
            algorithms=("bll",),
            schedulers=("greedy", "random", "adversarial"),
            sizes=(8, 12),
            base_seed=26,
            failure_models=[("none", 0), ("link-failures", 2), ("mobility", 3)],
        )

    @staticmethod
    def _records(store):
        return {r["run_id"]: r for r in store.records()}

    def test_churn_campaign_matches_its_legacy_twin(self, tmp_path):
        campaign = self._campaign()
        with ResultStore(tmp_path / "kernel") as store:
            report = run_campaign(campaign, store, workers=1)
            kernel = self._records(store)
        with ResultStore(tmp_path / "legacy") as store:
            run_campaign(campaign, store, workers=1, engine=ENGINE_LEGACY)
            legacy = self._records(store)
        assert report.engines == {"kernel": len(campaign.expand())} == {"kernel": 54}
        assert kernel.keys() == legacy.keys()
        for run_id, record in kernel.items():
            twin = legacy[run_id]
            assert [record[k] for k in OUTCOME_FIELDS] == [twin[k] for k in OUTCOME_FIELDS]
            differing = {k for k in record.keys() | twin.keys() if record.get(k) != twin.get(k)}
            assert differing <= {"engine", "wall_time_s"}, (run_id, differing)
        records = list(kernel.values())
        assert all(r["status"] == "ok" for r in records)
        assert sum(r["failures_applied"] for r in records) > 0
        assert sum(r["reorientations"] + r["partition_skips"] for r in records) > 0

    def test_a_store_of_legacy_bll_records_resumes_as_a_no_op(self, tmp_path):
        # before BLL had a kernel, ``auto`` ran it on the legacy oracle; such
        # a store is complete, its records already equal the kernel's, and
        # it stays clean
        from repro.cli import main

        def outcomes(store):
            return {
                run_id: [r[k] for k in OUTCOME_FIELDS]
                for run_id, r in self._records(store).items()
            }

        campaign = self._campaign()
        with ResultStore(tmp_path / "old") as store:
            run_campaign(campaign, store, workers=1, engine=ENGINE_LEGACY)
            before = outcomes(store)
            report = run_campaign(campaign, store, workers=1)
            assert report.executed == 0 and report.skipped == 54
            assert count_by(store.records(), "engine") == {"legacy": 54}
            assert outcomes(store) == before
        with ResultStore(tmp_path / "fresh") as store:
            run_campaign(campaign, store, workers=1)
            assert outcomes(store) == before
        assert main(["fsck", str(tmp_path / "old"), "--no-repair"]) == 0


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
            assert count_by(store.records(), "engine") == {"kernel": 16}
            assert len(store.records(engine="kernel")) == 16

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
                self._campaign(algorithms=("pr",), schedulers=("greedy",),
                               delay_models=(None, "fixed")),
                store, workers=1,
            )
            assert report.engines == {"kernel": 4, "async": 4}
            assert count_by(store.records(), "engine") == {"kernel": 4, "async": 4}


class TestSharedCache:
    def test_every_engine_reads_its_instance_from_the_one_cache(self):
        # the async and dataplane engines build no cache of their own: the
        # instance an async run builds is the one a kernel run then hits
        reset_kernel_caches()
        spec = _spec(family="grid", size=9, algorithm="fr")
        run_scenarios([_spec(family="grid", size=9, algorithm="fr",
                             delay_model="fixed").to_dict()])
        assert len(_KERNEL_CACHE._instances) == 1
        before = kernel_cache_stats()
        for raw in (spec.to_dict(),
                    _spec(family="grid", size=9, algorithm="fr",
                          traffic="trickle").to_dict()):
            assert run_scenarios([raw])[0]["status"] == "ok"
        after = kernel_cache_stats()
        assert after["instance_builds"] == before["instance_builds"]
        assert after["instance_hits"] - before["instance_hits"] == 2
        assert set(after) == {
            "instance_hits", "instance_builds", "kernel_hits", "kernel_compiles",
        }

    def test_batch_stats_surface_in_kernel_cache_stats(self):
        run_scenarios([_spec(size=8).to_dict()])
        stats = kernel_cache_stats()
        for name in ("instance_hits", "kernel_compiles"):
            assert name in stats


class TestMaskSimulationChainDifferential:
    @pytest.mark.parametrize("scheduler_seed", [3, 17])
    @pytest.mark.parametrize("subset_probability", [0.0, 0.5])
    def test_mask_chain_matches_object_chain(self, scheduler_seed, subset_probability):
        from repro.automata.executions import run
        from repro.core.pr import PartialReversal
        from repro.kernels import BatchSimulator, compile_expander
        from repro.kernels.schedulers import MaskRandomScheduler
        from repro.schedulers.random_scheduler import RandomScheduler
        from repro.topology.generators import grid_instance
        from repro.verification.simulation import (
            MaskSimulationChain,
            check_full_simulation_chain,
        )

        instance = grid_instance(4, 4, oriented_towards_destination=False)
        kernel = compile_expander(PartialReversal(instance))
        trace = []
        batch = BatchSimulator()
        batch.add_lane(
            kernel,
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
        from repro.kernels import BatchSimulator, compile_expander
        from repro.kernels.schedulers import MaskGreedyScheduler
        from repro.core.pr import PartialReversal
        from repro.topology.generators import worst_case_chain_instance
        from repro.verification.simulation import MaskSimulationChain

        instance = worst_case_chain_instance(6)
        kernel = compile_expander(PartialReversal(instance))
        trace = []
        batch = BatchSimulator()
        batch.add_lane(kernel, MaskGreedyScheduler(), trace=trace)
        batch.run()
        # duplicate the first action: its actors are no longer sinks there
        corrupted = [trace[0], trace[0]] + trace[1:]
        report = MaskSimulationChain(instance).check(corrupted)
        assert not report.r_prime_holds
        assert report.failures


class TestCli:
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

    def test_run_forced_kernel_on_async_spec_fails(self, capsys):
        from repro.cli import main

        assert main(["run", "--algorithm", "bll", "--engine", "kernel",
                     "--delay-model", "uniform"]) == 2
        assert "synchronous specs only" in capsys.readouterr().err

    def test_sweep_json_reports_engines_and_cache(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--families", "chain", "--algorithms", "pr,fr",
            "--sizes", "5,7", "--store", str(tmp_path / "s"), "--quiet", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"] == {"kernel": 4}
        assert "kernel_compiles" in payload["kernel_cache"]

    def test_sweep_engine_kernel_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--families", "chain", "--algorithms", "pr,fr",
            "--sizes", "5,7", "--replicates", "2", "--engine", "kernel",
            "--store", str(tmp_path / "s"), "--quiet", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engines"] == {"kernel": 8}
        assert set(payload["kernel_cache"]) == set(kernel_cache_stats())

    def test_kernel_sweep_store_matches_legacy_sweep_store(self, tmp_path, capsys):
        from repro.cli import main

        base = [
            "sweep", "--families", "chain,tree", "--algorithms", "pr",
            "--sizes", "6", "--replicates", "2", "--quiet",
        ]
        assert main(base + ["--engine", "kernel", "--store", str(tmp_path / "k")]) == 0
        assert main(base + ["--engine", "legacy", "--store", str(tmp_path / "l")]) == 0
        capsys.readouterr()
        with ResultStore(tmp_path / "k") as ks, ResultStore(tmp_path / "l") as ls:
            assert count_by(ls.records(), "engine") == {"legacy": 4}
            kernel = {r["run_id"]: _stable(r) for r in ks.records()}
            legacy = {r["run_id"]: _stable(r) for r in ls.records()}
        assert kernel == legacy

    def test_report_shows_last_sweep_engines(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--families", "chain", "--algorithms", "pr", "--sizes", "5",
            "--engine", "kernel", "--store", str(tmp_path / "s"), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(tmp_path / "s"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine_counts"] == {"kernel": 1}
        assert payload["last_campaign_report"]["engines"] == {"kernel": 1}
