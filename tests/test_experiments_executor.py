"""Tests for the scenario runner and the sharded campaign executor."""

from __future__ import annotations

from unittest import mock

import pytest

from repro import telemetry
from repro.experiments import batch_engine
from repro.experiments.batch_engine import reset_kernel_caches
from repro.experiments.executor import CRASH_SENTINEL, run_campaign
from repro.experiments.runner import execute_scenario, run_scenarios
from repro.experiments.spec import CampaignSpec, ScenarioSpec, derive_seed
from repro.experiments.store import ResultStore


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        family="chain", size=6, algorithm="pr", scheduler="greedy",
        topology_seed=derive_seed("t"), scheduler_seed=derive_seed("s"),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestExecuteScenario:
    def test_basic_run_record(self):
        record = execute_scenario(_spec())
        assert record["status"] == "ok"
        assert record["node_steps"] > 0
        assert record["converged"] is True
        assert record["destination_oriented"] is True
        assert record["acyclic_final"] is True
        assert record["rounds"] >= 1
        assert record["nodes"] == 6
        assert record["run_id"] == _spec().run_id

    def test_deterministic_given_spec(self):
        spec = _spec(family="random-dag", size=12, scheduler="random").to_dict()
        first = execute_scenario(dict(spec))
        second = execute_scenario(dict(spec))
        volatile = ("wall_time_s",)
        assert {k: v for k, v in first.items() if k not in volatile} == {
            k: v for k, v in second.items() if k not in volatile
        }

    def test_invalid_spec_is_error_record_not_exception(self):
        record = execute_scenario(dict(_spec().to_dict(), algorithm="nope"))
        assert record["status"] == "error"
        assert "nope" in record["error"]

    def test_timeout_recorded(self):
        record = execute_scenario(_spec(family="chain", size=60), timeout_s=0.0)
        assert record["status"] == "timeout"

    def test_link_failures_applied_on_robust_topology(self):
        record = execute_scenario(
            _spec(family="grid", size=16, failure_model="link-failures", failure_count=3)
        )
        assert record["status"] == "ok"
        assert record["failures_applied"] + record["partition_skips"] == 3
        assert record["failures_applied"] >= 1
        assert record["acyclic_final"] is True
        assert record["destination_oriented"] is True

    def test_link_failures_on_chain_all_skipped(self):
        # removing any chain link partitions the graph, so every failure is skipped
        record = execute_scenario(
            _spec(failure_model="link-failures", failure_count=2)
        )
        assert record["status"] == "ok"
        assert record["failures_applied"] == 0
        assert record["partition_skips"] == 2

    def test_truncated_churn_run_not_marked_converged(self):
        # the initial convergence hits max_steps, so even though every
        # injected failure is partition-skipped the record must say
        # converged=False (regression: churn phases used to reset the flag)
        record = execute_scenario(_spec(
            family="chain", size=12, algorithm="fr",
            failure_model="link-failures", failure_count=3, max_steps=2,
        ))
        assert record["status"] == "ok"
        assert record["converged"] is False
        assert record["destination_oriented"] is False

    def test_mobility_churn(self):
        record = execute_scenario(
            _spec(family="geometric", size=12, failure_model="mobility", failure_count=5)
        )
        assert record["status"] == "ok"
        assert record["failures_applied"] + record["partition_skips"] <= 5
        assert record["acyclic_final"] is True

    @pytest.mark.parametrize("algorithm", ["pr", "onestep-pr", "new-pr", "fr", "bll"])
    def test_every_algorithm_executes(self, algorithm):
        record = execute_scenario(_spec(algorithm=algorithm, family="random-dag", size=8))
        assert record["status"] == "ok"
        assert record["destination_oriented"] is True


def _stable(record):
    return {k: v for k, v in record.items() if k != "wall_time_s"}


class TestRunScenarios:
    """The one dispatch: lockstep groups, input order and the group fallback."""

    @staticmethod
    def _lanes(count=4):
        # one batch key; the random scheduler and distinct seeds keep every
        # lane's outcome its own
        return [
            _spec(family="random-dag", size=10, scheduler="random", replicate=r,
                  scheduler_seed=derive_seed("lane", r)).to_dict()
            for r in range(count)
        ]

    @pytest.mark.parametrize("timeout_s,widths", [(None, [4]), (600, [1, 1, 1, 1])])
    def test_kernel_lanes_of_one_batch_key_form_one_group(self, timeout_s, widths):
        with mock.patch.object(
            batch_engine, "_execute_group", wraps=batch_engine._execute_group
        ) as group:
            records = run_scenarios(self._lanes(), timeout_s=timeout_s)
        assert [len(call.args[0]) for call in group.call_args_list] == widths
        assert all(r["status"] == "ok" and r["engine"] == "kernel" for r in records)
        if timeout_s is None:
            # a lane's wall time is its group's, split evenly
            assert len({r["wall_time_s"] for r in records}) == 1

    def test_telemetry_counts_each_lane_once(self):
        with telemetry.session() as (registry, _):
            run_scenarios(self._lanes() + [dict(self._lanes(1)[0], algorithm="nope")])
        snapshot = registry.snapshot()
        assert snapshot["counters"]["scenarios.kernel"] == 4
        assert snapshot["counters"]["scenarios.none"] == 1
        assert snapshot["counters"]["scenario_status.ok"] == 4
        assert snapshot["counters"]["scenario_status.error"] == 1
        assert snapshot["histograms"]["scenario_wall_s.kernel"]["count"] == 4

    def test_mixed_chunk_keeps_input_order_and_solo_records(self):
        grid = dict(family="grid", size=9)
        raws = [
            _spec(**grid, algorithm="fr").to_dict(),                           # kernel
            _spec(algorithm="bll").to_dict(),                                  # legacy
            _spec(**grid, algorithm="pr", delay_model="fixed").to_dict(),      # async
            _spec(**grid, algorithm="fr", traffic="trickle").to_dict(),        # dataplane
            dict(_spec(size=7).to_dict(), algorithm="nope"),                   # invalid
            _spec(**grid, algorithm="fr", scheduler="random").to_dict(),       # kernel
            _spec(**grid, algorithm="fr", replicate=1,
                  scheduler_seed=derive_seed("other")).to_dict(),              # kernel
        ]
        records = run_scenarios(raws)
        assert [r["run_id"] for r in records] == [raw["run_id"] for raw in raws]
        assert [r["engine"] for r in records] == [
            "kernel", "legacy", "async", "dataplane", None, "kernel", "kernel",
        ]
        assert [r["status"] for r in records] == ["ok"] * 4 + ["error"] + ["ok"] * 2
        for raw, record in zip(raws, records):
            assert _stable(record) == _stable(execute_scenario(dict(raw)))

    def test_a_failing_lockstep_group_is_retried_lane_by_lane(self):
        original = batch_engine._execute_group

        def lockstep_fails(lanes, deadline):
            if len(lanes) > 1:
                for _, record in lanes:  # leave half-written records behind
                    record.update(steps_taken=-1, node_steps=-1, failures_applied=7)
                raise RuntimeError("lockstep failure")
            original(lanes, deadline)

        lanes = self._lanes()
        reset_kernel_caches()  # no outcome memo may answer the retried lanes
        with mock.patch.object(
            batch_engine, "_execute_group", side_effect=lockstep_fails
        ) as group, telemetry.session() as (registry, _):
            records = run_scenarios(lanes)
        assert [len(call.args[0]) for call in group.call_args_list] == [4, 1, 1, 1, 1]
        counters = registry.snapshot()["counters"]
        assert counters["scenario_group_fallbacks"] == 1
        assert counters["scenarios.kernel"] == 4
        for raw, record in zip(lanes, records):
            assert record["status"] == "ok" and record["engine"] == "kernel"
            oracle = execute_scenario(dict(raw), engine="legacy")
            assert {**_stable(record), "engine": None} == {
                **_stable(oracle), "engine": None,
            }


class TestRunCampaign:
    def _campaign(self, **overrides) -> CampaignSpec:
        base = dict(
            name="t", families=("chain", "random-dag"), algorithms=("pr", "fr"),
            schedulers=("greedy",), sizes=(4, 6), replicates=2,
        )
        base.update(overrides)
        return CampaignSpec(**base)

    def test_inline_campaign(self, tmp_path):
        store = ResultStore(tmp_path)
        report = run_campaign(self._campaign(), store, workers=1)
        assert report.total == report.executed == report.ok == 16
        assert store.count() == 16
        assert store.load_campaign()["name"] == "t"

    def test_resume_skips_stored_runs(self, tmp_path):
        store = ResultStore(tmp_path)
        partial = self._campaign(sizes=(4,))
        run_campaign(partial, store, workers=1)
        report = run_campaign(self._campaign(), store, workers=1)
        assert report.skipped == 8
        assert report.executed == 8
        assert store.count() == 16

    def test_no_resume_reexecutes(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(self._campaign(), store, workers=1)
        report = run_campaign(self._campaign(), store, workers=1, resume=False)
        assert report.skipped == 0
        assert report.executed == 16
        assert store.count() == 16  # run_ids are primary keys: replaced, not duplicated

    def test_pooled_matches_inline(self, tmp_path):
        inline_store = ResultStore(tmp_path / "inline")
        pooled_store = ResultStore(tmp_path / "pooled")
        campaign = self._campaign(schedulers=("greedy", "random"))
        run_campaign(campaign, inline_store, workers=1)
        report = run_campaign(campaign, pooled_store, workers=2, chunk_size=3)
        assert report.ok == report.executed == 32

        volatile = ("wall_time_s",)
        inline_records = {
            r["run_id"]: {k: v for k, v in r.items() if k not in volatile}
            for r in inline_store.records()
        }
        pooled_records = {
            r["run_id"]: {k: v for k, v in r.items() if k not in volatile}
            for r in pooled_store.records()
        }
        assert inline_records == pooled_records

    def test_worker_crash_is_isolated(self, tmp_path):
        store = ResultStore(tmp_path)
        campaign = self._campaign(algorithms=("pr", CRASH_SENTINEL), sizes=(4,))
        report = run_campaign(campaign, store, workers=2, chunk_size=1)
        assert report.crashed == 4  # every __crash__ run, and only those
        assert report.ok == 4
        crashed = store.records(status="crashed")
        assert {r["algorithm"] for r in crashed} == {CRASH_SENTINEL}
        assert all(r["status"] == "ok" for r in store.records(algorithm="pr"))

    def test_campaign_interruption_then_resume(self, tmp_path):
        # simulate an interrupted campaign by storing only the first shard's
        # worth of records, then resuming
        store = ResultStore(tmp_path)
        campaign = self._campaign()
        specs = [s.to_dict() for s in campaign.expand()]
        from repro.experiments.runner import run_scenarios

        store.append(run_scenarios(specs[:5]))
        report = run_campaign(campaign, store, workers=1)
        assert report.skipped == 5
        assert report.executed == len(specs) - 5
        assert store.count() == len(specs)

    def test_progress_callback(self, tmp_path):
        seen = []
        run_campaign(
            self._campaign(sizes=(4,)), ResultStore(tmp_path), workers=1,
            chunk_size=2, progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (8, 8)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_chunk_size_below_one_is_rejected_before_the_store(
        self, tmp_path, chunk_size
    ):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="chunk_size"):
            run_campaign(self._campaign(), store, workers=1, chunk_size=chunk_size)
        assert store.load_campaign() is None
        assert store.count() == 0
        assert not list(store.shard_dir.glob("shard-*"))

    @pytest.mark.parametrize("knob", [
        dict(watchdog_s=0.0), dict(watchdog_s=-1.0), dict(max_retries=-1),
    ])
    def test_bad_pool_knob_is_rejected_before_the_store(self, tmp_path, knob):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match=next(iter(knob))):
            run_campaign(self._campaign(), store, workers=2, **knob)
        assert store.load_campaign() is None
        assert store.count() == 0
        assert not list(store.shard_dir.glob("shard-*"))

    def test_per_run_timeout_in_campaign(self, tmp_path):
        store = ResultStore(tmp_path)
        campaign = self._campaign(families=("chain",), sizes=(80,), algorithms=("fr",),
                                  replicates=1)
        report = run_campaign(campaign, store, workers=1, timeout_s=0.0)
        assert report.timeouts == 1
        assert store.records()[0]["status"] == "timeout"
