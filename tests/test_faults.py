"""Tests for the chaos plane: fault plans, the self-healing executor and
the crash-stop ``node_faults`` scenario axis."""

from __future__ import annotations

import os

import pytest

from repro.experiments import resolve_engine
from repro.experiments.engines import ENGINE_AUTO, get_engine
from repro.experiments.executor import _fork_preferring_context, run_campaign
from repro.experiments.runner import execute_scenario
from repro.experiments.spec import CampaignSpec, ScenarioSpec
from repro.experiments.store import ResultStore
from repro.faults import FAULT_PLAN_ENV, FaultPlan, select_crashed_ids
from repro.faults import injector


def _volatile_stripped(store: ResultStore) -> dict:
    return {
        r["run_id"]: {k: v for k, v in r.items() if k != "wall_time_s"}
        for r in store.records()
    }


class TestFaultPlan:
    def test_fault_for_is_deterministic(self):
        plan = FaultPlan(seed=7, crash=0.3, hang=0.2, slow=0.1, corrupt=0.1)
        rolls = [plan.fault_for(i) for i in range(50)]
        assert rolls == [plan.fault_for(i) for i in range(50)]
        assert any(rolls)  # at 0.7 stacked probability some chunk faults
        assert any(r is None for r in rolls)

    def test_strikes_bound_faulted_attempts(self):
        plan = FaultPlan(seed=1, overrides={0: "crash"}, strikes=2)
        assert plan.fault_for(0, attempt=0) == "crash"
        assert plan.fault_for(0, attempt=1) == "crash"
        assert plan.fault_for(0, attempt=2) is None

    def test_overrides_pin_and_exempt(self):
        plan = FaultPlan(seed=3, crash=1.0, overrides={4: "none", 5: "hang"})
        assert plan.fault_for(4) is None
        assert plan.fault_for(5) == "hang"
        assert plan.fault_for(6) == "crash"

    def test_json_and_env_round_trip(self, monkeypatch):
        plan = FaultPlan(seed=9, crash=0.1, hang=0.2, strikes=3,
                         overrides={2: "corrupt"})
        assert FaultPlan.from_json(plan.to_json()) == plan

        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        injector.arm_pool_worker()
        try:
            assert injector.active_plan() == plan
        finally:
            injector.disarm()
        assert injector.active_plan() is None

    def test_malformed_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "{not json")
        injector.arm_pool_worker()
        try:
            assert injector.active_plan() is None
        finally:
            injector.disarm()

    @pytest.mark.parametrize("bad", [
        dict(crash=-0.1), dict(hang=1.5), dict(crash=0.7, corrupt=0.7),
        dict(strikes=-1), dict(slow_s=-1.0),
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, **bad).validate()


class TestSelectCrashedIds:
    def test_deterministic_and_excludes_destination(self):
        first = select_crashed_ids(20, 0, 5, topology_seed=3)
        assert first == select_crashed_ids(20, 0, 5, topology_seed=3)
        assert len(first) == 5
        assert 0 not in first
        assert first != select_crashed_ids(20, 0, 5, topology_seed=4)

    def test_too_many_faults_rejected(self):
        with pytest.raises(ValueError):
            select_crashed_ids(4, 0, 3, topology_seed=0)


class TestSelfHealingExecutor:
    def _campaign(self, **overrides) -> CampaignSpec:
        base = dict(
            name="chaos", families=("chain",), algorithms=("pr", "fr"),
            schedulers=("greedy",), sizes=(4, 6), replicates=2,
        )
        base.update(overrides)
        return CampaignSpec(**base)

    def test_chaos_campaign_matches_fault_free_twin(self, tmp_path):
        # one of each fault kind, pinned to specific chunks; the executor
        # must recover every one and produce records identical to a clean run
        plan = FaultPlan(seed=1, overrides={
            0: "crash", 1: "hang", 2: "corrupt", 3: "slow",
        })
        chaos_store = ResultStore(tmp_path / "chaos")
        clean_store = ResultStore(tmp_path / "clean")
        campaign = self._campaign()
        report = run_campaign(
            campaign, chaos_store, workers=2, chunk_size=2,
            fault_plan=plan, watchdog_s=1.0,
        )
        run_campaign(campaign, clean_store, workers=2, chunk_size=2)

        assert report.ok == report.executed == 8
        assert report.crashed == 0
        assert report.faults_injected >= 4
        assert report.retries >= 1
        assert _volatile_stripped(chaos_store) == _volatile_stripped(clean_store)

    def test_planned_fault_counted_once_when_requeued(self, tmp_path):
        # chunk 0 kills its worker while the other worker sleeps in chunk 1,
        # so chunk 7 never starts in the broken pool and is resubmitted to
        # the next one with the same attempt: its fault is counted once
        plan = FaultPlan(seed=1, overrides={0: "crash", 1: "slow", 7: "slow"},
                         slow_s=0.5)
        store = ResultStore(tmp_path)
        report = run_campaign(
            self._campaign(), store, workers=2, chunk_size=1, fault_plan=plan,
        )
        assert report.ok == report.executed == 8
        assert report.pool_reforms >= 1
        assert report.faults_injected == 3
        assert report.fault_kinds == {"crash": 1, "slow": 2}

    def test_watchdog_kills_hung_worker(self, tmp_path):
        plan = FaultPlan(seed=1, overrides={0: "hang"})
        store = ResultStore(tmp_path)
        report = run_campaign(
            self._campaign(sizes=(4,)), store, workers=2, chunk_size=2,
            fault_plan=plan, watchdog_s=0.5,
        )
        assert report.ok == report.executed == 4
        assert report.watchdog_kills >= 1
        assert report.fault_kinds.get("hang") == 1

    def test_corrupt_chunk_detected_and_retried(self, tmp_path):
        plan = FaultPlan(seed=1, overrides={0: "corrupt", 1: "corrupt"})
        store = ResultStore(tmp_path)
        report = run_campaign(
            self._campaign(sizes=(4,)), store, workers=2, chunk_size=2,
            fault_plan=plan,
        )
        assert report.ok == 4
        assert report.corrupt_chunks == 2
        assert report.retries >= 2
        assert not any("__corrupt__" in r["run_id"] for r in store.records())

    def test_repeated_pool_breakage_exhausts_retries(self, tmp_path):
        # every attempt of every chunk crashes: each chunk that started in
        # a broken shared pool crashes again alone, yet the campaign
        # completes unattended with honest crashed records instead of
        # hanging or raising
        plan = FaultPlan(seed=1, crash=1.0, strikes=99)
        store = ResultStore(tmp_path)
        report = run_campaign(
            self._campaign(sizes=(4, 6), algorithms=("pr",)),
            store, workers=2, chunk_size=1,
            fault_plan=plan, max_retries=1,
        )
        assert report.executed == 4
        assert report.crashed == 4
        assert report.ok == 0
        assert report.pool_reforms >= 1
        assert all(r["status"] == "crashed" for r in store.records())

    def test_chunk_that_hangs_alone_is_crashed_by_the_watchdog(self, tmp_path):
        # chunk 0 hangs on every attempt: the watchdog kills it in the
        # shared pool, then again in the one-worker pool it reruns in, and
        # only its runs are recorded crashed
        plan = FaultPlan(seed=1, overrides={0: "hang"}, strikes=99)
        store = ResultStore(tmp_path)
        campaign = self._campaign(sizes=(4,))
        report = run_campaign(
            campaign, store, workers=2, chunk_size=2,
            fault_plan=plan, watchdog_s=0.5,
        )
        chunk0 = {spec.run_id for spec in list(campaign.expand())[:2]}
        statuses = {r["run_id"]: r["status"] for r in store.records()}
        assert len(statuses) == report.executed == 4
        assert {rid for rid, status in statuses.items() if status == "crashed"} == chunk0
        assert all(status == "ok" for rid, status in statuses.items() if rid not in chunk0)
        assert report.watchdog_kills >= 2

    def test_degrades_to_serial_when_pool_unavailable(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(
            "repro.experiments.executor.ProcessPoolExecutor", no_pool
        )
        store = ResultStore(tmp_path)
        report = run_campaign(
            self._campaign(sizes=(4,)), store, workers=2, chunk_size=2,
        )
        assert report.ok == report.executed == 4
        assert report.degraded_serial == 2  # every chunk ran in-process

    def test_degrades_to_serial_when_workers_cannot_start(self, tmp_path, monkeypatch):
        # a failed fork surfaces from the pool's first submit, not its
        # constructor, and takes the same way out
        def no_start(self):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(_fork_preferring_context().Process, "start", no_start)
        store = ResultStore(tmp_path)
        report = run_campaign(
            self._campaign(sizes=(4,)), store, workers=2, chunk_size=2,
        )
        assert report.ok == report.executed == 4
        assert report.degraded_serial == 2

    def test_timeout_and_hang_are_distinct(self, tmp_path):
        # a per-run timeout is an in-worker deadline: the record says
        # "timeout" and the watchdog never fires; a hang is an unresponsive
        # worker: the watchdog kills it and the retry succeeds with "ok"
        timeout_store = ResultStore(tmp_path / "timeout")
        report = run_campaign(
            self._campaign(families=("chain",), sizes=(80,), algorithms=("fr",),
                           replicates=1),
            timeout_store, workers=2, timeout_s=0.0, watchdog_s=5.0,
        )
        assert report.timeouts == 1
        assert report.watchdog_kills == 0
        assert timeout_store.records()[0]["status"] == "timeout"

        hang_store = ResultStore(tmp_path / "hang")
        report = run_campaign(
            self._campaign(sizes=(4,), algorithms=("pr",)),
            hang_store, workers=2, chunk_size=4,
            fault_plan=FaultPlan(seed=1, overrides={0: "hang"}),
            watchdog_s=0.5,
        )
        assert report.watchdog_kills == 1
        assert report.timeouts == 0
        assert all(r["status"] == "ok" for r in hang_store.records())

    def test_inline_execution_ignores_fault_plan(self, tmp_path):
        # workers=1 runs in-process: injecting a crash there would kill the
        # campaign itself, so the plan is ignored (with a warning)
        plan = FaultPlan(seed=1, crash=1.0, strikes=99)
        store = ResultStore(tmp_path)
        report = run_campaign(
            self._campaign(sizes=(4,)), store, workers=1, fault_plan=plan,
        )
        assert report.ok == report.executed == 4
        assert report.faults_injected == 0
        assert os.environ.get(FAULT_PLAN_ENV) is None


class TestNodeFaultsAxis:
    def _spec(self, **overrides) -> ScenarioSpec:
        base = dict(family="chain", size=10, algorithm="pr", scheduler="greedy",
                    topology_seed=3, scheduler_seed=5)
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_kernel_run_is_deterministic(self):
        spec = self._spec(node_faults=3).to_dict()
        first = execute_scenario(dict(spec))
        second = execute_scenario(dict(spec))
        assert first["status"] == "ok"
        assert first["crashed_nodes"] == 3
        assert first["converged"] is True  # quiescent: no live sink remains
        assert first["acyclic_final"] is True
        volatile = ("wall_time_s",)
        assert {k: v for k, v in first.items() if k not in volatile} == {
            k: v for k, v in second.items() if k not in volatile
        }

    def test_async_run_supports_node_faults(self):
        record = execute_scenario(
            self._spec(delay_model="uniform", node_faults=3)
        )
        assert record["status"] == "ok"
        assert record["crashed_nodes"] == 3
        assert record["converged"] is True

    def test_fault_free_record_unchanged(self):
        record = execute_scenario(self._spec())
        assert record["crashed_nodes"] == 0
        assert record["destination_oriented"] is True

    def test_engine_routing(self):
        assert resolve_engine(ENGINE_AUTO, self._spec(node_faults=2)) == "kernel"
        assert resolve_engine(
            ENGINE_AUTO, self._spec(delay_model="fixed", node_faults=2)
        ) == "async"
        assert get_engine("kernel").supports(self._spec(node_faults=2))
        for name in ("legacy", "dataplane"):
            engine = get_engine(name)
            spec = self._spec(node_faults=2)
            assert not engine.supports(spec)
            assert "node_faults" in engine.unsupported_reason(spec) or \
                "traffic" in engine.unsupported_reason(spec)

    def test_unsupported_algorithm_is_error_record(self):
        record = execute_scenario(self._spec(algorithm="bll", node_faults=2))
        assert record["status"] == "error"
        assert "engine" in record["error"]

    def test_validate_bounds_and_exclusions(self):
        with pytest.raises(ValueError):
            self._spec(node_faults=-1).validate()
        with pytest.raises(ValueError):
            self._spec(size=4, node_faults=3).validate()  # must leave a live node
        with pytest.raises(ValueError):
            self._spec(node_faults=2, failure_model="link-failures",
                       failure_count=1).validate()
        with pytest.raises(ValueError):
            self._spec(node_faults=2, traffic="steady").validate()

    def test_run_id_back_compatible(self):
        # node_faults=0 must not change existing run ids (stores resume),
        # while a faulted spec gets its own identity
        assert self._spec().run_id == self._spec(node_faults=0).run_id
        assert self._spec(node_faults=2).run_id != self._spec().run_id

    def test_campaign_axis_expansion(self):
        campaign = CampaignSpec(
            name="faults", families=("chain",), algorithms=("pr",),
            schedulers=("greedy",), sizes=(4, 10), replicates=1,
            node_fault_counts=(0, 3),
        )
        specs = list(campaign.expand())
        assert campaign.run_count == len(specs)
        # size 4 cannot host 3 crashed nodes (needs size-2 >= 3), so only
        # size 10 gets the faulted cell
        faulted = [s for s in specs if s.node_faults == 3]
        assert [s.size for s in faulted] == [10]
        assert len(specs) == 3
