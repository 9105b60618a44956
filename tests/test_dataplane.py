"""Tests for the packet-level data plane and its campaign engine."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.dataplane.packets import ARRIVAL_BLOCK, PacketSimulator, numpy_available
from repro.dataplane.run import DataPlaneRun
from repro.dataplane.traffic import (
    TRAFFIC_MODELS,
    TRAFFIC_MODEL_NAMES,
    TrafficModel,
    resolve_traffic,
)
from repro.distributed.protocol import ReversalMode
from repro.experiments.runner import execute_scenario
from repro.experiments.spec import CampaignSpec, ScenarioSpec
from repro.experiments.spec import TRAFFIC_MODEL_NAMES as SPEC_TRAFFIC_NAMES
from repro.topology.generators import build_family, grid_instance


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        family="grid",
        size=16,
        algorithm="pr",
        scheduler="random",
        topology_seed=3,
        scheduler_seed=4,
        replicate=0,
        failure_model="none",
        failure_count=0,
        max_steps=None,
        campaign="test-dataplane",
        delay_model=None,
        loss=0.0,
        traffic="steady",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _assert_conservation_fields(counters) -> None:
    """The invariant, field for field, from a counters() dict."""
    assert counters["packets_injected"] == (
        counters["packets_delivered"]
        + counters["drop_tail"]
        + counters["drop_ttl"]
        + counters["drop_no_route"]
        + counters["drop_link_down"]
        + counters["packets_in_flight"]
    )
    assert counters["packets_dropped"] == (
        counters["drop_tail"]
        + counters["drop_ttl"]
        + counters["drop_no_route"]
        + counters["drop_link_down"]
    )


class TestTrafficModels:
    def test_model_names_mirror_matches_canonical_table(self):
        # spec.py mirrors the names so it stays import-light; the two lists
        # must never drift
        assert SPEC_TRAFFIC_NAMES == tuple(TRAFFIC_MODELS)
        assert SPEC_TRAFFIC_NAMES == TRAFFIC_MODEL_NAMES

    def test_resolve_traffic_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown traffic model"):
            resolve_traffic("flood")

    def test_bursty_keeps_long_run_mean(self):
        bursty = TRAFFIC_MODELS["bursty"]
        steady = TRAFFIC_MODELS["steady"]
        assert bursty.rate == steady.rate
        assert bursty.on_rate > steady.rate

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficModel("bad", rate=-1.0)
        with pytest.raises(ValueError):
            TrafficModel("bad", rate=1.0, burst_on=0.0)


class TestPacketSimulator:
    def _two_node_sim(self, **overrides) -> PacketSimulator:
        # 1 -> 0 (destination) with both directed queues
        kwargs = dict(
            link_from=[0, 1],
            link_to=[1, 0],
            n_nodes=2,
            destination=0,
            rates=[0.0, 1.0],
            undirected_distance=[0, 1],
            queue_capacity=4,
            link_capacity=1,
            ttl=8,
            seed=1,
        )
        kwargs.update(overrides)
        sim = PacketSimulator(**kwargs)
        sim.set_next_hop_link(1, 1)
        return sim

    def test_delivery_on_a_single_link(self):
        sim = self._two_node_sim()
        for _ in range(64):
            sim.inject_slot()
            sim.step()
        while sim.in_flight:
            sim.step()
        assert sim.injected > 0
        assert sim.delivered > 0
        assert sim.conservation_ok()
        _assert_conservation_fields(sim.counters())

    def test_tail_drops_when_queue_full(self):
        sim = self._two_node_sim(rates=[0.0, 50.0], queue_capacity=2)
        sim.inject_slot()
        assert sim.drop_tail > 0
        assert sim.conservation_ok()

    def test_no_route_drops_without_next_hop(self):
        sim = self._two_node_sim()
        sim.set_next_hop_link(1, -1)
        sim.inject_slot()
        assert sim.drop_no_route == sim.injected > 0
        assert sim.conservation_ok()

    def test_ttl_expiry_on_a_ping_pong_loop(self):
        # 1 and 2 forward to each other: every packet from either node
        # bounces until its TTL dies; none reaches destination 0
        sim = PacketSimulator(
            link_from=[1, 2],
            link_to=[2, 1],
            n_nodes=3,
            destination=0,
            rates=[0.0, 1.0, 0.0],
            undirected_distance=[0, 1, 1],
            queue_capacity=8,
            link_capacity=4,
            ttl=6,
            seed=2,
        )
        sim.set_next_hop_link(1, 0)
        sim.set_next_hop_link(2, 1)
        for _ in range(8):
            sim.inject_slot()
            sim.step()
        for _ in range(32):
            if not sim.in_flight:
                break
            sim.step()
        assert sim.delivered == 0
        assert sim.drop_ttl > 0
        assert sim.loop_bounces > 0
        assert sim.conservation_ok()

    def test_kill_links_flushes_in_flight_packets(self):
        sim = self._two_node_sim(rates=[0.0, 3.0])
        sim.inject_slot()
        in_flight = sim.in_flight
        assert in_flight > 0
        sim.kill_links([0, 1])
        assert sim.in_flight == 0
        assert sim.drop_link_down == in_flight
        assert sim.conservation_ok()

    @pytest.mark.parametrize("burst_on", [1.0, 0.25])
    def test_arrivals_follow_the_per_slot_stream(self, burst_on):
        # every node i routes over its own link i -> 0, so the queue lengths
        # are the cumulative per-node arrival counts; steady traffic draws a
        # block of slots at once, and must still equal one draw per slot
        # across block boundaries
        n = 6
        rates = [0.0, 0.3, 1.0, 2.5, 0.05, 4.0]
        sim = PacketSimulator(
            link_from=list(range(1, n)), link_to=[0] * (n - 1), n_nodes=n,
            destination=0, rates=rates, undirected_distance=[0] + [1] * (n - 1),
            queue_capacity=4096, burst_on=burst_on, seed=13,
        )
        for node in range(1, n):
            sim.set_next_hop_link(node, node - 1)
        rng = np.random.default_rng(13)
        on_rates = np.array(rates) / burst_on
        expected = np.zeros(n, dtype=np.int64)
        for _ in range(2 * ARRIVAL_BLOCK + 5):
            if burst_on < 1.0:
                gate = rng.random(n) < burst_on
                expected += rng.poisson(np.where(gate, on_rates, 0.0))
            else:
                expected += rng.poisson(np.array(rates))
            sim.inject_slot()
            assert sim.q_len.tolist() == expected[1:].tolist()
        assert sim.injected == int(expected.sum())

    def test_determinism_same_seed_same_counters(self):
        def run_once():
            sim = self._two_node_sim(rates=[0.0, 2.5], seed=9)
            for _ in range(32):
                sim.inject_slot()
                sim.step()
            return sim.counters()

        assert run_once() == run_once()


class TestDataPlaneRun:
    def _converged_run(self, **overrides) -> DataPlaneRun:
        kwargs = dict(
            mode=ReversalMode.PARTIAL,
            traffic="steady",
            delay_model="fixed",
            loss=0.0,
            channel_seed=5,
            traffic_seed=6,
        )
        instance = overrides.pop("instance", None) or grid_instance(
            4, 4, oriented_towards_destination=False
        )
        kwargs.update(overrides)
        run = DataPlaneRun(instance, **kwargs)
        run.network.run_to_quiescence(max_events=1_000_000)
        run.advance_control(None)
        return run

    def test_steady_traffic_mostly_delivers_on_converged_dag(self):
        run = self._converged_run()
        run.run(128, drain_slots=256)
        counters = run.sim.counters()
        _assert_conservation_fields(counters)
        assert counters["packets_injected"] > 0
        # steady load is half the sink cut: deliveries dominate
        assert counters["packets_delivered"] > counters["packets_dropped"]
        assert counters["mean_stretch"] >= 1.0

    def test_conservation_field_for_field_under_mid_run_churn(self):
        run = self._converged_run(delay_model="uniform")
        network = run.network

        def fail(count: int) -> None:
            for _ in range(count):
                for u, v in network.sorted_link_pairs():
                    if not network.link_would_partition(u, v):
                        run.fail_link(u, v)
                        return

        plan = {32: 1, 64: 1, 96: 1}
        run.run(128, drain_slots=512, failure_plan=plan, fail_hook=fail)
        counters = run.sim.counters()
        _assert_conservation_fields(counters)
        assert run.sim.conservation_ok()
        assert counters["packets_injected"] > 0
        assert counters["packets_delivered"] > 0
        # the cascades genuinely rewrote the DAG under the packets
        assert network.total_reversals() > 0
        assert run.repatched_nodes > 0

    def test_run_is_deterministic(self):
        def counters_once():
            run = self._converged_run()
            run.run(64, drain_slots=128)
            return run.sim.counters()

        assert counters_once() == counters_once()

    def test_offered_load_scales_with_sink_cut(self):
        # the same named model on a bigger grid injects against the *same*
        # sink-cut multiple, so delivery ratios stay comparable across sizes
        small = self._converged_run()
        small.run(64, drain_slots=256)
        big = self._converged_run(
            instance=grid_instance(6, 6, oriented_towards_destination=False)
        )
        big.run(64, drain_slots=256)
        for counters in (small.sim.counters(), big.sim.counters()):
            injected = counters["packets_injected"]
            assert injected > 0
            assert counters["packets_delivered"] / injected > 0.9


@pytest.mark.skipif(not numpy_available(), reason="numpy required")
class TestDataPlaneEngine:
    def test_execute_scenario_routes_traffic_spec_to_dataplane(self):
        record = execute_scenario(_spec())
        assert record["status"] == "ok"
        assert record["engine"] == "dataplane"
        assert record["traffic"] == "steady"
        _assert_conservation_fields(record)
        assert record["packets_injected"] > 0
        assert record["packets_delivered"] > 0
        assert record["converged"] is True
        assert record["destination_oriented"] is True

    def test_engine_record_conserves_under_link_failures(self):
        record = execute_scenario(
            _spec(failure_model="link-failures", failure_count=3,
                  delay_model="uniform", scheduler_seed=11)
        )
        assert record["status"] == "ok"
        _assert_conservation_fields(record)
        assert record["failures_applied"] + record["partition_skips"] == 3
        assert record["node_steps"] > 0

    def test_engine_is_deterministic(self):
        spec = _spec(topology_seed=8, scheduler_seed=9)
        first = execute_scenario(spec)
        second = execute_scenario(spec)
        volatile = ("wall_time_s", "simulated_time")
        for key in first:
            if key in volatile:
                continue
            assert first[key] == second[key], key

    def test_auto_selection_prefers_dataplane_over_async(self):
        # a spec with both delay model and traffic is a data-plane scenario
        record = execute_scenario(_spec(delay_model="fixed"))
        assert record["engine"] == "dataplane"

    def test_forced_async_engine_rejects_traffic_spec(self):
        record = execute_scenario(_spec(delay_model="fixed"), engine="async")
        assert record["status"] == "error"
        assert "dataplane" in record["error"]

    def test_forced_kernel_and_batch_reject_traffic_spec(self):
        for engine in ("kernel", "batch", "legacy"):
            record = execute_scenario(_spec(), engine=engine)
            assert record["status"] == "error", engine
            assert "traffic" in record["error"], engine

    def test_unknown_algorithm_for_dataplane(self):
        record = execute_scenario(_spec(algorithm="bll"), engine="dataplane")
        assert record["status"] == "error"


class TestSpecTrafficAxis:
    def test_traffic_joins_run_id_only_when_set(self):
        with_traffic = _spec()
        without = _spec(traffic=None)
        assert with_traffic.run_id != without.run_id
        # pre-traffic specs keep their historical run ids (resume safety)
        legacy_identity = without.run_id
        assert "traffic" not in legacy_identity

    def test_unknown_traffic_rejected(self):
        with pytest.raises(ValueError, match="traffic"):
            _spec(traffic="flood").validate()

    def test_traffic_round_trips_through_dict(self):
        spec = _spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_campaign_expands_traffic_axis(self):
        campaign = CampaignSpec(
            name="t",
            families=("grid",),
            algorithms=("pr",),
            schedulers=("random",),
            sizes=(9,),
            replicates=1,
            traffics=(None, "steady"),
        )
        specs = list(campaign.expand())
        assert campaign.run_count == len(specs) == 2
        assert {s.traffic for s in specs} == {None, "steady"}

    def test_traffic_plus_mobility_cells_are_dropped(self):
        campaign = CampaignSpec(
            name="t",
            families=("geometric",),
            algorithms=("pr",),
            schedulers=("random",),
            sizes=(16,),
            replicates=1,
            failure_models=(("mobility", 2),),
            traffics=("steady",),
        )
        assert campaign.run_count == 0
