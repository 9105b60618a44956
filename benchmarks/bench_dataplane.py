"""Experiment E23 — packet-level data plane throughput on the routed DAG.

The data-plane engine promises structure-of-arrays packet forwarding with no
per-packet objects: per-directed-link ring buffers, slotted link capacity,
batch Poisson injection and vectorised transmit/drop accounting.  This
experiment floods a converged 256-node grid with an offered load far above
the sink cut (rate 96x saturation) for :data:`SLOTS` slots plus a bounded
drain, which pushes >1M packets through the inject/enqueue/transmit/tail-drop
machinery in well under a wall-clock second, and then asserts the
conservation invariant field-for-field:

    injected == delivered + drop_tail + drop_ttl + drop_no_route
                + drop_link_down + in_flight

A second, smaller scenario replays the same workload with seeded link
failures landing mid-injection, so the reversal cascades rewrite the
next-hop tables under live packets — conservation must survive churn too.

A third runs a campaign-shaped workload: 32 small data-plane scenarios
(grid/geometric x pr/fr x steady/heavy, 16 nodes, two seeded link failures
each) through the engine.  There the arrays are tiny and the cost is the
per-slot numpy call count and network construction, not packet volume.

``bench_dataplane`` (the flood, end-to-end: construction + convergence +
slots + drain) and ``bench_dataplane_campaign`` in ``BENCH_baseline.json``
track the two shapes; both are watched by the CI regression gate.

(Historical note on the ID: the data-plane workload was originally pencilled
in as E21, which ``bench_batch`` already reports; E21/E22 belong to the
batch/telemetry experiments, so this module claims E23 — the
:func:`benchmarks._harness.claim_experiment` registry now makes such
collisions an import-time error.)
"""

from __future__ import annotations

from benchmarks._harness import claim_experiment, print_table, record

claim_experiment("E23", __name__)

from repro.dataplane.run import DataPlaneRun
from repro.dataplane.traffic import TrafficModel
from repro.distributed.protocol import ReversalMode
from repro.experiments.runner import execute_scenario
from repro.experiments.spec import CampaignSpec
from repro.topology.generators import build_family

#: Grid size (nodes) of the flood scenario.
SIZE = 256

#: Injection slots before the drain phase.
SLOTS = 700

#: Post-injection drain bound (drain also stops once queues are empty).
DRAIN_SLOTS = 512

#: Offered load as a multiple of the sink cut — deliberately far above 1.0
#: so every slot exercises the tail-drop path at full queue occupancy.
FLOOD = TrafficModel("flood", rate=96.0)

#: Packets the flood run must push through the engine.
MIN_PACKETS = 1_000_000

#: Seeded mid-injection failures of the churn scenario.
CHURN_FAILURES = 4


def _flood_run(
    size: int = SIZE,
    slots: int = SLOTS,
    traffic: TrafficModel = FLOOD,
) -> DataPlaneRun:
    """Build, converge and flood one grid; returns the finished run."""
    instance = build_family("grid", size, 1)
    run = DataPlaneRun(
        instance,
        mode=ReversalMode.PARTIAL,
        traffic=traffic,
        delay_model="fixed",
        loss=0.0,
        channel_seed=11,
        traffic_seed=23,
        queue_capacity=32,
        link_capacity=8,
    )
    run.network.run_to_quiescence(max_events=1_000_000)
    run.advance_control(None)
    run.run(slots, drain_slots=DRAIN_SLOTS)
    return run


def _measure_dataplane() -> DataPlaneRun:
    """The tracked BENCH_baseline.json workload: the >1M-packet flood."""
    return _flood_run()


def _measure_campaign() -> list:
    """The tracked campaign-shaped workload: 32 small churning scenarios."""
    campaign = CampaignSpec(
        name="bench-dataplane-campaign",
        families=("grid", "geometric"),
        algorithms=("pr", "fr"),
        sizes=(16,),
        replicates=4,
        base_seed=23,
        failure_models=[("link-failures", 2)],
        traffics=("steady", "heavy"),
    )
    return [execute_scenario(spec) for spec in campaign.expand()]


def _assert_conservation(run: DataPlaneRun) -> None:
    sim = run.sim
    assert sim.conservation_ok()
    assert sim.injected == (
        sim.delivered
        + sim.drop_tail
        + sim.drop_ttl
        + sim.drop_no_route
        + sim.drop_link_down
        + sim.in_flight
    )


def test_e23_dataplane_flood(benchmark):
    run = benchmark.pedantic(_measure_dataplane, rounds=1, iterations=1)
    counters = run.sim.counters()

    _assert_conservation(run)
    assert counters["packets_injected"] >= MIN_PACKETS, (
        f"flood injected only {counters['packets_injected']} packets "
        f"(target {MIN_PACKETS})"
    )
    assert counters["packets_delivered"] > 0
    # on a converged, churn-free DAG greedy height descent is loop-free
    assert counters["transient_loops"] == 0
    assert counters["mean_stretch"] is not None
    assert counters["mean_stretch"] >= 1.0

    print_table(
        "E23 — data-plane flood on the converged 256-node grid",
        ("metric", "value"),
        [
            ("slots", counters["slots"]),
            ("injected", counters["packets_injected"]),
            ("delivered", counters["packets_delivered"]),
            ("drop_tail", counters["drop_tail"]),
            ("mean_latency_slots", round(counters["mean_latency_slots"], 2)),
            ("mean_stretch", round(counters["mean_stretch"], 3)),
            ("peak_queue_depth", counters["peak_queue_depth"]),
        ],
    )
    record(
        benchmark,
        experiment="E23",
        **{k: counters[k] for k in (
            "slots", "packets_injected", "packets_delivered", "packets_dropped",
            "drop_tail", "drop_ttl", "drop_no_route", "drop_link_down",
            "transient_loops", "peak_queue_depth",
        )},
    )


def test_e23_dataplane_churn(benchmark):
    """Conservation survives seeded link failures mid-injection."""

    def workload() -> DataPlaneRun:
        instance = build_family("grid", 64, 3)
        run = DataPlaneRun(
            instance,
            mode=ReversalMode.PARTIAL,
            traffic="heavy",
            delay_model="uniform",
            loss=0.0,
            channel_seed=5,
            traffic_seed=7,
        )
        run.network.run_to_quiescence(max_events=1_000_000)
        run.advance_control(None)
        plan = {}

        def fail(count: int) -> None:
            for _ in range(count):
                for u, v in run.network.sorted_link_pairs():
                    if not run.network.link_would_partition(u, v):
                        run.fail_link(u, v)
                        break

        for i in range(CHURN_FAILURES):
            plan[(i + 1) * 256 // (CHURN_FAILURES + 1)] = 1
        run.run(256, drain_slots=DRAIN_SLOTS, failure_plan=plan, fail_hook=fail)
        return run

    run = benchmark.pedantic(workload, rounds=1, iterations=1)
    _assert_conservation(run)
    counters = run.sim.counters()
    assert counters["packets_injected"] > 0
    assert counters["packets_delivered"] > 0
    record(
        benchmark,
        experiment="E23-churn",
        failures=CHURN_FAILURES,
        **{k: counters[k] for k in (
            "packets_injected", "packets_delivered", "packets_dropped",
            "drop_link_down", "transient_loops",
        )},
    )


def test_e23_dataplane_campaign(benchmark):
    """32 campaign-sized scenarios: every record ok and conserving packets."""
    records = benchmark.pedantic(_measure_campaign, rounds=1, iterations=1)
    assert len(records) == 32
    for r in records:
        assert r["status"] == "ok" and r["engine"] == "dataplane", r["run_id"]
        assert r["packets_injected"] == (
            r["packets_delivered"] + r["packets_dropped"] + r["packets_in_flight"]
        ), r["run_id"]
    record(
        benchmark,
        experiment="E23-campaign",
        runs=len(records),
        slots=sum(r["slots"] for r in records),
        packets_injected=sum(r["packets_injected"] for r in records),
        failures_applied=sum(r["failures_applied"] for r in records),
    )
