"""Experiment E20 — the compiled asynchronous engine vs the object oracle.

Paper context: the asynchronous message-passing deployment (E17) is the
operational form of the paper's claims; opening delay × loss × churn campaign
cross-products at scale required compiling that layer.  This benchmark pins
the speedup story: :class:`~repro.distributed.fast_network.FastAsyncNetwork`
must run an E17-style quiescence workload at least several times faster than
the object-level :class:`~repro.distributed.network.AsyncLinkReversalNetwork`
while producing field-for-field identical reports (the differential suite
pins exact equality; this benchmark re-asserts it on the timed workload).

Harness: bad chain, grid and random-DAG families, partial and full reversal,
over the deterministic delay models (``zero``, ``fixed`` — the campaign
engine's fastest paths); quiescence times of both engines are measured on
identically constructed networks.  ``bench_async_quiescence`` in
``BENCH_baseline.json`` tracks the fast engine end-to-end (construction +
quiescence), which is what a campaign worker pays per scenario.

Expected shape: ~10x object/fast quiescence ratio locally; the CI assertion
is deliberately conservative (>3x) to tolerate noisy shared runners.
"""

from __future__ import annotations

import time

from benchmarks._harness import claim_experiment, print_table, record

claim_experiment("E20", __name__)

from repro.distributed.fast_network import FastAsyncNetwork
from repro.distributed.network import DELAY_MODELS, AsyncLinkReversalNetwork
from repro.distributed.protocol import ReversalMode
from repro.topology.generators import (
    chain_instance,
    grid_instance,
    random_dag_instance,
)

FAMILIES = {
    "bad-chain-60": lambda: chain_instance(60, towards_destination=False),
    "grid-8x8": lambda: grid_instance(8, 8, oriented_towards_destination=False),
    "random-dag-60": lambda: random_dag_instance(60, edge_probability=0.2, seed=14),
}

#: The deterministic delay models: the delivery-deque fast path campaigns use.
MODELS = ("zero", "fixed")


def _build_networks(network_class):
    networks = []
    for name, factory in FAMILIES.items():
        for mode in (ReversalMode.PARTIAL, ReversalMode.FULL):
            for model in MODELS:
                min_delay, max_delay, fifo = DELAY_MODELS[model]
                networks.append(
                    (
                        name,
                        mode,
                        model,
                        network_class(
                            factory(),
                            mode=mode,
                            min_delay=min_delay,
                            max_delay=max_delay,
                            seed=7,
                            fifo=fifo,
                        ),
                    )
                )
    return networks


def _run_quiescence(networks):
    return [
        (name, mode, model, network.run_to_quiescence())
        for name, mode, model, network in networks
    ]


def _measure():
    """The tracked workload: fast-engine construction + quiescence."""
    return _run_quiescence(_build_networks(FastAsyncNetwork))


def _timed_quiescence(network_class, repeats: int = 3):
    """Best-of-N quiescence wall time on freshly built networks."""
    best = float("inf")
    reports = None
    for _ in range(repeats):
        networks = _build_networks(network_class)
        start = time.perf_counter()
        reports = _run_quiescence(networks)
        best = min(best, time.perf_counter() - start)
    return best, reports


def test_e20_async_quiescence_fast_vs_object(benchmark):
    fast_reports = benchmark.pedantic(_measure, rounds=1, iterations=1)

    fast_seconds, fast_timed = _timed_quiescence(FastAsyncNetwork)
    object_seconds, object_reports = _timed_quiescence(AsyncLinkReversalNetwork)
    speedup = object_seconds / fast_seconds

    rows = []
    for (name, mode, model, fast_report), (_, _, _, object_report) in zip(
        fast_timed, object_reports
    ):
        assert fast_report == object_report, (name, mode, model)
        rows.append(
            (
                name,
                mode.value,
                model,
                fast_report.events_dispatched,
                fast_report.total_reversals,
                "yes" if fast_report.destination_oriented else "NO",
                "yes" if fast_report.acyclic else "NO",
            )
        )
    print_table(
        "E20 — compiled async engine (quiescence workload, reports equal to oracle)",
        ["family", "mode", "delay", "events", "reversals", "oriented", "acyclic"],
        rows,
    )
    print(
        f"\nE20 speedup: fast {fast_seconds * 1000:.1f} ms vs object "
        f"{object_seconds * 1000:.1f} ms -> x{speedup:.1f}"
    )
    record(
        benchmark,
        experiment="E20",
        fast_seconds=round(fast_seconds, 6),
        object_seconds=round(object_seconds, 6),
        speedup=round(speedup, 2),
    )
    for _, _, _, report in fast_reports:
        assert report.destination_oriented
        assert report.acyclic
    # locally ~10x; keep the CI floor conservative for noisy runners
    assert speedup > 3.0


def test_e20_lossy_uniform_parity_and_acyclicity(benchmark):
    def _lossy():
        instance = grid_instance(5, 5, oriented_towards_destination=False)
        network = FastAsyncNetwork(
            instance, min_delay=0.5, max_delay=2.0, loss_probability=0.2, seed=9
        )
        return network.run_with_beacons(max_rounds=20)

    report = benchmark.pedantic(_lossy, rounds=1, iterations=1)
    instance = grid_instance(5, 5, oriented_towards_destination=False)
    oracle = AsyncLinkReversalNetwork(
        instance, min_delay=0.5, max_delay=2.0, loss_probability=0.2, seed=9
    ).run_with_beacons(max_rounds=20)
    assert report == oracle
    record(
        benchmark,
        experiment="E20-lossy",
        messages_lost=report.messages_lost,
        oriented=report.destination_oriented,
        acyclic=report.acyclic,
    )
    assert report.acyclic
    assert report.destination_oriented
