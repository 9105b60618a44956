"""Experiment E15 — route maintenance under link failures and mobility.

Paper context: link reversal exists to provide "an efficient graph structure
for routing" in networks "with frequently changing topology" (abstract and
introduction, citing Gafni–Bertsekas).  The measurable claims are that after a
link failure the reversal cascade restores destination orientation, and that
the repair work stays localised around the failure.

Harness: three campaigns, each pairing every churn run with the ``none`` run
of the same replicate and algorithm (same topology, same scheduler seed):

* synchronous repair — 5x5 ``grid`` × {``none``, ``link-failures`` 4};
* asynchronous repair — 25-node ``geometric`` (MANET-style) network over
  ``uniform``-delay channels × {``none``, ``link-failures`` 8};
* mobility — 20-node ``geometric`` network × {``none``, ``mobility`` 12}
  random-waypoint steps.

Both claims read from the stored records alone.  "Every non-partitioning
failure is recovered": failures that would partition the network are skipped
(``partition_skips``), and every record ends ``destination_oriented``.
"Per-failure work is small": (churn ``node_steps`` − ``none`` ``node_steps``)
/ ``failures_applied``, against the ``none`` run's from-scratch work.

Expected shape: every run ends destination oriented; per-failure work is far
smaller than re-running the algorithm from scratch on the whole graph.
"""

from __future__ import annotations

from benchmarks._harness import claim_experiment, print_table, record

claim_experiment("E15", __name__)

from repro.analysis.statistics import mean
from repro.experiments.executor import run_campaign
from repro.experiments.spec import CampaignSpec
from repro.experiments.store import ResultStore

REPLICATES = 8
ALGORITHMS = ("pr", "fr")


def _campaign(name, family, size, churn, **axes) -> CampaignSpec:
    return CampaignSpec(
        name=name, families=(family,), algorithms=ALGORITHMS, sizes=(size,),
        replicates=REPLICATES, failure_models=[("none", 0), churn], **axes,
    )


def _sweep(campaign: CampaignSpec, root) -> list:
    with ResultStore(root / campaign.name) as store:
        report = run_campaign(campaign, store, telemetry=False)
        assert report.ok == report.total == campaign.run_count
        return store.records()


def _repair_rows(records):
    """Per algorithm: from-scratch work, per-failure work, failures, skips."""
    scratch = {
        (r["algorithm"], r["replicate"]): r["node_steps"]
        for r in records if r["failure_model"] == "none"
    }
    rows = []
    for algorithm in ALGORITHMS:
        churned = [
            r for r in records
            if r["failure_model"] != "none" and r["algorithm"] == algorithm
        ]
        per_failure = [
            (r["node_steps"] - scratch[algorithm, r["replicate"]]) / r["failures_applied"]
            for r in churned if r["failures_applied"]
        ]
        rows.append((
            algorithm,
            mean([scratch[algorithm, r["replicate"]] for r in churned]),
            mean(per_failure),
            max(per_failure),
            sum(r["failures_applied"] for r in churned),
            sum(r["partition_skips"] for r in churned),
        ))
    return rows


def _report(benchmark, experiment, title, records):
    rows = _repair_rows(records)
    print_table(
        title,
        ["algorithm", "from-scratch steps", "mean steps/failure",
         "max steps/failure", "failures", "partition skips"],
        [(a, f"{s:.1f}", f"{m:.2f}", f"{x:.2f}", f, k) for a, s, m, x, f, k in rows],
    )
    recovered = all(r["destination_oriented"] for r in records)
    record(benchmark, experiment=experiment, rows=rows, all_recovered=recovered)
    # every non-partitioning failure is recovered (partitioning ones are skipped)
    assert recovered
    return rows


def test_e15_synchronous_link_failure_repair(benchmark, tmp_path):
    campaign = _campaign("e15-sync", "grid", 25, ("link-failures", 4))
    records = benchmark.pedantic(_sweep, args=(campaign, tmp_path), rounds=1, iterations=1)
    rows = _report(
        benchmark, "E15-sync",
        "E15 — repair after seeded link failures on a 5x5 grid", records,
    )
    assert sum(failures for *_, failures, _ in rows) > 0
    # locality: a single repair needs far fewer steps than the node count
    assert all(max_per_failure < 25 for _, _, _, max_per_failure, _, _ in rows)


def test_e15_asynchronous_failures_on_manet(benchmark, tmp_path):
    campaign = _campaign(
        "e15-async", "geometric", 25, ("link-failures", 8), delay_models=("uniform",),
    )
    records = benchmark.pedantic(_sweep, args=(campaign, tmp_path), rounds=1, iterations=1)
    assert {r["engine"] for r in records} == {"async"}
    _report(
        benchmark, "E15-async",
        "E15 — asynchronous recovery from link failures (25-node MANET)", records,
    )


def test_e15_mobility_route_maintenance(benchmark, tmp_path):
    campaign = _campaign("e15-mobility", "geometric", 20, ("mobility", 12))
    records = benchmark.pedantic(_sweep, args=(campaign, tmp_path), rounds=1, iterations=1)
    _report(
        benchmark, "E15-mobility",
        "E15 — re-convergence after random-waypoint mobility (20 nodes)", records,
    )
