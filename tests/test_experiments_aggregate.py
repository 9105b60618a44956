"""Tests for the aggregation layer over stored campaign results."""

from __future__ import annotations

import pytest

from repro.experiments.aggregate import (
    build_report,
    group_summary,
    invariant_outcomes,
    pr_vs_fr_ordering,
    work_curves,
)
from repro.experiments.executor import run_campaign
from repro.experiments.spec import CampaignSpec
from repro.experiments.store import CHECK, ResultStore, group_defaults


@pytest.fixture(scope="module")
def swept_store(tmp_path_factory):
    """A small real campaign swept once and shared by the aggregation tests."""
    store = ResultStore(tmp_path_factory.mktemp("agg-store"))
    campaign = CampaignSpec(
        name="agg",
        families=("chain", "random-dag"),
        algorithms=("pr", "fr"),
        schedulers=("greedy",),
        sizes=(4, 6, 8, 10, 12),
        replicates=2,
    )
    run_campaign(campaign, store, workers=1)
    return store


class TestGroupSummary:
    def test_groups_by_family_and_algorithm(self, swept_store):
        summaries = group_summary(swept_store.records(status="ok"))
        assert set(summaries) == {
            ("chain", "pr"), ("chain", "fr"), ("random-dag", "pr"), ("random-dag", "fr"),
        }
        for stats in summaries.values():
            assert stats["count"] == 10  # 5 sizes × 2 replicates
            assert stats["min"] <= stats["p50"] <= stats["p90"] <= stats["max"]

    def test_custom_grouping_and_metric(self, swept_store):
        summaries = group_summary(
            swept_store.records(status="ok"), by=("algorithm",), metric="edge_reversals"
        )
        assert set(summaries) == {("pr",), ("fr",)}


class TestWorkCurves:
    def test_chain_fr_curve_is_quadratic(self, swept_store):
        curves = work_curves(swept_store.records(status="ok"))
        fr = curves[("chain", "fr")]
        assert [size for size, _ in fr["points"]] == [4, 6, 8, 10, 12]
        assert fr["fit"] is not None
        a = fr["fit"][0]
        assert a > 0.3  # clearly quadratic leading coefficient (theory: 0.5)
        assert fr["r2"] > 0.999

    def test_chain_pr_curve_is_linear(self, swept_store):
        curves = work_curves(swept_store.records(status="ok"))
        pr = curves[("chain", "pr")]
        assert abs(pr["fit"][0]) < 0.05  # no quadratic term
        assert pr["r2"] > 0.999

    def test_too_few_sizes_skips_fit(self):
        records = [
            {"family": "chain", "algorithm": "pr", "size": s, "node_steps": s}
            for s in (4, 6)
        ]
        curves = work_curves(records)
        assert curves[("chain", "pr")]["fit"] is None


class TestPrVsFrOrdering:
    def test_ordering_reproduced_from_store(self, swept_store):
        ordering = pr_vs_fr_ordering(swept_store.records(status="ok"))
        assert ordering["ordering_holds"] is True
        assert ordering["sizes"] == [4, 6, 8, 10, 12]
        last = ordering["comparison"][-1]
        assert last["fr"] > last["pr"]
        assert last["ratio"] > 2.0
        assert ordering["fr_fit"][0] > 0.3

    def test_missing_family_does_not_hold(self, swept_store):
        ordering = pr_vs_fr_ordering(swept_store.records(status="ok"), family="grid")
        assert ordering["ordering_holds"] is False
        assert ordering["comparison"] == []

    def test_violated_ordering_detected(self):
        records = []
        for size in (4, 6, 8, 10):
            records.append({"family": "chain", "algorithm": "pr", "size": size,
                            "node_steps": size * size})
            records.append({"family": "chain", "algorithm": "fr", "size": size,
                            "node_steps": size})
        assert pr_vs_fr_ordering(records)["ordering_holds"] is False


class TestInvariantsAndReport:
    def test_invariant_outcomes_all_hold(self, swept_store):
        outcome = invariant_outcomes(swept_store.records(status="ok"))
        assert outcome["runs"] == 40
        assert outcome["acyclic_final"] == 40
        assert outcome["destination_oriented"] == 40
        assert outcome["violations"] == 0

    def test_invariant_outcomes_acyclic_tristate(self):
        # acyclic_final=None means "the acyclicity check did not run" (model
        # check records with --invariants progress); only False is a failure
        records = [
            {"status": "ok", "acyclic_final": True},
            {**group_defaults(CHECK), "status": "ok", "acyclic_final": None},
            {"status": "ok", "acyclic_final": False},
        ]
        outcome = invariant_outcomes(records)
        assert outcome["violations"] == 1

    def test_invariant_outcomes_count_check_record_violations(self):
        # the check group's declared violation count, whatever the record's kind
        records = [
            {**group_defaults(CHECK), "status": "violated", "acyclic_final": False,
             "violations": 3},
        ]
        assert invariant_outcomes(records)["violations"] == 3

    def test_build_report_bundle(self, swept_store):
        report = build_report(swept_store)
        assert report["campaign"]["name"] == "agg"
        assert report["status_counts"] == {"ok": 40}
        assert report["pr_vs_fr"]["ordering_holds"] is True
        assert set(report["groups"]) == {
            "chain/pr", "chain/fr", "random-dag/pr", "random-dag/fr",
        }
        import json

        json.dumps(report)  # the whole bundle must be JSON-serialisable
