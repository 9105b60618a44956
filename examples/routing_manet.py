#!/usr/bin/env python3
"""MANET route maintenance: link reversal under link failures and mobility.

This example exercises the application the paper's introduction motivates:
routing in a network "with frequently changing topology".  It sweeps a small
campaign over random geometric (unit-disk) networks, the standard MANET
abstraction, in three cells per replicate:

* ``none`` — converge from the initial orientation;
* ``link-failures`` — converge, then fail seeded links one at a time and
  repair after each (failures that would partition the network are skipped);
* ``mobility`` — converge, then move the nodes with a random-waypoint model
  and re-converge after every step that changes the link set.

It prints each cell's work and whether every run ended destination oriented,
plus the repair work per applied failure or mobility step.

Run with::

    python examples/routing_manet.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.analysis.statistics import mean
from repro.experiments.runner import run_scenarios
from repro.experiments.spec import CampaignSpec

CAMPAIGN = CampaignSpec(
    name="manet",
    families=("geometric",),
    algorithms=("pr", "fr"),
    sizes=(24,),
    replicates=4,
    base_seed=2024,
    failure_models=[("none", 0), ("link-failures", 6), ("mobility", 15)],
)


def main() -> None:
    records = run_scenarios(CAMPAIGN.expand())
    scratch = {
        (r["algorithm"], r["replicate"]): r["node_steps"]
        for r in records if r["failure_model"] == "none"
    }
    print(f"{CAMPAIGN.run_count} runs on {CAMPAIGN.replicates} geometric networks "
          f"of {CAMPAIGN.sizes[0]} nodes\n")
    print(f"{'algorithm':<9} {'churn':<13} {'steps':>6} {'changes':>8} "
          f"{'skipped':>8} {'steps/change':>13} {'oriented':>9}")
    for algorithm in CAMPAIGN.algorithms:
        for model, _ in CAMPAIGN.failure_models:
            cell = [r for r in records
                    if r["algorithm"] == algorithm and r["failure_model"] == model]
            changes = sum(r["failures_applied"] for r in cell)
            repair = sum(r["node_steps"] - scratch[algorithm, r["replicate"]] for r in cell)
            per_change = f"{repair / changes:.2f}" if changes else "-"
            oriented = all(r["destination_oriented"] for r in cell)
            print(f"{algorithm:<9} {model:<13} {mean([r['node_steps'] for r in cell]):>6.1f} "
                  f"{changes:>8} {sum(r['partition_skips'] for r in cell):>8} "
                  f"{per_change:>13} {str(oriented):>9}")


if __name__ == "__main__":
    main()
