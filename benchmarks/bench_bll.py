"""Experiment E13 — Binary Link Labels and PR as its special case.

Paper context (Section 1): one of the pre-existing acyclicity proofs for PR
goes through the Binary Link Labels generalisation; PR is BLL instantiated
with the "neighbour reversed towards me" labels, FR is BLL with labels never
set.

Harness: drive BLL (all-unmarked start) and OneStepPR with identical node
schedules on several families and verify that the directed graphs and the
label/list contents coincide after every step; also confirm the FR
instantiation reproduces FR, and that both instantiations remain acyclic.
Then the claim over the whole reachable space: on the compiled model
checker, BLL's reachable signature set equals OneStepPR's and the
never-marking BLL's equals FR's (BLL signatures pack the marks in the PR
list layout, so the sets compare directly).  A space above
:data:`EXHAUSTIVE_BUDGET` states is reported as such and not compared.

Expected outcome: byte-for-byte agreement at every step, zero cycles, and
equal reachable sets wherever the space fits the budget.
"""

from __future__ import annotations

from benchmarks._harness import claim_experiment, print_table, record

claim_experiment("E13", __name__)

from repro.automata.executions import run
from repro.core.bll import (
    bll_matches_partial_reversal,
    full_reversal_as_bll,
    partial_reversal_as_bll,
)
from repro.core.full_reversal import FullReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.exploration.checker import ModelChecker
from repro.schedulers.random_scheduler import RandomScheduler
from repro.schedulers.sequential import SequentialScheduler
from repro.topology.generators import (
    grid_instance,
    random_dag_instance,
    tree_instance,
    worst_case_chain_instance,
)
from repro.verification.acyclicity import check_acyclic_execution


FAMILIES = {
    "worst-chain-10": lambda: worst_case_chain_instance(10),
    "tree-25": lambda: tree_instance(25, seed=3),
    "grid-4x4": lambda: grid_instance(4, 4, oriented_towards_destination=False),
    "random-dag-30": lambda: random_dag_instance(30, edge_probability=0.12, seed=4),
}


#: Largest reachable space the exhaustive comparison explores.
EXHAUSTIVE_BUDGET = 250_000


def _reachable(automaton):
    """The compiled reachable signature set, or ``None`` above the budget."""
    report = ModelChecker(
        automaton, max_states=EXHAUSTIVE_BUDGET, collect_signatures=True
    ).run()
    assert report.vectorized, automaton.name
    return None if report.truncated else report.signatures


def _reachable_cell(bll, direct):
    """Whether two automata reach the same signatures, as a table cell."""
    left, right = _reachable(bll), _reachable(direct)
    if left is None or right is None:
        return f"> {EXHAUSTIVE_BUDGET} states"
    return f"yes ({len(left)})" if left == right else f"NO ({len(left)} vs {len(right)})"


def _check_families():
    rows = []
    all_ok = True
    exhaustive = 0
    for name, factory in FAMILIES.items():
        instance = factory()
        schedule = list(instance.non_destination_nodes) * instance.node_count
        matches_pr = bll_matches_partial_reversal(instance, schedule)

        fr_bll = run(full_reversal_as_bll(instance), SequentialScheduler())
        fr_direct = run(FullReversal(instance), SequentialScheduler())
        matches_fr = (
            fr_bll.final_state.graph_signature() == fr_direct.final_state.graph_signature()
            and fr_bll.steps_taken == fr_direct.steps_taken
        )

        acyclic = check_acyclic_execution(
            run(partial_reversal_as_bll(instance), RandomScheduler(seed=1)).execution
        ).holds

        reach = (
            _reachable_cell(partial_reversal_as_bll(instance), OneStepPartialReversal(instance)),
            _reachable_cell(full_reversal_as_bll(instance), FullReversal(instance)),
        )
        exhaustive += sum(cell.startswith("yes") for cell in reach)

        all_ok = all_ok and matches_pr and matches_fr and acyclic
        all_ok = all_ok and not any(cell.startswith("NO") for cell in reach)
        rows.append(
            (
                name,
                instance.node_count,
                "yes" if matches_pr else "NO",
                "yes" if matches_fr else "NO",
                "yes" if acyclic else "NO",
                *reach,
            )
        )
    # every family's PR space fits the budget; tree-25's FR space does not
    return rows, all_ok and exhaustive >= 2 * len(FAMILIES) - 1


def test_e13_bll_specialisations(benchmark):
    rows, all_ok = benchmark.pedantic(_check_families, rounds=1, iterations=1)
    print_table(
        "E13 — BLL vs direct PR / FR implementations",
        ["family", "n", "BLL == PR (stepwise)", "BLL(no-mark) == FR", "BLL acyclic",
         "reach(BLL) == reach(PR)", "reach(BLL no-mark) == reach(FR)"],
        rows,
    )
    record(benchmark, experiment="E13", rows=rows)
    assert all_ok
