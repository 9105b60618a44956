"""Pins for the model checker's incremental acyclicity check.

Given parent rows and actor tokens, :func:`~repro.kernels.vector
.mask_is_acyclic_batch` peels only the successors whose step could have
closed a cycle, and none on a forest.  These tests hold it to the full
peel, which the same function runs when no parent rows are given:

* over every connected DAG start with at most four nodes, each node in
  turn the destination, all five algorithms report the same states,
  transitions, failures and first counterexample as with the full peel
  forced;
* random steps from acyclic parents — sources, partial flips, stray flips
  away from the actors, PR-style subset tokens, bookkeeping bits above the
  edges, one- and two-word edge masks — get the full peel's verdict;
* seeded kernel mutants on graphs with cycles fail with the same cycles and
  the same first counterexample under both checks;
* the forest test, and the ``checker.acyclic_peeled_rows`` counter.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest

from repro import telemetry
from repro.core.graph import LinkReversalInstance, mask_is_acyclic
from repro.experiments.spec import ALGORITHM_FACTORIES
from repro.exploration import checker
from repro.exploration.checker import ModelChecker
from repro.exploration.enumerate_graphs import all_connected_dag_instances
from repro.kernels import vector
from repro.kernels.vector import int_rows, mask_is_acyclic_batch, signature_words
from repro.topology.generators import (
    grid_instance,
    layered_instance,
    random_dag_instance,
    star_instance,
    tree_instance,
)

#: Every connected DAG start with two to four nodes, each node the destination.
SMALL_STARTS = [
    instance
    for n in range(2, 5)
    for destination in range(n)
    for instance in all_connected_dag_instances(n, destination)
]


def _full_peel(instance, masks, parents=None, tokens=None):
    """The check with the parent rows dropped: every row takes the peel."""
    return mask_is_acyclic_batch(instance, masks)


def _check(automaton, **options):
    return ModelChecker(
        automaton, check_acyclicity=True, check_progress=True, **options
    ).run()


def _both_checks(make_automaton, **options):
    """``(incremental, full peel)`` reports of the same exploration."""
    incremental = _check(make_automaton(), **options)
    with mock.patch.object(checker, "mask_is_acyclic_batch", _full_peel):
        full = _check(make_automaton(), **options)
    return incremental, full


def _outcome(report):
    return (
        report.states_explored,
        report.transitions_explored,
        report.max_depth,
        report.quiescent_states,
        report.truncated,
        report.failures,
    )


def _peeled_rows(run):
    """``checker.acyclic_peeled_rows`` over ``run()``, and its result."""
    with telemetry.session() as (registry, _):
        result = run()
    return registry.snapshot()["counters"].get("checker.acyclic_peeled_rows"), result


# ----------------------------------------------------------------------
# whole explorations: incremental against the forced full peel
# ----------------------------------------------------------------------
def test_the_small_starts_are_all_there():
    # 1 + 4 + 38 connected graphs on 2, 3 and 4 labelled nodes
    assert len(SMALL_STARTS) == 2 * 1 + 3 * 4 + 4 * 38


@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_FACTORIES))
def test_small_starts_report_as_the_full_peel(algorithm):
    factory = ALGORITHM_FACTORIES[algorithm]
    for instance in SMALL_STARTS:
        incremental, full = _both_checks(lambda: factory(instance))
        assert incremental.vectorized
        assert _outcome(incremental) == _outcome(full), instance


# ----------------------------------------------------------------------
# the batch check on random steps from acyclic parents
# ----------------------------------------------------------------------
def _acyclic_mask(instance: LinkReversalInstance, rng: random.Random) -> int:
    """The orientation along a random node order (every edge points forward)."""
    rank = list(range(instance.node_count))
    rng.shuffle(rank)
    return sum(
        1 << e
        for e, (tail, head) in enumerate(instance._edge_node_ids)
        if rank[tail] > rank[head]
    )


def _random_step(instance, parent: int, rng: random.Random):
    """A child of ``parent`` and its actor token, valid or not."""
    inc, tail = instance._incident_mask, instance._tail_sel
    actors = rng.sample(range(instance.node_count), rng.choice((1, 1, 1, 2, 3)))
    child = parent
    for i in actors:
        if rng.random() < 0.5:
            # every incident edge out of the actor: it becomes a source
            child = (child & ~inc[i]) | (~tail[i] & inc[i])
        else:
            child ^= inc[i] & rng.getrandbits(instance.edge_count)
    if rng.random() < 0.2:
        child ^= 1 << rng.randrange(instance.edge_count)
    return child, sum(1 << i for i in actors)


RANDOM_GRAPHS = {
    "grid3x3": grid_instance(3, 3),
    "layered4x3": layered_instance(4, 3),
    "random-dag12": random_dag_instance(12, edge_probability=0.5, seed=3),
    # 84 edges: the edge bits span two words
    "grid7x7": grid_instance(7, 7),
}


@pytest.mark.parametrize("name", sorted(RANDOM_GRAPHS))
def test_incremental_verdict_equals_the_full_peel(name):
    instance = RANDOM_GRAPHS[name]
    rng = random.Random(name)
    E = instance.edge_count
    # bookkeeping bits above the edges differ freely between parent and child
    words = signature_words(E + 40)
    parents, children, tokens = [], [], []
    for _ in range(600):
        parent = _acyclic_mask(instance, rng)
        child, token = _random_step(instance, parent, rng)
        parents.append(parent | rng.getrandbits(40) << E)
        children.append(child | rng.getrandbits(40) << E)
        tokens.append(token)
    parent_rows, child_rows = int_rows(parents, words), int_rows(children, words)
    token_array = np.array(tokens, dtype=np.uint64)
    full = mask_is_acyclic_batch(instance, child_rows)
    peeled, incremental = _peeled_rows(
        lambda: mask_is_acyclic_batch(instance, child_rows, parent_rows, token_array)
    )
    assert incremental.tolist() == full.tolist()
    assert full.tolist() == [mask_is_acyclic(instance, child) for child in children]
    # the sample reaches both verdicts, and the guard both skips and peels
    assert 0 < full.sum() < len(children)
    assert 0 < peeled < len(children)


def test_zero_tokens_always_take_the_peel():
    instance = grid_instance(3, 3)
    rng = random.Random(5)
    children = [rng.getrandbits(instance.edge_count) for _ in range(200)]
    rows = int_rows(children, 1)
    # the parents equal the children, so only the zero token forces the peel
    tokens = np.zeros(len(children), dtype=np.uint64)
    peeled, verdict = _peeled_rows(
        lambda: mask_is_acyclic_batch(instance, rows, rows, tokens)
    )
    assert peeled == len(children)
    assert verdict.tolist() == [mask_is_acyclic(instance, child) for child in children]
    assert not verdict.all()


def test_forests_skip_the_peel():
    tree = tree_instance(12, seed=2)
    pair_of_paths = LinkReversalInstance((0, 1, 2, 3, 4), 0, ((0, 1), (1, 2), (3, 4)))
    square_and_edge = LinkReversalInstance(
        (0, 1, 2, 3, 4, 5), 0, ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5))
    )
    assert tree.is_forest() and pair_of_paths.is_forest()
    assert not square_and_edge.is_forest() and not grid_instance(3, 3).is_forest()
    masks = int_rows(list(range(64)), 1)
    peeled, verdict = _peeled_rows(
        lambda: mask_is_acyclic_batch(
            tree, masks, masks, np.zeros(len(masks), dtype=np.uint64)
        )
    )
    assert peeled == 0 and verdict.all()


# ----------------------------------------------------------------------
# seeded kernel mutants on graphs with cycles
# ----------------------------------------------------------------------
def _fr_keeps_one_edge(self, sigs, ci):
    """FR that leaves its lowest incident edge unreversed: it keeps an in-edge."""
    inc = self._inc[ci].copy()
    inc[0] &= inc[0] - np.uint64(1)
    return sigs ^ inc


def _fr_flips_a_stray_edge(self, sigs, ci):
    """FR that also flips the lowest edge not incident to the actor."""
    inc = self._inc[ci]
    free = ~inc[0] & np.uint64((1 << self.instance.edge_count) - 1)
    stray = np.zeros_like(inc)
    stray[0] = free & (~free + np.uint64(1))
    return sigs ^ inc ^ stray


def _pr_reverses_its_list(self, sigs, ci):
    """PR that, with a partial list, reverses the listed neighbours instead."""
    lanes = np.arange(sigs.shape[0])
    flip, partner = self._step_masks(sigs, lanes, np.full(lanes.size, ci, np.uint64))
    inc = self._inc[ci]
    partial = (flip != inc).any(axis=1)
    flip = np.where(partial[:, None], flip ^ inc, flip)
    return ((sigs ^ flip) | partner) & self._row_clear[ci]


MUTANTS = {
    "fr-keeps-one-edge": (vector._VectorFullReversal, "fr", _fr_keeps_one_edge, {}),
    "fr-flips-a-stray-edge": (vector._VectorFullReversal, "fr", _fr_flips_a_stray_edge, {}),
    "pr-reverses-its-list": (
        vector._VectorListKernel, "pr", _pr_reverses_its_list,
        {"single_actions_only": True},
    ),
}


#: Graphs with cycles on which every mutant closes one.
MUTANT_GRAPHS = {
    "random-dag7": random_dag_instance(7, edge_probability=0.5, seed=2),
    "random-dag8": random_dag_instance(8, edge_probability=0.5, seed=0),
}


@pytest.mark.parametrize("graph", sorted(MUTANT_GRAPHS))
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutants_fail_as_under_the_full_peel(mutant, graph):
    owner, algorithm, step, options = MUTANTS[mutant]
    instance = MUTANT_GRAPHS[graph]
    assert not instance.is_forest()
    with mock.patch.object(owner, "_step_many", step):
        incremental, full = _both_checks(
            lambda: ALGORITHM_FACTORIES[algorithm](instance),
            max_states=5000, **options,
        )
    assert _outcome(incremental) == _outcome(full)
    cycles = [f for f in incremental.failures if f.predicate_name == "acyclic"]
    assert cycles, "the mutant closes no cycle on this graph"
    assert incremental.failures[0].trace == full.failures[0].trace
    assert cycles[0].trace.reconstructed and cycles[0].trace.actions


# ----------------------------------------------------------------------
# which runs peel what
# ----------------------------------------------------------------------
def test_peeled_rows_counter():
    fr = ALGORITHM_FACTORIES["fr"]
    # FR leaves every actor a source: only the start state is peeled
    peeled, report = _peeled_rows(lambda: _check(fr(grid_instance(3, 3))))
    assert peeled == 1 and report.states_explored == 82
    # NewPR actors keep in-edges on a graph with cycles
    peeled, report = _peeled_rows(
        lambda: _check(ALGORITHM_FACTORIES["new-pr"](layered_instance(4, 3)))
    )
    assert 1 < peeled < report.states_explored
    # symmetry reduction peels every state; so does the forced full peel
    peeled, report = _peeled_rows(
        lambda: _check(fr(star_instance(6, destination_is_center=True)), symmetry=True)
    )
    assert report.symmetry_reduced and peeled == report.states_explored
    with mock.patch.object(checker, "mask_is_acyclic_batch", _full_peel):
        peeled, report = _peeled_rows(lambda: _check(fr(grid_instance(3, 3))))
    assert peeled == report.states_explored
