"""Differential tests: BLL on the compiled kernels vs the object explorer.

Binary Link Labels that marks on reversal is OneStepPR with ``marked[u]`` in
the role of ``list[u]``, from *any* initial labelling, and BLL that never
marks is FR from the all-unmarked one, so ``compile_expander`` runs both on
those kernels.  These tests pin that reading to the object-level automaton
over whole reachable spaces, not schedule by schedule:

* over every connected DAG start with at most five nodes, the compiled
  reachable signature set equals
  :class:`~repro.exploration.state_space.StateSpaceExplorer`'s from the
  all-unmarked labelling, and over a seeded third of them from seeded
  random initial marks;
* the never-marking mode on seeded starts equals the explorer too, and a
  never-marking automaton that starts marked stays on the reference loop;
* a seeded mutant kernel that keeps the stepping node's marks is caught;
* twin-node symmetry never loses a reachable orbit when initial marks tell
  twins apart.
"""

from __future__ import annotations

import random
from itertools import permutations

from repro.core.bll import BinaryLinkLabels
from repro.core.graph import LinkReversalInstance, mask_directed_edges
from repro.exploration.checker import ModelChecker
from repro.exploration.enumerate_graphs import all_connected_dag_instances
from repro.exploration.state_space import StateSpaceExplorer
from repro.kernels import signature
from repro.kernels.signature import (
    BLLExpander,
    BLLFullReversalExpander,
    compile_expander,
)

#: Every connected DAG start with two to five nodes (771 of them).
SMALL_STARTS = [
    instance for n in range(2, 6) for instance in all_connected_dag_instances(n)
]


def random_marks(instance: LinkReversalInstance, rng: random.Random):
    """Each node marks each of its neighbours with probability one half."""
    return {
        u: [v for v in sorted(instance.nbrs(u)) if rng.random() < 0.5]
        for u in instance.nodes
    }


def explorer_signatures(automaton):
    """The object explorer's reachable signature set."""
    seen = set()
    StateSpaceExplorer(
        automaton, {"collect": lambda state: seen.add(state.signature()) or True}
    ).explore()
    return seen


def compiled_signatures(automaton, **options):
    """The compiled loop's reachable signature set (it must run compiled)."""
    report = ModelChecker(automaton, collect_signatures=True, **options).run()
    assert report.vectorized and not report.truncated
    return report.signatures


def mismatched_starts(make_automaton, starts):
    """The starts whose compiled reachable set differs from the explorer's."""
    return [
        instance for instance in starts
        if compiled_signatures(make_automaton(instance))
        != explorer_signatures(make_automaton(instance))
    ]


def test_the_small_starts_are_all_there():
    assert len(SMALL_STARTS) == 771


def test_every_small_start_unmarked():
    assert mismatched_starts(BinaryLinkLabels, SMALL_STARTS) == []


def test_seeded_small_starts_with_random_marks():
    # a seeded third of the starts keeps the tier-1 suite inside its budget
    rng = random.Random(26)
    starts = rng.sample(SMALL_STARTS, 257)
    marks = {id(instance): random_marks(instance, rng) for instance in starts}
    assert sum(any(m.values()) for m in marks.values()) > 200
    assert mismatched_starts(
        lambda instance: BinaryLinkLabels(instance, initial_marks=marks[id(instance)]),
        starts,
    ) == []


def test_never_marking_mode_on_seeded_starts():
    starts = random.Random(5).sample(SMALL_STARTS, 120)
    fr_mode = lambda instance: BinaryLinkLabels(instance, mark_on_reversal=False)  # noqa: E731
    assert all(
        isinstance(compile_expander(fr_mode(instance)), BLLFullReversalExpander)
        for instance in starts
    )
    assert mismatched_starts(fr_mode, starts) == []


def test_never_marking_mode_with_marks_stays_on_the_reference_loop():
    # neither PR nor FR: no kernel, and the checker still explores it exactly
    instance = SMALL_STARTS[-1]
    u = instance.nodes[-1]
    automaton = BinaryLinkLabels(
        instance, initial_marks={u: sorted(instance.nbrs(u))[:1]}, mark_on_reversal=False
    )
    assert compile_expander(automaton) is None
    report = ModelChecker(automaton, collect_signatures=True).run()
    assert not report.vectorized
    assert report.signatures == explorer_signatures(automaton)


class _KeepsMarksExpander(BLLExpander):
    """Mutant kernel: the stepping node keeps its marks."""

    def _build_list_tables(self) -> None:
        super()._build_list_tables()
        self._row_clear = tuple(-1 for _ in self._row_clear)


def test_a_kernel_that_keeps_the_stepping_nodes_marks_is_caught(monkeypatch):
    starts = random.Random(7).sample(SMALL_STARTS, 60)
    monkeypatch.setattr(signature, "BLLExpander", _KeepsMarksExpander)
    assert isinstance(compile_expander(BinaryLinkLabels(starts[0])), _KeepsMarksExpander)
    assert mismatched_starts(BinaryLinkLabels, starts)


# ----------------------------------------------------------------------
# symmetry with initial marks
# ----------------------------------------------------------------------
def _star_with_marks() -> BinaryLinkLabels:
    """Destination 0 -> centre 1 -> leaves 2, 3, 4, the centre marking leaf 3.

    The leaves are structural twins, but the mark makes leaf 3 differ from
    leaves 2 and 4 in the initial state: only 2 and 4 may be swapped.
    """
    instance = LinkReversalInstance(
        (0, 1, 2, 3, 4), 0, ((0, 1), (1, 2), (1, 3), (1, 4))
    )
    return BinaryLinkLabels(instance, initial_marks={1: [3]})


def _permuted(instance: LinkReversalInstance, sig: int, perm) -> int:
    """The BLL signature of the state ``sig`` with its nodes renamed by ``perm``."""
    edges = instance.edge_count
    mask = 0
    for tail, head in mask_directed_edges(instance, sig & ((1 << edges) - 1)):
        tail, head = perm.get(tail, tail), perm.get(head, head)
        e = instance.edge_index(tail, head)
        if instance.initial_edges[e] != (tail, head):
            mask |= 1 << e
    marks = instance.unpack_neighbour_sets(sig >> edges)
    renamed = {
        perm.get(u, u): frozenset(perm.get(v, v) for v in marked)
        for u, marked in marks.items()
    }
    return (instance.pack_neighbour_sets(renamed) << edges) | mask


def test_symmetry_keeps_every_orbit_when_marks_split_twins():
    automaton = _star_with_marks()
    instance = automaton.instance
    reachable = explorer_signatures(automaton)
    # the leaf permutations that fix the initial state, found by brute force
    initial = automaton.initial_state().signature()
    leaves = (2, 3, 4)
    group = [
        perm for perm in (dict(zip(leaves, image)) for image in permutations(leaves))
        if _permuted(instance, initial, perm) == initial
    ]
    assert len(group) == 2
    reduced = compiled_signatures(automaton, symmetry=True)
    assert reduced <= reachable  # every representative is a reachable state
    for sig in reachable:  # and every reachable orbit has one
        assert any(_permuted(instance, sig, perm) in reduced for perm in group)
    assert len(reduced) < len(reachable)  # leaves 2 and 4 still reduce
