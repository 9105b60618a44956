"""Kernel-level pins for the batch expanders and the batch-first visited set.

The batch kernels in :mod:`repro.kernels.vector` promise *exact* equality
with the object-level automata and the scalar kernels in
:mod:`repro.kernels.signature`: the successors of ``enabled_actions`` in
its order, the same canonical forms and the same structural verdicts, for
signature rows of any width.  The checker loop
built on them is pinned to the reference explorer in
``tests/test_model_check_differential.py``; this file pins the pieces,
plus the :class:`VisitedSet` the loop rides on, the compiled loop's gate
and counterexamples that replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bll import BinaryLinkLabels
from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.core.graph import (
    LinkReversalInstance,
    mask_is_acyclic,
    mask_is_destination_oriented,
)
from repro.exploration.checker import ModelChecker
from repro.exploration.frontier import VisitedSet
from repro.kernels.signature import compile_expander
from repro.kernels.vector import (
    compile_vector_expander,
    decode_token,
    int_rows,
    mask_is_acyclic_batch,
    mask_is_destination_oriented_batch,
    row_ints,
    row_keys,
)
from repro.topology.generators import (
    chain_instance,
    grid_instance,
    random_dag_instance,
    star_instance,
    tree_instance,
)

ALGORITHM_CLASSES = (PartialReversal, OneStepPartialReversal, NewPartialReversal, FullReversal)

def _run(automaton, predicates=None, **kwargs):
    kwargs.setdefault("max_traced_failures", 10_000)
    return ModelChecker(automaton, predicates, **kwargs).run()


def _planted_predicates(automaton):
    initial_signature = automaton.initial_state().signature()
    return {
        "is-initial": lambda s: s.signature() == initial_signature,
        "at-most-one-reversal": lambda s: bin(s.graph_signature()).count("1") <= 1,
    }


# ----------------------------------------------------------------------
# the compiled loop: its gate, wide signatures and replayable traces
# ----------------------------------------------------------------------
class TestCompiledLoop:
    def test_counterexamples_replay(self):
        instance = grid_instance(3, 3, oriented_towards_destination=False)
        automaton = OneStepPartialReversal(instance)
        predicates = _planted_predicates(automaton)
        report = _run(automaton, predicates)
        assert report.vectorized and report.failures
        for failure in report.failures:
            assert failure.trace.reconstructed
            execution = failure.trace.replay(OneStepPartialReversal(instance))
            execution.validate()
            assert not predicates[failure.predicate_name](execution.final_state)

    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_wide_signatures_run_on_the_compiled_loop(self, automaton_class):
        # NewPR on a 4×4 grid needs 24 + 16·16 bits, PR 72: several words
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        report = _run(automaton_class(instance), check_acyclicity=True,
                      check_progress=True, max_states=2000)
        assert report.vectorized
        assert report.all_predicates_hold

    def test_high_degree_pr_nodes_run_on_the_compiled_loop(self):
        # the hub's list row is 21 bits: its step masks are filled on use
        instance = star_instance(21, destination_is_center=False)
        expander = compile_expander(PartialReversal(instance))
        assert max(instance._degree) == 21
        assert compile_vector_expander(expander) is not None
        report = _run(PartialReversal(instance), check_acyclicity=True,
                      check_progress=True)
        assert report.vectorized and report.all_predicates_hold

    def test_more_than_64_nodes_run_on_the_reference_loop(self):
        instance = chain_instance(66, towards_destination=True)
        report = _run(PartialReversal(instance), check_acyclicity=True,
                      check_progress=True)
        assert not report.vectorized
        assert report.states_explored == 1 and report.all_predicates_hold
        for option in (dict(symmetry=True), dict(spill_threshold=10)):
            with pytest.raises(ValueError, match="at most 64 nodes"):
                ModelChecker(PartialReversal(instance), **option)


# ----------------------------------------------------------------------
# the batch-first VisitedSet underneath the engine
# ----------------------------------------------------------------------
class TestVisitedSetBatch:
    def test_add_many_mask_marks_first_new_occurrences(self, tmp_path):
        vs = VisitedSet(spill_threshold=64, spill_dir=tmp_path)
        reference: set = set()
        rng = np.random.default_rng(11)
        try:
            for _ in range(40):
                batch = rng.integers(0, 500, size=37, dtype=np.uint64)
                expected = []
                for value in batch.tolist():
                    expected.append(value not in reference)
                    reference.add(value)
                mask = vs.add_many(batch)
                assert mask.tolist() == expected
            assert len(vs) == len(reference)
            assert set(vs) == reference
        finally:
            vs.close()

    def test_contains_many_across_segments_and_runs(self, tmp_path):
        vs = VisitedSet(spill_threshold=50, spill_dir=tmp_path, max_runs=2)
        members = list(range(0, 600, 3))
        try:
            for start in range(0, len(members), 7):
                vs.add_many(np.array(members[start:start + 7], dtype=np.uint64))
            assert vs.spilled_runs > 0
            probes = np.arange(0, 620, dtype=np.uint64)
            hits = vs.contains_many(probes)
            assert hits.tolist() == [int(p) in set(members) for p in probes.tolist()]
        finally:
            vs.close()

    def test_iter_streams_spilled_runs(self, tmp_path):
        vs = VisitedSet(spill_threshold=32, spill_dir=tmp_path)
        values = set(range(1000, 1500))
        try:
            for value in values:
                vs.add_many(np.array([value], dtype=np.uint64))
            assert vs.spilled_runs > 1
            assert set(vs) == values
        finally:
            vs.close()

    def test_compaction_folds_runs_and_counts_survive(self, tmp_path):
        vs = VisitedSet(spill_threshold=40, spill_dir=tmp_path, max_runs=2)
        try:
            for start in range(0, 700, 10):
                vs.add_many(np.arange(start, start + 10, dtype=np.uint64))
            stats = vs.stats
            assert stats["compactions"] > 0
            assert stats["runs"] <= 2
            assert len(vs) == 700
            assert vs.contains_many(np.arange(0, 700, 97, dtype=np.uint64)).all()
        finally:
            vs.close()

    def test_wide_keys_spill_compact_and_iterate(self, tmp_path):
        # three-word signatures travel as fixed-width void keys
        vs = VisitedSet(spill_threshold=40, spill_dir=tmp_path, max_runs=2)
        rng = np.random.default_rng(3)
        values = [int(v) << 128 | int(v) * 7 for v in rng.integers(0, 1 << 62, 300)]
        reference: set = set()
        try:
            for start in range(0, 600, 9):
                batch = values[start % 300:start % 300 + 9]
                expected = []
                for value in batch:
                    expected.append(value not in reference)
                    reference.add(value)
                assert vs.add_many(row_keys(int_rows(batch, 3))).tolist() == expected
            assert vs.stats["compactions"] > 0
            assert len(vs) == len(reference)
            assert set(vs) == reference
            probes = int_rows(sorted(reference)[:5] + [1, 2], 3)
            keys = np.sort(row_keys(probes))
            assert vs.contains_many(keys).sum() == 5
        finally:
            vs.close()

    def test_close_empties_the_set(self, tmp_path):
        """Satellite pin: ``close()`` must leave a genuinely empty set."""
        vs = VisitedSet(spill_threshold=16, spill_dir=tmp_path)
        for value in range(100):
            vs.add_many(np.array([value], dtype=np.uint64))
        assert vs.spilled_runs > 0 and len(vs) == 100
        vs.close()
        assert len(vs) == 0
        assert list(vs) == []
        assert not vs.contains_many(np.array([5], dtype=np.uint64))[0]
        assert list(tmp_path.glob("run-*.bin")) == []
        # close() is idempotent and the set stays usable as an empty one
        vs.close()
        assert len(vs) == 0


# ----------------------------------------------------------------------
# the bit-parallel batch masks == the scalar mask checks
# ----------------------------------------------------------------------
def _dense_wide():
    """K_12 toward node 0 plus a 3-chain: 69 edges, two words of edge bits."""
    core = [(u, v) for u in range(11, 0, -1) for v in range(u - 1, -1, -1)]
    edges = [(11, "x1"), ("x1", "x2"), ("x2", "x3")] + core
    return LinkReversalInstance(tuple(range(12)) + ("x1", "x2", "x3"), 0, tuple(edges))


MASK_INSTANCES = {
    "grid-3x3": lambda: grid_instance(3, 3),
    "grid-4x4-all-bad": lambda: grid_instance(4, 4, oriented_towards_destination=False),
    "tree-14-all-bad": lambda: tree_instance(14, seed=1),
    "random-dag-12": lambda: random_dag_instance(12, 0.35, seed=5),
    "tree-64": lambda: tree_instance(64, seed=2),
    "dense-69": _dense_wide,
}


def _random_masks(instance, count, seed):
    """Seeded masks over the instance's edge bits, plus all-zero and all-one.

    Returned as signature rows: one word per 64 edges.
    """
    rng = np.random.default_rng(seed)
    edges = instance.edge_count
    masks = [0, (1 << edges) - 1] + [
        int.from_bytes(rng.bytes(16), "little") % (1 << edges) for _ in range(count)
    ]
    return int_rows(masks, -(-edges // 64))


class TestBatchMasks:
    @pytest.mark.parametrize("name", sorted(MASK_INSTANCES))
    def test_masks_equal_scalar_checks(self, name):
        instance = MASK_INSTANCES[name]()
        masks = _random_masks(instance, 600, seed=len(name))
        acyclic = [mask_is_acyclic(instance, mask) for mask in row_ints(masks)]
        oriented = [mask_is_destination_oriented(instance, mask) for mask in row_ints(masks)]
        assert mask_is_acyclic_batch(instance, masks).tolist() == acyclic
        assert mask_is_destination_oriented_batch(instance, masks).tolist() == oriented
        assert any(oriented)
        if instance.edge_count >= instance.node_count:
            # graphs with a cycle: random masks must reach the cyclic branch
            assert not all(acyclic) and any(acyclic)

    def test_one_word_masks_may_be_one_dimensional(self):
        instance = grid_instance(3, 3, oriented_towards_destination=False)
        masks = _random_masks(instance, 50, seed=1)
        assert (mask_is_acyclic_batch(instance, masks[:, 0])
                == mask_is_acyclic_batch(instance, masks)).all()

    def test_empty_batch(self):
        instance = grid_instance(3, 3)
        empty = np.zeros(0, dtype=np.uint64)
        assert mask_is_acyclic_batch(instance, empty).shape == (0,)
        assert mask_is_destination_oriented_batch(instance, empty).shape == (0,)

    def test_edgeless_instances(self):
        masks = np.zeros(3, dtype=np.uint64)
        lone = LinkReversalInstance(("d",), "d", ())
        pair = LinkReversalInstance(("d", "u"), "d", ())
        assert mask_is_acyclic_batch(pair, masks).tolist() == [True] * 3
        assert mask_is_destination_oriented_batch(pair, masks).tolist() == [False] * 3
        assert mask_is_destination_oriented_batch(lone, masks).tolist() == [True] * 3

    def test_more_than_64_nodes_rejected(self):
        instance = tree_instance(65, seed=0)
        masks = np.zeros(2, dtype=np.uint64)
        with pytest.raises(ValueError, match="64 bits"):
            mask_is_acyclic_batch(instance, masks)
        with pytest.raises(ValueError, match="64 bits"):
            mask_is_destination_oriented_batch(instance, masks)


# ----------------------------------------------------------------------
# emission order == the automaton's enabled_actions order
# ----------------------------------------------------------------------
def _oracle_successors(automaton, expander, sig):
    """``(actor-id token, successor)`` of every action the automaton enables
    in ``sig``'s state, in its ``enabled_actions`` order."""
    instance = automaton.instance
    state = expander.state_for(sig)
    return [
        (
            tuple(sorted(instance.node_index(u) for u in action.actors())),
            expander.encode_state(automaton.apply(state, action)),
        )
        for action in automaton.enabled_actions(state)
    ]


def _assert_expand_follows_enabled_actions(automaton):
    """Expand every reachable state at once; returns the oracle's pairs."""
    scalar = compile_expander(automaton)
    vector = compile_vector_expander(scalar)
    reachable = _run(automaton, collect_signatures=True).signatures
    sigs = sorted(reachable)
    expansion = vector.expand(int_rows(sigs, vector.words))
    per_state = [_oracle_successors(automaton, scalar, sig) for sig in sigs]
    expected = [
        (index, token, successor)
        for index, pairs in enumerate(per_state)
        for token, successor in pairs
    ]
    emitted = list(zip(
        expansion.parents.tolist(),
        [decode_token(token) for token in expansion.tokens.tolist()],
        row_ints(expansion.successors),
    ))
    assert emitted == expected
    assert expansion.quiescent.tolist() == [
        index for index, pairs in enumerate(per_state) if not pairs
    ]
    return expected


class TestEmissionOrder:
    @pytest.mark.parametrize(
        "instance",
        [tree_instance(n, seed=1) for n in (12, 13, 14)] + [star_instance(9)],
        ids=["tree-12", "tree-13", "tree-14", "star-9"],
    )
    def test_pr_subsets_follow_enabled_actions(self, instance):
        expected = _assert_expand_follows_enabled_actions(PartialReversal(instance))
        assert max(len(token) for _, token, _ in expected) >= 5

    @pytest.mark.parametrize(
        "automaton_class",
        [OneStepPartialReversal, NewPartialReversal, FullReversal, BinaryLinkLabels],
    )
    @pytest.mark.parametrize(
        "instance",
        [tree_instance(12, seed=1), star_instance(7), grid_instance(3, 3)],
        ids=["tree-12", "star-7", "grid-3x3"],
    )
    def test_single_actions_follow_enabled_actions(self, automaton_class, instance):
        _assert_expand_follows_enabled_actions(automaton_class(instance))


# ----------------------------------------------------------------------
# batch canonicalisation == the scalar canonical form
# ----------------------------------------------------------------------
def _touching_twin_classes():
    """Twin classes {a1, a2} and {b1, b2, b3} that share every a–b edge."""
    a_side, b_side = ("a1", "a2"), ("b1", "b2", "b3")
    edges = [("d", a) for a in a_side] + [(a, b) for a in a_side for b in b_side]
    return LinkReversalInstance(("d",) + a_side + b_side, "d", tuple(edges))


SYMMETRY_CASES = [
    (FullReversal, lambda: star_instance(6)),
    (FullReversal, _touching_twin_classes),
    (PartialReversal, lambda: star_instance(5)),
    (PartialReversal, _touching_twin_classes),
    (OneStepPartialReversal, lambda: star_instance(5)),
    (OneStepPartialReversal, _touching_twin_classes),
    (NewPartialReversal, lambda: star_instance(2)),
    (NewPartialReversal, _touching_twin_classes),
]
SYMMETRY_IDS = [
    f"{cls.__name__}-{'star' if build is not _touching_twin_classes else 'touching'}"
    for cls, build in SYMMETRY_CASES
]


class TestVectorSymmetry:
    @pytest.mark.parametrize("automaton_class, build", SYMMETRY_CASES, ids=SYMMETRY_IDS)
    def test_canonicalize_many_equals_scalar(self, automaton_class, build):
        instance = build()
        scalar = compile_expander(automaton_class(instance))
        vector = compile_vector_expander(scalar, symmetry=True)
        reachable = sorted(
            _run(automaton_class(instance), collect_signatures=True).signatures
        )
        # arbitrary signatures too: reachable sets are too symmetric to tell
        # the order in which touching classes are sorted
        rng = np.random.default_rng(5)
        arbitrary = [
            int.from_bytes(rng.bytes(8 * vector.words), "little")
            % (1 << scalar.signature_bits)
            for _ in range(2000)
        ]
        for sigs in (reachable, arbitrary):
            canonical = row_ints(vector.canonicalize_many(int_rows(sigs, vector.words)))
            assert canonical == [scalar.canonicalize(sig) for sig in sigs]
        assert len(set(row_ints(vector.canonicalize_many(
            int_rows(reachable, vector.words))))) < len(reachable)

    @pytest.mark.parametrize("automaton_class, build", SYMMETRY_CASES, ids=SYMMETRY_IDS)
    def test_symmetric_traces_verify(self, automaton_class, build):
        instance = build()
        predicates = _planted_predicates(automaton_class(instance))
        report = _run(automaton_class(instance), predicates, symmetry=True,
                      check_acyclicity=True, check_progress=True)
        assert report.vectorized and report.symmetry_reduced
        assert report.failures, "planted predicates must actually fail"
        expander = compile_expander(automaton_class(instance))
        for failure in report.failures:
            failure.trace.verify_signatures(expander)
