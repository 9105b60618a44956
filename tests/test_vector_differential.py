"""Differential pins for the vectorised frontier engine (PR 10).

The batch kernels in :mod:`repro.kernels.vector` and the checker's
``vectorized`` paths promise *exact* equality with the scalar oracle —
not just the same verdict but the same state/transition counts, the same
visited sets, the same truncation points, the same failure lists in the
same order, and counterexample traces that replay.  Every promise gets a
pin here, plus coverage for the batch-first :class:`VisitedSet` API the
engine rides on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.core.graph import LinkReversalInstance
from repro.exploration.checker import ModelChecker
from repro.exploration.frontier import VisitedSet
from repro.kernels.signature import (
    compile_expander,
    mask_is_acyclic,
    mask_is_destination_oriented,
    shard_of,
)
from repro.kernels.vector import (
    compile_vector_expander,
    decode_token,
    mask_is_acyclic_batch,
    mask_is_destination_oriented_batch,
    shard_of_batch,
)
from repro.topology.generators import (
    chain_instance,
    grid_instance,
    random_dag_instance,
    star_instance,
    tree_instance,
)

ALGORITHM_CLASSES = (PartialReversal, OneStepPartialReversal, NewPartialReversal, FullReversal)

REPORT_FIELDS = (
    "states_explored",
    "transitions_explored",
    "quiescent_states",
    "max_depth",
    "truncated",
)


def _vectorisable_instance(automaton_class):
    """A non-trivial instance whose signature fits the 64-bit batch lane."""
    if automaton_class is NewPartialReversal:
        # NewPR packs E + 16·n bits; only toy instances fit one word
        return chain_instance(3, towards_destination=False)
    return grid_instance(3, 3, oriented_towards_destination=False)


def _run(automaton, predicates=None, **kwargs):
    kwargs.setdefault("max_traced_failures", 10_000)
    return ModelChecker(automaton, predicates, **kwargs).run()


def _summaries(report):
    return tuple(getattr(report, field) for field in REPORT_FIELDS)


def _failure_keys(report):
    return [
        (
            failure.predicate_name,
            failure.detail,
            tuple(failure.trace.signatures or ()),
            tuple(str(action) for action in failure.trace.actions),
        )
        for failure in report.failures
    ]


def _planted_predicates(automaton):
    initial_signature = automaton.initial_state().signature()
    return {
        "is-initial": lambda s: s.signature() == initial_signature,
        "at-most-one-reversal": lambda s: bin(s.graph_signature()).count("1") <= 1,
    }


# ----------------------------------------------------------------------
# engine-level pins: vectorised == scalar, field for field
# ----------------------------------------------------------------------
class TestVectorMatchesScalar:
    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_counts_and_visited_sets(self, automaton_class):
        instance = _vectorisable_instance(automaton_class)
        base = dict(check_acyclicity=True, collect_signatures=True)
        scalar = _run(automaton_class(instance), vectorized="never", **base)
        batch = _run(automaton_class(instance), vectorized="always", **base)
        assert not scalar.vectorized and batch.vectorized
        assert _summaries(scalar) == _summaries(batch)
        assert scalar.signatures == batch.signatures

    @pytest.mark.parametrize("automaton_class", ALGORITHM_CLASSES)
    def test_failure_lists_identical_in_order(self, automaton_class):
        instance = _vectorisable_instance(automaton_class)
        automaton = automaton_class(instance)
        predicates = _planted_predicates(automaton)
        base = dict(check_acyclicity=True, check_progress=True)
        scalar = _run(automaton_class(instance), predicates, vectorized="never", **base)
        batch = _run(automaton_class(instance), predicates, vectorized="always", **base)
        assert _failure_keys(scalar), "planted predicates must actually fail"
        assert _failure_keys(scalar) == _failure_keys(batch)

    @pytest.mark.parametrize("max_states", [1, 3, 10, 50, 200])
    def test_truncation_points_identical(self, max_states):
        instance = grid_instance(3, 3, oriented_towards_destination=False)
        base = dict(check_acyclicity=True, collect_signatures=True, max_states=max_states)
        scalar = _run(FullReversal(instance), vectorized="never", **base)
        batch = _run(FullReversal(instance), vectorized="always", **base)
        assert _summaries(scalar) == _summaries(batch)
        assert scalar.signatures == batch.signatures

    def test_sharded_vector_matches_single(self):
        instance = grid_instance(3, 3, oriented_towards_destination=False)
        base = dict(check_acyclicity=True, check_progress=True, collect_signatures=True)
        single = _run(FullReversal(instance), vectorized="always", **base)
        sharded = _run(FullReversal(instance), vectorized="always", workers=3, **base)
        assert sharded.vectorized
        assert _summaries(single) == _summaries(sharded)
        assert single.signatures == sharded.signatures
        assert sorted(_failure_keys(single)) == sorted(_failure_keys(sharded))

    def test_sharded_spill_and_compaction_match_scalar(self, tmp_path):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        base = dict(check_acyclicity=True, collect_signatures=True,
                    spill_threshold=200, spill_max_runs=2)
        scalar = _run(FullReversal(instance), vectorized="never", workers=2,
                      spill_dir=str(tmp_path / "scalar"), **base)
        batch = _run(FullReversal(instance), vectorized="always", workers=2,
                     spill_dir=str(tmp_path / "batch"), **base)
        assert batch.spilled and scalar.spilled
        assert batch.spill_stats["spills"] > 0
        assert batch.spill_stats["compactions"] > 0
        assert _summaries(scalar) == _summaries(batch)
        assert scalar.signatures == batch.signatures

    def test_counterexamples_replay(self):
        instance = grid_instance(3, 3, oriented_towards_destination=False)
        for workers in (1, 2):
            automaton = OneStepPartialReversal(instance)
            predicates = _planted_predicates(automaton)
            report = _run(automaton, predicates, vectorized="always", workers=workers)
            assert report.vectorized and report.failures
            for failure in report.failures:
                assert failure.trace.reconstructed
                execution = failure.trace.replay(OneStepPartialReversal(instance))
                execution.validate()
                assert not predicates[failure.predicate_name](execution.final_state)

    def test_wide_signatures_fall_back_to_scalar(self):
        # NewPR on a 4×4 grid needs 24 + 16·16 bits — far past one word
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        expander = compile_expander(NewPartialReversal(instance))
        assert compile_vector_expander(expander) is None
        report = _run(NewPartialReversal(instance), vectorized="auto", max_states=50)
        assert not report.vectorized  # fell back, still answered
        with pytest.raises(ValueError, match="vectorized='always'"):
            ModelChecker(NewPartialReversal(instance), vectorized="always")

    def test_shard_of_batch_matches_scalar_shard_of(self):
        mersenne = (1 << 61) - 1
        edge_values = [0, 1, mersenne - 1, mersenne, mersenne + 1, (1 << 64) - 1]
        rng = np.random.default_rng(7)
        values = np.concatenate([
            np.array(edge_values, dtype=np.uint64),
            rng.integers(0, 1 << 63, size=1000, dtype=np.uint64),
        ])
        for shards in (2, 3, 7):
            batch = shard_of_batch(values, shards)
            expected = [shard_of(int(v), shards) for v in values.tolist()]
            assert batch.tolist() == expected


# ----------------------------------------------------------------------
# the batch-first VisitedSet underneath the engine
# ----------------------------------------------------------------------
class TestVisitedSetBatch:
    def test_add_many_mask_matches_scalar_add_semantics(self, tmp_path):
        vs = VisitedSet(key_bytes=8, spill_threshold=64, spill_dir=tmp_path)
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

    def test_contains_many_across_memory_segments_and_runs(self, tmp_path):
        vs = VisitedSet(key_bytes=8, spill_threshold=50, spill_dir=tmp_path, max_runs=2)
        members = list(range(0, 600, 3))
        try:
            for value in members:
                vs.add(value)
            assert vs.spilled_runs > 0
            probes = np.arange(0, 620, dtype=np.uint64)
            hits = vs.contains_many(probes)
            assert hits.tolist() == [int(p) in set(members) for p in probes.tolist()]
        finally:
            vs.close()

    def test_iter_streams_spilled_runs(self, tmp_path):
        vs = VisitedSet(key_bytes=8, spill_threshold=32, spill_dir=tmp_path)
        values = set(range(1000, 1500))
        try:
            for value in values:
                vs.add(value)
            assert vs.spilled_runs > 1
            assert set(vs) == values
        finally:
            vs.close()

    def test_compaction_folds_runs_and_counts_survive(self, tmp_path):
        vs = VisitedSet(key_bytes=8, spill_threshold=40, spill_dir=tmp_path, max_runs=2)
        try:
            for value in range(700):
                vs.add(value)
            stats = vs.stats
            assert stats["compactions"] > 0
            assert stats["runs"] <= 2
            assert len(vs) == 700
            assert all(value in vs for value in range(0, 700, 97))
        finally:
            vs.close()

    def test_close_empties_the_set(self, tmp_path):
        """Satellite pin: ``close()`` must leave a genuinely empty set."""
        vs = VisitedSet(key_bytes=8, spill_threshold=16, spill_dir=tmp_path)
        for value in range(100):
            vs.add(value)
        assert vs.spilled_runs > 0 and len(vs) == 100
        vs.close()
        assert len(vs) == 0
        assert list(vs) == []
        assert 5 not in vs
        assert list(tmp_path.glob("run-*.bin")) == []
        # close() is idempotent and the set stays usable as an empty one
        vs.close()
        assert len(vs) == 0


# ----------------------------------------------------------------------
# the bit-parallel batch masks == the scalar mask checks
# ----------------------------------------------------------------------
MASK_INSTANCES = {
    "grid-3x3": lambda: grid_instance(3, 3),
    "grid-4x4-all-bad": lambda: grid_instance(4, 4, oriented_towards_destination=False),
    "tree-14-all-bad": lambda: tree_instance(14, seed=1),
    "random-dag-12": lambda: random_dag_instance(12, 0.35, seed=5),
    "tree-64": lambda: tree_instance(64, seed=2),
}


def _random_masks(instance, count, seed):
    """Seeded masks over the instance's edge bits, plus all-zero and all-one."""
    rng = np.random.default_rng(seed)
    edge_bits = np.uint64((1 << instance.edge_count) - 1)
    masks = (
        rng.integers(0, 1 << 32, size=count, dtype=np.uint64) << np.uint64(32)
    ) | rng.integers(0, 1 << 32, size=count, dtype=np.uint64)
    return np.concatenate([np.array([0, edge_bits], dtype=np.uint64), masks & edge_bits])


class TestBatchMasks:
    @pytest.mark.parametrize("name", sorted(MASK_INSTANCES))
    def test_masks_equal_scalar_checks(self, name):
        instance = MASK_INSTANCES[name]()
        masks = _random_masks(instance, 600, seed=len(name))
        acyclic = [mask_is_acyclic(instance, mask) for mask in masks.tolist()]
        oriented = [mask_is_destination_oriented(instance, mask) for mask in masks.tolist()]
        assert mask_is_acyclic_batch(instance, masks).tolist() == acyclic
        assert mask_is_destination_oriented_batch(instance, masks).tolist() == oriented
        assert any(oriented)
        if instance.edge_count >= instance.node_count:
            # graphs with a cycle: random masks must reach the cyclic branch
            assert not all(acyclic) and any(acyclic)

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
# PR's multi-action emission order on many-sink instances
# ----------------------------------------------------------------------
class TestPartialReversalEmissionOrder:
    @pytest.mark.parametrize(
        "instance",
        [tree_instance(n, seed=1) for n in (12, 13, 14)] + [star_instance(9)],
        ids=["tree-12", "tree-13", "tree-14", "star-9"],
    )
    def test_expand_equals_scalar_successors(self, instance):
        scalar = compile_expander(PartialReversal(instance))
        vector = compile_vector_expander(scalar)
        reachable = _run(
            PartialReversal(instance), vectorized="never", collect_signatures=True
        ).signatures
        sigs = sorted(reachable)
        expansion = vector.expand(np.array(sigs, dtype=np.uint64))
        expected = [
            (index, token, successor)
            for index, sig in enumerate(sigs)
            for token, successor in scalar.successors(sig)
        ]
        emitted = list(zip(
            expansion.parents.tolist(),
            [decode_token(token) for token in expansion.tokens.tolist()],
            expansion.successors.tolist(),
        ))
        assert emitted == expected
        assert max(len(token) for _, token, _ in expected) >= 5
        assert expansion.quiescent.tolist() == [
            index for index, sig in enumerate(sigs) if not scalar.successors(sig)
        ]


# ----------------------------------------------------------------------
# symmetry reduction on the vector loop == the scalar loop
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
            _run(automaton_class(instance), vectorized="never",
                 collect_signatures=True).signatures
        )
        # arbitrary signatures too: reachable sets are too symmetric to tell
        # the order in which touching classes are sorted
        rng = np.random.default_rng(5)
        arbitrary = rng.integers(
            0, 1 << scalar.signature_bits, size=2000, dtype=np.uint64
        ).tolist()
        for sigs in (reachable, arbitrary):
            canonical = vector.canonicalize_many(np.array(sigs, dtype=np.uint64))
            assert canonical.tolist() == [scalar.canonicalize(sig) for sig in sigs]
        assert len(set(vector.canonicalize_many(
            np.array(reachable, dtype=np.uint64)).tolist())) < len(reachable)

    @pytest.mark.parametrize("automaton_class, build", SYMMETRY_CASES, ids=SYMMETRY_IDS)
    def test_counts_visited_sets_and_failures(self, automaton_class, build):
        instance = build()
        predicates = _planted_predicates(automaton_class(instance))
        base = dict(symmetry=True, check_acyclicity=True, check_progress=True,
                    collect_signatures=True)
        scalar = _run(automaton_class(instance), predicates, vectorized="never", **base)
        batch = _run(automaton_class(instance), predicates, vectorized="always", **base)
        assert batch.vectorized and batch.symmetry_reduced
        assert _summaries(scalar) == _summaries(batch)
        assert scalar.signatures == batch.signatures
        assert _failure_keys(scalar), "planted predicates must actually fail"
        assert _failure_keys(scalar) == _failure_keys(batch)
        expander = compile_expander(automaton_class(instance))
        for failure in batch.failures:
            failure.trace.verify_signatures(expander)

    @pytest.mark.parametrize("max_states", [1, 3, 5])
    def test_truncation_points_identical(self, max_states):
        base = dict(symmetry=True, collect_signatures=True, max_states=max_states)
        scalar = _run(PartialReversal(_touching_twin_classes()), vectorized="never", **base)
        batch = _run(PartialReversal(_touching_twin_classes()), vectorized="always", **base)
        assert _summaries(scalar) == _summaries(batch)
        assert scalar.signatures == batch.signatures

    @pytest.mark.parametrize("automaton_class", [FullReversal, PartialReversal])
    def test_sharded_matches_single(self, automaton_class):
        instance = _touching_twin_classes()
        base = dict(symmetry=True, check_acyclicity=True, check_progress=True,
                    collect_signatures=True, vectorized="always")
        single = _run(automaton_class(instance), **base)
        sharded = _run(automaton_class(instance), workers=2, **base)
        assert sharded.vectorized and sharded.symmetry_reduced
        assert _summaries(single) == _summaries(sharded)
        assert single.signatures == sharded.signatures
