"""Batch (vectorised) twins of the compiled signature expanders.

The scalar kernels in :mod:`repro.kernels.signature` expand one signature
per Python call; at 10⁸ states the interpreter loop itself is the bottleneck.
This module re-expresses each kernel as **whole-frontier numpy column ops**
over a ``uint64`` array of packed signatures:

* the sink test ``((sig ^ tail_sel[i]) & inc[i]) == 0`` becomes one
  broadcast XOR/AND per frontier giving the full ``(states × candidates)``
  sink matrix;
* FR's step is a single XOR column; the PR/OneStepPR list kernels gather
  their flip/bookkeeping masks from per-node ``2^degree`` tables (built once
  through the scalar kernel's own ``_compile_step``, so the masks are equal
  by construction); NewPR's parity-selected flips and counter increments are
  ``where``/add columns;
* PR's subset actions are composed in closed form: sinks are pairwise
  non-adjacent, so a subset's successor is one XOR/OR/AND of its members'
  masks, and all ``2^k`` subsets of ``k`` sinks come from ``k`` column
  doublings per group of states with ``k`` sinks;
* with symmetry reduction on, successors are canonicalised in bulk
  (:meth:`VectorExpander.canonicalize_many`: per twin class, pack each
  member's sort key into an integer, ``np.sort`` along the member axis and
  scatter the keys back).

The structural checks :func:`mask_is_acyclic_batch` and
:func:`mask_is_destination_oriented_batch` keep one ``uint64`` node set per
lane and node (in-neighbours), and peel sources / grow the reached set
bit-parallel, dropping finished lanes round by round.

**Exactness contract.**  :meth:`VectorExpander.expand` returns successors in
*exactly* the scalar generation order: for each frontier state (in frontier
order) every ``(token, successor)`` pair appears in the order
``SignatureExpander.successors`` would emit it.  The model checker's
differential pins (counts, visited sets, predecessor choices, truncation
points, failure order) all lean on this.

**Fallback.**  :func:`compile_vector_expander` returns ``None`` whenever the
signature does not fit one 64-bit lane (``signature_bits > 64``), node ids do
not fit the action-token bitmask (``node_count > 64``) or a list kernel's
degree would need oversized step tables; the checker then stays on the exact
scalar path.  NewPR's ``E + 16·n`` layout only fits toy instances — that is
expected, the fallback is the documented behaviour, not an error.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import List, Optional, Tuple

try:  # numpy is required for the batch path only; everything degrades to scalar
    import numpy as np
except ImportError:  # pragma: no cover - the toolchain ships numpy
    np = None  # type: ignore[assignment]

from repro.core.graph import LinkReversalInstance
from repro.kernels.signature import (
    _COUNT_BITS,
    _COUNT_MASK,
    FullReversalExpander,
    NewPRExpander,
    OneStepPRExpander,
    PartialReversalExpander,
    SignatureExpander,
)

__all__ = [
    "BatchExpansion",
    "VectorExpander",
    "compile_vector_expander",
    "decode_token",
    "mask_is_acyclic_batch",
    "mask_is_destination_oriented_batch",
    "shard_of_batch",
]

#: A list-kernel node needs a ``2^degree`` flip/bookkeeping table per node;
#: beyond this degree the tables stop being "tiny" and the scalar memo wins.
_MAX_TABLE_DEGREE = 12

#: ``hash(int)`` on CPython is reduction modulo the Mersenne prime ``2^61-1``
#: (for the non-negative ints signatures are), which vectorises to one
#: modulo — :func:`shard_of_batch` must agree with ``signature.shard_of``
#: because single-process resume ids and sharded runs share visited sets.
_HASH_MODULUS = (1 << 61) - 1


def decode_token(token: int) -> Tuple[int, ...]:
    """Unpack an actor-bitmask token into the scalar tuple form (ids ascending)."""
    ids = []
    i = 0
    while token:
        if token & 1:
            ids.append(i)
        token >>= 1
        i += 1
    return tuple(ids)


def shard_of_batch(sigs: "np.ndarray", shards: int) -> "np.ndarray":
    """Vectorised ``shard_of``: owner shard per signature, as ``int64``.

    Agrees with ``hash(sig) % shards`` for every unsigned 64-bit signature
    (pinned by tests, including the ``2^61-1`` wrap-around values).
    """
    reduced = sigs % np.uint64(_HASH_MODULUS)
    return (reduced % np.uint64(shards)).astype(np.int64)


# ----------------------------------------------------------------------
# batch structural checks (bit-parallel mask_is_acyclic / destination checks)
# ----------------------------------------------------------------------
def _in_neighbour_sets(
    instance: LinkReversalInstance, masks: "np.ndarray"
) -> "np.ndarray":
    """Per-lane in-neighbour node sets: bit ``u`` of ``[b, v]`` iff ``u → v``.

    Shape ``(B, n)``, built with two column ops per edge (``n <= 64``, so a
    node set is one ``uint64``).
    """
    n = instance.node_count
    if n > 64 or instance.edge_count > 64:
        raise ValueError(
            f"batch structural checks pack masks and node sets into 64 bits; "
            f"the instance has {n} nodes and {instance.edge_count} edges"
        )
    ins = np.zeros((n, masks.shape[0]), dtype=np.uint64)
    one = np.uint64(1)
    for e, (tail, head) in enumerate(instance._edge_node_ids):
        reversed_ = (masks >> np.uint64(e)) & one
        ins[head] |= (reversed_ ^ one) << np.uint64(tail)
        ins[tail] |= reversed_ << np.uint64(head)
    return np.ascontiguousarray(ins.T)


def _pack_node_sets(flags: "np.ndarray") -> "np.ndarray":
    """``(B, n)`` bools → one ``uint64`` node set per lane (bit ``v`` = column ``v``)."""
    packed = np.zeros((flags.shape[0], 8), dtype=np.uint8)
    packed[:, : (flags.shape[1] + 7) // 8] = np.packbits(
        flags, axis=1, bitorder="little"
    )
    return packed.view("<u8").ravel()


def mask_is_acyclic_batch(
    instance: LinkReversalInstance, masks: "np.ndarray"
) -> "np.ndarray":
    """Batch twin of ``mask_is_acyclic``: one bool per mask, bit-parallel peel.

    Every lane keeps its remaining nodes as one ``uint64`` set; each round
    removes the remaining nodes with no remaining in-neighbour.  A lane is
    acyclic once its set empties and cyclic once a round removes nothing;
    either way it leaves the batch, so later rounds only touch live lanes.
    Raises ``ValueError`` above 64 nodes or edges.
    """
    B = int(masks.shape[0])
    ins = _in_neighbour_sets(instance, masks)
    acyclic = np.ones(B, dtype=bool)
    remaining = np.full(B, np.uint64((1 << instance.node_count) - 1))
    lanes = np.arange(B)
    while lanes.size:
        sources = _pack_node_sets((ins & remaining[:, None]) == 0) & remaining
        remaining ^= sources
        stalled = sources == 0
        acyclic[lanes[stalled]] = False
        live = ~stalled & (remaining != 0)
        if not live.all():
            lanes, ins, remaining = lanes[live], ins[live], remaining[live]
    return acyclic


def mask_is_destination_oriented_batch(
    instance: LinkReversalInstance, masks: "np.ndarray"
) -> "np.ndarray":
    """Batch twin of ``mask_is_destination_oriented``: reverse reachability.

    Each round adds the in-neighbours of every reached node to the lane's
    reached set; lanes leave the batch once complete or stalled.  Raises
    ``ValueError`` above 64 nodes or edges.
    """
    B = int(masks.shape[0])
    n = instance.node_count
    ins = _in_neighbour_sets(instance, masks)
    oriented = np.zeros(B, dtype=bool)
    everything = np.uint64((1 << n) - 1)
    reached = np.full(B, np.uint64(1 << instance._dest_id))
    node_ids = np.arange(n, dtype=np.uint64)
    lanes = np.arange(B)
    while lanes.size:
        done = reached == everything
        oriented[lanes[done]] = True
        member = ((reached[:, None] >> node_ids) & np.uint64(1)).astype(bool)
        grown = reached | np.bitwise_or.reduce(
            np.where(member, ins, np.uint64(0)), axis=1
        )
        live = ~done & (grown != reached)
        lanes, ins, reached = lanes[live], ins[live], grown[live]
    return oriented


# ----------------------------------------------------------------------
# batch expansion
# ----------------------------------------------------------------------
class BatchExpansion:
    """One whole-frontier expansion, in exact scalar generation order.

    ``successors[k]`` is the ``k``-th successor signature the scalar BFS
    would have generated from this frontier, ``parents[k]`` the frontier
    index it came from and ``tokens[k]`` its actor set as a node-id bitmask
    (:func:`decode_token` recovers the scalar tuple).  ``quiescent`` holds
    the frontier indices with no enabled action, ascending.
    """

    __slots__ = ("successors", "parents", "tokens", "quiescent")

    def __init__(self, successors, parents, tokens, quiescent):
        self.successors = successors
        self.parents = parents
        self.tokens = tokens
        self.quiescent = quiescent

    def __len__(self) -> int:
        return int(self.successors.shape[0])


class VectorExpander:
    """Batch twin of one scalar :class:`SignatureExpander`.

    Holds the scalar kernel for everything that stays per-state (state
    re-materialisation, trace replay) and numpy columns for everything that
    runs per-frontier.  Per-candidate constants live in arrays indexed by
    candidate position ``ci`` (the scalar ``_sink_candidates`` order).

    With ``symmetry=True`` every successor leaves :meth:`expand` already
    mapped through :meth:`canonicalize_many`, the batch twin of
    ``SignatureExpander.canonicalize``.
    """

    def __init__(self, scalar: SignatureExpander, symmetry: bool = False):
        self.scalar = scalar
        self.instance: LinkReversalInstance = scalar.instance
        cand = scalar._sink_candidates
        self._cand = cand
        self._inc = np.array([scalar._inc[i] for i in cand], dtype=np.uint64)
        self._inc_col = self._inc[None, :]
        self._tail_col = np.array(
            [scalar._tail[i] for i in cand], dtype=np.uint64
        )[None, :]
        self._token = np.array([1 << i for i in cand], dtype=np.uint64)
        self._twins = (
            [_BatchTwinClass(cls) for cls in scalar._twin_classes]
            if symmetry and scalar.has_symmetry
            else None
        )

    # -- per-candidate step columns (algorithm-specific) -----------------
    def _step_many(self, sigs: "np.ndarray", ci: int) -> "np.ndarray":
        raise NotImplementedError

    def _sink_matrix(self, sigs: "np.ndarray") -> "np.ndarray":
        """``(frontier × candidates)`` bool matrix of the scalar sink test."""
        return ((sigs[:, None] ^ self._tail_col) & self._inc_col) == 0

    def _emit(self, sigs, smat, succ_parts, parent_parts, token_parts) -> None:
        """Append candidate-major successor columns (single-actor kernels)."""
        for ci in range(len(self._cand)):
            lanes = np.flatnonzero(smat[:, ci])
            if lanes.size == 0:
                continue
            succ_parts.append(self._step_many(sigs[lanes], ci))
            parent_parts.append(lanes)
            token_parts.append(np.full(lanes.size, self._token[ci]))

    def canonicalize_many(self, sigs: "np.ndarray") -> "np.ndarray":
        """Canonical orbit representative of every signature (a new array).

        Batch twin of ``SignatureExpander.canonicalize``: twin classes are
        sorted one after another, in the scalar order, because classes that
        touch each other share bits.
        """
        for twins in self._twins or ():
            sigs = twins.canonicalize(sigs)
        return sigs

    def expand(self, sigs: "np.ndarray") -> BatchExpansion:
        """Expand a whole frontier; see :class:`BatchExpansion` for the contract."""
        smat = self._sink_matrix(sigs)
        quiescent = np.flatnonzero(~smat.any(axis=1))
        succ_parts: List = []
        parent_parts: List = []
        token_parts: List = []
        self._emit(sigs, smat, succ_parts, parent_parts, token_parts)
        if not succ_parts:
            empty = np.empty(0, dtype=np.uint64)
            return BatchExpansion(
                empty, np.empty(0, dtype=np.int64), empty.copy(), quiescent
            )
        successors = np.concatenate(succ_parts)
        parents = np.concatenate(parent_parts)
        tokens = np.concatenate(token_parts)
        # candidate-major → frontier-major: a stable sort by parent recovers
        # the scalar per-state emission order (candidates were appended
        # ascending, matching sink_ids / combinations order)
        order = np.argsort(parents, kind="stable")
        return BatchExpansion(
            self.canonicalize_many(successors[order]),
            parents[order],
            tokens[order],
            quiescent,
        )


class _BatchTwinClass:
    """One scalar ``_TwinClass`` as gather/scatter bit positions.

    Member ``m``'s scalar sort key (per shared neighbour: edge, own-row and
    partner-row bit, then the counter) packs into one integer whose order is
    the key's lexicographic order: its bits, most significant first, are
    ``positions[m]`` (fields that are 0 for every member are dropped; they
    cannot reorder anything) followed by the counter's
    :data:`_COUNT_BITS`.  The key bits of a member are distinct signature
    bits, so a key never exceeds the 64-bit signature it comes from.
    """

    def __init__(self, cls):
        fields = [
            [bit for triple in row for bit in triple] for row in cls.fields
        ]
        used = [any(row[f] for row in fields) for f in range(len(fields[0]))]
        positions = [
            [bit.bit_length() - 1 for bit, keep in zip(row, used) if keep]
            for row in fields
        ]
        width = len(positions[0])
        self._positions = np.array(positions, dtype=np.uint64)  # (members, width)
        self._key_shift = np.arange(width, dtype=np.uint64)[::-1].copy()
        self._counts = (
            None
            if cls.count_shifts is None
            else np.array(cls.count_shifts, dtype=np.uint64)
        )
        self._clear = np.uint64(cls.clear_mask & ((1 << 64) - 1))

    def canonicalize(self, sigs: "np.ndarray") -> "np.ndarray":
        one = np.uint64(1)
        bits = (sigs[:, None, None] >> self._positions) & one
        keys = np.bitwise_or.reduce(bits << self._key_shift, axis=2)
        count_bits = np.uint64(_COUNT_BITS)
        if self._counts is not None:
            keys = (keys << count_bits) | (
                (sigs[:, None] >> self._counts) & np.uint64(_COUNT_MASK)
            )
        ordered = np.sort(keys, axis=1)
        result = sigs & self._clear
        if self._counts is not None:
            result |= np.bitwise_or.reduce(
                (ordered & np.uint64(_COUNT_MASK)) << self._counts, axis=1
            )
            ordered = ordered >> count_bits
        bits = (ordered[:, :, None] >> self._key_shift) & one
        flat = (bits << self._positions).reshape(sigs.shape[0], -1)
        return result | np.bitwise_or.reduce(flat, axis=1)


class _VectorFullReversal(VectorExpander):
    """FR: a sink's step XORs its incident-edge column."""

    def _step_many(self, sigs, ci):
        return sigs ^ self._inc[ci]


class _VectorListKernel(VectorExpander):
    """PR/OneStepPR: flip/bookkeeping masks gathered from per-node row tables.

    Each candidate's table is filled by the *scalar* kernel's
    ``_compile_step`` over all ``2^degree`` rows, so vector and scalar steps
    are equal by construction, not by re-derivation.  The tables are laid
    end to end in one flat array per mask kind; candidate ``ci``'s row ``r``
    sits at ``_offset[ci] + r``, so one gather serves any mix of candidates.
    """

    def __init__(self, scalar, symmetry: bool = False):
        super().__init__(scalar, symmetry)
        flips: List[int] = []
        partners: List[int] = []
        offsets = []
        for i in self._cand:
            offsets.append(len(flips))
            for row in range(1 << scalar.instance._degree[i]):
                flip, partner = scalar._compile_step(i, row)
                flips.append(flip)
                partners.append(partner)
        self._flip = np.array(flips, dtype=np.uint64)
        self._partner = np.array(partners, dtype=np.uint64)
        self._offset = np.array(offsets, dtype=np.uint64)
        self._row_shift = np.array(
            [scalar._row_shift[i] for i in self._cand], dtype=np.uint64
        )
        self._row_mask = np.array(
            [scalar._row_mask[i] for i in self._cand], dtype=np.uint64
        )
        # scalar _row_clear is a negative Python int; re-derive the unsigned
        # 64-bit complement instead of casting it
        self._row_clear = np.array(
            [
                ~(scalar._row_mask[i] << scalar._row_shift[i]) & ((1 << 64) - 1)
                for i in self._cand
            ],
            dtype=np.uint64,
        )

    def _step_masks(self, sigs, ci):
        """``(flip, partner)`` per lane for candidates ``ci`` (int or array)."""
        rows = (sigs >> self._row_shift[ci]) & self._row_mask[ci]
        index = (rows + self._offset[ci]).astype(np.intp)
        return self._flip[index], self._partner[index]

    def _step_many(self, sigs, ci):
        flip, partner = self._step_masks(sigs, ci)
        return ((sigs ^ flip) | partner) & self._row_clear[ci]


class _VectorOneStepPR(_VectorListKernel):
    """OneStepPR: single-node actions only — the base single-actor emit."""


@lru_cache(maxsize=None)
def _subset_order(k: int) -> "np.ndarray":
    """Subset bitmasks of ``k`` sinks in ``itertools.combinations`` order.

    Size by size, each size in lexicographic order — the scalar PR kernel's
    emission order — with bit ``b`` standing for the ``b``-th sink.  The
    array is read-only because the cache hands it to every caller.
    """
    order = np.array(
        [
            sum(1 << b for b in subset)
            for size in range(1, k + 1)
            for subset in combinations(range(k), size)
        ],
        dtype=np.intp,
    )
    order.setflags(write=False)
    return order


class _VectorPartialReversal(_VectorListKernel):
    """PR: every non-empty sink subset acts, composed in closed form.

    Sinks are pairwise non-adjacent, so the single steps of a subset ``S``
    touch disjoint bits and its successor is
    ``((sig ^ XOR_S flip_i) | OR_S partner_i) & AND_S clear_i``, with every
    ``flip_i``/``partner_i`` gathered once from the *starting* row of
    sink ``i``.  Lanes are grouped by sink count ``k``; within a group the
    ``2^k`` subset successors are built by ``k`` doublings (column ``c``
    holds the subset whose bit ``b`` is set in ``c``), then permuted into
    ``combinations`` order with the cached :func:`_subset_order`.
    """

    def __init__(self, scalar: PartialReversalExpander, symmetry: bool = False):
        super().__init__(scalar, symmetry)
        self.single_actions_only = scalar.single_actions_only

    def _emit(self, sigs, smat, succ_parts, parent_parts, token_parts):
        if self.single_actions_only:
            super()._emit(sigs, smat, succ_parts, parent_parts, token_parts)
            return
        sink_counts = smat.sum(axis=1)
        for k in np.unique(sink_counts).tolist():
            if k == 0:
                continue
            lanes = np.flatnonzero(sink_counts == k)
            # candidate positions of each lane's sinks, ascending per row
            cand = np.nonzero(smat[lanes])[1].reshape(lanes.size, k)
            base = sigs[lanes][:, None]
            flips, partners = self._step_masks(base, cand)
            clears = self._row_clear[cand]
            tokens = self._token[cand]
            succ = base
            token = np.zeros_like(base)
            for b in range(k):
                flip, partner, clear = flips[:, b, None], partners[:, b, None], clears[:, b, None]
                stepped = ((succ ^ flip) | partner) & clear
                succ = np.concatenate((succ, stepped), axis=1)
                token = np.concatenate((token, token | tokens[:, b, None]), axis=1)
            order = _subset_order(k)
            succ_parts.append(succ[:, order].ravel())
            parent_parts.append(np.repeat(lanes, order.size))
            token_parts.append(token[:, order].ravel())


class _VectorNewPR(VectorExpander):
    """NewPR: parity-selected flip columns plus packed counter arithmetic."""

    def __init__(self, scalar: NewPRExpander, symmetry: bool = False):
        super().__init__(scalar, symmetry)
        self._shift = np.array([scalar._shift[i] for i in self._cand], dtype=np.uint64)
        self._even = np.array([scalar._even_flip[i] for i in self._cand], dtype=np.uint64)
        self._odd = np.array([scalar._odd_flip[i] for i in self._cand], dtype=np.uint64)

    def _step_many(self, sigs, ci):
        counts = (sigs >> self._shift[ci]) & np.uint64(_COUNT_MASK)
        if (counts == np.uint64(_COUNT_MASK)).any():
            raise OverflowError(
                f"NewPR step counter of node id {self._cand[ci]} exceeded {_COUNT_MASK}"
            )
        flip = np.where((counts & np.uint64(1)) == 0, self._even[ci], self._odd[ci])
        return (sigs ^ flip) + (np.uint64(1) << self._shift[ci])


def compile_vector_expander(
    scalar: Optional[SignatureExpander], symmetry: bool = False
) -> Optional[VectorExpander]:
    """Batch twin of a compiled scalar kernel, or ``None`` when out of range.

    The gate is the documented word-width fallback: signatures must pack into
    one ``uint64`` lane, node ids into the 64-bit action-token mask, and list
    kernels must keep their per-node step tables small
    (``degree <= {deg}``).  NewPR's ``E + {cb}·n`` bit layout therefore only
    vectorises on toy instances, by design.  With ``symmetry=True`` the
    expander canonicalises every successor it emits (twin classes fit the
    same 64-bit lane, so symmetry never closes the gate).
    """
    if np is None or scalar is None:
        return None
    if scalar.signature_bits > 64 or scalar.instance.node_count > 64:
        return None
    if isinstance(scalar, (PartialReversalExpander, OneStepPRExpander)):
        degrees = [scalar.instance._degree[i] for i in scalar._sink_candidates]
        if degrees and max(degrees) > _MAX_TABLE_DEGREE:
            return None
        if isinstance(scalar, PartialReversalExpander):
            return _VectorPartialReversal(scalar, symmetry)
        return _VectorOneStepPR(scalar, symmetry)
    if isinstance(scalar, NewPRExpander):
        return _VectorNewPR(scalar, symmetry)
    if isinstance(scalar, FullReversalExpander):
        return _VectorFullReversal(scalar, symmetry)
    return None


if compile_vector_expander.__doc__:  # keep the gate's docstring numbers honest
    compile_vector_expander.__doc__ = compile_vector_expander.__doc__.format(
        deg=_MAX_TABLE_DEGREE, cb=_COUNT_BITS
    )
