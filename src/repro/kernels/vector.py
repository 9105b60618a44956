"""Batch (vectorised) twins of the compiled signature expanders.

The scalar kernels in :mod:`repro.kernels.signature` expand one int
signature per Python call; at 10⁸ states the interpreter loop itself is the
bottleneck.  This module re-expresses each kernel as **whole-frontier numpy
column ops** over *signature rows*: a signature of ``b`` bits is
``k = ⌈b / 64⌉`` ``uint64`` words, word ``j`` holding bits
``[64j, 64j + 64)``, and a frontier is an ``(N, k)`` array of rows.

* the sink test ``((sig ^ tail_sel[i]) & inc[i]) == 0`` becomes one
  broadcast XOR/AND per edge word, giving the full ``(states × candidates)``
  sink matrix;
* FR's step is a single XOR row; the PR/OneStepPR list kernels gather their
  flip/bookkeeping masks from a table keyed by ``(list row, candidate)``,
  filled on first use through the scalar kernel's own ``_compile_step`` (so
  the masks are equal by construction); NewPR's parity-selected flips and
  counter increments are ``where``/add columns;
* PR's subset actions are composed in closed form: sinks are pairwise
  non-adjacent, so a subset's successor is one XOR/OR/AND of its members'
  masks, and all ``2^k`` subsets of ``k`` sinks come from ``k`` column
  doublings per group of states with ``k`` sinks;
* with symmetry reduction on, successors are canonicalised in bulk
  (:meth:`VectorExpander.canonicalize_many`: per twin class, gather each
  member's sort-key bits, sort the members' packed keys and scatter the
  bits back).

Bit fields may straddle a word boundary: list rows and NewPR's 16-bit
counters are read from two words (:func:`_read_field`), and a counter
increment carries from its low word into the next one.

The structural checks :func:`mask_is_acyclic_batch` and
:func:`mask_is_destination_oriented_batch` read edge bits from any word and
keep one ``uint64`` node set per lane and node (in-neighbours), peeling
sources / growing the reached set bit-parallel and dropping finished lanes
round by round.

**Exactness contract.**  :meth:`VectorExpander.expand` returns successors in
*exactly* the scalar generation order: for each frontier state (in frontier
order) every ``(token, successor)`` pair appears in the order
``SignatureExpander.successors`` would emit it.  The model checker's
differential pins (counts, visited sets, predecessor choices, truncation
points, failure order) all lean on this.

**Gate.**  :func:`compile_vector_expander` returns ``None`` above
:data:`MAX_NODES` nodes, because action tokens and node sets are one word,
and for a PR/OneStepPR node of degree above 58, whose ``(row, candidate)``
table key would not fit one word (such a node needs at least 60 nodes).
The model checker then runs the reference
:class:`~repro.exploration.state_space.StateSpaceExplorer`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

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
    "MAX_NODES",
    "VectorExpander",
    "compile_vector_expander",
    "decode_token",
    "int_rows",
    "mask_is_acyclic_batch",
    "mask_is_destination_oriented_batch",
    "row_ints",
    "row_keys",
    "signature_words",
]

#: Node ids index the 64-bit action tokens and node sets.
MAX_NODES = 64

#: A list-table key packs the candidate position into its low bits and the
#: node's list row above them, so a row may be at most this many bits wide.
_CANDIDATE_BITS = 6
_CANDIDATE_MASK = (1 << _CANDIDATE_BITS) - 1
_MAX_ROW_DEGREE = 64 - _CANDIDATE_BITS


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


# ----------------------------------------------------------------------
# signature rows
# ----------------------------------------------------------------------
def signature_words(bits: int) -> int:
    """Words ``k`` of a signature row holding ``bits`` bits (at least one)."""
    return max(1, -(-bits // 64))


def int_rows(values: Sequence[int], words: int) -> "np.ndarray":
    """Int signatures (or masks, negative ones included) as ``(N, words)`` rows."""
    full = (1 << (64 * words)) - 1
    data = b"".join((value & full).to_bytes(8 * words, "little") for value in values)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(-1, words)


def row_ints(rows: "np.ndarray") -> List[int]:
    """The inverse of :func:`int_rows`: one Python int per row."""
    if rows.shape[1] == 1:
        return rows[:, 0].tolist()
    width = 8 * rows.shape[1]
    data = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def row_keys(rows: "np.ndarray") -> "np.ndarray":
    """One sortable key per row: the word itself for one word, else a fixed-width void.

    ``np.unique``, ``np.sort`` and ``np.searchsorted`` serve both kinds of
    key; only the order of void keys (bytewise) differs from numeric order,
    and nothing depends on it.
    """
    if rows.shape[1] == 1:
        return rows.reshape(-1)
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).reshape(-1)


def key_rows(keys: "np.ndarray") -> "np.ndarray":
    """The inverse of :func:`row_keys`: ``(N, k)`` rows of a key array."""
    return keys.view(np.uint64).reshape(keys.shape[0], keys.dtype.itemsize // 8)


def _read_field(rows: "np.ndarray", shift: int, mask: int) -> "np.ndarray":
    """The ``mask``-wide bit field at bit ``shift`` of every row, across words."""
    word, bit = divmod(shift, 64)
    value = rows[:, word] >> np.uint64(bit)
    if bit and word + 1 < rows.shape[1]:
        value |= rows[:, word + 1] << np.uint64(64 - bit)
    return value & np.uint64(mask)


# ----------------------------------------------------------------------
# batch structural checks (bit-parallel mask_is_acyclic / destination checks)
# ----------------------------------------------------------------------
def _in_neighbour_sets(
    instance: LinkReversalInstance, masks: "np.ndarray"
) -> "np.ndarray":
    """Per-lane in-neighbour node sets: bit ``u`` of ``[b, v]`` iff ``u → v``.

    ``masks`` are signature rows (or a 1-D array of one-word masks); only
    their edge bits are read.  Shape ``(B, n)``, built with two column ops
    per edge (``n <= 64``, so a node set is one ``uint64``).
    """
    n = instance.node_count
    if n > MAX_NODES:
        raise ValueError(
            f"batch structural checks pack node sets into 64 bits; "
            f"the instance has {n} nodes"
        )
    if masks.ndim == 1:
        masks = masks[:, None]
    ins = np.zeros((n, masks.shape[0]), dtype=np.uint64)
    one = np.uint64(1)
    for e, (tail, head) in enumerate(instance._edge_node_ids):
        reversed_ = (masks[:, e >> 6] >> np.uint64(e & 63)) & one
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
    Raises ``ValueError`` above 64 nodes.
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
    ``ValueError`` above 64 nodes.
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

    ``successors[k]`` is the row of the ``k``-th successor signature the
    scalar BFS would have generated from this frontier, ``parents[k]`` the
    frontier index it came from and ``tokens[k]`` its actor set as a node-id
    bitmask (:func:`decode_token` recovers the scalar tuple).  ``quiescent``
    holds the frontier indices with no enabled action, ascending.
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
    re-materialisation, trace replay) and numpy rows for everything that
    runs per-frontier.  Per-candidate constants live in arrays indexed by
    candidate position ``ci`` (the scalar ``_sink_candidates`` order);
    ``words`` is the row width ``k``.

    With ``symmetry=True`` every successor leaves :meth:`expand` already
    mapped through :meth:`canonicalize_many`, the batch twin of
    ``SignatureExpander.canonicalize``.
    """

    def __init__(self, scalar: SignatureExpander, symmetry: bool = False):
        self.scalar = scalar
        self.instance: LinkReversalInstance = scalar.instance
        self.words = signature_words(scalar.signature_bits)
        cand = scalar._sink_candidates
        self._cand = cand
        self._inc = int_rows([scalar._inc[i] for i in cand], self.words)
        tail = int_rows([scalar._tail[i] for i in cand], self.words)
        # the sink test only reads the edge words, one (candidates,) column each
        edge_words = signature_words(self.instance.edge_count)
        self._inc_cols = np.ascontiguousarray(self._inc[:, :edge_words].T)
        self._tail_cols = np.ascontiguousarray(tail[:, :edge_words].T)
        self._token = np.array([1 << i for i in cand], dtype=np.uint64)
        self._twins = (
            [_BatchTwinClass(cls, self.words) for cls in scalar._twin_classes]
            if symmetry and scalar.has_symmetry
            else None
        )

    # -- per-candidate step columns (algorithm-specific) -----------------
    def _step_many(self, sigs: "np.ndarray", ci: int) -> "np.ndarray":
        raise NotImplementedError

    def _sink_matrix(self, sigs: "np.ndarray") -> "np.ndarray":
        """``(frontier × candidates)`` bool matrix of the scalar sink test."""
        inc, tail = self._inc_cols, self._tail_cols
        smat = ((sigs[:, 0, None] ^ tail[0]) & inc[0]) == 0
        for word in range(1, len(inc)):
            smat &= ((sigs[:, word, None] ^ tail[word]) & inc[word]) == 0
        return smat

    def _emit(self, sigs, smat, succ_parts, parent_parts, token_parts) -> None:
        """Append candidate-major successor rows (single-actor kernels)."""
        for ci in range(len(self._cand)):
            lanes = np.flatnonzero(smat[:, ci])
            if lanes.size == 0:
                continue
            succ_parts.append(self._step_many(sigs.take(lanes, axis=0), ci))
            parent_parts.append(lanes)
            token_parts.append(np.full(lanes.size, self._token[ci]))

    def canonicalize_many(self, sigs: "np.ndarray") -> "np.ndarray":
        """Canonical orbit representative of every row (a new array).

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
            return BatchExpansion(
                np.empty((0, self.words), dtype=np.uint64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64),
                quiescent,
            )
        successors = np.concatenate(succ_parts)
        parents = np.concatenate(parent_parts)
        tokens = np.concatenate(token_parts)
        # candidate-major → frontier-major: a stable sort by parent recovers
        # the scalar per-state emission order (candidates were appended
        # ascending, matching sink_ids / combinations order)
        order = np.argsort(parents, kind="stable")
        return BatchExpansion(
            self.canonicalize_many(successors.take(order, axis=0)),
            parents[order],
            tokens[order],
            quiescent,
        )


class _BatchTwinClass:
    """One scalar ``_TwinClass`` as gather/scatter bit positions.

    Member ``m``'s scalar sort key (per shared neighbour: edge, own-row and
    partner-row bit, then the counter) is a fixed-width bit string whose
    bits, most significant first, sit at signature positions
    ``positions[m]``: the used fields, then the counter's
    :data:`_COUNT_BITS` bits.  Fields that are 0 for every member are
    dropped; they cannot reorder anything.  Packed most significant bit
    first, the keys' bytes compare like the scalar key tuples, so sorting
    the members' keys as fixed-width byte strings is the scalar sort.
    """

    def __init__(self, cls, words: int):
        fields = [
            [bit for triple in row for bit in triple] for row in cls.fields
        ]
        used = [any(row[f] for row in fields) for f in range(len(fields[0]))]
        positions = [
            [bit.bit_length() - 1 for bit, keep in zip(row, used) if keep]
            for row in fields
        ]
        for row, shift in zip(positions, cls.count_shifts or ()):
            row.extend(range(shift + _COUNT_BITS - 1, shift - 1, -1))
        positions = np.array(positions, dtype=np.intp)  # (members, width)
        self._word = positions // 64
        self._bit = (positions % 64).astype(np.uint64)
        self._width = positions.shape[1]
        self._words = np.unique(self._word).tolist()
        self._clear = int_rows([cls.clear_mask], words)[0]

    def canonicalize(self, sigs: "np.ndarray") -> "np.ndarray":
        lanes, members = sigs.shape[0], self._word.shape[0]
        bits = ((sigs[:, self._word] >> self._bit) & np.uint64(1)).astype(np.uint8)
        keys = np.ascontiguousarray(np.packbits(bits, axis=2))
        ordered = np.sort(
            keys.view(np.dtype((np.void, keys.shape[2])))[..., 0], axis=1
        )
        bits = np.unpackbits(
            ordered.view(np.uint8).reshape(lanes, members, -1),
            axis=2,
            count=self._width,
        ).astype(np.uint64) << self._bit
        result = sigs & self._clear
        for word in self._words:
            result[:, word] |= np.bitwise_or.reduce(bits[:, self._word == word], axis=1)
        return result


class _VectorFullReversal(VectorExpander):
    """FR: a sink's step XORs its incident-edge row."""

    def _step_many(self, sigs, ci):
        return sigs ^ self._inc[ci]


class _VectorListKernel(VectorExpander):
    """PR/OneStepPR: flip/bookkeeping masks looked up per ``(row, candidate)``.

    A candidate's list row is ``degree`` bits wide, so a dense ``2^degree``
    table per node stops fitting memory on hubs.  The masks live instead in
    one table sorted by key ``row << 6 | ci``; a key missing from it is
    filled on first use by the *scalar* kernel's ``_compile_step``, so vector
    and scalar steps are equal by construction, not by re-derivation.  One
    ``searchsorted`` serves any mix of candidates.
    """

    def __init__(self, scalar, symmetry: bool = False):
        super().__init__(scalar, symmetry)
        shifts = [scalar._row_shift[i] for i in self._cand]
        self._row_word = np.array([shift // 64 for shift in shifts], dtype=np.intp)
        self._row_next = np.minimum(self._row_word + 1, self.words - 1)
        self._row_bit = np.array([shift % 64 for shift in shifts], dtype=np.uint64)
        self._row_mask = np.array(
            [scalar._row_mask[i] for i in self._cand], dtype=np.uint64
        )
        self._straddle = any(
            shift % 64 + scalar.instance._degree[i] > 64
            for shift, i in zip(shifts, self._cand)
        )
        self._row_clear = int_rows([scalar._row_clear[i] for i in self._cand], self.words)
        self._keys = np.empty(0, dtype=np.uint64)
        self._flip = np.empty((0, self.words), dtype=np.uint64)
        self._partner = np.empty((0, self.words), dtype=np.uint64)
        self._learn(np.arange(len(self._cand), dtype=np.uint64))  # row 0 of each

    def _learn(self, keys: "np.ndarray") -> None:
        """Add the masks of new ``(row, candidate)`` keys through the scalar kernel."""
        pairs = [
            self.scalar._compile_step(
                self._cand[key & _CANDIDATE_MASK], key >> _CANDIDATE_BITS
            )
            for key in keys.tolist()
        ]
        keys = np.concatenate((self._keys, keys))
        order = np.argsort(keys)
        self._keys = keys[order]
        self._flip = np.concatenate(
            (self._flip, int_rows([flip for flip, _ in pairs], self.words))
        )[order]
        self._partner = np.concatenate(
            (self._partner, int_rows([partner for _, partner in pairs], self.words))
        )[order]

    def _step_masks(self, sigs, lanes, cand):
        """``(flip, partner)`` rows of candidate ``cand[j]`` in row ``sigs[lanes[j]]``."""
        low = sigs[lanes, self._row_word[cand]]
        rows = low >> self._row_bit[cand]
        if self._straddle:
            # (x << 1) << (63 - b) is x << (64 - b) without a 64-bit shift at b = 0
            high = sigs[lanes, self._row_next[cand]] << np.uint64(1)
            rows |= high << (np.uint64(63) - self._row_bit[cand])
        keys = ((rows & self._row_mask[cand]) << np.uint64(_CANDIDATE_BITS)) | cand
        slot = np.searchsorted(self._keys, keys)
        if not np.array_equal(self._keys.take(slot, mode="clip"), keys):
            self._learn(np.setdiff1d(keys, self._keys))
            slot = np.searchsorted(self._keys, keys)
        return self._flip.take(slot, axis=0), self._partner.take(slot, axis=0)

    def _step_many(self, sigs, ci):
        lanes = np.arange(sigs.shape[0])
        flip, partner = self._step_masks(sigs, lanes, np.full(lanes.size, ci, np.uint64))
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
    ``flip_i``/``partner_i`` looked up once from the *starting* row of
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
        words = self.words
        sink_counts = smat.sum(axis=1)
        for k in np.unique(sink_counts).tolist():
            if k == 0:
                continue
            lanes = np.flatnonzero(sink_counts == k)
            # candidate positions of each lane's sinks, ascending per lane
            cand = np.nonzero(smat[lanes])[1]
            flips, partners = self._step_masks(
                sigs, np.repeat(lanes, k), cand.astype(np.uint64)
            )
            shape = (lanes.size, k, words)
            flips, partners = flips.reshape(shape), partners.reshape(shape)
            clears = self._row_clear[cand].reshape(shape)
            tokens = self._token[cand].reshape(lanes.size, k)
            succ = sigs.take(lanes, axis=0)[:, None, :]
            token = np.zeros((lanes.size, 1), dtype=np.uint64)
            for b in range(k):
                stepped = ((succ ^ flips[:, b, None]) | partners[:, b, None]) & clears[:, b, None]
                succ = np.concatenate((succ, stepped), axis=1)
                token = np.concatenate((token, token | tokens[:, b, None]), axis=1)
            order = _subset_order(k)
            succ_parts.append(succ[:, order].reshape(-1, words))
            parent_parts.append(np.repeat(lanes, order.size))
            token_parts.append(token[:, order].ravel())


class _VectorNewPR(VectorExpander):
    """NewPR: parity-selected flip rows plus packed counter arithmetic."""

    def __init__(self, scalar: NewPRExpander, symmetry: bool = False):
        super().__init__(scalar, symmetry)
        self._shift = [scalar._shift[i] for i in self._cand]
        self._even = int_rows([scalar._even_flip[i] for i in self._cand], self.words)
        self._odd = int_rows([scalar._odd_flip[i] for i in self._cand], self.words)

    def _step_many(self, sigs, ci):
        shift = self._shift[ci]
        counts = _read_field(sigs, shift, _COUNT_MASK)
        if (counts == np.uint64(_COUNT_MASK)).any():
            raise OverflowError(
                f"NewPR step counter of node id {self._cand[ci]} exceeded {_COUNT_MASK}"
            )
        odd = (counts & np.uint64(1)).astype(bool)
        successors = sigs ^ np.where(odd[:, None], self._odd[ci], self._even[ci])
        word, bit = divmod(shift, 64)
        low = successors[:, word] + np.uint64(1 << bit)
        if word + 1 < self.words:
            # a counter straddling the word boundary carries into the next word
            successors[:, word + 1] += low < successors[:, word]
        successors[:, word] = low
        return successors


def compile_vector_expander(
    scalar: Optional[SignatureExpander], symmetry: bool = False
) -> Optional[VectorExpander]:
    """Batch twin of a compiled scalar kernel, or ``None`` when out of range.

    The gate: at most :data:`MAX_NODES` nodes, and PR/OneStepPR candidates
    of degree at most :data:`_MAX_ROW_DEGREE` (see the module docstring).  Signatures of any
    width run, as ``⌈bits / 64⌉``-word rows.  With ``symmetry=True`` the
    expander canonicalises every successor it emits.
    """
    if scalar is None or scalar.instance.node_count > MAX_NODES:
        return None
    if isinstance(scalar, (PartialReversalExpander, OneStepPRExpander)):
        degrees = [scalar.instance._degree[i] for i in scalar._sink_candidates]
        if degrees and max(degrees) > _MAX_ROW_DEGREE:
            return None
        if isinstance(scalar, PartialReversalExpander):
            return _VectorPartialReversal(scalar, symmetry)
        return _VectorOneStepPR(scalar, symmetry)
    if isinstance(scalar, NewPRExpander):
        return _VectorNewPR(scalar, symmetry)
    if isinstance(scalar, FullReversalExpander):
        return _VectorFullReversal(scalar, symmetry)
    return None
