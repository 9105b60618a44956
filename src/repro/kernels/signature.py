"""Compiled signature-space successor kernels for the link-reversal automata.

Every automaton state has a compact **int signature** (the orientation's
edge-reversal bitmask, with per-node bookkeeping packed into the high bits).
This module makes those ints the only thing a hot path touches:

:class:`SignatureExpander`
    The one object of a compiled kernel for one automaton: ``step(sig, i)``
    applies one ``reverse(node_i)`` with pure integer arithmetic — no
    :class:`~repro.core.graph.Orientation`, no state objects, no
    per-transition allocation beyond the result int — and ``sink_ids(sig)``
    lists the nodes that may step.  Kernels exist for FR, OneStepPR, PR
    (whose ``reverse(S)`` composes its members' steps), NewPR and BLL (on
    the OneStepPR and FR kernels).  The expander also holds the tables the
    lockstep simulation loop reads (:class:`~repro.kernels.batch
    .BatchSimulator`): incidence rows, the can-sink table and hop
    distances, and :meth:`SignatureExpander.restricted` derives all of them
    for a churn repair phase.  States are only
    re-materialised (:meth:`SignatureExpander.state_for`) when a predicate
    needs one or a counterexample is replayed.

Both the exhaustive model checker (:mod:`repro.exploration`, through the
batch twins in :mod:`repro.kernels.vector`) and the scenario simulator
(:mod:`repro.kernels.batch`) are built on these kernels; the module lives
here — below both — so neither subsystem depends on the other.

Twin-node symmetry reduction
    :meth:`SignatureExpander.canonicalize` maps a signature to a canonical
    representative of its orbit under permutations of *structurally
    equivalent* nodes — non-destination nodes with identical neighbour sets
    and identical initial in-neighbour sets ("twins", e.g. the leaves of a
    star) whose bookkeeping bits also agree in the initial signature (BLL's
    initial marks can tell twins apart).  Any such permutation is an
    automorphism of the initial state that commutes with every automaton's
    transition function, so the canonical image of a reachable state is
    itself reachable.  Exploration over canonical representatives therefore
    visits at least one member of every reachable orbit (induction over
    executions: if ``σ(s)`` is visited and ``s → s'``, then expanding
    ``σ(s)`` adds ``canonicalize(σ(s'))``), which makes the reduction
    *sound* for checking label-invariant predicates.  Caveats: when several
    twin classes overlap (members of one class adjacent to members of
    another) the per-class sort is not a perfect orbit quotient — it may
    keep more than one representative per orbit (never fewer); and
    predicates that depend on node labels (e.g. the embedding-based NewPR
    invariants 4.1/4.2) are evaluated on the representative only, which is
    still a reachable state but not the specific orbit member first
    encountered.
"""

from __future__ import annotations

import abc
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.automata.ioa import Action, IOAutomaton
from repro.core.base import Reverse
from repro.core.bll import BinaryLinkLabels, BLLState
from repro.core.full_reversal import FRState, FullReversal
from repro.core.graph import LinkReversalInstance, Orientation, hop_distances
from repro.core.new_pr import NewPartialReversal, NewPRState
from repro.core.one_step_pr import OneStepPartialReversal, OneStepPRState
from repro.core.pr import PartialReversal, PRState, ReverseSet

#: Bits reserved per node for the NewPR step counter inside the int signature.
#: Counts are bounded by the per-node work bound (O(n) for NewPR), so 16 bits
#: cover every instance the checker can exhaust; overflow raises.
_COUNT_BITS = 16
_COUNT_MASK = (1 << _COUNT_BITS) - 1


# ----------------------------------------------------------------------
# twin-node symmetry classes
# ----------------------------------------------------------------------
class _TwinClass:
    """One class of interchangeable nodes with its signature bit layout.

    ``fields[m]`` lists, for member ``m`` and every shared neighbour ``w`` (in
    a fixed order), the bit triple ``(edge_bit, own_row_bit, partner_row_bit)``
    — the edge-reversal bit of ``{member, w}``, the member's own bookkeeping
    bit for ``w`` and ``w``'s bookkeeping bit for the member (0 when the
    automaton keeps no per-neighbour rows).  ``count_shifts`` carries the
    members' counter fields for NewPR.  ``clear_mask`` clears every bit the
    class permutation can move.
    """

    __slots__ = ("members", "fields", "count_shifts", "clear_mask")

    def __init__(self, members, fields, count_shifts, clear_mask):
        self.members = members
        self.fields = fields
        self.count_shifts = count_shifts
        self.clear_mask = clear_mask


def _twin_key(row, count_shift: Optional[int], sig: int) -> Tuple:
    """A twin's sort key in ``sig``: its (edge, own-row, partner-row) bits per
    shared neighbour, then its counter field when it has one."""
    key: List = [tuple(1 if sig & bit else 0 for bit in bits) for bits in row]
    if count_shift is not None:
        key.append((sig >> count_shift) & _COUNT_MASK)
    return tuple(key)


def twin_node_classes(instance: LinkReversalInstance) -> List[Tuple[int, ...]]:
    """Classes (size >= 2) of structurally equivalent non-destination nodes.

    Two nodes are twins when they share both the neighbour set and the
    initial in-neighbour set; swapping them is then an automorphism of the
    initial directed graph fixing everything else.  Twins are never adjacent
    (``u ∈ nbrs(v) = nbrs(u)`` would require a self loop), so all per-node
    effects commute.
    """
    groups: Dict[Tuple[FrozenSet, FrozenSet], List[int]] = {}
    for i, u in enumerate(instance.nodes):
        if i == instance._dest_id or not instance._degree[i]:
            continue
        key = (instance._nbrs[u], instance._in_nbrs[u])
        groups.setdefault(key, []).append(i)
    return [tuple(members) for members in groups.values() if len(members) >= 2]


# ----------------------------------------------------------------------
# compiled signature expanders
# ----------------------------------------------------------------------
class SignatureExpander(abc.ABC):
    """Compiled successor kernel of one automaton over int signatures.

    Having a kernel at all is what enables the model checker's compiled
    loop (its batch twin in :mod:`repro.kernels.vector` expands whole
    frontiers, and this kernel decodes a signature back into a state only
    for predicates and traces) *and* the simulation fast path (the scenario
    engine drives ``step`` directly and never materialises a state).
    Automata without a kernel (``compile_expander`` returns ``None``) run on
    the checker's reference explorer and the simulator's legacy object path.

    A kernel carries no run state, so any number of simulation lanes and
    checker runs may share one.
    """

    #: whether the kernel accepts multi-id actions (PR's ``reverse(S)``)
    supports_subsets = False

    def __init__(self, automaton: IOAutomaton):
        self.automaton = automaton
        self.instance: LinkReversalInstance = automaton.instance
        instance = self.instance
        self._edge_mask = (1 << instance.edge_count) - 1
        self._inc = instance._incident_mask
        self._tail = instance._tail_sel
        dest = instance._dest_id
        self._sink_candidates = tuple(
            [i for i, degree in enumerate(instance._degree) if degree and i != dest]
        )
        self._twin_classes: Optional[List[_TwinClass]] = None

    # -- core interface -------------------------------------------------
    @abc.abstractmethod
    def initial_signature(self) -> int:
        """Signature of the automaton's initial state."""

    @abc.abstractmethod
    def step(self, sig: int, i: int) -> int:
        """Signature after node id ``i`` (a current sink) takes one step."""

    @abc.abstractmethod
    def state_for(self, sig: int):
        """Re-materialise the full automaton state encoded by ``sig``."""

    def encode_state(self, state) -> int:
        """Signature of a state object in *this expander's* encoding.

        Defaults to ``state.signature()``; kernels whose int layout differs
        from the state's own signature (NewPR) override this.  Trace
        verification replays through the automaton and must re-encode the
        resulting states before comparing against the recorded chain.
        """
        return state.signature()

    @property
    @abc.abstractmethod
    def signature_bits(self) -> int:
        """Upper bound on the bit width of any reachable signature."""

    def action_for(self, token: Tuple[int, ...]) -> Action:
        """Rebuild the :class:`~repro.automata.ioa.Action` of a token."""
        return Reverse(self.instance.nodes[token[0]])

    def orientation_mask(self, sig: int) -> int:
        """The edge-reversal bitmask component of ``sig``."""
        return sig & self._edge_mask

    # -- simulation tables ----------------------------------------------
    @cached_property
    def _incident(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per node id: its alive ``(edge bit, neighbour id)`` pairs.

        The batch loop's incremental sink updates walk them.  A compiled
        kernel shares its instance's table (built on first use, since the
        model checker never reads it); :meth:`restricted` drops the dead
        links' pairs.
        """
        return self.instance._incident_pairs

    @cached_property
    def _can_sink(self) -> Tuple[bool, ...]:
        """Per node id: whether it is a sink candidate (has a link, not the
        destination), so the incremental sink updates can skip the rest."""
        can_sink = [False] * self.instance.node_count
        for i in self._sink_candidates:
            can_sink[i] = True
        return tuple(can_sink)

    @property
    def hop_distances(self) -> Tuple[int, ...]:
        """Per node id: its hop distance to the destination over alive links.

        :func:`repro.core.graph.hop_distances` on the kernel's links, which
        memoises it per instance and alive mask; the distance-driven
        schedulers read it on every bind.
        """
        return hop_distances(self.instance, self._edge_mask)

    # -- repair phases after churn --------------------------------------
    def restricted(self, alive: int, start: int) -> "SignatureExpander":
        """This kernel on the links in ``alive``, for a phase started at ``start``.

        A churn repair phase runs on its topology's compiled kernel: a failed
        link is a cleared bit of ``alive``, and the phase starts at the
        orientation ``start`` (in this kernel's edge ids) with fresh
        bookkeeping.  The result is a copy of this kernel whose edge mask,
        incidence masks, sink candidates, simulation tables and
        per-algorithm tables (:meth:`_restrict`) see the alive links only, so
        it steps, finds sinks and measures hop distances as a kernel compiled
        on the surviving graph, re-oriented by ``start``, would; its
        :meth:`state_for` still decodes on the whole topology.  Returns
        ``self`` when no table changes.
        """
        dead = self._edge_mask & ~alive
        if not dead and not self._rebased_on(start):
            return self
        derived = object.__new__(type(self))
        derived.__dict__.update(self.__dict__)
        derived._edge_mask = alive
        # only the endpoints of the dead links change their tables
        touched = set()
        if dead:
            inc = list(self._inc)
            ends = self.instance._edge_node_ids
            while dead:
                bit = dead & -dead
                dead ^= bit
                for i in ends[bit.bit_length() - 1]:
                    inc[i] &= ~bit
                    touched.add(i)
            derived._inc = tuple(inc)
            if not all(inc[i] for i in touched):
                derived._sink_candidates = tuple(
                    [i for i in self._sink_candidates if inc[i]]
                )
                derived.__dict__.pop("_can_sink", None)  # rebuilt on use
            # a node that lost no link keeps its row
            rows = list(self._incident)
            for i in touched:
                rows[i] = tuple([pair for pair in rows[i] if pair[0] & alive])
            derived._incident = tuple(rows)
        derived._restrict(self, start, touched)
        return derived

    def _rebased_on(self, start: int) -> bool:
        """Whether a phase starting at orientation ``start`` needs own tables."""
        return False

    def _restrict(self, base: "SignatureExpander", start: int, touched: Set[int]) -> None:
        """Derive this restricted copy's own tables from ``base``'s.

        ``touched`` holds the nodes that lost a link.
        """

    # -- shared sink enumeration ----------------------------------------
    def sink_ids(self, sig: int) -> List[int]:
        """Ids of the non-destination sinks of the orientation in ``sig``.

        An incident edge points at node ``i`` iff its reversal bit *equals*
        ``i``'s tail-selector bit (the selector marks the edges ``i``
        initially tails; reversing exactly those turns them incoming), so
        ``i`` is a sink iff ``mask`` and ``tail_sel[i]`` agree on every
        incident bit — one XOR + AND per node, no counters.
        """
        mask = sig & self._edge_mask
        inc = self._inc
        tail = self._tail
        return [i for i in self._sink_candidates if not ((mask ^ tail[i]) & inc[i])]

    # -- symmetry reduction ---------------------------------------------
    def _own_row_bit(self, i: int, w_id: int) -> int:
        """Bookkeeping bit "node ``w`` in node ``i``'s row", 0 when rowless."""
        return 0

    def _count_shift(self, i: int) -> Optional[int]:
        """Bit offset of node ``i``'s counter field, ``None`` when absent."""
        return None

    def _build_twin_classes(self) -> List[_TwinClass]:
        instance = self.instance
        initial = self.initial_signature()
        classes = []
        for structural in twin_node_classes(instance):
            first = instance.nodes[structural[0]]
            shared = sorted(instance._node_id[v] for v in instance._nbrs[first])
            # twins whose bits differ in the initial signature (BLL's initial
            # marks) are not interchangeable: split the class by those bits
            groups: Dict[Tuple, List[Tuple[int, Tuple, Optional[int]]]] = {}
            for i in structural:
                u = instance.nodes[i]
                row = tuple(
                    (1 << instance._edge_id[(u, instance.nodes[j])],
                     self._own_row_bit(i, j), self._own_row_bit(j, i))
                    for j in shared
                )
                shift = self._count_shift(i)
                groups.setdefault(_twin_key(row, shift, initial), []).append((i, row, shift))
            for group in groups.values():
                if len(group) < 2:
                    continue
                members, fields, shifts = zip(*group)
                clear = 0
                for bit in chain.from_iterable(chain.from_iterable(fields)):
                    clear |= bit
                count_shifts = tuple(shift for shift in shifts if shift is not None)
                for shift in count_shifts:
                    clear |= _COUNT_MASK << shift
                classes.append(_TwinClass(members, fields, count_shifts or None, ~clear))
        return classes

    @property
    def has_symmetry(self) -> bool:
        """Whether the instance has at least one twin class to reduce over."""
        if self._twin_classes is None:
            self._twin_classes = self._build_twin_classes()
        return bool(self._twin_classes)

    def canonicalize(self, sig: int) -> int:
        """Canonical orbit representative of ``sig`` under twin permutations.

        Within each twin class the members' local signatures (edge bit, own
        bookkeeping bit and partner bookkeeping bit per shared neighbour,
        plus the counter field when present) are sorted and re-assigned to
        the members in node order.  See the module docstring for soundness
        and its caveats.
        """
        if self._twin_classes is None:
            self._twin_classes = self._build_twin_classes()
        for cls in self._twin_classes:
            shifts = cls.count_shifts or (None,) * len(cls.members)
            keys = [_twin_key(row, shift, sig) for row, shift in zip(cls.fields, shifts)]
            ordered = sorted(keys)
            if ordered == keys:
                continue
            sig &= cls.clear_mask
            for m, key in enumerate(ordered):
                if cls.count_shifts is not None:
                    sig |= key[-1] << cls.count_shifts[m]
                    key = key[:-1]
                for (edge_bit, own_bit, partner_bit), (e_on, o_on, p_on) in zip(
                    cls.fields[m], key
                ):
                    if e_on:
                        sig |= edge_bit
                    if o_on:
                        sig |= own_bit
                    if p_on:
                        sig |= partner_bit
        return sig


class FullReversalExpander(SignatureExpander):
    """FR kernel: a sink's step XORs its whole incident-edge mask."""

    def initial_signature(self) -> int:
        return 0

    @property
    def signature_bits(self) -> int:
        return self.instance.edge_count

    def step(self, sig: int, i: int) -> int:
        return sig ^ self._inc[i]

    def state_for(self, sig: int) -> FRState:
        return FRState(self.instance, Orientation(self.instance, sig & self._edge_mask))


class _ListKernelMixin:
    """Shared PR/OneStepPR machinery: ``list[u]`` rows packed above the mask.

    The signature layout is exactly :meth:`repro.core.pr.PRState.signature`:
    bit ``edge_count + csr_offset(u) + k`` is set iff ``u``'s ``k``-th
    incident neighbour is in ``list[u]``.
    """

    def _build_list_tables(self) -> None:
        instance = self.instance
        E = instance.edge_count
        self._row_shift = tuple([E + offset for offset in instance._csr_offsets])
        self._row_mask = tuple([(1 << degree) - 1 for degree in instance._degree])
        self._row_clear = tuple(
            [~(mask << shift) for mask, shift in zip(self._row_mask, self._row_shift)]
        )
        # lazily filled per-node memo: list row -> (edge-flip XOR, partner OR).
        # A node has at most 2^degree distinct rows, so the tables stay tiny
        # while turning the common step into three int ops + one dict hit.
        self._step_memo: Tuple[Dict[int, Tuple[int, int]], ...] = tuple(
            [{} for _ in range(instance.node_count)]
        )

    def _restrict(self, base: SignatureExpander, start: int, touched: Set[int]) -> None:
        # a node keeps its row mask and step memo while all its links live:
        # its steps are the same in both kernels, so the memo is shared
        eids = self.instance._incident_eids
        alive = self._edge_mask
        row_mask = list(base._row_mask)
        memo = list(base._step_memo)
        for i in touched:
            row_mask[i] = sum([1 << k for k, e in enumerate(eids[i]) if (alive >> e) & 1])
            memo[i] = {}
        self._row_mask = tuple(row_mask)
        self._step_memo = tuple(memo)

    def _own_row_bit(self, i: int, w_id: int) -> int:
        w = self.instance.nodes[w_id]
        position = self.instance._incident_nbrs[i].index(w)
        return 1 << (self._row_shift[i] + position)

    def step(self, sig: int, i: int) -> int:
        """One ``reverse(u)`` step of the PR effect, entirely on the int."""
        row = (sig >> self._row_shift[i]) & self._row_mask[i]
        pair = self._step_memo[i].get(row)
        if pair is None:
            pair = self._compile_step(i, row)
        return ((sig ^ pair[0]) | pair[1]) & self._row_clear[i]

    def _compile_step(self, i: int, row: int) -> Tuple[int, int]:
        """Flip/bookkeeping masks of one ``(node, row)`` pair, memoised.

        Built on demand, so only the rows a run meets are paid for.  A
        restricted kernel (:meth:`~SignatureExpander.restricted`) skips the
        links that are not alive.
        """
        instance = self.instance
        incident_eids = instance._incident_eids
        effective = 0 if row == self._row_mask[i] else row
        inc = self._inc[i]
        flip = 0
        partners = 0
        for k, (e, j) in enumerate(zip(incident_eids[i], instance._incident_nbr_ids[i])):
            if not (effective >> k) & 1 and (inc >> e) & 1:
                # the edge to every neighbour outside list[u] is reversed and
                # u enters that neighbour's list
                flip ^= 1 << e
                partners |= 1 << (self._row_shift[j] + incident_eids[j].index(e))
        pair = (flip, partners)
        self._step_memo[i][row] = pair
        return pair

    @property
    def signature_bits(self) -> int:
        # mask plus one bookkeeping bit per (node, incident edge) pair
        return 3 * self.instance.edge_count

    def _decode(self, sig: int, state_class):
        instance = self.instance
        mask = sig & self._edge_mask
        lists = instance.unpack_neighbour_sets(sig >> instance.edge_count)
        return state_class(instance, Orientation(instance, mask), lists)


class OneStepPRExpander(_ListKernelMixin, SignatureExpander):
    """OneStepPR kernel: single-node ``reverse(u)`` actions."""

    def __init__(self, automaton: OneStepPartialReversal):
        super().__init__(automaton)
        self._build_list_tables()
        self._initial_sig = automaton.initial_state().signature()

    def initial_signature(self) -> int:
        return self._initial_sig

    def state_for(self, sig: int) -> OneStepPRState:
        return self._decode(sig, OneStepPRState)


class PartialReversalExpander(_ListKernelMixin, SignatureExpander):
    """PR kernel: every non-empty subset of the sink set may step at once.

    Sinks are pairwise non-adjacent (an edge between two nodes points at only
    one of them), so the per-node effects touch disjoint edges and the subset
    action is the composition of the members' single steps in any order —
    exactly Algorithm 1's simultaneous effect.
    """

    supports_subsets = True

    def __init__(self, automaton: PartialReversal, single_actions_only: bool = False):
        super().__init__(automaton)
        self._build_list_tables()
        self.single_actions_only = single_actions_only
        self._initial_sig = automaton.initial_state().signature()

    def initial_signature(self) -> int:
        return self._initial_sig

    def action_for(self, token: Tuple[int, ...]) -> Action:
        return ReverseSet(frozenset(self.instance.nodes[i] for i in token))

    def state_for(self, sig: int) -> PRState:
        return self._decode(sig, PRState)


class NewPRExpander(SignatureExpander):
    """NewPR kernel: parity-selected constant flip masks plus packed counters.

    The int signature is ``(count[n-1] .. count[0]) << edge_count | mask``
    with :data:`_COUNT_BITS` bits per counter — a bijective re-encoding of
    ``NewPRState.signature()`` (which is a (mask, counts-tuple) pair) chosen
    so the frontier and the spillable visited set stay fixed-width.
    """

    def __init__(self, automaton: NewPartialReversal):
        super().__init__(automaton)
        instance = self.instance
        E = instance.edge_count
        n = instance.node_count
        self._shift = tuple(range(E, E + _COUNT_BITS * n, _COUNT_BITS))
        # parity EVEN reverses the edges to the *initial in-neighbours* (the
        # incident edges whose initial head is this node); ODD the initial
        # out-edges.  A stepping node is a sink, so every such edge currently
        # points at it and the whole mask flips.
        self._even_flip = tuple(
            [inc & ~tail for inc, tail in zip(instance._incident_mask, instance._tail_sel)]
        )
        self._odd_flip = instance._tail_sel

    def initial_signature(self) -> int:
        return 0

    @property
    def signature_bits(self) -> int:
        return self.instance.edge_count + _COUNT_BITS * self.instance.node_count

    def _count_shift(self, i: int) -> Optional[int]:
        return self._shift[i]

    def _rebased_on(self, start: int) -> bool:
        return bool(start & self._edge_mask)

    def _restrict(self, base: SignatureExpander, start: int, touched: Set[int]) -> None:
        # the parities are relative to the phase's initial orientation: the
        # initial out-edges of node i at `start` are those it tails there
        self._odd_flip = tuple(
            [(tail ^ start) & inc for tail, inc in zip(self.instance._tail_sel, self._inc)]
        )
        self._even_flip = tuple([inc ^ odd for inc, odd in zip(self._inc, self._odd_flip)])

    def step(self, sig: int, i: int) -> int:
        count = (sig >> self._shift[i]) & _COUNT_MASK
        if count == _COUNT_MASK:
            raise OverflowError(
                f"NewPR step counter of node id {i} exceeded {_COUNT_MASK}"
            )
        flip = self._even_flip[i] if count % 2 == 0 else self._odd_flip[i]
        return (sig ^ flip) + (1 << self._shift[i])

    def state_for(self, sig: int) -> NewPRState:
        instance = self.instance
        counts = {
            u: (sig >> self._shift[i]) & _COUNT_MASK
            for i, u in enumerate(instance.nodes)
        }
        return NewPRState(
            instance, Orientation(instance, sig & self._edge_mask), counts
        )

    def encode_state(self, state: NewPRState) -> int:
        sig = state.graph_signature()
        for i, u in enumerate(self.instance.nodes):
            sig |= state.counts[u] << self._shift[i]
        return sig


class BLLExpander(OneStepPRExpander):
    """BLL that marks on reversal: the OneStepPR kernel with ``marked[u]`` as
    ``list[u]``, from any initial marks (they are the initial list rows).

    ``BLLState.signature()`` packs the marks in ``PRState.signature()``'s
    layout, so the two share the encoding; states decode to ``BLLState``.
    """

    def state_for(self, sig: int) -> BLLState:
        return self._decode(sig, BLLState)


class BLLFullReversalExpander(FullReversalExpander):
    """BLL that never marks, from the all-unmarked labelling: the FR kernel."""

    def state_for(self, sig: int) -> BLLState:
        return BLLState(self.instance, Orientation(self.instance, sig & self._edge_mask))


def compile_expander(
    automaton: IOAutomaton, single_actions_only: bool = False
) -> Optional[SignatureExpander]:
    """Compile a signature kernel for ``automaton``, or ``None`` if unsupported.

    Unsupported automata (BLL that never marks but starts with marks, the
    height formulations, custom test automata) run on the model checker's
    reference loop (:class:`~repro.exploration.state_space
    .StateSpaceExplorer`) and the simulator's legacy object path, which keep
    the legacy semantics but cannot spill, reduce symmetry or skip state
    materialisation.
    """
    if isinstance(automaton, PartialReversal):
        return PartialReversalExpander(automaton, single_actions_only)
    if isinstance(automaton, OneStepPartialReversal):
        return OneStepPRExpander(automaton)
    if isinstance(automaton, NewPartialReversal):
        return NewPRExpander(automaton)
    if isinstance(automaton, FullReversal):
        return FullReversalExpander(automaton)
    if isinstance(automaton, BinaryLinkLabels):
        if automaton.mark_on_reversal:
            return BLLExpander(automaton)
        if not any(automaton.initial_state().marks.values()):
            return BLLFullReversalExpander(automaton)
    return None
