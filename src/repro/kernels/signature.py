"""Compiled signature-space successor kernels for the link-reversal automata.

Every automaton state has a compact **int signature** (the orientation's
edge-reversal bitmask, with per-node bookkeeping packed into the high bits).
This module makes those ints the only thing a hot path touches:

:class:`SignatureExpander`
    A compiled successor kernel for one automaton: ``successors(sig)`` maps an
    int signature directly to its successor signatures, and ``step(sig, i)``
    applies one ``reverse(node_i)`` — both with pure integer arithmetic: no
    :class:`~repro.core.graph.Orientation`, no state objects, no
    per-transition allocation beyond the result ints.  Kernels exist for FR,
    OneStepPR, PR (subset actions) and NewPR; states are only re-materialised
    (:meth:`SignatureExpander.state_for`) when a predicate needs one or a
    counterexample is replayed.

Both the exhaustive model checker (:mod:`repro.exploration`) and the
scenario simulator (:mod:`repro.kernels.simulator`) are built on these
kernels; the module lives here — below both — so neither subsystem depends
on the other.

Twin-node symmetry reduction
    :meth:`SignatureExpander.canonicalize` maps a signature to a canonical
    representative of its orbit under permutations of *structurally
    equivalent* nodes — non-destination nodes with identical neighbour sets
    and identical initial in-neighbour sets ("twins", e.g. the leaves of a
    star).  Any such permutation is an automorphism of the initial directed
    graph that commutes with every automaton's transition function, so the
    canonical image of a reachable state is itself reachable.  Exploration
    over canonical representatives therefore visits at least one member of
    every reachable orbit (induction over executions: if ``σ(s)`` is visited
    and ``s → s'``, then expanding ``σ(s)`` adds ``canonicalize(σ(s'))``),
    which makes the reduction *sound* for checking label-invariant
    predicates.  Caveats: when several twin classes overlap (members of one
    class adjacent to members of another) the per-class sort is not a perfect
    orbit quotient — it may keep more than one representative per orbit
    (never fewer); and predicates that depend on node labels (e.g. the
    embedding-based NewPR invariants 4.1/4.2) are evaluated on the
    representative only, which is still a reachable state but not the
    specific orbit member first encountered.
"""

from __future__ import annotations

import abc
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.automata.ioa import Action, IOAutomaton
from repro.core.base import Reverse
from repro.core.full_reversal import FRState, FullReversal
from repro.core.graph import DirectedEdge, LinkReversalInstance, Orientation
from repro.core.new_pr import NewPartialReversal, NewPRState
from repro.core.one_step_pr import OneStepPartialReversal, OneStepPRState
from repro.core.pr import PartialReversal, PRState, ReverseSet

#: Bits reserved per node for the NewPR step counter inside the int signature.
#: Counts are bounded by the per-node work bound (O(n) for NewPR), so 16 bits
#: cover every instance the checker can exhaust; overflow raises.
_COUNT_BITS = 16
_COUNT_MASK = (1 << _COUNT_BITS) - 1


# ----------------------------------------------------------------------
# mask-level structural checks (no Orientation materialisation)
# ----------------------------------------------------------------------
def mask_is_acyclic(instance: LinkReversalInstance, mask: int) -> bool:
    """Whether the orientation encoded by ``mask`` is a DAG (Kahn over ids)."""
    n = instance.node_count
    succ: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for e, (tail_id, head_id) in enumerate(instance._edge_node_ids):
        if (mask >> e) & 1:
            tail_id, head_id = head_id, tail_id
        succ[tail_id].append(head_id)
        indegree[head_id] += 1
    queue = [i for i in range(n) if indegree[i] == 0]
    removed = 0
    while queue:
        i = queue.pop()
        removed += 1
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    return removed == n


def mask_is_destination_oriented(instance: LinkReversalInstance, mask: int) -> bool:
    """Whether every node reaches the destination in the ``mask`` orientation."""
    n = instance.node_count
    pred: List[List[int]] = [[] for _ in range(n)]
    for e, (tail_id, head_id) in enumerate(instance._edge_node_ids):
        if (mask >> e) & 1:
            tail_id, head_id = head_id, tail_id
        pred[head_id].append(tail_id)
    reached = [False] * n
    dest = instance._dest_id
    reached[dest] = True
    frontier = [dest]
    count = 1
    while frontier:
        i = frontier.pop()
        for j in pred[i]:
            if not reached[j]:
                reached[j] = True
                count += 1
                frontier.append(j)
    return count == n


def mask_final_state_checks(
    instance: LinkReversalInstance, mask: int
) -> Tuple[bool, bool]:
    """``(is_acyclic, is_destination_oriented)`` of the ``mask`` orientation.

    The two checks share the successor/predecessor adjacency, so computing
    them together halves the allocation work of calling
    :func:`mask_is_acyclic` and :func:`mask_is_destination_oriented`
    separately — this is what the scenario runner stamps on every finished
    run.
    """
    n = instance.node_count
    succ: List[List[int]] = [[] for _ in range(n)]
    pred: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for e, (tail_id, head_id) in enumerate(instance._edge_node_ids):
        if (mask >> e) & 1:
            tail_id, head_id = head_id, tail_id
        succ[tail_id].append(head_id)
        pred[head_id].append(tail_id)
        indegree[head_id] += 1
    queue = [i for i in range(n) if indegree[i] == 0]
    removed = 0
    while queue:
        i = queue.pop()
        removed += 1
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    acyclic = removed == n
    dest = instance._dest_id
    reached = [False] * n
    reached[dest] = True
    frontier = [dest]
    count = 1
    while frontier:
        i = frontier.pop()
        for j in pred[i]:
            if not reached[j]:
                reached[j] = True
                count += 1
                frontier.append(j)
    return acyclic, count == n


def mask_directed_edges(
    instance: LinkReversalInstance, mask: int
) -> Tuple[DirectedEdge, ...]:
    """The ``(tail, head)`` edges of the ``mask`` orientation, in edge order.

    Equivalent to ``Orientation(instance, mask).directed_edges()`` without
    building the orientation (no counter array, no sink set) — what the
    simulation fast path uses to hand a final orientation over to the
    instance re-packing of a churn phase.
    """
    return tuple(
        (head, tail) if (mask >> e) & 1 else (tail, head)
        for e, (tail, head) in enumerate(instance.initial_edges)
    )


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
    """

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
    def successors(self, sig: int) -> List[Tuple[Tuple[int, ...], int]]:
        """Every ``(actor_id_token, successor_signature)`` pair of ``sig``."""

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
        classes = []
        for members in twin_node_classes(instance):
            shared = sorted(
                instance._node_id[v] for v in instance._nbrs[instance.nodes[members[0]]]
            )
            fields = []
            count_shifts: List[int] = []
            clear = 0
            for i in members:
                u = instance.nodes[i]
                row = []
                for j in shared:
                    w = instance.nodes[j]
                    edge_bit = 1 << instance._edge_id[(u, w)]
                    own_bit = self._own_row_bit(i, j)
                    partner_bit = self._own_row_bit(j, i)
                    row.append((edge_bit, own_bit, partner_bit))
                    clear |= edge_bit | own_bit | partner_bit
                shift = self._count_shift(i)
                if shift is not None:
                    count_shifts.append(shift)
                    clear |= _COUNT_MASK << shift
                fields.append(tuple(row))
            classes.append(
                _TwinClass(members, tuple(fields), tuple(count_shifts) or None, ~clear)
            )
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
            keys = []
            for m in range(len(cls.members)):
                key: List = [
                    (
                        1 if sig & edge_bit else 0,
                        1 if own_bit and sig & own_bit else 0,
                        1 if partner_bit and sig & partner_bit else 0,
                    )
                    for edge_bit, own_bit, partner_bit in cls.fields[m]
                ]
                if cls.count_shifts is not None:
                    key.append((sig >> cls.count_shifts[m]) & _COUNT_MASK)
                keys.append(tuple(key))
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

    def successors(self, sig: int) -> List[Tuple[Tuple[int, ...], int]]:
        inc = self._inc
        return [((i,), sig ^ inc[i]) for i in self.sink_ids(sig)]

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

        Built on demand, so a kernel compiled for one short repair phase
        only pays for the nodes that actually step.
        """
        instance = self.instance
        incident_eids = instance._incident_eids
        effective = 0 if row == self._row_mask[i] else row
        flip = 0
        partners = 0
        for k, (e, j) in enumerate(zip(incident_eids[i], instance._incident_nbr_ids[i])):
            if not (effective >> k) & 1:
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

    def successors(self, sig: int) -> List[Tuple[Tuple[int, ...], int]]:
        return [((i,), self.step(sig, i)) for i in self.sink_ids(sig)]

    def state_for(self, sig: int) -> OneStepPRState:
        return self._decode(sig, OneStepPRState)


class PartialReversalExpander(_ListKernelMixin, SignatureExpander):
    """PR kernel: every non-empty subset of the sink set may step at once.

    Sinks are pairwise non-adjacent (an edge between two nodes points at only
    one of them), so the per-node effects touch disjoint edges and the subset
    action is the composition of the members' single steps in any order —
    exactly Algorithm 1's simultaneous effect.
    """

    def __init__(self, automaton: PartialReversal, single_actions_only: bool = False):
        super().__init__(automaton)
        self._build_list_tables()
        self.single_actions_only = single_actions_only
        self._initial_sig = automaton.initial_state().signature()

    def initial_signature(self) -> int:
        return self._initial_sig

    def successors(self, sig: int) -> List[Tuple[Tuple[int, ...], int]]:
        sinks = self.sink_ids(sig)
        if self.single_actions_only:
            return [((i,), self.step(sig, i)) for i in sinks]
        result = []
        for size in range(1, len(sinks) + 1):
            for subset in combinations(sinks, size):
                successor = sig
                for i in subset:
                    successor = self.step(successor, i)
                result.append((subset, successor))
        return result

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

    def step(self, sig: int, i: int) -> int:
        count = (sig >> self._shift[i]) & _COUNT_MASK
        if count == _COUNT_MASK:
            raise OverflowError(
                f"NewPR step counter of node id {i} exceeded {_COUNT_MASK}"
            )
        flip = self._even_flip[i] if count % 2 == 0 else self._odd_flip[i]
        return (sig ^ flip) + (1 << self._shift[i])

    def successors(self, sig: int) -> List[Tuple[Tuple[int, ...], int]]:
        return [((i,), self.step(sig, i)) for i in self.sink_ids(sig)]

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


def compile_expander(
    automaton: IOAutomaton, single_actions_only: bool = False
) -> Optional[SignatureExpander]:
    """Compile a signature kernel for ``automaton``, or ``None`` if unsupported.

    Unsupported automata (BLL, the height formulations, custom test automata)
    fall back to the model checker's reference loop
    (:class:`~repro.exploration.state_space.StateSpaceExplorer`) and the
    simulator's legacy object path, which keep the legacy semantics but
    cannot spill, reduce symmetry or skip state materialisation.
    """
    if isinstance(automaton, PartialReversal):
        return PartialReversalExpander(automaton, single_actions_only)
    if isinstance(automaton, OneStepPartialReversal):
        return OneStepPRExpander(automaton)
    if isinstance(automaton, NewPartialReversal):
        return NewPRExpander(automaton)
    if isinstance(automaton, FullReversal):
        return FullReversalExpander(automaton)
    return None
