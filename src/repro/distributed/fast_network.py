"""The compiled asynchronous network engine: the hot loop as pure int ops.

:class:`FastAsyncNetwork` is the campaign-scale twin of
:class:`~repro.distributed.network.AsyncLinkReversalNetwork`.  The object
network dispatches dataclass events through per-message callback closures,
compares :class:`~repro.distributed.protocol.HeightValue` dataclasses and
keeps per-channel in-flight lists; none of that survives on the hot path
here:

* **Packed int heights** — a height triple ``(a, b, rank)`` is one int
  ``(a << 64) | ((b + 2^43) << 20) | rank``, so the lexicographic height
  order *is* integer ``<`` and every local-sink test is a handful of int
  compares (full-reversal pairs are the ``b = 0`` special case).
* **Flat tuple heap** — events are plain ``(time, seq, kind, ...)`` tuples
  in a :mod:`heapq`; ties break on the globally allocated ``seq`` exactly
  like the object simulator's sequence numbers, so the two engines dispatch
  in the same order.
* **Ring-buffer FIFO channels** — for the FIFO delay models (``zero``,
  ``fixed``, ``fifo``) each directed link keeps its in-flight messages in a
  ring buffer (:class:`collections.deque`) and only the head message lives
  in the heap; a delivery pops the ring and re-arms the next head.  The heap
  stays O(links) instead of O(messages in flight).  Non-FIFO models
  (``uniform``) fall back to one heap entry per message.
* **Epoch-invalidated links** — a link failure bumps the link's epoch
  instead of hunting down and cancelling in-flight events; stale events are
  skipped when popped, which is both faster and immune to the unbounded
  cancelled-event growth the object simulator needed compaction for.
* **Blake2-derived per-link seeds** — the same
  :func:`~repro.distributed.network.derive_channel_seed` scheme as the
  object network (hashed from one shared prefix state), so both engines
  consume identical per-link random streams.  Channels that never draw
  (constant delay, no loss) get no stream at all.
* **Batched inline delivery** — the run loop drains the heap with inlined
  handlers (height update, local-sink test, reversal, broadcast) instead of
  scheduling per-message callbacks.

The object network remains the **documented oracle**: for every delay model,
loss rate, seed and link-churn sequence, a run of this engine must produce a
field-for-field identical :class:`~repro.distributed.network.NetworkReport`
and the same induced global orientation
(``tests/test_fast_network_differential.py`` pins this).

Beyond parity the engine adds what the campaign layer needs: cooperative
wall-clock deadlines (:class:`~repro.kernels.simulator.DeadlineExceeded`
like every other engine), a :meth:`FastAsyncNetwork.quiescent` flag, and
message-passing work counters (``reversal_count`` / ``edge_flips`` /
``dummy_reversals``) measured against the true global heights.
"""

from __future__ import annotations

import heapq
import logging
from collections import deque
from random import Random
from time import perf_counter
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro import telemetry as _telemetry
from repro.core.graph import LinkReversalInstance, Orientation
from repro.distributed.network import (
    NetworkReport,
    channel_seed_deriver,
    derive_link_up_seed,
    initial_height_levels,
)
from repro.distributed.protocol import HeightValue, ReversalMode
from repro.kernels.simulator import DEADLINE_CHECK_STRIDE, DeadlineExceeded

logger = logging.getLogger(__name__)

Node = Hashable

# height packing: (a << 64) | ((b + B_OFFSET) << R_BITS) | rank
_R_BITS = 20
_R_MASK = (1 << _R_BITS) - 1
_B_BITS = 44
_B_MASK = (1 << _B_BITS) - 1
_B_OFFSET = 1 << (_B_BITS - 1)
_A_SHIFT = _R_BITS + _B_BITS

# event kinds (position 2 of a heap tuple; never compared — seq is unique)
_START = 0
_DELIVER = 1
_BEACON = 2


def pack_height(a: int, b: int, rank: int) -> int:
    """One packed int whose integer order is the lexicographic (a, b, rank)."""
    field = b + _B_OFFSET
    if not 0 <= field <= _B_MASK:
        raise OverflowError(f"height b-component {b} out of packed range")
    return (a << _A_SHIFT) | (field << _R_BITS) | rank


def unpack_height(packed: int) -> Tuple[int, int, int]:
    """The ``(a, b, rank)`` triple of a packed height."""
    return (
        packed >> _A_SHIFT,
        ((packed >> _R_BITS) & _B_MASK) - _B_OFFSET,
        packed & _R_MASK,
    )


class FastAsyncNetwork:
    """A compiled asynchronous deployment of height-based link reversal.

    Drop-in behavioural twin of
    :class:`~repro.distributed.network.AsyncLinkReversalNetwork` (same
    constructor semantics, same reports, same induced orientations for the
    same seeds) with an int-only hot loop.
    """

    def __init__(
        self,
        instance: LinkReversalInstance,
        mode: ReversalMode = ReversalMode.PARTIAL,
        min_delay: float = 1.0,
        max_delay: float = 2.0,
        loss_probability: float = 0.0,
        seed: int = 0,
        fifo: bool = False,
    ):
        if min_delay < 0 or max_delay < min_delay:
            raise ValueError("delays must satisfy 0 <= min_delay <= max_delay")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        instance.validate(require_dag=True)
        if instance.node_count > _R_MASK:
            raise ValueError(
                f"packed heights support at most {_R_MASK} nodes, "
                f"got {instance.node_count}"
            )
        self.instance = instance
        self.mode = mode
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.loss_probability = loss_probability
        self.fifo = fifo
        self.seed = seed
        self._full = mode is ReversalMode.FULL
        #: constant delays make delivery times globally monotone: the whole
        #: network shares one FIFO ring buffer and the heap only ever holds
        #: start/beacon events
        self._const_mode = max_delay <= min_delay
        #: random-but-FIFO delays (the ``fifo`` clamp) keep per-link ring
        #: buffers with one heap entry per link; random reordering delays
        #: (``uniform``) need one heap entry per message
        self._ring_mode = fifo and not self._const_mode

        nodes = instance.nodes
        n = instance.node_count
        self._nodes = nodes
        self._node_id = dict(instance._node_id)
        self._dest = self._node_id[instance.destination]
        #: crash-stop flags: a crashed node keeps its last height and still
        #: receives messages, but never reverses and never beacons again
        self._crashed = bytearray(n)
        self._repr_key: List[str] = [repr(u) for u in nodes]

        levels = initial_height_levels(instance)
        self._height = [pack_height(0, levels[u], self._node_id[u]) for u in nodes]
        self._nbrs: List[Set[int]] = [
            {self._node_id[v] for v in instance.nbrs(u)} for u in nodes
        ]
        # broadcast order mirrors the object protocol: neighbours sorted by repr
        self._sorted_nbrs: List[List[int]] = [
            sorted(ids, key=self._repr_key.__getitem__) for ids in self._nbrs
        ]
        #: per node: outgoing link ids aligned with ``_sorted_nbrs`` (rebuilt
        #: on link churn) so a broadcast never touches the link-index dict
        self._bcast_links: List[List[int]] = [[] for _ in range(n)]
        self._known: List[Dict[int, int]] = [
            {j: self._height[j] for j in ids} for ids in self._nbrs
        ]
        # incremental local-sink state: a node is a local sink iff it has
        # neighbours, knows all their heights (unknown == 0) and none of the
        # known heights is <= its own (blocking == 0).  Maintaining the two
        # counters makes the per-message sink test O(1) instead of O(deg).
        self._unknown: List[int] = [0] * n
        self._blocking: List[int] = [
            sum(1 for value in self._known[i].values() if value <= self._height[i])
            for i in range(n)
        ]

        # directed links, in the object network's construction order: both
        # directions of every undirected link, by sorted (lo, hi) id pair
        node_id = self._node_id
        self._links: Set[Tuple[int, int]] = set()
        for u, v in instance.initial_edges:
            iu, iv = node_id[u], node_id[v]
            self._links.add((iu, iv) if iu < iv else (iv, iu))
        undirected = sorted(self._links)
        self._link_from: List[int] = []
        self._link_to: List[int] = []
        for lo, hi in undirected:
            self._link_from += (lo, hi)
            self._link_to += (hi, lo)
        self._link_index: Dict[Tuple[int, int], int] = {
            pair: lid for lid, pair in enumerate(zip(self._link_from, self._link_to))
        }
        count = len(self._link_from)
        self._link_up: List[bool] = [True] * count
        self._link_epoch: List[int] = [0] * count
        #: whether a channel ever draws a random number; constant-delay,
        #: lossless channels never do, so they get no per-link stream at all
        self._channel_draws = loss_probability > 0.0 or not self._const_mode
        self._rng_random: List = [None] * count
        self._rng_uniform: List = [None] * count
        if self._channel_draws:
            derive = channel_seed_deriver(seed)
            for lid in range(count):
                rng = Random(derive(self._link_from[lid], self._link_to[lid]))
                self._rng_random[lid] = rng.random
                self._rng_uniform[lid] = rng.uniform
        self._sent: List[int] = [0] * count
        self._delivered: List[int] = [0] * count
        self._dropped: List[int] = [0] * count
        self._lost_failure: List[int] = [0] * count
        self._in_flight: List[int] = [0] * count
        #: per-link in-flight rings, used (and allocated) in ring mode only
        self._ring: List[Optional[deque]] = (
            [deque() for _ in range(count)] if self._ring_mode else [None] * count
        )
        self._head_pending: List[bool] = [False] * count
        self._last_sched: List[float] = [0.0] * count
        self._link_generation: Dict[Tuple[int, int], int] = {}
        for i in range(n):
            self._rebuild_bcast_links(i)

        # every node announces its initial height at time zero; the start
        # events take sequence numbers 0..n-1 exactly like the object network
        self._heap: List[tuple] = [(0.0, i, _START, i) for i in range(n)]
        heapq.heapify(self._heap)
        #: the global delivery ring buffer of const-delay mode:
        #: ``(time, seq, lid, height, epoch)`` entries in (time, seq) order
        self._dq: deque = deque()
        #: the next event sequence number, boxed so the compiled broadcast
        #: closure shares it
        self._seq_box = [n]
        self._now = 0.0
        #: queued events invalidated by link failures (heap or ring buffer)
        self._stale_events = 0
        self.events_dispatched = 0
        self.beacon_rounds = 0
        self._broadcast = self._compile_broadcast()

        #: per-node reversal counts plus true-height work accounting
        self.reversal_counts: List[int] = [0] * n
        self.edge_flips = 0
        self.dummy_reversals = 0

    # ------------------------------------------------------------------
    # link plumbing
    # ------------------------------------------------------------------
    def _new_link(self, sender: int, receiver: int, generation: int) -> int:
        """Register a directed link created by ``add_link`` and return its id."""
        lid = len(self._link_from)
        self._link_index[(sender, receiver)] = lid
        self._link_from.append(sender)
        self._link_to.append(receiver)
        self._link_up.append(True)
        self._link_epoch.append(0)
        self._rng_random.append(None)
        self._rng_uniform.append(None)
        self._reseed_link(lid, generation)
        self._sent.append(0)
        self._delivered.append(0)
        self._dropped.append(0)
        self._lost_failure.append(0)
        self._in_flight.append(0)
        self._ring.append(deque() if self._ring_mode else None)
        self._head_pending.append(False)
        self._last_sched.append(0.0)
        return lid

    def _reseed_link(self, lid: int, generation: int) -> None:
        """Give a (re-)added link its generation-stamped channel stream."""
        if self._channel_draws:
            rng = Random(
                derive_link_up_seed(
                    self.seed, self._link_from[lid], self._link_to[lid], generation
                )
            )
            self._rng_random[lid] = rng.random
            self._rng_uniform[lid] = rng.uniform

    def _rebuild_bcast_links(self, i: int) -> None:
        """Re-align node ``i``'s broadcast link ids with its sorted neighbours."""
        index = self._link_index
        self._bcast_links[i] = [index[(i, j)] for j in self._sorted_nbrs[i]]

    def _send_height(self, i: int, j: int, height: int) -> None:
        """Send ``i``'s height to ``j`` (single-message cold path)."""
        lid = self._link_index.get((i, j))
        if lid is None or not self._link_up[lid]:
            return  # the link no longer exists (object twin: channel removed)
        self._sent[lid] += 1
        loss = self.loss_probability
        if loss > 0.0 and self._rng_random[lid]() < loss:
            self._dropped[lid] += 1
            return
        min_delay = self.min_delay
        if self.max_delay > min_delay:
            delay = self._rng_uniform[lid](min_delay, self.max_delay)
        else:
            delay = min_delay
        t = self._now + delay
        if self.fifo:
            last = self._last_sched[lid]
            if t < last:
                t = last
            self._last_sched[lid] = t
        seq = self._seq_box[0]
        self._seq_box[0] = seq + 1
        self._in_flight[lid] += 1
        if self._const_mode:
            self._dq.append((t, seq, lid, height, self._link_epoch[lid]))
        elif self._ring_mode:
            ring = self._ring[lid]
            ring.append((t, seq, height))
            if not self._head_pending[lid]:
                self._head_pending[lid] = True
                heapq.heappush(
                    self._heap, (t, seq, _DELIVER, lid, self._link_epoch[lid])
                )
        else:
            heapq.heappush(
                self._heap, (t, seq, _DELIVER, lid, self._link_epoch[lid], height)
            )

    # ------------------------------------------------------------------
    # the protocol (inlined, int-only)
    # ------------------------------------------------------------------
    def _compile_broadcast(self):
        """Build the broadcast hot path with every per-network constant pre-bound.

        A broadcast sends one message per neighbour per reversal — binding
        the channel state as closure cells once (instead of ~18 attribute
        loads per call) measurably shortens the send path.  All bound
        containers are mutated in place elsewhere, never rebound, so the
        closure stays valid across link churn.
        """
        heap = self._heap
        heappush = heapq.heappush
        bcast_links = self._bcast_links
        heights = self._height
        sent = self._sent
        dropped = self._dropped
        in_flight = self._in_flight
        link_epoch = self._link_epoch
        rng_random = self._rng_random
        rng_uniform = self._rng_uniform
        rings = self._ring
        head_pending = self._head_pending
        last_sched = self._last_sched
        loss = self.loss_probability
        lossless = loss <= 0.0
        min_delay = self.min_delay
        max_delay = self.max_delay
        draw_delay = max_delay > min_delay
        fifo = self.fifo
        const_mode = self._const_mode
        ring_mode = self._ring_mode
        dq = self._dq
        dq_append = dq.append
        seq_box = self._seq_box

        def broadcast(i: int) -> None:
            # a current neighbour always has a live link (fail_link removes
            # the neighbour in the same atomic update), so no aliveness check
            lids = bcast_links[i]
            if not lids:
                return
            height = heights[i]
            now = self._now
            seq = seq_box[0]
            if const_mode and lossless:
                # the tightest send path: one constant delivery time, the
                # global ring buffer, no random draws
                t = now + min_delay
                for lid in lids:
                    sent[lid] += 1
                    in_flight[lid] += 1
                    dq_append((t, seq, lid, height, link_epoch[lid]))
                    seq += 1
                seq_box[0] = seq
                return
            for lid in lids:
                sent[lid] += 1
                if loss > 0.0 and rng_random[lid]() < loss:
                    dropped[lid] += 1
                    continue
                t = now + (
                    rng_uniform[lid](min_delay, max_delay) if draw_delay else min_delay
                )
                if fifo:
                    last = last_sched[lid]
                    if t < last:
                        t = last
                    last_sched[lid] = t
                in_flight[lid] += 1
                if const_mode:
                    dq_append((t, seq, lid, height, link_epoch[lid]))
                elif ring_mode:
                    ring = rings[lid]
                    ring.append((t, seq, height))
                    if not head_pending[lid]:
                        head_pending[lid] = True
                        heappush(heap, (t, seq, _DELIVER, lid, link_epoch[lid]))
                else:
                    heappush(heap, (t, seq, _DELIVER, lid, link_epoch[lid], height))
                seq += 1
            seq_box[0] = seq

        return broadcast

    def _maybe_reverse(self, i: int) -> None:
        """If ``i`` is a local sink, raise its height and broadcast it."""
        if (
            i != self._dest
            and not self._crashed[i]
            and self._nbrs[i]
            and self._unknown[i] == 0
            and self._blocking[i] == 0
        ):
            self._reverse(i)

    def _reverse(self, i: int) -> None:
        """Raise a local sink's height and broadcast it (the caller checked)."""
        values = self._known[i].values()
        if self._full:
            # packed order is (a, b, rank)-lexicographic, so the max packed
            # height carries the max a (and min packed the min a below)
            max_a = max(values) >> _A_SHIFT
            new_height = ((max_a + 1) << _A_SHIFT) | (_B_OFFSET << _R_BITS) | i
        else:
            new_a = (min(values) >> _A_SHIFT) + 1
            b_field = -1
            for value in values:
                if value >> _A_SHIFT == new_a:
                    b = (value >> _R_BITS) & _B_MASK
                    if b_field < 0 or b < b_field:
                        b_field = b
            if b_field >= 0:
                b_field -= 1
                if b_field < 0:
                    raise OverflowError("height b-component underflowed packed range")
            else:
                b_field = (self._height[i] >> _R_BITS) & _B_MASK
            new_height = (new_a << _A_SHIFT) | (b_field << _R_BITS) | i
        # true-height work accounting: before the raise every incident link
        # points at i (true heights only grow past the known ones), so the
        # edges now pointing away are exactly the flips of this reversal
        heights = self._height
        flips = 0
        for j in self._nbrs[i]:
            if new_height > heights[j]:
                flips += 1
        self.edge_flips += flips
        if flips == 0:
            self.dummy_reversals += 1
        heights[i] = new_height
        # the raise changes which known heights block i: recount against the
        # new height (full mode lifts above every known height, so all block)
        if self._full:
            blocking = len(values)
        else:
            blocking = 0
            for value in values:
                if value <= new_height:
                    blocking += 1
        self._blocking[i] = blocking
        self.reversal_counts[i] += 1
        self._broadcast(i)

    def _on_link_down(self, i: int, j: int) -> None:
        if j in self._nbrs[i]:
            self._nbrs[i].discard(j)
            self._sorted_nbrs[i].remove(j)
            removed = self._known[i].pop(j, None)
            if removed is None:
                self._unknown[i] -= 1
            elif removed <= self._height[i]:
                self._blocking[i] -= 1
            self._rebuild_bcast_links(i)
        self._maybe_reverse(i)

    def _on_link_up(self, i: int, j: int) -> None:
        if j not in self._nbrs[i]:
            self._nbrs[i].add(j)
            self._unknown[i] += 1
            order = self._sorted_nbrs[i]
            order.append(j)
            order.sort(key=self._repr_key.__getitem__)
            self._rebuild_bcast_links(i)
        self._send_height(i, j, self._height[i])
        self._maybe_reverse(i)

    # ------------------------------------------------------------------
    # the hot loop
    # ------------------------------------------------------------------
    def _run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Dispatch events in ``(time, seq)`` order; returns the dispatch count."""
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        link_epoch = self._link_epoch
        delivered = self._delivered
        in_flight = self._in_flight
        link_to = self._link_to
        link_from = self._link_from
        known_by_node = self._known
        nbrs_by_node = self._nbrs
        heights = self._height
        unknown = self._unknown
        blocking = self._blocking
        dest = self._dest
        crashed = self._crashed
        ring_mode = self._ring_mode
        rings = self._ring
        head_pending = self._head_pending
        maybe_reverse = self._maybe_reverse
        reverse = self._reverse
        broadcast = self._broadcast

        dq = self._dq
        dq_popleft = dq.popleft

        dispatched = 0
        deadline_countdown = 0
        budget_exhausted = False
        try:
            while True:
                if max_events is not None and dispatched >= max_events:
                    budget_exhausted = True
                    break
                # next event: min over the heap and the global delivery ring
                # buffer (both ordered by (time, seq); the ring buffer is
                # non-empty only in const-delay mode)
                from_dq = False
                if heap:
                    head = heap[0]
                    if dq:
                        entry = dq[0]
                        if entry[0] < head[0] or (
                            entry[0] == head[0] and entry[1] < head[1]
                        ):
                            head = entry
                            from_dq = True
                elif dq:
                    head = dq[0]
                    from_dq = True
                else:
                    break
                t = head[0]
                if until is not None and t > until:
                    break
                if from_dq:
                    dq_popleft()
                    lid = head[2]
                    if head[4] != link_epoch[lid]:
                        self._stale_events -= 1
                        continue  # invalidated by a link failure
                    height = head[3]
                else:
                    heappop(heap)
                    kind = head[2]
                    if kind != _DELIVER:
                        if kind == _START:
                            self._now = t
                            node = head[3]
                            broadcast(node)
                            maybe_reverse(node)
                        else:  # _BEACON
                            self._now = t
                            broadcast(head[3])
                        dispatched += 1
                        if deadline is not None:
                            deadline_countdown -= 1
                            if deadline_countdown < 0:
                                deadline_countdown = DEADLINE_CHECK_STRIDE - 1
                                if perf_counter() > deadline:
                                    raise DeadlineExceeded(
                                        f"deadline exceeded after "
                                        f"{self.events_dispatched + dispatched} events"
                                    )
                        continue
                    lid = head[3]
                    if head[4] != link_epoch[lid]:
                        self._stale_events -= 1
                        continue  # invalidated by a link failure
                    if ring_mode:
                        ring = rings[lid]
                        height = ring.popleft()[2]
                        if ring:
                            nxt = ring[0]
                            heappush(
                                heap, (nxt[0], nxt[1], _DELIVER, lid, link_epoch[lid])
                            )
                        else:
                            head_pending[lid] = False
                    else:
                        height = head[5]
                # ---- the delivery hot path ----
                self._now = t
                delivered[lid] += 1
                in_flight[lid] -= 1
                receiver = link_to[lid]
                sender = link_from[lid]
                if sender in nbrs_by_node[receiver]:
                    known = known_by_node[receiver]
                    old = known.get(sender)
                    # O(1) incremental sink test: track how many known
                    # heights block the receiver instead of rescanning
                    if old is None:
                        known[sender] = height
                        unknown[receiver] -= 1
                        if height <= heights[receiver]:
                            blocking[receiver] += 1
                        elif (
                            unknown[receiver] == 0
                            and blocking[receiver] == 0
                            and receiver != dest
                            and not crashed[receiver]
                        ):
                            reverse(receiver)
                    elif height > old:
                        known[sender] = height
                        own = heights[receiver]
                        if old <= own < height:
                            blocking[receiver] -= 1
                        if (
                            blocking[receiver] == 0
                            and unknown[receiver] == 0
                            and receiver != dest
                            and not crashed[receiver]
                        ):
                            reverse(receiver)
                    # a not-newer height changes no state, so the sink
                    # predicate is unchanged since the last check
                # else: stale message from a link that has since failed
                dispatched += 1
                if deadline is not None:
                    deadline_countdown -= 1
                    if deadline_countdown < 0:
                        deadline_countdown = DEADLINE_CHECK_STRIDE - 1
                        if perf_counter() > deadline:
                            raise DeadlineExceeded(
                                f"deadline exceeded after "
                                f"{self.events_dispatched + dispatched} events"
                            )
        finally:
            self.events_dispatched += dispatched
        # Advance the clock across the idle remainder of the window.  The
        # loop exits with ``_now`` at the last *dispatched* event, so without
        # this a window whose remaining events all lie beyond ``until`` would
        # leave time frozen and consecutive ``run_for`` windows would overlap
        # forever instead of sweeping forward.  Only an exhausted event
        # budget must not skip ahead: undispatched events inside the window
        # still await the next call.
        if until is not None and self._now < until and not budget_exhausted:
            self._now = until
        return dispatched

    # ------------------------------------------------------------------
    # running (the object network's API, plus deadlines)
    # ------------------------------------------------------------------
    def _sample_queue_depths(self) -> None:
        """Record peak queue gauges (phase boundaries only, never per event)."""
        registry = _telemetry.REGISTRY
        registry.max_gauge("fast_network.heap_depth", len(self._heap))
        occupancy = len(self._dq)
        if self._ring_mode:
            occupancy += sum(len(ring) for ring in self._ring)
        registry.max_gauge("fast_network.ring_occupancy", occupancy)

    def run_to_quiescence(
        self, max_events: int = 1_000_000, deadline: Optional[float] = None
    ) -> NetworkReport:
        """Dispatch events until none remain, then summarise the run."""
        if _telemetry.ENABLED:
            self._sample_queue_depths()
        self._run(max_events=max_events, deadline=deadline)
        return self.report()

    def run_for(
        self,
        duration: float,
        max_events: int = 1_000_000,
        deadline: Optional[float] = None,
    ) -> NetworkReport:
        """Advance simulated time by ``duration`` and summarise."""
        self.advance(duration, max_events=max_events, deadline=deadline)
        return self.report()

    def advance(
        self,
        duration: float,
        max_events: int = 1_000_000,
        deadline: Optional[float] = None,
    ) -> int:
        """Advance simulated time by ``duration``; returns the dispatch count.

        :meth:`run_for` without the report, for callers that step the
        network many times and never read most of the summaries.
        """
        return self._run(
            until=self._now + duration, max_events=max_events, deadline=deadline
        )

    def broadcast_heights(self) -> None:
        """Schedule one anti-entropy beacon round (every live node re-announces)."""
        now = self._now
        seq_box = self._seq_box
        crashed = self._crashed
        for i in range(len(self._nodes)):
            if crashed[i]:
                continue
            heapq.heappush(self._heap, (now, seq_box[0], _BEACON, i))
            seq_box[0] += 1

    def run_with_beacons(
        self,
        max_rounds: int = 10,
        max_events_per_round: int = 100_000,
        deadline: Optional[float] = None,
    ) -> NetworkReport:
        """Alternate quiescence runs and beacon rounds until destination oriented."""
        report = self.run_to_quiescence(max_events=max_events_per_round, deadline=deadline)
        rounds = 0
        while not report.destination_oriented and rounds < max_rounds:
            logger.debug(
                "beacon round %d: %d events dispatched, not yet oriented",
                rounds + 1, self.events_dispatched,
            )
            self.broadcast_heights()
            report = self.run_to_quiescence(
                max_events=max_events_per_round, deadline=deadline
            )
            rounds += 1
            self.beacon_rounds += 1
        return report

    def quiescent(self) -> bool:
        """Whether no live (non-invalidated) event remains queued."""
        return len(self._heap) + len(self._dq) == self._stale_events

    # ------------------------------------------------------------------
    # topology changes
    # ------------------------------------------------------------------
    def crash_stop_ids(self, ids: Iterable[int]) -> None:
        """Crash-stop nodes by integer id: they announce their initial height
        at START but never reverse, never beacon, and drop nothing — neighbours
        keep routing around their frozen heights."""
        for i in ids:
            if i == self._dest:
                raise ValueError("cannot crash-stop the destination")
            if not 0 <= i < len(self._nodes):
                raise ValueError(f"node id {i} out of range")
            self._crashed[i] = 1

    def _ids_of(self, u: Node, v: Node) -> Tuple[int, int]:
        iu = self._node_id.get(u)
        iv = self._node_id.get(v)
        if iu is None or iv is None:
            raise ValueError(f"{u!r}-{v!r} is not a current link")
        return iu, iv

    def fail_link(self, u: Node, v: Node) -> None:
        """Remove the link ``{u, v}``: in-flight messages lost, endpoints notified."""
        iu, iv = self._ids_of(u, v)
        edge = (iu, iv) if iu < iv else (iv, iu)
        if edge not in self._links:
            raise ValueError(f"{u!r}-{v!r} is not a current link")
        self._links.discard(edge)
        for s, r in ((iu, iv), (iv, iu)):
            lid = self._link_index[(s, r)]
            if not self._link_up[lid]:
                continue
            self._link_up[lid] = False
            self._lost_failure[lid] += self._in_flight[lid]
            if self._ring_mode:
                # only the ring head has a heap entry
                if self._head_pending[lid]:
                    self._stale_events += 1
                self._ring[lid].clear()
                self._head_pending[lid] = False
            else:
                # const mode: one ring-buffer entry per message; uniform
                # mode: one heap entry per message
                self._stale_events += self._in_flight[lid]
            self._in_flight[lid] = 0
            self._link_epoch[lid] += 1
            if _telemetry.ENABLED:
                _telemetry.REGISTRY.inc("fast_network.epoch_invalidations")
        logger.debug("failed link (%r, %r)", u, v)
        self._on_link_down(iu, iv)
        self._on_link_down(iv, iu)

    def add_link(self, u: Node, v: Node) -> None:
        """Add (or re-add) the link ``{u, v}`` with fresh channel streams."""
        iu = self._node_id.get(u)
        iv = self._node_id.get(v)
        if iu is None or iv is None:
            raise ValueError(f"cannot add a link to unknown node {u!r} or {v!r}")
        edge = (iu, iv) if iu < iv else (iv, iu)
        if edge in self._links:
            return
        self._links.add(edge)
        generation = self._link_generation.get(edge, 0) + 1
        self._link_generation[edge] = generation
        for s, r in ((iu, iv), (iv, iu)):
            lid = self._link_index.get((s, r))
            if lid is None:
                self._new_link(s, r, generation)
            else:
                self._link_up[lid] = True
                self._reseed_link(lid, generation)
                self._last_sched[lid] = 0.0
        self._on_link_up(iu, iv)
        self._on_link_up(iv, iu)

    def current_links(self) -> FrozenSet[FrozenSet[Node]]:
        """The current undirected link set (node objects, API parity)."""
        nodes = self._nodes
        return frozenset(frozenset((nodes[a], nodes[b])) for a, b in self._links)

    def sorted_link_pairs(self) -> List[Tuple[Node, Node]]:
        """The current links as node pairs, in deterministic (id) order."""
        nodes = self._nodes
        return [(nodes[a], nodes[b]) for a, b in sorted(self._links)]

    def link_would_partition(self, u: Node, v: Node) -> bool:
        """Whether failing ``{u, v}`` would disconnect the current link graph."""
        iu, iv = self._ids_of(u, v)
        dropped = (iu, iv) if iu < iv else (iv, iu)
        n = len(self._nodes)
        adjacency: List[List[int]] = [[] for _ in range(n)]
        involved: Set[int] = set()
        for a, b in self._links:
            involved.add(a)
            involved.add(b)
            if (a, b) == dropped:
                continue
            adjacency[a].append(b)
            adjacency[b].append(a)
        if not involved:
            return False
        start = next(iter(involved))
        reached = {start}
        frontier = [start]
        while frontier:
            a = frontier.pop()
            for b in adjacency[a]:
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
        return reached != involved

    # ------------------------------------------------------------------
    # data-plane forwarding views
    # ------------------------------------------------------------------
    @property
    def destination_id(self) -> int:
        """Node id of the destination (ids index ``instance.nodes``)."""
        return self._dest

    def packed_heights(self) -> List[int]:
        """The live packed-height list, indexed by node id.

        Packed heights compare exactly like protocol height triples, so a
        greedy forwarder can pick the lowest neighbouring height directly.
        This is the view the data plane diffs after each control-plane
        advance to patch its next-hop table incrementally.  Callers must
        treat the list as read-only.
        """
        return self._height

    def neighbour_ids(self, i: int) -> Set[int]:
        """Current (alive-link) neighbour ids of node id ``i`` — a live view."""
        return self._nbrs[i]

    def sorted_link_id_pairs(self) -> List[Tuple[int, int]]:
        """The current links as sorted ``(lo, hi)`` node-id pairs."""
        return sorted(self._links)

    # ------------------------------------------------------------------
    # global views (for verification)
    # ------------------------------------------------------------------
    def true_heights(self) -> Dict[Node, HeightValue]:
        """The actual current height of every node, as protocol triples."""
        result = {}
        for i, u in enumerate(self._nodes):
            a, b, rank = unpack_height(self._height[i])
            result[u] = HeightValue(a=a, b=b, rank=rank)
        return result

    def global_directed_edges(self) -> Tuple[Tuple[Node, Node], ...]:
        """The orientation induced by the true heights on the current link set."""
        heights = self._height
        nodes = self._nodes
        edges: List[Tuple[Node, Node]] = []
        for lo, hi in sorted(self._links):
            if heights[lo] > heights[hi]:
                edges.append((nodes[lo], nodes[hi]))
            else:
                edges.append((nodes[hi], nodes[lo]))
        return tuple(edges)

    def global_orientation(self) -> Optional[Orientation]:
        """The global orientation, if the link set still matches the instance."""
        initial = {
            tuple(sorted(self._node_id[x] for x in edge))
            for edge in self.instance.undirected_edges
        }
        if self._links != initial:
            return None
        return Orientation.from_directed_edges(self.instance, self.global_directed_edges())

    def is_acyclic(self) -> bool:
        """Heights are totally ordered, so the induced orientation is acyclic."""
        return len(set(self._height)) == len(self._height)

    def is_destination_oriented(self) -> bool:
        """Whether every node reaches the destination along the induced edges."""
        n = len(self._nodes)
        heights = self._height
        predecessors: List[List[int]] = [[] for _ in range(n)]
        for lo, hi in self._links:
            if heights[lo] > heights[hi]:
                predecessors[hi].append(lo)
            else:
                predecessors[lo].append(hi)
        reached = bytearray(n)
        reached[self._dest] = 1
        frontier = [self._dest]
        count = 1
        while frontier:
            u = frontier.pop()
            for v in predecessors[u]:
                if not reached[v]:
                    reached[v] = 1
                    count += 1
                    frontier.append(v)
        return count == n

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The current simulated time."""
        return self._now

    def total_reversals(self) -> int:
        """Total height raises across all nodes so far."""
        return sum(self.reversal_counts)

    def message_counts(self) -> Tuple[int, int, int]:
        """Cumulative ``(sent, delivered, lost)`` message totals."""
        return (
            sum(self._sent),
            sum(self._delivered),
            sum(self._dropped) + sum(self._lost_failure),
        )

    def report(self) -> NetworkReport:
        """Aggregate statistics of the run so far (object-network parity)."""
        return NetworkReport(
            simulated_time=self._now,
            events_dispatched=self.events_dispatched,
            messages_sent=sum(self._sent),
            messages_delivered=sum(self._delivered),
            messages_lost=sum(self._dropped) + sum(self._lost_failure),
            total_reversals=self.total_reversals(),
            destination_oriented=self.is_destination_oriented(),
            acyclic=self.is_acyclic(),
        )
