"""The compiled asynchronous network engine: the hot loop as pure int ops.

:class:`FastAsyncNetwork` is the campaign-scale twin of
:class:`~repro.distributed.network.AsyncLinkReversalNetwork`.  The object
network dispatches dataclass events through per-message callback closures,
compares :class:`~repro.core.heights.HeightValue` dataclasses and
keeps per-channel in-flight lists; none of that survives on the hot path
here:

* **Packed int heights** — a height triple ``(a, b, rank)`` is one int
  ``(a << 64) | ((b + 2^43) << 20) | rank``, so the lexicographic height
  order *is* integer ``<`` and every local-sink test is a handful of int
  compares (full-reversal pairs are the ``b = 0`` special case).  The
  raise in ``_reverse`` is :mod:`repro.core.heights`' shared rule
  (:func:`~repro.core.heights.full_reversal_height`,
  :func:`~repro.core.heights.partial_reversal_height`) on packed ints, and
  the initial heights come from its
  :func:`~repro.core.heights.initial_height_levels`.
* **Flat tuple heap** — events are plain ``(time, seq, kind, ...)`` tuples
  in a :mod:`heapq`; ties break on the globally allocated ``seq`` exactly
  like the object simulator's sequence numbers, so the two engines dispatch
  in the same order.
* **Two delivery queues** — under a constant delay (``zero``, ``fixed``)
  delivery times grow with the send order, so every message goes to one
  global :class:`collections.deque` and the heap holds only start and
  beacon events.  Random delays (``uniform``, and ``fifo``, whose clamp
  keeps each link's delivery times non-decreasing) push one heap entry per
  message.  Both queues dispatch in ``(time, seq)`` order.
* **Epoch-invalidated links** — a link failure bumps the link's epoch
  instead of hunting down and cancelling in-flight events; stale events are
  skipped when popped, which is both faster and immune to the unbounded
  cancelled-event growth the object simulator needed compaction for.
* **An alive mask over the instance's edges** — links only fail, so the
  live links are bit ``e`` of one int per instance edge ``e`` (the kernel
  engine's :class:`~repro.experiments.churn.Links` layout), and directed
  links ``2e`` and ``2e + 1`` are the edge's two directions.  The
  partition test is :func:`~repro.core.graph.link_splits`, the synchronous
  engines' search.
* **Counter-based per-link streams** — one
  :class:`~repro.distributed.streams.ChannelStreams` for all links, keyed
  by (seed, sender, receiver) and built in one numpy pass, exactly the
  streams the object network draws from.  Channels that never draw
  (constant delay, no loss) get no streams at all.
* **Batched inline delivery** — the run loop drains the heap with inlined
  handlers (height update, local-sink test, reversal, broadcast) instead of
  scheduling per-message callbacks.
* **A per-cell template** — a :class:`NetworkTemplate` holds everything a
  network starts from that depends on the instance and the channel seed
  alone: the packed initial heights, the known-height and blocking tables,
  the link, broadcast and live-pair orders, and the channel-stream blocks.
  The networks of one topology cell (every algorithm, delay model and loss
  rate on one topology and seed) build from one template and copy only
  their mutable state; the draws one network computes serve the next.

The object network remains the **documented oracle**: for every delay model,
loss rate, seed and link-failure sequence, a run of this engine must produce a
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
from time import perf_counter
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro import telemetry as _telemetry
from repro.core.graph import LinkReversalInstance, Orientation, link_splits
from repro.core.heights import HeightValue, initial_height_levels
from repro.distributed.network import NetworkReport
from repro.distributed.protocol import ReversalMode
from repro.distributed.streams import ChannelStreams, StreamBlocks
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


class NetworkTemplate:
    """What every network on one instance with one channel seed starts from.

    The networks of a topology cell differ in mode, delays, loss and churn,
    but not in these tables, so :class:`FastAsyncNetwork` reads them from a
    template instead of rebuilding them.  Nothing here changes after the
    build except :meth:`stream_blocks`' draw lists, which only grow.
    """

    def __init__(self, instance: LinkReversalInstance, seed: int = 0):
        instance.validate(require_dag=True)
        n = instance.node_count
        if n > _R_MASK:
            raise ValueError(f"packed heights support at most {_R_MASK} nodes, got {n}")
        self.instance = instance
        self.seed = seed
        nodes = instance.nodes
        nbr_ids = instance._incident_nbr_ids

        levels = initial_height_levels(instance)
        heights = [pack_height(0, levels[u], i) for i, u in enumerate(nodes)]
        self.heights: Tuple[int, ...] = tuple(heights)
        #: per node: every neighbour's initial height, and how many of them
        #: are not above the node's own (a local sink has none)
        self.known: Tuple[Dict[int, int], ...] = tuple(
            {j: heights[j] for j in row} for row in nbr_ids
        )
        self.blocking: Tuple[int, ...] = tuple(
            sum(1 for j in row if heights[j] <= heights[i]) for i, row in enumerate(nbr_ids)
        )

        # directed links 2e and 2e + 1: instance edge e from its initial tail
        # to its head and back
        edges = instance._edge_node_ids
        link_from: List[int] = []
        link_to: List[int] = []
        for tail, head in edges:
            link_from += (tail, head)
            link_to += (head, tail)
        self.link_from: Tuple[int, ...] = tuple(link_from)
        self.link_to: Tuple[int, ...] = tuple(link_to)
        #: per node: its outgoing link ids in broadcast order, which mirrors
        #: the object protocol's (neighbours sorted by repr)
        bcast_links: List[List[int]] = [[] for _ in range(n)]
        repr_key = [repr(u) for u in nodes]
        for j in sorted(range(n), key=repr_key.__getitem__):
            for e, i in zip(instance._incident_eids[j], nbr_ids[j]):
                bcast_links[i].append(2 * e + (edges[e][0] == j))
        self.bcast_links: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, bcast_links))

        #: the instance's edges in ``(lo, hi)`` node-id order: their edge
        #: ids, their id pairs and their node pairs
        order = sorted((min(a, b), max(a, b), e) for e, (a, b) in enumerate(edges))
        self.pair_eids: Tuple[int, ...] = tuple(e for _, _, e in order)
        self.id_pairs: Tuple[Tuple[int, int], ...] = tuple((lo, hi) for lo, hi, _ in order)
        self.node_pairs: Tuple[Tuple[Node, Node], ...] = tuple(
            (nodes[lo], nodes[hi]) for lo, hi, _ in order
        )
        #: every link alive
        self.all_alive = (1 << len(edges)) - 1
        # every node announces its initial height at time zero; the start
        # events take sequence numbers 0..n-1 exactly like the object
        # network (a sorted list is a heap)
        self.start_events: Tuple[tuple, ...] = tuple((0.0, i, _START, i) for i in range(n))
        self._blocks: Optional[StreamBlocks] = None

    def stream_blocks(self) -> StreamBlocks:
        """The links' channel streams (node ids are the ranks), built on first use."""
        if self._blocks is None:
            self._blocks = StreamBlocks(self.seed, self.link_from, self.link_to)
        return self._blocks


class FastAsyncNetwork:
    """A compiled asynchronous deployment of height-based link reversal.

    Drop-in behavioural twin of
    :class:`~repro.distributed.network.AsyncLinkReversalNetwork` (same
    constructor semantics, same reports, same induced orientations for the
    same seeds) with an int-only hot loop.  ``template``, when given, must
    be a :class:`NetworkTemplate` of ``instance`` and ``seed``; without one
    the network builds its own.
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
        template: Optional[NetworkTemplate] = None,
    ):
        if min_delay < 0 or max_delay < min_delay:
            raise ValueError("delays must satisfy 0 <= min_delay <= max_delay")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if template is None:
            template = NetworkTemplate(instance, seed)
        elif template.instance is not instance or template.seed != seed:
            raise ValueError("the template belongs to another instance or channel seed")
        self._template = template
        self.instance = instance
        self.mode = mode
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.loss_probability = loss_probability
        self.fifo = fifo
        self.seed = seed
        self._full = mode is ReversalMode.FULL
        #: constant delays make delivery times globally monotone: the whole
        #: network shares one delivery deque and the heap only ever holds
        #: start/beacon events
        self._const_mode = max_delay <= min_delay

        n = instance.node_count
        self._nodes = instance.nodes
        self._dest = instance._dest_id
        #: crash-stop flags: a crashed node keeps its last height and still
        #: receives messages, but never reverses and never beacons again
        self._crashed = bytearray(n)

        self._height = list(template.heights)
        self._nbrs: List[Set[int]] = list(map(set, instance._incident_nbr_ids))
        self._known: List[Dict[int, int]] = list(map(dict.copy, template.known))
        # incremental local-sink state: a node knows every neighbour's height,
        # so it is a local sink iff it has neighbours and none of the known
        # heights is <= its own (blocking == 0).  Maintaining the counter
        # makes the per-message sink test O(1) instead of O(deg).
        self._blocking: List[int] = list(template.blocking)
        self._link_from = template.link_from
        self._link_to = template.link_to
        #: bit e set: instance edge e is a live link
        self._alive = template.all_alive
        self._bcast_links: List[List[int]] = list(map(list, template.bcast_links))
        count = len(self._link_from)
        self._link_epoch: List[int] = [0] * count
        # constant-delay, lossless channels never draw a random number, so
        # they get no streams at all
        self._streams: Optional[ChannelStreams] = None
        if loss_probability > 0.0 or not self._const_mode:
            self._streams = ChannelStreams.reading(template.stream_blocks())
        self._sent: List[int] = [0] * count
        self._delivered: List[int] = [0] * count
        self._dropped: List[int] = [0] * count
        self._lost_failure: List[int] = [0] * count
        self._in_flight: List[int] = [0] * count
        self._last_sched: List[float] = [0.0] * count

        self._heap: List[tuple] = list(template.start_events)
        #: the delivery queue of const-delay mode:
        #: ``(time, seq, lid, height, epoch)`` entries in (time, seq) order
        self._dq: deque = deque()
        #: the next event sequence number and the current simulated time,
        #: boxed so the compiled broadcast closure shares them without
        #: holding ``self`` (a finished network is freed by refcounting)
        self._seq_box = [n]
        self._now_box = [0.0]
        #: queued events invalidated by link failures (heap or deque)
        self._stale_events = 0
        self.events_dispatched = 0
        self.beacon_rounds = 0
        self._broadcast = self._compile_broadcast()

        #: per-node reversal counts plus true-height work accounting
        self.reversal_counts: List[int] = [0] * n
        self.edge_flips = 0
        self.dummy_reversals = 0

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
        draws = refill = None
        if self._streams is not None:
            draws, refill = self._streams.draws, self._streams.refill
        last_sched = self._last_sched
        loss = self.loss_probability
        lossless = loss <= 0.0
        min_delay = self.min_delay
        span = self.max_delay - min_delay
        draw_delay = span > 0.0
        fifo = self.fifo
        const_mode = self._const_mode
        dq = self._dq
        dq_append = dq.append
        seq_box = self._seq_box
        now_box = self._now_box

        def broadcast(i: int) -> None:
            # a current neighbour always has a live link (fail_link removes
            # the neighbour in the same atomic update), so no aliveness check
            lids = bcast_links[i]
            if not lids:
                return
            height = heights[i]
            now = now_box[0]
            seq = seq_box[0]
            if const_mode and lossless:
                # the tightest send path: one constant delivery time, the
                # delivery deque, no random draws
                t = now + min_delay
                for lid in lids:
                    sent[lid] += 1
                    in_flight[lid] += 1
                    dq_append((t, seq, lid, height, link_epoch[lid]))
                    seq += 1
                seq_box[0] = seq
                return
            # a link's draws: the loss test, then the delay (ChannelStreams)
            for lid in lids:
                sent[lid] += 1
                if not lossless:
                    try:
                        u = next(draws[lid])
                    except StopIteration:
                        u = refill(lid)
                    if u < loss:
                        dropped[lid] += 1
                        continue
                if draw_delay:
                    try:
                        u = next(draws[lid])
                    except StopIteration:
                        u = refill(lid)
                    t = now + (min_delay + span * u)
                else:
                    t = now + min_delay
                if fifo:
                    last = last_sched[lid]
                    if t < last:
                        t = last
                    last_sched[lid] = t
                in_flight[lid] += 1
                if const_mode:
                    dq_append((t, seq, lid, height, link_epoch[lid]))
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

    def _on_link_down(self, i: int, j: int, lid: int) -> None:
        """Node ``i`` loses neighbour ``j``, whom it reached over link ``lid``."""
        self._nbrs[i].discard(j)
        self._bcast_links[i].remove(lid)
        if self._known[i].pop(j) <= self._height[i]:
            self._blocking[i] -= 1
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
        link_epoch = self._link_epoch
        delivered = self._delivered
        in_flight = self._in_flight
        link_to = self._link_to
        link_from = self._link_from
        known_by_node = self._known
        heights = self._height
        blocking = self._blocking
        dest = self._dest
        crashed = self._crashed
        maybe_reverse = self._maybe_reverse
        reverse = self._reverse
        broadcast = self._broadcast

        dq = self._dq
        dq_popleft = dq.popleft
        now_box = self._now_box

        dispatched = 0
        deadline_countdown = 0
        budget_exhausted = False
        try:
            while True:
                if max_events is not None and dispatched >= max_events:
                    budget_exhausted = True
                    break
                # next event: min over the heap and the delivery deque
                # (both ordered by (time, seq); the deque is non-empty only
                # in const-delay mode)
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
                            now_box[0] = t
                            node = head[3]
                            broadcast(node)
                            maybe_reverse(node)
                        else:  # _BEACON
                            now_box[0] = t
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
                    height = head[5]
                # ---- the delivery hot path ----
                now_box[0] = t
                delivered[lid] += 1
                in_flight[lid] -= 1
                # an undelivered message of a failed link is stale, so the
                # sender is a current neighbour whose height is known
                receiver = link_to[lid]
                sender = link_from[lid]
                known = known_by_node[receiver]
                old = known[sender]
                if height > old:
                    known[sender] = height
                    # O(1) incremental sink test: track how many known
                    # heights block the receiver instead of rescanning
                    if old <= heights[receiver] < height:
                        blocking[receiver] -= 1
                    if (
                        blocking[receiver] == 0
                        and receiver != dest
                        and not crashed[receiver]
                    ):
                        reverse(receiver)
                # a not-newer height changes no state, so the sink predicate
                # is unchanged since the last check
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
        # loop exits with the clock at the last *dispatched* event, so without
        # this a window whose remaining events all lie beyond ``until`` would
        # leave time frozen and consecutive ``run_for`` windows would overlap
        # forever instead of sweeping forward.  Only an exhausted event
        # budget must not skip ahead: undispatched events inside the window
        # still await the next call.
        if until is not None and now_box[0] < until and not budget_exhausted:
            now_box[0] = until
        return dispatched

    # ------------------------------------------------------------------
    # running (the object network's API, plus deadlines)
    # ------------------------------------------------------------------
    def _sample_queue_depths(self) -> None:
        """Record peak queue gauges (phase boundaries only, never per event)."""
        registry = _telemetry.REGISTRY
        registry.max_gauge("fast_network.heap_depth", len(self._heap))
        registry.max_gauge("fast_network.deque_depth", len(self._dq))

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
            until=self._now_box[0] + duration, max_events=max_events, deadline=deadline
        )

    def broadcast_heights(self) -> None:
        """Schedule one anti-entropy beacon round (every live node re-announces)."""
        now = self._now_box[0]
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

    def _live_edge(self, u: Node, v: Node) -> int:
        """The instance edge id of the current link ``{u, v}``."""
        e = self.instance._edge_id.get((u, v))
        if e is None or not (self._alive >> e) & 1:
            raise ValueError(f"{u!r}-{v!r} is not a current link")
        return e

    def fail_link(self, u: Node, v: Node) -> None:
        """Remove the link ``{u, v}``: in-flight messages lost, endpoints notified."""
        e = self._live_edge(u, v)
        self._alive &= ~(1 << e)
        for lid in (2 * e, 2 * e + 1):
            # one queued event per in-flight message (heap or deque)
            self._lost_failure[lid] += self._in_flight[lid]
            self._stale_events += self._in_flight[lid]
            self._in_flight[lid] = 0
            self._link_epoch[lid] += 1
            if _telemetry.ENABLED:
                _telemetry.REGISTRY.inc("fast_network.epoch_invalidations")
        logger.debug("failed link (%r, %r)", u, v)
        iu, iv = self.instance._node_id[u], self.instance._node_id[v]
        out = 2 * e if self._link_from[2 * e] == iu else 2 * e + 1
        self._on_link_down(iu, iv, out)
        self._on_link_down(iv, iu, out ^ 1)

    def _live(self, items: Sequence) -> list:
        """The entries of ``items`` (one per template pair) whose link is alive."""
        alive = self._alive
        if alive == self._template.all_alive:
            return list(items)
        return [item for e, item in zip(self._template.pair_eids, items) if alive >> e & 1]

    def current_links(self) -> FrozenSet[FrozenSet[Node]]:
        """The current undirected link set (node objects, API parity)."""
        return frozenset(map(frozenset, self.sorted_link_pairs()))

    def sorted_link_pairs(self) -> List[Tuple[Node, Node]]:
        """The current links as node pairs, in deterministic (id) order."""
        return self._live(self._template.node_pairs)

    def link_would_partition(self, u: Node, v: Node) -> bool:
        """Whether failing the current link ``{u, v}`` would partition the links.

        The answer is :func:`~repro.core.graph.link_splits`: whether the link
        is a bridge of the current links.  The links start as the instance's
        and churn skips a failure that would partition them
        (:func:`~repro.experiments.churn.fail_seeded_links`), so on a
        connected instance they stay connected and the two questions agree.
        """
        return link_splits(self.instance, self._alive, self._live_edge(u, v))

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
        return self._live(self._template.id_pairs)

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
        for lo, hi in self.sorted_link_id_pairs():
            if heights[lo] > heights[hi]:
                edges.append((nodes[lo], nodes[hi]))
            else:
                edges.append((nodes[hi], nodes[lo]))
        return tuple(edges)

    def global_orientation(self) -> Optional[Orientation]:
        """The global orientation, if the link set still matches the instance."""
        if self._alive != (1 << self.instance.edge_count) - 1:
            return None
        return Orientation.from_directed_edges(self.instance, self.global_directed_edges())

    def is_acyclic(self) -> bool:
        """Heights are totally ordered, so the induced orientation is acyclic."""
        return len(set(self._height)) == len(self._height)

    def is_destination_oriented(self) -> bool:
        """Whether every node reaches the destination along the induced edges.

        The ranks make heights unique, so the induced orientation is a DAG,
        and following lower heights from any node ends at a node with no
        lower neighbour.  So (as in
        :func:`~repro.core.graph.mask_final_state_checks`) the network is
        destination oriented iff every other node has a lower neighbour.
        """
        heights = self._height
        dest = self._dest
        for i, nbrs in enumerate(self._nbrs):
            if i != dest:
                own = heights[i]
                for j in nbrs:
                    if heights[j] < own:
                        break
                else:
                    return False
        return True

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The current simulated time."""
        return self._now_box[0]

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
            simulated_time=self._now_box[0],
            events_dispatched=self.events_dispatched,
            messages_sent=sum(self._sent),
            messages_delivered=sum(self._delivered),
            messages_lost=sum(self._dropped) + sum(self._lost_failure),
            total_reversals=self.total_reversals(),
            destination_oriented=self.is_destination_oriented(),
            acyclic=self.is_acyclic(),
        )
