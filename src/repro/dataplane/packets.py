"""Structure-of-arrays packet simulator: per-link ring buffers, no objects.

Every directed link owns a fixed-capacity FIFO ring buffer.  All buffers
live in one packed ``(links * capacity, 4)`` int64 array whose rows are
packets (injecting source, remaining TTL, birth slot, hops so far) — never
a Python object; link ``l``'s slot ``s`` is row ``l * capacity + s``.  One
simulated slot transmits up to ``link_capacity`` packets from the head of
every live queue (one gather), delivers arrivals at their destination,
decrements TTLs, and re-enqueues the rest on their receiver's current
next-hop link (one scatter), all as vectorised numpy batch operations.  The
arrays are small at campaign scale, so the slot loop is written to make few
numpy calls: filters are skipped when nothing is filtered out, and steady
Poisson arrivals are drawn a block of slots at a time.  A million packets
per run is the design point (see ``benchmarks/bench_dataplane.py``).

**Lanes.**  One simulator can carry several independent networks in
lockstep (:meth:`PacketSimulator.lockstep`): its arrays hold the disjoint
union of the lanes' nodes and directed links, each lane at its own node and
link offset, so one :meth:`~PacketSimulator.inject_slot` and one
:meth:`~PacketSimulator.step` serve every lane.  Destinations, TTLs,
distances and next hops are per union node, so packets never cross lanes;
each lane keeps its own arrival generator and its own tallies
(:meth:`~PacketSimulator.counters`).  Lanes start together; a lane can stop
injecting (:meth:`~PacketSimulator.stop_injecting`) and leave the group
(:meth:`~PacketSimulator.halt`) while the others go on.  The plain
constructor builds the one-lane case.  Per-lane tallies cost a ``bincount``
per event kind per slot only when several lanes share the simulator.

The simulator knows nothing about link reversal: forwarding reads a plain
``next_hop_link`` array that the owners (:class:`~repro.dataplane.run.
DataPlaneRun`, one per lane) patch incrementally as the control plane
rewrites the DAG.  That separation is what lets reversals, failures and
packets interleave mid-run while the conservation invariant

    injected == delivered + dropped + in_flight

holds for every lane after every slot, with ``dropped`` split by cause
(queue-tail overflow, TTL expiry, no current route, link failure flush).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, NamedTuple, Sequence

import numpy as np


#: Columns of a packet row in the packed queue array.
_SRC, _TTL, _BIRTH, _HOPS = range(4)

#: Slots of steady Poisson arrivals drawn per generator call.
ARRIVAL_BLOCK = 64


#: What crossing one link does to a packet row: TTL down one, hops up one.
_HOP_DELTA = np.array([0, -1, 0, 1], dtype=np.int64)

#: Terms from which ``ndarray.sum`` of float64 stops adding one by one.
_PAIRWISE = 8

#: Per-lane integer tallies, rows of ``PacketSimulator._counts``.
(
    _INJECTED, _DELIVERED, _FORWARDED, _DROP_TAIL, _DROP_TTL, _DROP_NO_ROUTE,
    _DROP_LINK_DOWN, _BOUNCES, _HOPS_TOTAL, _STRETCH_COUNT,
) = range(10)


class TrafficLane(NamedTuple):
    """One lane of a :class:`PacketSimulator`, in its own node and link ids.

    The fields are the per-lane arguments of the simulator's constructor.
    """

    link_from: Sequence[int]
    link_to: Sequence[int]
    n_nodes: int
    destination: int
    rates: Sequence[float]
    undirected_distance: Sequence[int]
    ttl: int = 64
    burst_on: float = 1.0
    seed: int = 0


def _group_total(row: int, doc: str) -> property:
    return property(lambda self: sum(self._counts[row]), doc=doc)


class PacketSimulator:
    """Slotted packet forwarding over per-directed-link ring buffers.

    The constructor builds a one-lane simulator; :meth:`lockstep` builds
    one over several :class:`TrafficLane`.

    Parameters
    ----------
    link_from, link_to:
        Parallel sequences defining the directed links by node id.
    n_nodes, destination:
        Node-id space and the (single) traffic sink.
    rates:
        Mean Poisson arrivals per node per slot (destination forced to 0).
    undirected_distance:
        Per-node undirected hop distance to the destination (``-1`` =
        unreachable); used for per-packet stretch at delivery time.
    queue_capacity:
        Ring-buffer depth per directed link; arrivals beyond it tail-drop.
    link_capacity:
        Packets transmitted per link per slot.
    ttl:
        Initial per-packet TTL in hops; expiry drops count separately so
        transient routing loops are visible even when packets escape them.
    burst_on:
        Per-slot Bernoulli gate probability for bursty arrivals (1.0 =
        always on); while on, nodes inject at ``rate / burst_on``.
    """

    def __init__(
        self,
        link_from: Sequence[int],
        link_to: Sequence[int],
        n_nodes: int,
        destination: int,
        rates: Sequence[float],
        undirected_distance: Sequence[int],
        queue_capacity: int = 64,
        link_capacity: int = 1,
        ttl: int = 64,
        burst_on: float = 1.0,
        seed: int = 0,
    ):
        lane = TrafficLane(
            link_from, link_to, n_nodes, destination, rates,
            undirected_distance, ttl, burst_on, seed,
        )
        self._build([lane], queue_capacity, link_capacity)

    @classmethod
    def lockstep(
        cls,
        lanes: Sequence[TrafficLane],
        queue_capacity: int = 64,
        link_capacity: int = 1,
    ) -> "PacketSimulator":
        """One simulator stepping every lane; lane ``i`` is ``lanes[i]``."""
        sim = cls.__new__(cls)
        sim._build(list(lanes), queue_capacity, link_capacity)
        return sim

    def _build(
        self, lanes: List[TrafficLane], queue_capacity: int, link_capacity: int
    ) -> None:
        if not lanes:
            raise ValueError("a packet simulator needs at least one lane")
        if queue_capacity <= 0 or link_capacity <= 0 or min(l.ttl for l in lanes) <= 0:
            raise ValueError("queue_capacity, link_capacity and ttl must be positive")
        self.n_lanes = len(lanes)
        self.queue_capacity = int(queue_capacity)
        self.link_capacity = int(link_capacity)

        node_sizes = [int(lane.n_nodes) for lane in lanes]
        link_sizes = [len(lane.link_from) for lane in lanes]
        #: lane ``i`` owns union nodes ``node_offset[i]:node_offset[i + 1]``
        #: and union links ``link_offset[i]:link_offset[i + 1]``
        self.node_offset = list(accumulate(node_sizes, initial=0))
        self.link_offset = list(accumulate(link_sizes, initial=0))
        self.n_nodes = self.node_offset[-1]
        self.n_links = self.link_offset[-1]
        lane_ids = np.arange(self.n_lanes, dtype=np.int64)
        self._node_lane = np.repeat(lane_ids, node_sizes)
        self._link_lane = np.repeat(lane_ids, link_sizes)

        shift = np.repeat(np.asarray(self.node_offset[:-1], dtype=np.int64), link_sizes)
        self.link_from = np.concatenate(
            [np.asarray(lane.link_from, dtype=np.int64).reshape(-1) for lane in lanes]
        ) + shift
        self.link_to = np.concatenate(
            [np.asarray(lane.link_to, dtype=np.int64).reshape(-1) for lane in lanes]
        ) + shift
        self._is_dest = np.zeros(self.n_nodes, dtype=bool)
        rates = []
        for lane, base in zip(lanes, self.node_offset):
            self._is_dest[base + int(lane.destination)] = True
            lane_rates = np.asarray(lane.rates, dtype=np.float64).copy()
            lane_rates[int(lane.destination)] = 0.0
            rates.append(lane_rates)
        self._rates = np.concatenate(rates)
        burst_on = [float(lane.burst_on) for lane in lanes]
        self._on_rates = self._rates / np.repeat(burst_on, node_sizes)
        self._burst_on = burst_on
        self._dist = np.concatenate(
            [np.asarray(lane.undirected_distance, dtype=np.int64) for lane in lanes]
        )
        self._rngs = [np.random.default_rng(lane.seed) for lane in lanes]
        #: steady arrivals drawn ahead, one row per slot (see inject_slot);
        #: every lane fills only its own columns
        self._arrival_block = np.zeros((ARRIVAL_BLOCK, self.n_nodes), dtype=np.int64)
        self._arrival_totals: List[List[int]] = []
        self._arrival_row = ARRIVAL_BLOCK
        self._injecting = list(range(self.n_lanes))
        self._node_ids = np.arange(self.n_nodes, dtype=np.int64)
        #: per node: the packet row it injects, minus the birth slot
        self._fresh = np.zeros((self.n_nodes, 4), dtype=np.int64)
        self._fresh[:, _SRC] = self._node_ids
        self._fresh[:, _TTL] = np.repeat([int(lane.ttl) for lane in lanes], node_sizes)
        #: per ring offset ``c < link_capacity``: ``c`` as a column vector
        self._offsets = np.arange(self.link_capacity, dtype=np.int64)[:, None]

        self.queue = np.zeros((self.n_links * self.queue_capacity, 4), dtype=np.int64)
        self.q_head = np.zeros(self.n_links, dtype=np.int64)
        self.q_len = np.zeros(self.n_links, dtype=np.int64)
        self._row_base = np.arange(self.n_links, dtype=np.int64) * self.queue_capacity
        self.link_alive = np.ones(self.n_links, dtype=bool)
        #: per link: the deepest its queue has been after a step
        self._link_peak = np.zeros(self.n_links, dtype=np.int64)
        #: per link: whether its lane still moves (``None`` while all do)
        self._moving = None
        #: per node: directed link id of the current next hop, -1 when the
        #: node has no downhill neighbour.  Patched by the owners, read here.
        self.next_hop_link = np.full(self.n_nodes, -1, dtype=np.int64)

        self.now = 0
        #: per lane: the slot it halted at (absent while it runs)
        self._halted_at: Dict[int, int] = {}
        self._counts = [[0] * self.n_lanes for _ in range(10)]
        self._latency_total = [0.0] * self.n_lanes
        self._latency_min = [float("inf")] * self.n_lanes
        self._latency_max = [float("-inf")] * self.n_lanes
        self._stretch_total = [0.0] * self.n_lanes

    # ------------------------------------------------------------------
    injected = _group_total(_INJECTED, "Packets injected, over every lane.")
    delivered = _group_total(_DELIVERED, "Packets delivered, over every lane.")
    forwarded = _group_total(_FORWARDED, "Link crossings, over every lane.")
    drop_tail = _group_total(_DROP_TAIL, "Queue-tail overflow drops, over every lane.")
    drop_ttl = _group_total(_DROP_TTL, "TTL expiry drops, over every lane.")
    drop_no_route = _group_total(_DROP_NO_ROUTE, "No-route drops, over every lane.")
    drop_link_down = _group_total(_DROP_LINK_DOWN, "Link failure drops, over every lane.")
    loop_bounces = _group_total(_BOUNCES, "Transient-loop bounces, over every lane.")

    @property
    def latency_total(self) -> float:
        """Summed delivery latency in slots, over every lane."""
        return sum(self._latency_total)

    @property
    def latency_min(self) -> float:
        """Shortest delivery latency of any lane (``inf`` before one)."""
        return min(self._latency_min)

    @property
    def latency_max(self) -> float:
        """Longest delivery latency of any lane (``-inf`` before one)."""
        return max(self._latency_max)

    @property
    def peak_queue_depth(self) -> int:
        """Deepest queue of any lane after any step."""
        return int(self._link_peak.max()) if self.n_links else 0

    @property
    def in_flight(self) -> int:
        """Packets currently queued on some link, over every lane."""
        return int(self.q_len.sum())

    def lane_in_flight(self) -> List[int]:
        """Packets currently queued, per lane."""
        # float weights count exactly far beyond any queue array's capacity
        queued = np.bincount(self._link_lane, weights=self.q_len, minlength=self.n_lanes)
        return [int(count) for count in queued.tolist()]

    @property
    def dropped_total(self) -> int:
        """All drops across causes."""
        return (
            self.drop_tail + self.drop_ttl + self.drop_no_route + self.drop_link_down
        )

    def conservation_ok(self) -> bool:
        """``injected == delivered + dropped + in_flight`` — must always hold."""
        return self.injected == self.delivered + self.dropped_total + self.in_flight

    # ------------------------------------------------------------------
    def set_next_hop_link(self, node: int, link_id: int) -> None:
        """Point ``node``'s forwarding at directed link ``link_id`` (-1 = none)."""
        self.next_hop_link[node] = link_id

    def kill_links(self, link_ids: Sequence[int]) -> int:
        """Mark directed links dead and flush their queues as failure drops."""
        ids = np.asarray(link_ids, dtype=np.int64)
        ids = ids[self.link_alive[ids]]
        if not ids.size:
            return 0
        drops = self._counts[_DROP_LINK_DOWN]
        flushed = self.q_len[ids].tolist()
        for lane, count in zip(self._link_lane[ids].tolist(), flushed):
            drops[lane] += count
        self.q_len[ids] = 0
        self.q_head[ids] = 0
        self.link_alive[ids] = False
        return sum(flushed)

    def stop_injecting(self, lane: int) -> None:
        """Inject nothing more into ``lane`` (its queued packets still move)."""
        if lane in self._injecting:
            self._injecting.remove(lane)
            lo, hi = self.node_offset[lane], self.node_offset[lane + 1]
            self._arrival_block[:, lo:hi] = 0

    def halt(self, lane: int) -> None:
        """Take ``lane`` out of the group: from now on nothing of it moves.

        Its packets still queued stay counted in flight, and its ``slots``
        stays at the steps it took.
        """
        if lane in self._halted_at:
            return
        self.stop_injecting(lane)
        self._halted_at[lane] = self.now
        lo, hi = self.link_offset[lane], self.link_offset[lane + 1]
        if self.q_len[lo:hi].any():
            if self._moving is None:
                self._moving = np.ones(self.n_links, dtype=bool)
            self._moving[lo:hi] = False

    def _tally(self, row: int, n: int, lane_of, ids, kept=None) -> None:
        """Count ``n`` events into tally ``row``, one per ``ids[~kept]``.

        ``lane_of[id]`` is an event's lane (``kept=None``: every id is an
        event).  A lone lane takes all ``n`` without reading them.
        """
        counts = self._counts[row]
        if self.n_lanes == 1:
            counts[0] += n
            return
        if kept is not None:
            ids = ids[~kept]
        split = np.bincount(lane_of[ids], minlength=self.n_lanes).tolist()
        for lane, count in enumerate(split):
            counts[lane] += count

    # ------------------------------------------------------------------
    def _refill_arrivals(self) -> None:
        """Draw the next :data:`ARRIVAL_BLOCK` slots of every steady lane.

        A ``(B, n)`` Poisson draw yields the same stream as ``B`` draws of
        size ``n``, so each steady lane's arrivals are those of one draw per
        slot.  The lanes inject from the same first slot, so their blocks
        fall due together and share one buffer.
        """
        block = self._arrival_block
        bounds = self.node_offset
        for lane in self._injecting:
            if self._burst_on[lane] == 1.0:
                lo, hi = bounds[lane], bounds[lane + 1]
                block[:, lo:hi] = self._rngs[lane].poisson(
                    self._rates[lo:hi], size=(ARRIVAL_BLOCK, hi - lo)
                )
        self._arrival_totals = np.add.reduceat(block, bounds[:-1], axis=1).tolist()

    def inject_slot(self) -> int:
        """Draw this slot's Poisson arrivals and enqueue them at their sources.

        Every lane still injecting draws from its own generator.  Bursty
        traffic interleaves its gate and Poisson draws, so a bursty lane
        draws both once per slot.
        """
        row = self._arrival_row
        if row == ARRIVAL_BLOCK:
            self._refill_arrivals()
            row = 0
        self._arrival_row = row + 1
        counts = self._arrival_block[row]
        row_totals = self._arrival_totals[row]
        injected = self._counts[_INJECTED]
        bounds = self.node_offset
        total = 0
        for lane in self._injecting:
            burst_on = self._burst_on[lane]
            if burst_on < 1.0:
                lo, hi = bounds[lane], bounds[lane + 1]
                rng = self._rngs[lane]
                gate = rng.random(hi - lo) < burst_on
                drawn = rng.poisson(np.where(gate, self._on_rates[lo:hi], 0.0))
                counts[lo:hi] = drawn
                count = int(drawn.sum())
            else:
                count = row_totals[lane]
            injected[lane] += count
            total += count
        if total == 0:
            return 0
        sources = np.repeat(self._node_ids, counts)
        links = self.next_hop_link[sources]
        routed = links >= 0
        n_routed = int(np.count_nonzero(routed))
        if n_routed < total:
            self._tally(_DROP_NO_ROUTE, total - n_routed, self._node_lane, sources, routed)
            if not n_routed:
                return total
            links = links[routed]
            sources = sources[routed]
        packets = self._fresh[sources]
        packets[:, _BIRTH] = self.now
        self._enqueue(links, packets)
        return total

    def step(self) -> int:
        """One slot: transmit up to ``link_capacity`` per link, process arrivals.

        Every lane that has not halted moves.  Returns the number of
        packets transmitted this slot.
        """
        q_len = self.q_len
        capacity = self.queue_capacity
        active = q_len.nonzero()[0]
        if self._moving is not None:
            active = active[self._moving[active]]
        sent = 0
        if active.size:
            head = self.q_head[active]
            if self.link_capacity == 1:
                k = 1
                lids = active
                rows = self._row_base[active] + head
            else:
                # every active link sends min(len, capacity) packets; the
                # (offset, link) grid keeps the transmit order offset-major
                k = np.minimum(q_len[active], self.link_capacity)
                offsets = self._offsets[: int(k.max())]
                take = offsets < k
                lids = np.broadcast_to(active, take.shape)[take]
                rows = ((head + offsets) % capacity + self._row_base[active])[take]
            self.q_head[active] = (head + k) % capacity
            q_len[active] -= k
            packets = self.queue[rows]
            packets += _HOP_DELTA
            sent = int(lids.size)
            self._tally(_FORWARDED, sent, self._link_lane, lids)
            self._arrivals(lids, packets)
        self.now += 1
        np.maximum(self._link_peak, q_len, out=self._link_peak)
        return sent

    # ------------------------------------------------------------------
    def _arrivals(self, lids, packets) -> None:
        """Deliver, expire or forward the packets that just crossed ``lids``."""
        n = int(lids.size)
        node = self.link_to[lids]
        at_dest = self._is_dest[node]
        n_delivered = int(np.count_nonzero(at_dest))
        if n_delivered:
            if n_delivered == n:
                self._deliver(packets, lids)
                return
            self._deliver(packets[at_dest], lids, at_dest)
        live = packets[:, _TTL] > 0
        if n_delivered:
            live[at_dest] = False
        n_live = int(np.count_nonzero(live))
        n_expired = n - n_delivered - n_live
        if n_expired:
            self._tally(
                _DROP_TTL, n_expired, self._link_lane, lids,
                live | at_dest if n_delivered else live,
            )
        if not n_live:
            return
        if n_live < n:
            lids = lids[live]
            node = node[live]
            packets = packets[live]
        next_links = self.next_hop_link[node]
        routed = next_links >= 0
        n_routed = int(np.count_nonzero(routed))
        if n_routed < n_live:
            self._tally(_DROP_NO_ROUTE, n_live - n_routed, self._link_lane, lids, routed)
            if not n_routed:
                return
            next_links = next_links[routed]
            lids = lids[routed]
            packets = packets[routed]
        # A forward straight back over the link it arrived on means the DAG
        # flipped under the packet mid-cascade: count it as a transient-loop
        # bounce (the TTL is the escape hatch).
        onward = self.link_to[next_links] != self.link_from[lids]
        n_onward = int(np.count_nonzero(onward))
        if n_onward < n_routed:
            self._tally(_BOUNCES, n_routed - n_onward, self._link_lane, lids, onward)
        self._enqueue(next_links, packets)

    def _deliver(self, packets, lids, at_dest=None) -> None:
        """Tally latency, hops and stretch of packets reaching their destination.

        ``packets`` crossed ``lids[at_dest]`` (all of ``lids`` when
        ``at_dest`` is ``None``).  A lane's float stretch total must add up
        exactly as on a simulator of its own, which sums each slot's
        stretches with ``ndarray.sum``: a sequential loop below
        :data:`_PAIRWISE` terms, like the per-lane ``bincount``, and a
        pairwise sum from there, which only the lane's own contiguous run of
        packets reproduces.
        """
        count = int(packets.shape[0])
        if self.n_lanes == 1:
            lanes, starts, ends = [0], [0], [count]
        else:
            lane_of = self._link_lane[lids if at_dest is None else lids[at_dest]]
            if self.link_capacity > 1:
                # offset-major transmit order interleaves the lanes
                order = lane_of.argsort(kind="stable")
                lane_of = lane_of[order]
                packets = packets[order]
            sizes = np.bincount(lane_of, minlength=self.n_lanes).tolist()
            lanes = [lane for lane, size in enumerate(sizes) if size]
            ends = list(accumulate(sizes[lane] for lane in lanes))
            starts = [0] + ends[:-1]
        totals = np.add.reduceat(packets, starts, axis=0).tolist()
        birth = packets[:, _BIRTH]
        newest = np.maximum.reduceat(birth, starts).tolist()
        oldest = np.minimum.reduceat(birth, starts).tolist()
        arrival = self.now + 1
        delivered = self._counts[_DELIVERED]
        hops_total = self._counts[_HOPS_TOTAL]
        for i, lane in enumerate(lanes):
            size = ends[i] - starts[i]
            delivered[lane] += size
            # latencies are exact integers, so their float sum is order-free
            self._latency_total[lane] += float(size * arrival - totals[i][_BIRTH])
            lat_min = float(arrival - newest[i])
            lat_max = float(arrival - oldest[i])
            if lat_min < self._latency_min[lane]:
                self._latency_min[lane] = lat_min
            if lat_max > self._latency_max[lane]:
                self._latency_max[lane] = lat_max
            hops_total[lane] += totals[i][_HOPS]
        hops = packets[:, _HOPS]
        dist = self._dist[packets[:, _SRC]]
        valid = dist > 0
        n_valid = int(np.count_nonzero(valid))
        if not n_valid:
            return
        if n_valid < count:
            hops = hops[valid]
            dist = dist[valid]
            if self.n_lanes > 1:
                lane_of = lane_of[valid]
                sizes = np.add.reduceat(valid, starts, dtype=np.int64).tolist()
                ends = list(accumulate(sizes))
                starts = [end - size for end, size in zip(ends, sizes)]
            else:
                ends = [n_valid]
        ratio = hops / dist
        if self.n_lanes == 1:
            sums = [float(ratio.sum())]
        else:
            by_lane = np.bincount(lane_of, weights=ratio, minlength=self.n_lanes).tolist()
            sums = [
                float(ratio[starts[i]:ends[i]].sum())
                if ends[i] - starts[i] >= _PAIRWISE else by_lane[lane]
                for i, lane in enumerate(lanes)
            ]
        stretch_count = self._counts[_STRETCH_COUNT]
        for i, lane in enumerate(lanes):
            if ends[i] > starts[i]:
                self._stretch_total[lane] += sums[i]
                stretch_count[lane] += ends[i] - starts[i]

    def _enqueue(self, links, packets) -> None:
        """Append ``packets`` (in order) to the tails of ``links``' queues."""
        m = int(links.size)
        alive = self.link_alive[links]
        n_alive = int(np.count_nonzero(alive))
        if n_alive < m:
            self._tally(_DROP_LINK_DOWN, m - n_alive, self._link_lane, links, alive)
            if not n_alive:
                return
            links = links[alive]
            packets = packets[alive]
            m = n_alive
        # a packet's place in its link's tail: its rank among this batch's
        # packets for the same link (stable sort keeps arrival order)
        order = links.argsort(kind="stable")
        links = links[order]
        position = self.q_len[links] + (
            np.arange(m, dtype=np.int64) - links.searchsorted(links)
        )
        accept = position < self.queue_capacity
        n_accepted = int(np.count_nonzero(accept))
        if n_accepted < m:
            self._tally(_DROP_TAIL, m - n_accepted, self._link_lane, links, accept)
            if not n_accepted:
                return
            links = links[accept]
            position = position[accept]
            order = order[accept]
        rows = self._row_base[links] + (self.q_head[links] + position) % self.queue_capacity
        self.queue[rows] = packets[order]
        self.q_len += np.bincount(links, minlength=self.n_links)

    # ------------------------------------------------------------------
    def counters(self, lane: int = 0) -> Dict[str, object]:
        """One lane's cumulative tallies plus derived latency/stretch summaries."""
        c = [row[lane] for row in self._counts]
        lo, hi = self.link_offset[lane], self.link_offset[lane + 1]
        delivered = c[_DELIVERED]
        dropped = c[_DROP_TAIL] + c[_DROP_TTL] + c[_DROP_NO_ROUTE] + c[_DROP_LINK_DOWN]
        return {
            "slots": self._halted_at.get(lane, self.now),
            "packets_injected": c[_INJECTED],
            "packets_delivered": delivered,
            "packets_dropped": dropped,
            "packets_in_flight": int(self.q_len[lo:hi].sum()),
            "packets_forwarded": c[_FORWARDED],
            "drop_tail": c[_DROP_TAIL],
            "drop_ttl": c[_DROP_TTL],
            "drop_no_route": c[_DROP_NO_ROUTE],
            "drop_link_down": c[_DROP_LINK_DOWN],
            "transient_loops": c[_BOUNCES],
            "peak_queue_depth": int(self._link_peak[lo:hi].max()) if hi > lo else 0,
            "mean_latency_slots": (
                self._latency_total[lane] / delivered if delivered else None
            ),
            "max_latency_slots": (
                self._latency_max[lane] if delivered else None
            ),
            "mean_hops": (c[_HOPS_TOTAL] / delivered if delivered else None),
            "mean_stretch": (
                self._stretch_total[lane] / c[_STRETCH_COUNT]
                if c[_STRETCH_COUNT]
                else None
            ),
        }
