"""Structure-of-arrays packet simulator: per-link ring buffers, no objects.

Every directed link owns a fixed-capacity FIFO ring buffer.  All buffers
live in one packed ``(links * capacity, 4)`` int64 array whose rows are
packets (injecting source, remaining TTL, birth slot, hops so far) — never
a Python object; link ``l``'s slot ``s`` is row ``l * capacity + s``.  One
simulated slot transmits up to ``link_capacity`` packets from the head of
every live queue (one gather), delivers arrivals at the destination,
decrements TTLs, and re-enqueues the rest on their receiver's current
next-hop link (one scatter), all as vectorised numpy batch operations.  The
arrays are small at campaign scale, so the slot loop is written to make few
numpy calls: filters are skipped when nothing is filtered out, and steady
Poisson arrivals are drawn a block of slots at a time.  A million packets
per run is the design point (see ``benchmarks/bench_dataplane.py``).

The simulator knows nothing about link reversal: forwarding reads a plain
``next_hop_link`` array that the owner (:class:`~repro.dataplane.run.
DataPlaneRun`) patches incrementally as the control plane rewrites the DAG.
That separation is what lets reversals, failures and packets interleave
mid-run while the conservation invariant

    injected == delivered + dropped + in_flight

holds after every slot, with ``dropped`` split by cause (queue-tail
overflow, TTL expiry, no current route, link failure flush).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np


#: Columns of a packet row in the packed queue array.
_SRC, _TTL, _BIRTH, _HOPS = range(4)

#: Slots of steady Poisson arrivals drawn per generator call.
ARRIVAL_BLOCK = 64


#: What crossing one link does to a packet row: TTL down one, hops up one.
_HOP_DELTA = np.array([0, -1, 0, 1], dtype=np.int64)


class PacketSimulator:
    """Slotted packet forwarding over per-directed-link ring buffers.

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
        if queue_capacity <= 0 or link_capacity <= 0 or ttl <= 0:
            raise ValueError("queue_capacity, link_capacity and ttl must be positive")
        self.link_from = np.asarray(link_from, dtype=np.int64)
        self.link_to = np.asarray(link_to, dtype=np.int64)
        self.n_links = int(self.link_from.shape[0])
        self.n_nodes = int(n_nodes)
        self.destination = int(destination)
        self.queue_capacity = int(queue_capacity)
        self.link_capacity = int(link_capacity)
        self.ttl = int(ttl)
        self.burst_on = float(burst_on)

        rates = np.asarray(rates, dtype=np.float64).copy()
        rates[self.destination] = 0.0
        self._rates = rates
        self._on_rates = rates / self.burst_on
        self._dist = np.asarray(undirected_distance, dtype=np.int64)
        self._rng = np.random.default_rng(seed)
        #: steady arrivals drawn ahead, one row per slot (see _arrivals_now)
        self._arrival_block = np.zeros((0, self.n_nodes), dtype=np.int64)
        self._arrival_totals: List[int] = []
        self._arrival_row = 0
        self._node_ids = np.arange(self.n_nodes, dtype=np.int64)
        #: per node: the packet row it injects, minus the birth slot
        self._fresh = np.zeros((self.n_nodes, 4), dtype=np.int64)
        self._fresh[:, _SRC] = self._node_ids
        self._fresh[:, _TTL] = self.ttl
        #: per ring offset ``c < link_capacity``: ``c`` as a column vector
        self._offsets = np.arange(self.link_capacity, dtype=np.int64)[:, None]

        self.queue = np.zeros((self.n_links * self.queue_capacity, 4), dtype=np.int64)
        self.q_head = np.zeros(self.n_links, dtype=np.int64)
        self.q_len = np.zeros(self.n_links, dtype=np.int64)
        self._row_base = np.arange(self.n_links, dtype=np.int64) * self.queue_capacity
        self.link_alive = np.ones(self.n_links, dtype=bool)
        #: per node: directed link id of the current next hop, -1 when the
        #: node has no downhill neighbour.  Patched by the owner, read here.
        self.next_hop_link = np.full(self.n_nodes, -1, dtype=np.int64)

        self.now = 0
        self.injected = 0
        self.delivered = 0
        self.forwarded = 0
        self.drop_tail = 0
        self.drop_ttl = 0
        self.drop_no_route = 0
        self.drop_link_down = 0
        self.loop_bounces = 0
        self.peak_queue_depth = 0
        self.latency_total = 0.0
        self.latency_min = float("inf")
        self.latency_max = float("-inf")
        self.hops_total = 0
        self.stretch_total = 0.0
        self.stretch_count = 0

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Packets currently queued on some link."""
        return int(self.q_len.sum())

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
        flushed = int(self.q_len[ids].sum())
        self.drop_link_down += flushed
        self.q_len[ids] = 0
        self.q_head[ids] = 0
        self.link_alive[ids] = False
        return flushed

    # ------------------------------------------------------------------
    def _arrivals_now(self):
        """This slot's per-node arrival counts and their total.

        Steady traffic draws :data:`ARRIVAL_BLOCK` slots in one generator
        call: a ``(B, n)`` Poisson draw yields the same stream as ``B``
        draws of size ``n``.  Bursty traffic interleaves its gate and
        Poisson draws, so it keeps one draw of each per slot.
        """
        rng = self._rng
        if self.burst_on < 1.0:
            gate = rng.random(self.n_nodes) < self.burst_on
            counts = rng.poisson(np.where(gate, self._on_rates, 0.0))
            return counts, int(counts.sum())
        row = self._arrival_row
        if row == len(self._arrival_totals):
            self._arrival_block = rng.poisson(
                self._rates, size=(ARRIVAL_BLOCK, self.n_nodes)
            )
            self._arrival_totals = self._arrival_block.sum(axis=1).tolist()
            row = 0
        self._arrival_row = row + 1
        return self._arrival_block[row], self._arrival_totals[row]

    def inject_slot(self) -> int:
        """Draw this slot's Poisson arrivals and enqueue them at their sources."""
        counts, total = self._arrivals_now()
        if total == 0:
            return 0
        self.injected += total
        sources = np.repeat(self._node_ids, counts)
        links = self.next_hop_link[sources]
        routed = links >= 0
        n_routed = int(np.count_nonzero(routed))
        if n_routed < total:
            self.drop_no_route += total - n_routed
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

        Returns the number of packets transmitted this slot.
        """
        q_len = self.q_len
        capacity = self.queue_capacity
        active = q_len.nonzero()[0]
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
            self.forwarded += sent
            self._arrivals(lids, packets)
        self.now += 1
        if self.n_links:
            depth = int(q_len.max())
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth
        return sent

    # ------------------------------------------------------------------
    def _arrivals(self, lids, packets) -> None:
        """Deliver, expire or forward the packets that just crossed ``lids``."""
        n = int(lids.size)
        node = self.link_to[lids]
        at_dest = node == self.destination
        n_delivered = int(np.count_nonzero(at_dest))
        if n_delivered:
            self._deliver(packets[at_dest] if n_delivered < n else packets)
            if n_delivered == n:
                return
        live = packets[:, _TTL] > 0
        if n_delivered:
            live[at_dest] = False
        n_live = int(np.count_nonzero(live))
        self.drop_ttl += n - n_delivered - n_live
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
            self.drop_no_route += n_live - n_routed
            if not n_routed:
                return
            next_links = next_links[routed]
            lids = lids[routed]
            packets = packets[routed]
        # A forward straight back over the link it arrived on means the DAG
        # flipped under the packet mid-cascade: count it as a transient-loop
        # bounce (the TTL is the escape hatch).
        self.loop_bounces += int(
            np.count_nonzero(self.link_to[next_links] == self.link_from[lids])
        )
        self._enqueue(next_links, packets)

    def _deliver(self, packets) -> None:
        """Tally latency, hops and stretch of packets reaching the destination."""
        count = int(packets.shape[0])
        self.delivered += count
        totals = packets.sum(axis=0)
        birth = packets[:, _BIRTH]
        arrival = self.now + 1
        # latencies are exact integers, so their float sum is order-free
        self.latency_total += float(count * arrival - int(totals[_BIRTH]))
        lat_min = float(arrival - int(birth.max()))
        lat_max = float(arrival - int(birth.min()))
        if lat_min < self.latency_min:
            self.latency_min = lat_min
        if lat_max > self.latency_max:
            self.latency_max = lat_max
        self.hops_total += int(totals[_HOPS])
        hops = packets[:, _HOPS]
        dist = self._dist[packets[:, _SRC]]
        valid = dist > 0
        n_valid = int(np.count_nonzero(valid))
        if n_valid:
            if n_valid < count:
                hops = hops[valid]
                dist = dist[valid]
            self.stretch_total += float((hops / dist).sum())
            self.stretch_count += n_valid

    def _enqueue(self, links, packets) -> None:
        """Append ``packets`` (in order) to the tails of ``links``' queues."""
        m = int(links.size)
        alive = self.link_alive[links]
        n_alive = int(np.count_nonzero(alive))
        if n_alive < m:
            self.drop_link_down += m - n_alive
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
            self.drop_tail += m - n_accepted
            if not n_accepted:
                return
            links = links[accept]
            position = position[accept]
            order = order[accept]
        rows = self._row_base[links] + (self.q_head[links] + position) % self.queue_capacity
        self.queue[rows] = packets[order]
        self.q_len += np.bincount(links, minlength=self.n_links)

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, object]:
        """Cumulative tallies plus derived latency/stretch summaries."""
        delivered = self.delivered
        return {
            "slots": self.now,
            "packets_injected": self.injected,
            "packets_delivered": delivered,
            "packets_dropped": self.dropped_total,
            "packets_in_flight": self.in_flight,
            "packets_forwarded": self.forwarded,
            "drop_tail": self.drop_tail,
            "drop_ttl": self.drop_ttl,
            "drop_no_route": self.drop_no_route,
            "drop_link_down": self.drop_link_down,
            "transient_loops": self.loop_bounces,
            "peak_queue_depth": self.peak_queue_depth,
            "mean_latency_slots": (
                self.latency_total / delivered if delivered else None
            ),
            "max_latency_slots": (
                self.latency_max if delivered else None
            ),
            "mean_hops": (self.hops_total / delivered if delivered else None),
            "mean_stretch": (
                self.stretch_total / self.stretch_count
                if self.stretch_count
                else None
            ),
        }
