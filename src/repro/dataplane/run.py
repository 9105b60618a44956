"""Couples the packet simulator to a live link-reversal control plane.

:class:`DataPlaneRun` owns a :class:`~repro.distributed.fast_network.
FastAsyncNetwork` (the control plane: height messages, reversals, churn)
and a :class:`~repro.dataplane.packets.PacketSimulator` (the data plane:
per-link ring buffers), and keeps the simulator's ``next_hop_link`` table
consistent with the network's packed heights *incrementally*:

* after every control-plane advance it diffs the live height list against a
  cached copy (skipped entirely when no events were dispatched, so a
  quiescent network costs O(1) per slot) and re-derives next hops only for
  the changed nodes and their neighbours;
* a link failure flushes the two directed queues, removes the link from
  both endpoints' candidate sets (the network already did) and re-patches
  the two endpoints plus their neighbourhoods.

The forwarding rule is greedy height descent: a node's next hop is its
lowest-height neighbour, provided that neighbour is lower than itself.
Packed heights are totally ordered (node rank is embedded), so the choice
is deterministic and, on a quiescent destination-oriented DAG, loop-free.
During reversal cascades the table is transiently inconsistent on purpose —
that window is exactly what the transient-loop counter and TTL expiry
measure.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.graph import LinkReversalInstance
from repro.dataplane.packets import PacketSimulator
from repro.dataplane.traffic import TrafficModel, resolve_traffic
from repro.distributed.fast_network import FastAsyncNetwork
from repro.distributed.network import DELAY_MODELS
from repro.distributed.protocol import ReversalMode
from repro.kernels.simulator import DeadlineExceeded
from repro.routing.dag_routing import undirected_distances

Node = object

#: Control-plane simulated time advanced per data-plane slot.  With the
#: default delay models (unit-ish delays) one slot lets roughly one message
#: hop land per link, so reversal cascades and packets genuinely interleave.
SLOT_DT = 1.0

#: How often (in slots) a lossy, stalled, unoriented network re-broadcasts
#: heights so dropped updates cannot wedge the control plane forever.
BEACON_EVERY_SLOTS = 32


class DataPlaneRun:
    """A packet workload riding a (possibly churning) link-reversal network."""

    def __init__(
        self,
        instance: LinkReversalInstance,
        *,
        mode: ReversalMode = ReversalMode.PARTIAL,
        traffic: "TrafficModel | str" = "steady",
        delay_model: str = "fixed",
        loss: float = 0.0,
        channel_seed: int = 0,
        traffic_seed: int = 0,
        queue_capacity: int = 64,
        link_capacity: int = 1,
        ttl: Optional[int] = None,
        slot_dt: float = SLOT_DT,
    ):
        if isinstance(traffic, str):
            traffic = resolve_traffic(traffic)
        self.traffic = traffic
        min_delay, max_delay, fifo = DELAY_MODELS[delay_model]
        self.network = FastAsyncNetwork(
            instance,
            mode=mode,
            min_delay=min_delay,
            max_delay=max_delay,
            loss_probability=loss,
            seed=channel_seed,
            fifo=fifo,
        )
        self.instance = instance
        self.loss = loss
        self.slot_dt = slot_dt
        n = instance.node_count
        dest = self.network.destination_id

        # Both directions of every initial undirected link get a queue; the
        # link set only shrinks under failure churn, so ids stay stable.
        link_from: List[int] = []
        link_to: List[int] = []
        self._link_id: Dict[Tuple[int, int], int] = {}
        for lo, hi in self.network.sorted_link_id_pairs():
            for u, v in ((lo, hi), (hi, lo)):
                self._link_id[(u, v)] = len(link_from)
                link_from.append(u)
                link_to.append(v)

        distances = undirected_distances(instance)
        dist = [distances.get(u, -1) for u in instance.nodes]

        if ttl is None:
            # Generous backstop: transient loops should bounce packets, not
            # strand them, but a packet must still die well before a full
            # campaign's slot budget.
            ttl = max(16, 4 * n)
        # TrafficModel.rate is a multiple of the sink cut (see traffic.py);
        # convert to a per-node Poisson mean against the destination's
        # current delivery capacity.
        sink_capacity = len(self.network.neighbour_ids(dest)) * link_capacity
        per_node = traffic.rate * sink_capacity / max(1, n - 1)
        self.sim = PacketSimulator(
            link_from,
            link_to,
            n_nodes=n,
            destination=dest,
            rates=[per_node] * n,
            undirected_distance=dist,
            queue_capacity=queue_capacity,
            link_capacity=link_capacity,
            ttl=ttl,
            burst_on=traffic.burst_on,
            seed=traffic_seed,
        )

        self._heights = list(self.network.packed_heights())
        self._events_seen = self.network.events_dispatched
        self.repatched_nodes = 0
        self.patch_rounds = 0
        self.slots_run = 0
        self._patch_nodes(range(n))

    # ------------------------------------------------------------------
    # next-hop patching
    # ------------------------------------------------------------------
    def _next_hop_of(self, u: int) -> int:
        if u == self.network.destination_id:
            return -1
        heights = self._heights
        own = heights[u]
        best = -1
        best_height = own
        for j in self.network.neighbour_ids(u):
            hj = heights[j]
            if hj < best_height:
                best = j
                best_height = hj
        return best

    def _patch_nodes(self, nodes: Iterable[int]) -> None:
        sim = self.sim
        link_id = self._link_id
        count = 0
        for u in nodes:
            v = self._next_hop_of(u)
            lid = link_id.get((u, v), -1) if v >= 0 else -1
            sim.set_next_hop_link(u, lid)
            count += 1
        self.repatched_nodes += count
        self.patch_rounds += 1

    def advance_control(self, deadline: Optional[float] = None) -> None:
        """Advance the control plane one slot and repatch changed next hops.

        :meth:`step_slot` calls this every slot.  A caller that drives
        :attr:`network` directly (say, to converge it before any traffic)
        calls it once afterwards, so the next-hop table picks up the
        converged heights.
        """
        network = self.network
        network.advance(self.slot_dt, deadline=deadline)
        if network.events_dispatched == self._events_seen:
            return
        self._events_seen = network.events_dispatched
        live = network.packed_heights()
        cached = self._heights
        changed = [i for i in range(len(cached)) if live[i] != cached[i]]
        if not changed:
            return
        affected = set(changed)
        for i in changed:
            cached[i] = live[i]
            affected |= network.neighbour_ids(i)
        self._patch_nodes(affected)

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def fail_link(self, u: Node, v: Node) -> None:
        """Fail undirected link ``{u, v}``: flush queues, repatch endpoints."""
        network = self.network
        network.fail_link(u, v)
        iu = self.instance.node_index(u)
        iv = self.instance.node_index(v)
        self.sim.kill_links([self._link_id[(iu, iv)], self._link_id[(iv, iu)]])
        affected = {iu, iv}
        affected |= network.neighbour_ids(iu)
        affected |= network.neighbour_ids(iv)
        self._patch_nodes(affected)

    # ------------------------------------------------------------------
    # slot loop
    # ------------------------------------------------------------------
    def step_slot(self, inject: bool = True, deadline: Optional[float] = None) -> None:
        """Advance control plane by one slot, then inject and transmit."""
        self.advance_control(deadline)
        network = self.network
        if (
            self.loss > 0
            and self.slots_run % BEACON_EVERY_SLOTS == 0
            and network.quiescent()
            and not network.is_destination_oriented()
        ):
            # Loss can eat the height updates that would have restored
            # orientation; a beacon re-announces every height (processed by
            # the next slot's control advance).
            network.broadcast_heights()
            network.beacon_rounds += 1
        if inject:
            self.sim.inject_slot()
        self.sim.step()
        self.slots_run += 1

    def run(
        self,
        slots: int,
        drain_slots: int = 0,
        deadline: Optional[float] = None,
        failure_plan: Optional[Dict[int, int]] = None,
        fail_hook=None,
    ) -> None:
        """Inject for ``slots`` slots, then drain without injection.

        ``failure_plan`` maps slot index -> number of link failures to apply
        just before that slot; ``fail_hook(count)`` performs them (the engine
        supplies seeded candidate selection + partition checks).  Raises
        :class:`~repro.kernels.simulator.DeadlineExceeded` between slots when
        the wall-clock ``deadline`` passes; all tallies remain consistent.
        """
        for slot in range(slots):
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded(f"deadline exceeded at slot {slot}")
            if failure_plan and fail_hook is not None:
                count = failure_plan.get(slot, 0)
                if count:
                    fail_hook(count)
            self.step_slot(inject=True, deadline=deadline)
        for _ in range(drain_slots):
            if self.sim.in_flight == 0:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded("deadline exceeded during drain")
            self.step_slot(inject=False, deadline=deadline)
