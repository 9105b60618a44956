"""Couples the packet simulator to a live link-reversal control plane.

:class:`DataPlaneRun` owns a :class:`~repro.distributed.fast_network.
FastAsyncNetwork` (the control plane: height messages, reversals, churn)
and rides one lane of a :class:`~repro.dataplane.packets.PacketSimulator`
(the data plane: per-link ring buffers).  It keeps its slice of the
simulator's ``next_hop_link`` table consistent with the network's packed
heights *incrementally*:

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

A run on its own forwards on a one-lane simulator of its own.
:func:`share_simulator` puts several runs on one lockstep simulator, and
:func:`run_lockstep` drives them together: each lane keeps its own control
plane, arrivals, failure plan, beacon cadence and drain bound, and leaves
the group when it finishes, while one ``inject_slot`` and one ``step`` per
slot serve every lane still running.  :meth:`DataPlaneRun.run` is the
group-of-one case of the same loop.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.graph import LinkReversalInstance, hop_distances
from repro.dataplane.packets import PacketSimulator, TrafficLane
from repro.dataplane.traffic import TrafficModel, resolve_traffic
from repro.distributed.fast_network import FastAsyncNetwork, NetworkTemplate
from repro.distributed.network import DELAY_MODELS
from repro.distributed.protocol import ReversalMode
from repro.kernels.simulator import DeadlineExceeded

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
        template: Optional[NetworkTemplate] = None,
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
            template=template,
        )
        self.instance = instance
        self.loss = loss
        self.slot_dt = slot_dt
        self.queue_capacity = queue_capacity
        self.link_capacity = link_capacity
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

        # a node the destination cannot reach gets -1: its stretch is undefined
        dist = [d if d <= n else -1 for d in hop_distances(instance)]

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
        #: this run's packet plane in its own node and link ids
        self.traffic_lane = TrafficLane(
            link_from,
            link_to,
            n_nodes=n,
            destination=dest,
            rates=[per_node] * n,
            undirected_distance=dist,
            ttl=ttl,
            burst_on=traffic.burst_on,
            seed=traffic_seed,
        )
        self._sim = None
        #: this run's lane of :attr:`sim`, and where its nodes and links start
        self.lane = 0
        self._node_base = 0
        self._link_base = 0

        self._heights = list(self.network.packed_heights())
        self._events_seen = self.network.events_dispatched
        self.repatched_nodes = 0
        self.slots_run = 0
        self.plan(0)

    # ------------------------------------------------------------------
    # the packet plane
    # ------------------------------------------------------------------
    @property
    def sim(self) -> PacketSimulator:
        """The simulator this run forwards on.

        The lockstep group's simulator once :func:`share_simulator` put the
        run on it, else a one-lane simulator of the run's own, built on
        first use.
        """
        if self._sim is None:
            sim = PacketSimulator(
                **self.traffic_lane._asdict(),
                queue_capacity=self.queue_capacity,
                link_capacity=self.link_capacity,
            )
            self._attach(sim, 0, 0, 0)
        return self._sim

    def _attach(self, sim: PacketSimulator, lane: int, node_base: int, link_base: int) -> None:
        """Forward on ``sim``'s lane ``lane``: patch every next hop of the run."""
        self._sim = sim
        self.lane = lane
        self._node_base = node_base
        self._link_base = link_base
        self._patch_nodes(range(self.instance.node_count))

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
        node_base = self._node_base
        link_base = self._link_base
        count = 0
        for u in nodes:
            v = self._next_hop_of(u)
            lid = link_id.get((u, v), -1) if v >= 0 else -1
            sim.set_next_hop_link(node_base + u, lid + link_base if lid >= 0 else -1)
            count += 1
        self.repatched_nodes += count

    def advance_control(self, deadline: Optional[float] = None) -> None:
        """Advance the control plane one slot and repatch changed next hops.

        The slot loop calls this every slot.  A caller that drives
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
        base = self._link_base
        self.sim.kill_links(
            [base + self._link_id[(iu, iv)], base + self._link_id[(iv, iu)]]
        )
        affected = {iu, iv}
        affected |= network.neighbour_ids(iu)
        affected |= network.neighbour_ids(iv)
        self._patch_nodes(affected)

    # ------------------------------------------------------------------
    # slot loop
    # ------------------------------------------------------------------
    def plan(
        self,
        slots: int,
        drain_slots: int = 0,
        failure_plan: Optional[Dict[int, int]] = None,
        fail_hook: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Set what :func:`run_lockstep` does with this run from its next slot.

        Inject for ``slots`` slots, then drain without injection for at most
        ``drain_slots`` slots, stopping once no packet of the run is left.
        ``failure_plan`` maps an injection slot index to the number of link
        failures to apply just before that slot; ``fail_hook(count)``
        performs them (the engine supplies seeded candidate selection and
        partition checks).
        """
        self._start = self.slots_run
        self._stop = self.slots_run + slots
        self._drain_slots = drain_slots
        self._failure_plan = failure_plan
        self._fail_hook = fail_hook

    @property
    def injecting(self) -> bool:
        """Whether the run's planned injection slots are not over yet."""
        return self.slots_run < self._stop

    def _drained(self, in_flight: int) -> bool:
        """Whether the run's drain is over, with ``in_flight`` packets left."""
        return in_flight == 0 or self.slots_run - self._stop >= self._drain_slots

    def _open_slot(self, deadline: Optional[float]) -> None:
        """The run's work before a slot: planned failures, control, beacon."""
        if self.injecting and self._failure_plan and self._fail_hook is not None:
            count = self._failure_plan.get(self.slots_run - self._start, 0)
            if count:
                self._fail_hook(count)
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

    def run(
        self,
        slots: int,
        drain_slots: int = 0,
        deadline: Optional[float] = None,
        failure_plan: Optional[Dict[int, int]] = None,
        fail_hook=None,
    ) -> None:
        """Inject for ``slots`` slots, then drain without injection.

        :meth:`plan` says what the arguments mean; this runs the plan as a
        group of one.  Raises
        :class:`~repro.kernels.simulator.DeadlineExceeded` between slots when
        the wall-clock ``deadline`` passes; all tallies remain consistent.
        """
        self.plan(slots, drain_slots, failure_plan, fail_hook)
        run_lockstep([self], deadline)


def share_simulator(runs: Sequence[DataPlaneRun]) -> PacketSimulator:
    """Put every run on one lockstep simulator, ``runs[i]`` as lane ``i``.

    The runs must share their queue and link capacities.
    """
    first = runs[0]
    if any(
        (run.queue_capacity, run.link_capacity)
        != (first.queue_capacity, first.link_capacity)
        for run in runs
    ):
        raise ValueError("runs sharing a simulator need equal queue and link capacities")
    sim = PacketSimulator.lockstep(
        [run.traffic_lane for run in runs],
        queue_capacity=first.queue_capacity,
        link_capacity=first.link_capacity,
    )
    for lane, run in enumerate(runs):
        run._attach(sim, lane, sim.node_offset[lane], sim.link_offset[lane])
    return sim


def run_lockstep(runs: Sequence[DataPlaneRun], deadline: Optional[float] = None) -> None:
    """Run every run's plan to its end, all on the simulator they share.

    Each slot, every run still going opens its slot (planned failures,
    control-plane advance, beacon) in order, then one ``inject_slot`` serves
    every run still injecting and one ``step`` every run still going.  A run
    whose drain is over leaves the group before the next slot and never
    moves again.  Raises :class:`~repro.kernels.simulator.DeadlineExceeded`
    between slots once the wall-clock ``deadline`` passes.
    """
    try:
        _drive(runs, deadline)
    finally:
        # a failure hook closes over its run: drop it, so a finished run is
        # freed by reference counting
        for run in runs:
            run._fail_hook = None


def _drive(runs: Sequence[DataPlaneRun], deadline: Optional[float]) -> None:
    sim = runs[0].sim
    # A lone run needs no lane bookkeeping: the loop stops calling the
    # simulator when the run stops injecting or finishes.
    shared = len(runs) > 1
    live = list(runs)
    while True:
        draining = [run for run in live if not run.injecting]
        if draining:
            in_flight = sim.lane_in_flight() if shared else [sim.in_flight]
            for run in draining:
                if shared:
                    sim.stop_injecting(run.lane)
                if run._drained(in_flight[run.lane]):
                    live.remove(run)
                    if shared:
                        sim.halt(run.lane)
        if not live:
            return
        injecting = [run for run in live if run.injecting]
        if deadline is not None and time.perf_counter() >= deadline:
            raise DeadlineExceeded(
                f"deadline exceeded at slot {injecting[0].slots_run - injecting[0]._start}"
                if injecting
                else "deadline exceeded during drain"
            )
        for run in live:
            run._open_slot(deadline)
        if injecting:
            sim.inject_slot()
        sim.step()
        for run in live:
            run.slots_run += 1
