"""Differential tests: the packed-array packet simulator against a per-packet oracle.

:class:`ReferenceForwarder` is the readable twin of
:class:`~repro.dataplane.packets.PacketSimulator`: one Python object per
packet, one :class:`collections.deque` per directed link, and one packet at
a time through the slot semantics

* **inject** — each node's Poisson arrivals for the slot (drawn per slot,
  with the bursty gate first when ``burst_on < 1``), in node order; a node
  without a next hop drops them as no-route;
* **transmit** — every link sends up to ``link_capacity`` packets from its
  head; the crossings are processed offset-major, then by link id;
* **arrive** — TTL down one, hops up one; delivered at the destination,
  else expired when the TTL is spent, else dropped when the receiver has
  no next hop, else forwarded (a forward straight back over the arrival
  link counts as a loop bounce);
* **enqueue** — a dead link drops the packet as link-down, a full queue
  tail-drops it;
* **kill** — a killed link flushes its queue as link-down drops.

Every ``counters()`` field of the simulator is pinned to the oracle's after
every slot.  ``mean_stretch`` is a float sum that the simulator adds per
slot in numpy's order and the oracle per packet, so it alone is compared to
a relative 1e-12 (float64 rounding over a few thousand terms).
"""

from __future__ import annotations

from collections import deque

import pytest

np = pytest.importorskip("numpy")

import repro.dataplane.run as run_module
from repro.dataplane.packets import PacketSimulator
from repro.dataplane.run import DataPlaneRun
from repro.distributed.protocol import ReversalMode
from repro.topology.generators import build_family, grid_instance

STRETCH_REL = 1e-12


class _Packet:
    __slots__ = ("src", "ttl", "birth", "hops")

    def __init__(self, src: int, ttl: int, birth: int):
        self.src = src
        self.ttl = ttl
        self.birth = birth
        self.hops = 0


class ReferenceForwarder:
    """Per-packet reference for :class:`PacketSimulator` (same constructor)."""

    def __init__(
        self,
        link_from,
        link_to,
        n_nodes,
        destination,
        rates,
        undirected_distance,
        queue_capacity=64,
        link_capacity=1,
        ttl=64,
        burst_on=1.0,
        seed=0,
    ):
        self.link_from = [int(u) for u in link_from]
        self.link_to = [int(v) for v in link_to]
        self.n_nodes = n_nodes
        self.destination = destination
        self.rates = np.asarray(rates, dtype=np.float64).copy()
        self.rates[destination] = 0.0
        self.dist = [int(d) for d in undirected_distance]
        self.queue_capacity = queue_capacity
        self.link_capacity = link_capacity
        self.ttl = ttl
        self.burst_on = burst_on
        self.rng = np.random.default_rng(seed)
        self.queues = [deque() for _ in self.link_from]
        self.alive = [True] * len(self.link_from)
        self.next_hop = [-1] * n_nodes
        self.now = 0
        self.tally = dict.fromkeys(
            ("injected", "delivered", "forwarded", "drop_tail", "drop_ttl",
             "drop_no_route", "drop_link_down", "bounces", "peak", "hops"),
            0,
        )
        self.latencies = []
        self.stretches = []

    @property
    def in_flight(self) -> int:
        return sum(len(queue) for queue in self.queues)

    def set_next_hop_link(self, node: int, link_id: int) -> None:
        self.next_hop[node] = link_id

    def kill_links(self, link_ids) -> None:
        for lid in link_ids:
            if self.alive[lid]:
                self.tally["drop_link_down"] += len(self.queues[lid])
                self.queues[lid].clear()
                self.alive[lid] = False

    def _enqueue(self, lid: int, packet: _Packet) -> None:
        if not self.alive[lid]:
            self.tally["drop_link_down"] += 1
        elif len(self.queues[lid]) >= self.queue_capacity:
            self.tally["drop_tail"] += 1
        else:
            self.queues[lid].append(packet)

    def inject_slot(self) -> None:
        if self.burst_on < 1.0:
            gate = self.rng.random(self.n_nodes) < self.burst_on
            counts = self.rng.poisson(np.where(gate, self.rates / self.burst_on, 0.0))
        else:
            counts = self.rng.poisson(self.rates)
        for node, count in enumerate(counts.tolist()):
            for _ in range(count):
                self.tally["injected"] += 1
                lid = self.next_hop[node]
                if lid < 0:
                    self.tally["drop_no_route"] += 1
                else:
                    self._enqueue(lid, _Packet(node, self.ttl, self.now))

    def step(self) -> None:
        sent = [
            [queue.popleft() for _ in range(min(len(queue), self.link_capacity))]
            for queue in self.queues
        ]
        for offset in range(self.link_capacity):
            for lid, packets in enumerate(sent):
                if offset < len(packets):
                    self._arrive(lid, packets[offset])
        self.now += 1
        depth = max((len(queue) for queue in self.queues), default=0)
        self.tally["peak"] = max(self.tally["peak"], depth)

    def _arrive(self, lid: int, packet: _Packet) -> None:
        self.tally["forwarded"] += 1
        packet.ttl -= 1
        packet.hops += 1
        node = self.link_to[lid]
        if node == self.destination:
            self.tally["delivered"] += 1
            self.tally["hops"] += packet.hops
            self.latencies.append(self.now - packet.birth + 1)
            if self.dist[packet.src] > 0:
                self.stretches.append(packet.hops / self.dist[packet.src])
        elif packet.ttl <= 0:
            self.tally["drop_ttl"] += 1
        elif self.next_hop[node] < 0:
            self.tally["drop_no_route"] += 1
        else:
            nxt = self.next_hop[node]
            if self.link_to[nxt] == self.link_from[lid]:
                self.tally["bounces"] += 1
            self._enqueue(nxt, packet)

    def counters(self):
        t = self.tally
        delivered = t["delivered"]
        dropped = t["drop_tail"] + t["drop_ttl"] + t["drop_no_route"] + t["drop_link_down"]
        return {
            "slots": self.now,
            "packets_injected": t["injected"],
            "packets_delivered": delivered,
            "packets_dropped": dropped,
            "packets_in_flight": self.in_flight,
            "packets_forwarded": t["forwarded"],
            "drop_tail": t["drop_tail"],
            "drop_ttl": t["drop_ttl"],
            "drop_no_route": t["drop_no_route"],
            "drop_link_down": t["drop_link_down"],
            "transient_loops": t["bounces"],
            "peak_queue_depth": t["peak"],
            "mean_latency_slots": sum(self.latencies) / delivered if delivered else None,
            "max_latency_slots": float(max(self.latencies)) if delivered else None,
            "mean_hops": t["hops"] / delivered if delivered else None,
            "mean_stretch": (
                sum(self.stretches) / len(self.stretches) if self.stretches else None
            ),
        }


def assert_counters_match(fast, reference, context="") -> None:
    fast_counters = fast.counters()
    ref_counters = reference.counters()
    assert fast_counters.keys() == ref_counters.keys()
    for key, expected in ref_counters.items():
        got = fast_counters[key]
        if key == "mean_stretch" and expected is not None:
            assert got == pytest.approx(expected, rel=STRETCH_REL), (context, key)
        else:
            assert got == expected, (context, key, got, expected)


# ----------------------------------------------------------------------
# scripted scenarios: the simulator and the oracle side by side
# ----------------------------------------------------------------------
def _grid_links(rows: int, cols: int):
    """Both directions of every grid link, plus shortest-path next hops to 0."""
    link_from, link_to = [], []
    n = rows * cols
    for u in range(n):
        r, c = divmod(u, cols)
        for v in ((u + 1) if c + 1 < cols else None, (u + cols) if r + 1 < rows else None):
            if v is not None:
                link_from += [u, v]
                link_to += [v, u]
    link_id = {(u, v): i for i, (u, v) in enumerate(zip(link_from, link_to))}
    dist = [sum(divmod(u, cols)) for u in range(n)]
    next_hop = [-1] * n
    for u in range(1, n):
        r, c = divmod(u, cols)
        v = u - 1 if c > 0 else u - cols
        next_hop[u] = link_id[(u, v)]
    return link_from, link_to, dist, next_hop, link_id


def _pair(**kwargs):
    return PacketSimulator(**kwargs), ReferenceForwarder(**kwargs)


def _drive(pair, slots, inject=True, script=None):
    """Run both sides slot by slot; ``script[slot](side)`` acts before a slot."""
    fast, reference = pair
    for slot in range(slots):
        if script and slot in script:
            for side in pair:
                script[slot](side)
        for side in pair:
            if inject:
                side.inject_slot()
            side.step()
        assert_counters_match(fast, reference, f"slot {slot}")
        assert fast.q_len.tolist() == [len(q) for q in reference.queues]


@pytest.mark.parametrize("link_capacity", [1, 8])
@pytest.mark.parametrize("load", ["steady", "heavy", "bursty"])
def test_grid_traffic_matches_reference(link_capacity, load):
    link_from, link_to, dist, next_hop, _ = _grid_links(4, 4)
    sink_capacity = 2 * link_capacity
    rate = {"steady": 0.5, "heavy": 1.5, "bursty": 0.5}[load] * sink_capacity / 15
    pair = _pair(
        link_from=link_from, link_to=link_to, n_nodes=16, destination=0,
        rates=[rate] * 16, undirected_distance=dist, queue_capacity=16,
        link_capacity=link_capacity, ttl=64,
        burst_on=0.125 if load == "bursty" else 1.0, seed=31,
    )
    for side in pair:
        for u, lid in enumerate(next_hop):
            side.set_next_hop_link(u, lid)
    _drive(pair, 150)
    _drive(pair, 200, inject=False)
    fast, reference = pair
    assert reference.tally["delivered"] > 0
    if load == "heavy":
        assert reference.tally["drop_tail"] > 0


@pytest.mark.parametrize("link_capacity", [1, 8])
def test_ping_pong_loop_expires_like_reference(link_capacity):
    # 1 and 2 forward to each other: every packet bounces until its TTL dies
    pair = _pair(
        link_from=[1, 2, 0], link_to=[2, 1, 1], n_nodes=3, destination=0,
        rates=[0.0, 2.0, 1.0], undirected_distance=[0, 1, 1],
        queue_capacity=8, link_capacity=link_capacity, ttl=6, seed=2,
    )
    for side in pair:
        side.set_next_hop_link(1, 0)
        side.set_next_hop_link(2, 1)
    _drive(pair, 40)
    _drive(pair, 40, inject=False)
    reference = pair[1]
    assert reference.tally["drop_ttl"] > 0 and reference.tally["bounces"] > 0
    assert reference.tally["delivered"] == 0


@pytest.mark.parametrize("link_capacity", [1, 8])
def test_queue_overflow_and_mid_run_kills_match_reference(link_capacity):
    link_from, link_to, dist, next_hop, link_id = _grid_links(3, 4)
    pair = _pair(
        link_from=link_from, link_to=link_to, n_nodes=12, destination=0,
        rates=[3.0] * 12, undirected_distance=dist, queue_capacity=4,
        link_capacity=link_capacity, ttl=5, seed=17,
    )
    for side in pair:
        for u, lid in enumerate(next_hop):
            side.set_next_hop_link(u, lid)

    def kill_first_hop(side):
        # fail {1, 0} under load; node 1 keeps pointing at the dead link for
        # a while (link-down drops on enqueue), then reroutes via 5 -> 4 -> 0
        side.kill_links([link_id[(1, 0)], link_id[(0, 1)]])

    def reroute(side):
        side.set_next_hop_link(1, link_id[(1, 5)])
        side.set_next_hop_link(5, link_id[(5, 4)])

    def strand(side):
        side.set_next_hop_link(6, -1)
        side.kill_links([link_id[(4, 0)]])

    def loop(side):
        side.set_next_hop_link(5, link_id[(5, 1)])

    _drive(pair, 60, script={10: kill_first_hop, 14: reroute, 30: strand, 40: loop})
    _drive(pair, 60, inject=False)
    reference = pair[1]
    tally = reference.tally
    assert tally["drop_tail"] > 0
    assert tally["drop_link_down"] > 0
    assert tally["drop_no_route"] > 0
    assert tally["drop_ttl"] > 0
    assert tally["bounces"] > 0


# ----------------------------------------------------------------------
# full runs: the same DataPlaneRun with the oracle as its packet plane
# ----------------------------------------------------------------------
def _dataplane_counters(
    monkeypatch, simulator, instance, traffic, link_capacity, plan, converge=True
):
    with monkeypatch.context() as patch:
        patch.setattr(run_module, "PacketSimulator", simulator)
        run = DataPlaneRun(
            instance,
            mode=ReversalMode.PARTIAL,
            traffic=traffic,
            delay_model="uniform",
            channel_seed=5,
            traffic_seed=9,
            link_capacity=link_capacity,
        )
        if converge:
            run.network.run_to_quiescence()
            run.advance_control()
        network = run.network

        def fail(count):
            for _ in range(count):
                for u, v in network.sorted_link_pairs():
                    if not network.link_would_partition(u, v):
                        run.fail_link(u, v)
                        break

        run.run(192, drain_slots=256, failure_plan=plan, fail_hook=fail)
        return run.sim


@pytest.mark.parametrize("link_capacity", [1, 8])
@pytest.mark.parametrize("traffic", ["steady", "heavy", "bursty"])
def test_dataplane_run_under_churn_matches_reference(monkeypatch, traffic, link_capacity):
    instance = build_family("grid", 16, 3)
    plan = {48: 1, 96: 2}
    fast = _dataplane_counters(
        monkeypatch, PacketSimulator, instance, traffic, link_capacity, plan
    )
    reference = _dataplane_counters(
        monkeypatch, ReferenceForwarder, instance, traffic, link_capacity, plan
    )
    assert_counters_match(fast, reference)
    # the failures reroute live traffic: some packets find no next hop
    assert reference.tally["delivered"] > 0
    assert reference.tally["drop_no_route"] > 0


def test_traffic_during_initial_convergence_matches_reference(monkeypatch):
    # an unoriented grid converging under heavy load: reversal cascades
    # rewrite the next hops under queued packets from the first slot on
    instance = grid_instance(4, 4, oriented_towards_destination=False)
    args = (instance, "heavy", 1, {16: 1, 32: 1, 64: 1})
    fast = _dataplane_counters(monkeypatch, PacketSimulator, *args, converge=False)
    reference = _dataplane_counters(
        monkeypatch, ReferenceForwarder, *args, converge=False
    )
    assert_counters_match(fast, reference)
    assert reference.tally["delivered"] > 0
    assert reference.tally["bounces"] > 0
