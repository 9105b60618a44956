"""The asynchronous network: node processes + channels + event loop.

:class:`AsyncLinkReversalNetwork` builds, from a
:class:`~repro.core.graph.LinkReversalInstance`, one
:class:`~repro.distributed.protocol.LinkReversalNodeProcess` per node and a
pair of delay/loss channels per undirected link, wires everything to a
:class:`~repro.distributed.events.DiscreteEventSimulator`, and exposes the
operations the experiments need:

* ``run_to_quiescence()`` — dispatch events until no messages are in flight;
* ``fail_link(u, v)`` — inject a link failure (the endpoints are notified
  immediately, as if the link layer detected it); links never come back,
  so the link set only shrinks from the instance's;
* ``global_orientation()`` — the orientation induced by the *true* heights
  (the quantity whose acyclicity and destination orientation experiment E17
  checks);
* message and reversal statistics.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.core.graph import LinkReversalInstance, Orientation, reaching_destination
from repro.core.heights import HeightValue, initial_height_levels
from repro.distributed.channel import Channel, Message
from repro.distributed.events import DiscreteEventSimulator
from repro.distributed.protocol import LinkReversalNodeProcess, ReversalMode
from repro.distributed.streams import ChannelStreams

Node = Hashable


#: Named channel-delay models shared by the object network, the compiled
#: engine and the experiment campaigns: name -> (min_delay, max_delay, fifo).
#: ``zero`` and ``fixed`` are deterministic (and therefore FIFO by
#: construction); ``uniform`` draws per-message delays that may reorder
#: messages; ``fifo`` draws the same random delays but clamps delivery so the
#: channel stays first-in-first-out.
DELAY_MODELS: Dict[str, Tuple[float, float, bool]] = {
    "zero": (0.0, 0.0, False),
    "fixed": (1.0, 1.0, False),
    "uniform": (1.0, 2.0, False),
    "fifo": (1.0, 2.0, True),
}


def _sender(channels: Dict[Tuple[Node, Node], Channel], sender: Node):
    """The ``send`` of node ``sender``: the channel to the receiver, if still up."""

    def send(receiver: Node, message: Message) -> None:
        channel = channels.get((sender, receiver))
        if channel is not None:  # else the link no longer exists
            channel.send(message)

    return send


def _weakly(method):
    """Call a process's bound ``method`` through a weak reference.

    A process's own ``send`` reaches the channels and through them the
    simulator, so a channel or a queued event holding the process strongly
    would close a cycle.  The network holds the processes.
    """
    ref = weakref.WeakMethod(method)
    return lambda *args: ref()(*args)


@dataclass
class NetworkReport:
    """Aggregate statistics of an asynchronous run."""

    simulated_time: float
    events_dispatched: int
    messages_sent: int
    messages_delivered: int
    messages_lost: int
    total_reversals: int
    destination_oriented: bool
    acyclic: bool

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"t={self.simulated_time:.1f} events={self.events_dispatched} "
            f"msgs sent/delivered/lost={self.messages_sent}/{self.messages_delivered}/"
            f"{self.messages_lost} reversals={self.total_reversals} "
            f"oriented={self.destination_oriented} acyclic={self.acyclic}"
        )


class AsyncLinkReversalNetwork:
    """A complete asynchronous deployment of height-based link reversal."""

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
        instance.validate(require_dag=True)
        self.instance = instance
        self.mode = mode
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.loss_probability = loss_probability
        self.fifo = fifo
        self.seed = seed
        self.simulator = DiscreteEventSimulator()
        self._rank = {u: i for i, u in enumerate(instance.nodes)}
        self._channels: Dict[Tuple[Node, Node], Channel] = {}
        self._links: set[FrozenSet[Node]] = set(instance.undirected_edges)
        # statistics of channels removed by fail_link, so report() stays cumulative
        self._retired_sent = 0
        self._retired_delivered = 0
        self._retired_lost = 0

        # Nothing the processes, channels or queued events hold refers back
        # to the network; channels and queued events reach processes,
        # delivery events their channels and events their simulator through
        # weak references.  So a network is freed by reference counting,
        # even with events still queued.
        levels = initial_height_levels(instance)
        initial_heights = {u: HeightValue(0, levels[u], self._rank[u]) for u in instance.nodes}
        self.processes: Dict[Node, LinkReversalNodeProcess] = {}
        for u in instance.nodes:
            neighbours = instance.nbrs(u)
            self.processes[u] = LinkReversalNodeProcess(
                node=u,
                destination=instance.destination,
                initial_height=initial_heights[u],
                neighbours=neighbours,
                initial_neighbour_heights={v: initial_heights[v] for v in neighbours},
                send=_sender(self._channels, u),
                mode=mode,
            )

        # each directed channel draws from the counter stream keyed by
        # (seed, sender rank, receiver rank): independent per link, paired
        # across algorithms handed the same base seed, and the very stream
        # the fast engine's link draws from
        pairs = []
        for edge in sorted(self._links, key=lambda e: tuple(sorted(self._rank[x] for x in e))):
            u, v = sorted(edge, key=self._rank.__getitem__)
            pairs += ((u, v), (v, u))
        streams = ChannelStreams(
            seed,
            [self._rank[sender] for sender, _ in pairs],
            [self._rank[receiver] for _, receiver in pairs],
        )
        for lid, (sender, receiver) in enumerate(pairs):
            self._channels[(sender, receiver)] = Channel(
                simulator=self.simulator,
                sender=sender,
                receiver=receiver,
                deliver=_weakly(self.processes[receiver].on_message),
                min_delay=min_delay,
                max_delay=max_delay,
                loss_probability=loss_probability,
                draw=streams.drawer(lid),
                fifo=fifo,
            )

        # every node announces its initial height at time zero
        for u in instance.nodes:
            start = _weakly(self.processes[u].on_start)
            self.simulator.schedule(0.0, lambda _sim, start=start: start(), label=f"start {u}")

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run_to_quiescence(self, max_events: int = 1_000_000) -> NetworkReport:
        """Dispatch events until none remain, then summarise the run."""
        self.simulator.run_until_idle(max_events=max_events)
        return self.report()

    def run_for(self, duration: float, max_events: int = 1_000_000) -> NetworkReport:
        """Advance simulated time by ``duration`` and summarise."""
        self.simulator.run(until=self.simulator.now + duration, max_events=max_events)
        return self.report()

    def broadcast_heights(self) -> None:
        """Schedule one anti-entropy round: every node re-announces its height.

        With lossy channels a height update can be lost and never retransmitted,
        which may leave the network short of destination orientation.  Real
        deployments run periodic beacons; this method models one beacon round.
        Call it (followed by :meth:`run_to_quiescence`) until the network
        reports destination orientation.
        """
        for u in self.instance.nodes:
            beacon = _weakly(self.processes[u]._broadcast_height)
            self.simulator.schedule(0.0, lambda _sim, beacon=beacon: beacon(), label=f"beacon {u}")

    def run_with_beacons(
        self, max_rounds: int = 10, max_events_per_round: int = 100_000
    ) -> NetworkReport:
        """Alternate quiescence runs and beacon rounds until destination oriented.

        Returns the report after the final round; gives up (returning the last
        report) after ``max_rounds`` beacon rounds, which only happens if the
        network is partitioned.
        """
        report = self.run_to_quiescence(max_events=max_events_per_round)
        rounds = 0
        while not report.destination_oriented and rounds < max_rounds:
            self.broadcast_heights()
            report = self.run_to_quiescence(max_events=max_events_per_round)
            rounds += 1
        return report

    # ------------------------------------------------------------------
    # topology changes
    # ------------------------------------------------------------------
    def fail_link(self, u: Node, v: Node) -> None:
        """Remove the link ``{u, v}``: channels go down, endpoints are notified."""
        edge = frozenset((u, v))
        if edge not in self._links:
            raise ValueError(f"{u!r}-{v!r} is not a current link")
        self._links.discard(edge)
        for pair in ((u, v), (v, u)):
            channel = self._channels.pop(pair, None)
            if channel is not None:
                channel.fail()
                self._retired_sent += channel.stats.sent
                self._retired_delivered += channel.stats.delivered
                self._retired_lost += channel.stats.in_flight_loss
        self.processes[u].on_link_down(v)
        self.processes[v].on_link_down(u)

    def current_links(self) -> FrozenSet[FrozenSet[Node]]:
        """The current undirected link set."""
        return frozenset(self._links)

    # ------------------------------------------------------------------
    # global views (for verification)
    # ------------------------------------------------------------------
    def true_heights(self) -> Dict[Node, HeightValue]:
        """The actual current height of every node (not any node's local view)."""
        return {u: p.height for u, p in self.processes.items()}

    def global_directed_edges(self) -> Tuple[Tuple[Node, Node], ...]:
        """The orientation induced by the true heights on the current link set."""
        heights = self.true_heights()
        edges: List[Tuple[Node, Node]] = []
        for edge in sorted(self._links, key=lambda e: tuple(sorted(self._rank[x] for x in e))):
            u, v = sorted(edge, key=self._rank.__getitem__)
            if heights[u] > heights[v]:
                edges.append((u, v))
            else:
                edges.append((v, u))
        return tuple(edges)

    def global_orientation(self) -> Optional[Orientation]:
        """The global orientation as an :class:`Orientation`, if the link set is unchanged.

        When links have failed the orientation no longer matches
        the original instance's edge set, so ``None`` is returned and callers
        should use :meth:`global_directed_edges` / :meth:`is_destination_oriented`
        instead.
        """
        if self._links != set(self.instance.undirected_edges):
            return None
        return Orientation.from_directed_edges(self.instance, self.global_directed_edges())

    def is_acyclic(self) -> bool:
        """Heights are totally ordered, so the induced orientation is always acyclic."""
        heights = self.true_heights()
        return len({(h.a, h.b, h.rank) for h in heights.values()}) == len(heights)

    def is_destination_oriented(self) -> bool:
        """Whether every node can currently reach the destination along the induced edges."""
        node_index = self.instance.node_index
        predecessors: List[List[int]] = [[] for _ in self.instance.nodes]
        for tail, head in self.global_directed_edges():
            predecessors[node_index(head)].append(node_index(tail))
        return all(reaching_destination(self.instance, predecessors))

    # ------------------------------------------------------------------
    def report(self) -> NetworkReport:
        """Aggregate statistics of the run so far."""
        sent = self._retired_sent + sum(c.stats.sent for c in self._channels.values())
        delivered = self._retired_delivered + sum(
            c.stats.delivered for c in self._channels.values()
        )
        lost = self._retired_lost + sum(c.stats.in_flight_loss for c in self._channels.values())
        reversals = sum(p.reversal_count for p in self.processes.values())
        return NetworkReport(
            simulated_time=self.simulator.now,
            events_dispatched=self.simulator.events_dispatched,
            messages_sent=sent,
            messages_delivered=delivered,
            messages_lost=lost,
            total_reversals=reversals,
            destination_oriented=self.is_destination_oriented(),
            acyclic=self.is_acyclic(),
        )
