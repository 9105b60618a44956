"""Unit tests for the discrete-event simulator, channels and the async protocol."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.distributed.channel import Channel, Message
from repro.distributed.events import DiscreteEventSimulator
from repro.distributed.network import AsyncLinkReversalNetwork
from repro.distributed.protocol import HeightValue, LinkReversalNodeProcess, ReversalMode
from repro.distributed.streams import ChannelStreams
from repro.topology.generators import (
    build_family,
    chain_instance,
    grid_instance,
    random_dag_instance,
)
from repro.topology.manet import random_geometric_instance


class TestSimulator:
    def test_events_run_in_time_order(self):
        simulator = DiscreteEventSimulator()
        order = []
        simulator.schedule(5.0, lambda s: order.append("late"))
        simulator.schedule(1.0, lambda s: order.append("early"))
        simulator.run_until_idle()
        assert order == ["early", "late"]

    def test_ties_broken_by_insertion_order(self):
        simulator = DiscreteEventSimulator()
        order = []
        simulator.schedule(1.0, lambda s: order.append("first"))
        simulator.schedule(1.0, lambda s: order.append("second"))
        simulator.run_until_idle()
        assert order == ["first", "second"]

    def test_clock_advances(self):
        simulator = DiscreteEventSimulator()
        simulator.schedule(3.5, lambda s: None)
        simulator.run_until_idle()
        assert simulator.now == 3.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DiscreteEventSimulator().schedule(-1.0, lambda s: None)

    def test_run_until(self):
        simulator = DiscreteEventSimulator()
        fired = []
        simulator.schedule(1.0, lambda s: fired.append(1))
        simulator.schedule(10.0, lambda s: fired.append(2))
        simulator.run(until=5.0)
        assert fired == [1]
        assert simulator.pending_events == 1

    def test_cancelled_events_skipped(self):
        simulator = DiscreteEventSimulator()
        fired = []
        event = simulator.schedule(1.0, lambda s: fired.append(1))
        event.cancel()
        simulator.run_until_idle()
        assert fired == []

    def test_events_can_schedule_events(self):
        simulator = DiscreteEventSimulator()
        fired = []

        def first(sim):
            fired.append("first")
            sim.schedule(1.0, lambda s: fired.append("chained"))

        simulator.schedule(1.0, first)
        simulator.run_until_idle()
        assert fired == ["first", "chained"]

    def test_max_events_guard(self):
        simulator = DiscreteEventSimulator()

        def rescheduling(sim):
            sim.schedule(1.0, rescheduling)

        simulator.schedule(1.0, rescheduling)
        dispatched = simulator.run_until_idle(max_events=25)
        assert dispatched == 25

    def test_schedule_at_absolute_time(self):
        simulator = DiscreteEventSimulator()
        times = []
        simulator.schedule_at(4.0, lambda s: times.append(s.now))
        simulator.run_until_idle()
        assert times == [4.0]


class TestChannel:
    def _make_channel(self, **kwargs):
        simulator = DiscreteEventSimulator()
        received = []
        channel = Channel(
            simulator, sender="a", receiver="b", deliver=received.append, **kwargs
        )
        return simulator, channel, received

    def test_delivers_after_delay(self):
        simulator, channel, received = self._make_channel(min_delay=2.0, max_delay=2.0)
        channel.send(Message("a", "b", "HEIGHT", 1))
        simulator.run_until_idle()
        assert len(received) == 1
        assert simulator.now == 2.0
        assert channel.stats.delivered == 1

    def test_loss_probability_drops_messages(self):
        simulator, channel, received = self._make_channel(
            loss_probability=0.5, draw=ChannelStreams(1, [0], [1]).drawer(0)
        )
        for _ in range(50):
            channel.send(Message("a", "b", "HEIGHT", 0))
        simulator.run_until_idle()
        assert channel.stats.dropped > 0
        assert channel.stats.delivered + channel.stats.dropped == 50

    def test_down_channel_loses_messages(self):
        simulator, channel, received = self._make_channel()
        channel.fail()
        channel.send(Message("a", "b", "HEIGHT", 0))
        simulator.run_until_idle()
        assert received == []
        assert channel.stats.lost_to_failure == 1

    def test_failure_loses_in_flight_messages(self):
        simulator, channel, received = self._make_channel(min_delay=5.0, max_delay=5.0)
        channel.send(Message("a", "b", "HEIGHT", 0))
        channel.fail()
        simulator.run_until_idle()
        assert received == []

    def test_invalid_parameters(self):
        simulator = DiscreteEventSimulator()
        with pytest.raises(ValueError):
            Channel(simulator, "a", "b", lambda m: None, min_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError):
            Channel(simulator, "a", "b", lambda m: None, loss_probability=1.0)
        with pytest.raises(ValueError, match="draw stream"):
            Channel(simulator, "a", "b", lambda m: None, loss_probability=0.5)
        with pytest.raises(ValueError, match="draw stream"):
            Channel(simulator, "a", "b", lambda m: None, min_delay=1.0, max_delay=2.0)


class TestNodeProcess:
    def test_local_sink_detection(self):
        sent = []
        process = LinkReversalNodeProcess(
            node="x",
            destination="d",
            initial_height=HeightValue(0, 0, 1),
            neighbours=frozenset({"d"}),
            initial_neighbour_heights={"d": HeightValue(0, 5, 0)},
            send=lambda nbr, msg: sent.append((nbr, msg)),
        )
        assert process.is_local_sink()

    def test_destination_never_a_sink(self):
        process = LinkReversalNodeProcess(
            node="d",
            destination="d",
            initial_height=HeightValue(0, 0, 0),
            neighbours=frozenset({"x"}),
            initial_neighbour_heights={"x": HeightValue(0, 5, 1)},
            send=lambda nbr, msg: None,
        )
        assert not process.is_local_sink()

    def test_reversal_raises_height_and_broadcasts(self):
        sent = []
        process = LinkReversalNodeProcess(
            node="x",
            destination="d",
            initial_height=HeightValue(0, 0, 1),
            neighbours=frozenset({"d"}),
            initial_neighbour_heights={"d": HeightValue(0, 5, 0)},
            send=lambda nbr, msg: sent.append((nbr, msg)),
        )
        process.maybe_reverse()
        assert process.reversal_count == 1
        assert process.height > HeightValue(0, 5, 0)
        assert sent  # the new height was broadcast

    def test_full_mode_rises_above_maximum(self):
        process = LinkReversalNodeProcess(
            node="x",
            destination="d",
            initial_height=HeightValue(0, 0, 2),
            neighbours=frozenset({"d", "y"}),
            initial_neighbour_heights={
                "d": HeightValue(3, 0, 0),
                "y": HeightValue(7, 0, 1),
            },
            send=lambda nbr, msg: None,
            mode=ReversalMode.FULL,
        )
        process.maybe_reverse()
        assert process.height.a == 8

    def test_link_down_removes_neighbour(self):
        process = LinkReversalNodeProcess(
            node="x",
            destination="d",
            initial_height=HeightValue(0, 0, 1),
            neighbours=frozenset({"d", "y"}),
            initial_neighbour_heights={
                "d": HeightValue(0, 1, 0),
                "y": HeightValue(0, -5, 2),
            },
            send=lambda nbr, msg: None,
        )
        assert not process.is_local_sink()  # y is below x
        process.on_link_down("y")
        assert "y" not in process.neighbours

    def test_stale_message_from_unknown_sender_ignored(self):
        process = LinkReversalNodeProcess(
            node="x",
            destination="d",
            initial_height=HeightValue(0, 0, 1),
            neighbours=frozenset({"d"}),
            initial_neighbour_heights={"d": HeightValue(0, 5, 0)},
            send=lambda nbr, msg: None,
        )
        process.on_message(Message("ghost", "x", "HEIGHT", HeightValue(9, 9, 9)))
        assert "ghost" not in process.neighbour_heights


class TestAsyncNetwork:
    """Experiment E17: asynchronous executions converge and stay acyclic."""

    def test_converges_on_bad_chain(self):
        instance = chain_instance(8, towards_destination=False)
        network = AsyncLinkReversalNetwork(instance, seed=1)
        report = network.run_to_quiescence()
        assert report.destination_oriented
        assert report.acyclic
        assert report.total_reversals > 0

    def test_converges_on_grid(self):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        network = AsyncLinkReversalNetwork(instance, seed=2)
        report = network.run_to_quiescence()
        assert report.destination_oriented

    def test_converges_with_full_reversal_mode(self):
        instance = chain_instance(8, towards_destination=False)
        network = AsyncLinkReversalNetwork(instance, mode=ReversalMode.FULL, seed=3)
        report = network.run_to_quiescence()
        assert report.destination_oriented

    def test_already_oriented_instance_needs_no_reversals(self):
        instance, _ = random_geometric_instance(15, radius=0.4, seed=6)
        network = AsyncLinkReversalNetwork(instance, seed=6)
        report = network.run_to_quiescence()
        assert report.destination_oriented
        assert report.total_reversals == 0

    def test_link_failure_triggers_recovery(self):
        instance = grid_instance(3, 3, oriented_towards_destination=True)
        network = AsyncLinkReversalNetwork(instance, seed=4)
        network.run_to_quiescence()
        # fail a link on the unique route of the far corner's neighbourhood
        network.fail_link(7, 8)
        report = network.run_to_quiescence()
        assert report.destination_oriented
        assert report.acyclic

    def test_partition_cannot_recover(self):
        """Classic GB behaviour: in a partition the reversal cascade never settles.

        The run is therefore bounded by ``max_events``; the partitioned side
        keeps reversing and the network never becomes destination oriented
        (real deployments layer partition detection on top, as TORA does).
        """
        instance = chain_instance(4, towards_destination=True)
        network = AsyncLinkReversalNetwork(instance, seed=5)
        network.run_to_quiescence()
        network.fail_link(0, 1)  # disconnects everything from the destination
        report = network.run_for(duration=200.0, max_events=5000)
        assert not report.destination_oriented
        assert report.acyclic

    def test_global_orientation_available_when_links_unchanged(self):
        instance = chain_instance(6, towards_destination=False)
        network = AsyncLinkReversalNetwork(instance, seed=9)
        network.run_to_quiescence()
        orientation = network.global_orientation()
        assert orientation is not None
        assert orientation.is_destination_oriented()

    def test_global_orientation_none_after_topology_change(self):
        instance = grid_instance(3, 3, oriented_towards_destination=True)
        network = AsyncLinkReversalNetwork(instance, seed=10)
        network.run_to_quiescence()
        network.fail_link(7, 8)
        assert network.global_orientation() is None

    def test_fail_unknown_link_rejected(self):
        instance = chain_instance(4, towards_destination=True)
        network = AsyncLinkReversalNetwork(instance, seed=11)
        with pytest.raises(ValueError):
            network.fail_link(0, 3)

    def test_message_statistics_accumulate(self):
        instance = chain_instance(8, towards_destination=False)
        network = AsyncLinkReversalNetwork(instance, seed=12)
        report = network.run_to_quiescence()
        assert report.messages_sent >= report.messages_delivered
        assert report.messages_sent > 0

    def test_random_delays_still_converge(self):
        instance = random_dag_instance(15, edge_probability=0.25, seed=3)
        network = AsyncLinkReversalNetwork(instance, min_delay=0.5, max_delay=5.0, seed=13)
        report = network.run_to_quiescence()
        assert report.destination_oriented
        assert report.acyclic


class TestOracleLifetime:
    """The oracle's twin of the compiled network's reference-counting test."""

    @pytest.mark.parametrize("config", ((1.0, 1.0, False, 0.0), (0.5, 3.0, False, 0.25)))
    def test_finished_network_is_freed_by_reference_counting(self, config):
        # no reference cycle through the senders, deliverers, scheduled
        # callbacks or delivery events: with the cycle collector off,
        # dropping the last reference frees the network and its parts
        min_delay, max_delay, fifo, loss = config
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            network = AsyncLinkReversalNetwork(
                build_family("grid", 16, 1), min_delay=min_delay, max_delay=max_delay,
                loss_probability=loss, seed=3, fifo=fifo,
            )
            network.run_with_beacons(max_rounds=20)
            network.fail_link(*sorted(network.current_links(), key=sorted)[0])
            network.run_with_beacons(max_rounds=20)
            refs = [
                weakref.ref(part) for part in (
                    network, network.simulator,
                    *network.processes.values(), *network._channels.values(),
                )
            ]
            del network
            assert all(ref() is None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("run_for", (None, 2.0), ids=("unstarted", "mid-run"))
    def test_network_with_queued_events_is_freed_by_reference_counting(self, run_for):
        # start or delivery events still queued: the queue holds events and
        # events their callbacks, so none of them may hold the simulator, a
        # channel or a process strongly
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            network = AsyncLinkReversalNetwork(build_family("grid", 16, 1), seed=3)
            if run_for is not None:
                network.run_for(run_for)
            assert network.simulator.pending_events > 0
            refs = [
                weakref.ref(part) for part in (
                    network, network.simulator,
                    *network.processes.values(), *network._channels.values(),
                )
            ]
            del network
            assert all(ref() is None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()


class TestBeaconing:
    """Anti-entropy beacon rounds recover destination orientation under message loss."""

    def test_lossy_network_recovers_with_beacons(self):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        network = AsyncLinkReversalNetwork(
            instance, min_delay=0.5, max_delay=2.0, loss_probability=0.3, seed=17
        )
        report = network.run_with_beacons(max_rounds=20)
        assert report.acyclic
        assert report.destination_oriented

    def test_beacons_are_noop_when_already_oriented(self):
        instance = chain_instance(6, towards_destination=True)
        network = AsyncLinkReversalNetwork(instance, seed=3)
        first = network.run_to_quiescence()
        assert first.destination_oriented
        reversals_before = first.total_reversals
        network.broadcast_heights()
        second = network.run_to_quiescence()
        assert second.total_reversals == reversals_before

    def test_run_with_beacons_gives_up_on_partition(self):
        instance = chain_instance(4, towards_destination=True)
        network = AsyncLinkReversalNetwork(instance, seed=4)
        network.run_to_quiescence()
        network.fail_link(0, 1)
        report = network.run_with_beacons(max_rounds=2, max_events_per_round=2000)
        assert not report.destination_oriented


class TestPendingEventAccounting:
    """Regression: cancelled events must not inflate pending_events or the queue."""

    def test_pending_events_excludes_cancelled(self):
        simulator = DiscreteEventSimulator()
        events = [simulator.schedule(1.0, lambda s: None) for _ in range(10)]
        assert simulator.pending_events == 10
        for event in events[:4]:
            event.cancel()
        assert simulator.pending_events == 6

    def test_double_cancel_counted_once(self):
        simulator = DiscreteEventSimulator()
        event = simulator.schedule(1.0, lambda s: None)
        simulator.schedule(2.0, lambda s: None)
        event.cancel()
        event.cancel()
        assert simulator.pending_events == 1

    def test_queue_compacts_under_heavy_cancellation(self):
        simulator = DiscreteEventSimulator()
        events = [simulator.schedule(1.0, lambda s: None) for _ in range(500)]
        for event in events[:400]:
            event.cancel()
        assert simulator.pending_events == 100
        # compaction is amortised: the heap may keep up to one threshold's
        # worth of cancelled stragglers, but never the cancelled majority
        assert len(simulator._queue) <= 2 * simulator.pending_events

    def test_compacted_queue_still_dispatches_in_order(self):
        simulator = DiscreteEventSimulator()
        order = []
        events = [
            simulator.schedule(float(i), lambda s, i=i: order.append(i))
            for i in range(300)
        ]
        for event in events:
            if event.time % 2 == 1:
                event.cancel()
        simulator.run_until_idle()
        assert order == [i for i in range(300) if i % 2 == 0]
        assert simulator.pending_events == 0

    def test_cancelling_a_dispatched_event_is_inert(self):
        simulator = DiscreteEventSimulator()
        event = simulator.schedule(1.0, lambda s: None)
        still_queued = simulator.schedule(2.0, lambda s: None)
        simulator.run(until=1.5)
        event.cancel()  # already dispatched: must not corrupt the accounting
        assert simulator.pending_events == 1
        still_queued.cancel()
        assert simulator.pending_events == 0

    def test_cancelled_events_popped_without_compaction_keep_count_right(self):
        simulator = DiscreteEventSimulator()
        kept = []
        first = simulator.schedule(1.0, lambda s: kept.append("a"))
        simulator.schedule(2.0, lambda s: kept.append("b"))
        first.cancel()
        simulator.run_until_idle()
        assert kept == ["b"]
        assert simulator.pending_events == 0


class TestChannelLossAccounting:
    """Regression: delivered messages must not be re-counted as lost on fail()."""

    def test_delivered_messages_not_lost_on_later_failure(self):
        simulator = DiscreteEventSimulator()
        received = []
        channel = Channel(simulator, "a", "b", received.append)
        for _ in range(5):
            channel.send(Message("a", "b", "HEIGHT", 0))
        simulator.run_until_idle()
        assert len(received) == 5
        channel.fail()
        assert channel.stats.lost_to_failure == 0
        assert channel.stats.delivered == 5

    def test_only_in_flight_messages_lost_on_failure(self):
        simulator = DiscreteEventSimulator()
        received = []
        channel = Channel(simulator, "a", "b", received.append, min_delay=5.0, max_delay=5.0)
        channel.send(Message("a", "b", "HEIGHT", 0))
        simulator.run_until_idle()
        channel.send(Message("a", "b", "HEIGHT", 1))
        channel.send(Message("a", "b", "HEIGHT", 2))
        channel.fail()
        simulator.run_until_idle()
        assert len(received) == 1
        assert channel.stats.lost_to_failure == 2
        assert channel.stats.sent == 3


class TestFifoChannel:
    """The fifo clamp keeps randomly delayed channels first-in-first-out."""

    def test_fifo_preserves_send_order(self):
        simulator = DiscreteEventSimulator()
        received = []
        channel = Channel(
            simulator, "a", "b", received.append,
            min_delay=0.1, max_delay=10.0,
            draw=ChannelStreams(5, [0], [1]).drawer(0), fifo=True,
        )
        for i in range(50):
            channel.send(Message("a", "b", "HEIGHT", i))
        simulator.run_until_idle()
        assert [m.payload for m in received] == list(range(50))

    def test_unclamped_random_delays_can_reorder(self):
        simulator = DiscreteEventSimulator()
        received = []
        channel = Channel(
            simulator, "a", "b", received.append,
            min_delay=0.1, max_delay=10.0,
            draw=ChannelStreams(5, [0], [1]).drawer(0), fifo=False,
        )
        for i in range(50):
            channel.send(Message("a", "b", "HEIGHT", i))
        simulator.run_until_idle()
        assert [m.payload for m in received] != list(range(50))


class TestDerivedChannelSeeds:
    """Per-link streams are keyed by the base seed and the link's ranks."""

    def test_runs_reproducible_for_same_seed(self):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        reports = [
            AsyncLinkReversalNetwork(
                instance, min_delay=0.5, max_delay=2.0, loss_probability=0.2, seed=11
            ).run_to_quiescence()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_different_seeds_give_different_channel_streams(self):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        a = AsyncLinkReversalNetwork(
            instance, min_delay=0.5, max_delay=2.0, loss_probability=0.2, seed=11
        ).run_to_quiescence()
        b = AsyncLinkReversalNetwork(
            instance, min_delay=0.5, max_delay=2.0, loss_probability=0.2, seed=12
        ).run_to_quiescence()
        assert a != b
