"""Differential suite: the compiled async engine against the object oracle.

:class:`~repro.distributed.fast_network.FastAsyncNetwork` must be a
behavioural twin of :class:`~repro.distributed.network.AsyncLinkReversalNetwork`
(the documented oracle): for the same instance, mode, delay model, loss rate,
seed and churn sequence, the two engines must produce field-for-field
identical :class:`NetworkReport` values, the same induced global orientation
and the same true heights.  Property tests cover FIFO ordering and loss
accounting under seeded churn, plus the packed-height encoding itself.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref

import pytest

from repro.distributed.fast_network import (
    FastAsyncNetwork,
    pack_height,
    unpack_height,
)
from repro.distributed.network import (
    DELAY_MODELS,
    AsyncLinkReversalNetwork,
    initial_height_levels,
)
from repro.distributed.protocol import HeightValue, ReversalMode
from repro.kernels.simulator import DeadlineExceeded
from repro.topology.generators import build_family, chain_instance, grid_instance

MODES = (ReversalMode.PARTIAL, ReversalMode.FULL)

#: (min_delay, max_delay, fifo, loss) channel configurations under test.
CHANNEL_CONFIGS = (
    (0.0, 0.0, False, 0.0),    # the "zero" delay model
    (1.0, 1.0, False, 0.0),    # "fixed"
    (1.0, 2.0, False, 0.0),    # "uniform"
    (1.0, 2.0, True, 0.0),     # "fifo"
    (0.5, 3.0, False, 0.25),   # lossy uniform
    (1.0, 1.0, False, 0.15),   # lossy fixed
    (1.0, 2.0, True, 0.2),     # lossy fifo
)


def _pair(instance, mode, config, seed):
    min_delay, max_delay, fifo, loss = config
    kwargs = dict(
        mode=mode,
        min_delay=min_delay,
        max_delay=max_delay,
        loss_probability=loss,
        seed=seed,
        fifo=fifo,
    )
    return (
        AsyncLinkReversalNetwork(instance, **kwargs),
        FastAsyncNetwork(instance, **kwargs),
    )


def _assert_twins(obj, fast):
    assert dataclasses.asdict(obj.report()) == dataclasses.asdict(fast.report())
    assert obj.global_directed_edges() == fast.global_directed_edges()
    assert obj.true_heights() == fast.true_heights()
    assert obj.current_links() == fast.current_links()


class TestQuiescenceParity:
    @pytest.mark.parametrize("family,size", [
        ("chain", 10), ("grid", 16), ("random-dag", 18), ("tree", 12),
        ("star", 9), ("layered", 16),
    ])
    @pytest.mark.parametrize("mode", MODES)
    def test_report_orientation_and_heights_match(self, family, size, mode):
        for config in CHANNEL_CONFIGS:
            for seed in (0, 7):
                instance = build_family(family, size, 3)
                obj, fast = _pair(instance, mode, config, seed)
                obj.run_to_quiescence()
                fast.run_to_quiescence()
                _assert_twins(obj, fast)

    def test_global_orientation_object_parity(self):
        instance = chain_instance(8, towards_destination=False)
        obj, fast = _pair(instance, ReversalMode.PARTIAL, (1.0, 2.0, False, 0.0), 5)
        obj.run_to_quiescence()
        fast.run_to_quiescence()
        assert obj.global_orientation() == fast.global_orientation()
        assert fast.global_orientation().is_destination_oriented()

    def test_event_budget_truncation_matches(self):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        obj, fast = _pair(instance, ReversalMode.FULL, (1.0, 2.0, False, 0.0), 2)
        obj.run_to_quiescence(max_events=40)
        fast.run_to_quiescence(max_events=40)
        _assert_twins(obj, fast)

    def test_run_for_advances_identically(self):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        obj, fast = _pair(instance, ReversalMode.PARTIAL, (0.5, 3.0, False, 0.0), 9)
        for duration in (1.5, 2.0, 10.0):
            obj.run_for(duration)
            fast.run_for(duration)
            _assert_twins(obj, fast)


#: The channel configurations churn runs under: zero, fixed, lossy fixed,
#: uniform, fifo and lossy fifo.
CHURN_CONFIGS = (
    (0.0, 0.0, False, 0.0),
    (1.0, 1.0, False, 0.0),
    (1.0, 1.0, False, 0.2),
    (1.0, 2.0, False, 0.0),
    (1.0, 2.0, True, 0.0),
    (1.0, 2.0, True, 0.1),
)


def _fail_drawn_link(obj, fast, rng):
    """Fail one link drawn from the survivors in both engines, skipping partitions."""
    while True:
        links = fast.sorted_link_pairs()
        u, v = links[rng.randrange(len(links))]
        if not fast.link_would_partition(u, v):
            break
    obj.fail_link(u, v)
    fast.fail_link(u, v)


class TestChurnParity:
    @pytest.mark.parametrize("config", CHURN_CONFIGS)
    def test_successive_failures(self, config):
        for seed in (1, 5):
            instance = build_family("grid", 16, 2)
            obj, fast = _pair(instance, ReversalMode.PARTIAL, config, seed)
            rng = random.Random(seed)
            for duration in (3.0, 5.0):
                # messages are in flight when each link fails
                obj.run_for(duration)
                fast.run_for(duration)
                _fail_drawn_link(obj, fast, rng)
                _assert_twins(obj, fast)
            obj.run_to_quiescence()
            fast.run_to_quiescence()
            _assert_twins(obj, fast)

    @pytest.mark.parametrize("config", CHURN_CONFIGS)
    @pytest.mark.parametrize("mode", MODES)
    def test_failures_between_quiescent_phases(self, config, mode):
        instance = grid_instance(3, 4, oriented_towards_destination=False)
        obj, fast = _pair(instance, mode, config, 11)
        rng = random.Random(11)
        for _ in range(3):
            obj.run_for(2.0)
            fast.run_for(2.0)
            _fail_drawn_link(obj, fast, rng)
            _assert_twins(obj, fast)
            obj.run_to_quiescence()
            fast.run_to_quiescence()
            _assert_twins(obj, fast)

    def test_partition_behaviour_matches(self):
        instance = chain_instance(4, towards_destination=True)
        obj, fast = _pair(instance, ReversalMode.PARTIAL, (1.0, 2.0, False, 0.0), 5)
        obj.run_to_quiescence()
        fast.run_to_quiescence()
        obj.fail_link(0, 1)
        fast.fail_link(0, 1)
        ro = obj.run_for(duration=200.0, max_events=5000)
        rf = fast.run_for(duration=200.0, max_events=5000)
        assert dataclasses.asdict(ro) == dataclasses.asdict(rf)
        assert not rf.destination_oriented
        assert rf.acyclic

    def test_fail_unknown_link_rejected_like_oracle(self):
        instance = chain_instance(4, towards_destination=True)
        fast = FastAsyncNetwork(instance, seed=1)
        with pytest.raises(ValueError):
            fast.fail_link(0, 3)

    def test_beacon_rounds_match_under_loss(self):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        obj, fast = _pair(instance, ReversalMode.PARTIAL, (0.5, 2.0, False, 0.3), 17)
        ro = obj.run_with_beacons(max_rounds=20)
        rf = fast.run_with_beacons(max_rounds=20)
        assert dataclasses.asdict(ro) == dataclasses.asdict(rf)
        assert rf.destination_oriented


class TestFastEngineExtras:
    """Capabilities the compiled engine adds beyond the oracle's API."""

    def test_advance_is_run_for_without_the_report(self):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        stepped = FastAsyncNetwork(instance, min_delay=1.0, max_delay=2.0, seed=4)
        reported = FastAsyncNetwork(instance, min_delay=1.0, max_delay=2.0, seed=4)
        for duration in (0.5, 1.0, 3.0, 50.0):
            before = stepped.events_dispatched
            dispatched = stepped.advance(duration)
            assert dispatched == stepped.events_dispatched - before
            assert dataclasses.asdict(stepped.report()) == dataclasses.asdict(
                reported.run_for(duration)
            )

    def test_quiescent_flag(self):
        instance = chain_instance(8, towards_destination=False)
        fast = FastAsyncNetwork(instance, seed=1)
        assert not fast.quiescent()
        fast.run_to_quiescence()
        assert fast.quiescent()

    @pytest.mark.parametrize("config", (CHANNEL_CONFIGS[1], CHANNEL_CONFIGS[4]))
    def test_finished_network_is_freed_by_reference_counting(self, config):
        # no reference cycle through the compiled broadcast closure: with the
        # cycle collector off, dropping the last reference frees the network
        min_delay, max_delay, fifo, loss = config
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            fast = FastAsyncNetwork(
                build_family("grid", 16, 1), min_delay=min_delay, max_delay=max_delay,
                loss_probability=loss, seed=3, fifo=fifo,
            )
            fast.run_to_quiescence()
            ref = weakref.ref(fast)
            del fast
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_quiescent_sees_through_stale_events(self):
        # fail a link with messages in flight: the stale heap entries must
        # not count as pending work
        instance = grid_instance(3, 3, oriented_towards_destination=True)
        fast = FastAsyncNetwork(instance, min_delay=5.0, max_delay=5.0, seed=2)
        fast.run_for(0.5)  # starts dispatched, deliveries still in flight
        fast.fail_link(7, 8)
        fast.run_to_quiescence()
        assert fast.quiescent()

    def test_deadline_raises_and_keeps_partial_state(self):
        instance = chain_instance(40, towards_destination=False)
        fast = FastAsyncNetwork(instance, seed=3)
        with pytest.raises(DeadlineExceeded):
            fast.run_to_quiescence(deadline=0.0)
        assert fast.events_dispatched >= 1

    def test_work_counters_track_reversals_and_flips(self):
        instance = chain_instance(8, towards_destination=False)
        fast = FastAsyncNetwork(instance, seed=1)
        report = fast.run_to_quiescence()
        assert fast.total_reversals() == report.total_reversals > 0
        assert fast.edge_flips > 0
        sent, delivered, lost = fast.message_counts()
        assert (sent, delivered, lost) == (
            report.messages_sent, report.messages_delivered, report.messages_lost
        )

    def test_initial_heights_share_the_oracle_levels(self):
        instance = grid_instance(3, 3, oriented_towards_destination=True)
        levels = initial_height_levels(instance)
        fast = FastAsyncNetwork(instance, seed=0)
        for node, height in fast.true_heights().items():
            assert height == HeightValue(a=0, b=levels[node], rank=height.rank)


class TestFifoAndLossProperties:
    """Property tests: FIFO ordering and loss accounting under seeded churn."""

    @pytest.mark.parametrize("model", ("zero", "fixed", "fifo"))
    def test_fifo_models_never_reorder_messages(self, model):
        # a node's knowledge of a neighbour only ever increases; under FIFO
        # delivery the heights arriving on one link are non-decreasing, so
        # every delivered height is accepted or equal — we check the stronger
        # invariant directly on the oracle's channel layer
        from repro.distributed.channel import Channel, Message
        from repro.distributed.events import DiscreteEventSimulator
        from repro.distributed.streams import ChannelStreams

        min_delay, max_delay, fifo = DELAY_MODELS[model]
        for seed in range(5):
            simulator = DiscreteEventSimulator()
            received = []
            channel = Channel(
                simulator, "a", "b", received.append,
                min_delay=min_delay, max_delay=max_delay,
                draw=ChannelStreams(seed, [0], [1]).drawer(0), fifo=fifo,
            )
            for i in range(40):
                channel.send(Message("a", "b", "HEIGHT", i))
                simulator.run(until=simulator.now + 0.01)
            simulator.run_until_idle()
            payloads = [m.payload for m in received]
            assert payloads == sorted(payloads)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("loss", (0.0, 0.2))
    def test_loss_accounting_balances_under_churn(self, mode, loss):
        for seed in range(4):
            instance = build_family("grid", 16, seed)
            fast = FastAsyncNetwork(
                instance, mode=mode, min_delay=0.5, max_delay=2.0,
                loss_probability=loss, seed=seed,
            )
            fast.run_for(2.0)
            rng = random.Random(seed)
            for _ in range(3):
                links = fast.sorted_link_pairs()
                u, v = links[rng.randrange(len(links))]
                if fast.link_would_partition(u, v):
                    continue
                fast.fail_link(u, v)
                fast.run_for(2.0)
            report = fast.run_to_quiescence()
            # at quiescence every sent message was delivered, dropped by the
            # loss coin, or lost to a link failure — nothing in flight and
            # nothing double-counted
            assert report.messages_sent == report.messages_delivered + report.messages_lost
            if loss == 0.0:
                sent, delivered, lost = fast.message_counts()
                assert lost == sum(fast._lost_failure)  # only failures lose messages

    def test_zero_loss_no_churn_loses_nothing(self):
        instance = build_family("random-dag", 20, 1)
        fast = FastAsyncNetwork(instance, min_delay=1.0, max_delay=2.0, seed=4)
        report = fast.run_to_quiescence()
        assert report.messages_lost == 0
        assert report.messages_sent == report.messages_delivered


class TestPackedHeights:
    def test_pack_unpack_round_trip(self):
        for triple in ((0, 0, 0), (5, -17, 3), (123456, -987654, 1048575), (1, 2**40, 7)):
            assert unpack_height(pack_height(*triple)) == triple

    def test_packed_order_is_lexicographic(self):
        triples = [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, -1, 5), (1, -100, 0),
            (1, 0, 0), (2, -5, 3), (2, -5, 4),
        ]
        packed = [pack_height(*t) for t in triples]
        assert sorted(packed) == [pack_height(*t) for t in sorted(triples)]

    def test_b_overflow_rejected(self):
        with pytest.raises(OverflowError):
            pack_height(0, 2**50, 0)

    def test_node_count_bound_enforced(self):
        # the rank field is 20 bits; the constructor must reject bigger graphs
        # (constructing one is infeasible here, so check the guard constant)
        from repro.distributed.fast_network import _R_MASK

        assert _R_MASK == (1 << 20) - 1
