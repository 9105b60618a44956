"""Networks built from a shared :class:`NetworkTemplate` behave like cold builds.

The async engine builds every network of a topology cell from one template
and the data-plane engine interleaves such networks slot by slot, so the
template must hold nothing a network changes: a network built from a
template that other networks already ran and churned on must report, orient,
draw and count exactly like one that built its own.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.graph import reaching_destination
from repro.distributed.fast_network import FastAsyncNetwork, NetworkTemplate
from repro.distributed.network import DELAY_MODELS
from repro.distributed.protocol import ReversalMode
from repro.distributed.streams import BLOCK
from repro.topology.generators import build_family, grid_instance

SEED = 23

#: (delay model, loss) channel configurations under test
CONFIGS = [(model, loss) for model in ("zero", "fixed", "uniform", "fifo") for loss in (0.0, 0.1)]

MODES = (ReversalMode.PARTIAL, ReversalMode.FULL)


def _network(instance, mode, config, template=None):
    model, loss = config
    min_delay, max_delay, fifo = DELAY_MODELS[model]
    return FastAsyncNetwork(
        instance, mode=mode, min_delay=min_delay, max_delay=max_delay,
        loss_probability=loss, seed=SEED, fifo=fifo, template=template,
    )


def _churn(network, failure_seed):
    """Quiesce, then two seeded link failures, each followed by quiescence."""
    network.run_with_beacons(max_rounds=20)
    rng = random.Random(failure_seed)
    for _ in range(2):
        links = network.sorted_link_pairs()
        u, v = links[rng.randrange(len(links))]
        if not network.link_would_partition(u, v):
            network.fail_link(u, v)
        network.run_with_beacons(max_rounds=20)


def _next_draws(network):
    """Every link's next four draws: equal lists mean equal stream positions."""
    streams = network._streams
    if streams is None:
        return None
    return [
        [draw() for _ in range(4)]
        for draw in map(streams.drawer, range(len(network._link_from)))
    ]


def _state(network):
    """What a run shows: report, orientation, heights, links and counters."""
    return (
        dataclasses.asdict(network.report()),
        network.global_directed_edges(),
        network.true_heights(),
        network.sorted_link_pairs(),
        list(network._sent), list(network._delivered), list(network._dropped),
        list(network._lost_failure), list(network.reversal_counts),
        network.edge_flips, network.dummy_reversals, network.beacon_rounds,
        network.events_dispatched, network.now, network.quiescent(),
    )


@pytest.fixture(scope="module")
def instance():
    return build_family("grid", 16, 3)


class TestSharedTemplateParity:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("mode", MODES)
    def test_template_build_equals_cold_build(self, instance, mode, config):
        cold = _network(instance, mode, config)
        warm = _network(instance, mode, config, NetworkTemplate(instance, SEED))
        assert _state(warm) == _state(cold)
        _churn(cold, 7)
        _churn(warm, 7)
        assert _state(warm) == _state(cold)
        assert _next_draws(warm) == _next_draws(cold)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_a_used_template_builds_the_same_network(self, instance, config):
        # lane A runs and churns first (in the other mode, on other links);
        # lane B, built afterwards from the same template, must not notice
        template = NetworkTemplate(instance, SEED)
        for other in CONFIGS:
            _churn(_network(instance, ReversalMode.FULL, other, template), 3)
        assert len(template.stream_blocks().blocks[0]) > BLOCK  # lane A grew the draws
        lane_b = _network(instance, ReversalMode.PARTIAL, config, template)
        cold = _network(instance, ReversalMode.PARTIAL, config)
        _churn(lane_b, 7)
        _churn(cold, 7)
        assert _state(lane_b) == _state(cold)
        assert _next_draws(lane_b) == _next_draws(cold)

    def test_a_used_template_keeps_its_tables(self, instance):
        template = NetworkTemplate(instance, SEED)
        for config in CONFIGS:
            for mode in MODES:
                _churn(_network(instance, mode, config, template), 5)
        fresh = NetworkTemplate(instance, SEED)
        for name in (
            "heights", "known", "blocking", "link_from", "link_to", "bcast_links",
            "pair_eids", "id_pairs", "node_pairs", "all_alive", "start_events",
        ):
            assert getattr(template, name) == getattr(fresh, name), name

    @pytest.mark.parametrize("mode", MODES)
    def test_interleaved_lanes_equal_lanes_run_alone(self, instance, mode):
        # the data plane steps the lanes of one cell slot by slot, so their
        # reads of the shared stream blocks interleave
        template = NetworkTemplate(instance, SEED)
        lanes = [_network(instance, mode, config, template) for config in CONFIGS]
        alone = [_network(instance, mode, config) for config in CONFIGS]
        rng = random.Random(2)
        for step in range(60):
            if step in (20, 40):
                # every network has failed the same links so far
                links = alone[0].sorted_link_pairs()
                u, v = links[rng.randrange(len(links))]
                if not alone[0].link_would_partition(u, v):
                    for network in (*lanes, *alone):
                        network.fail_link(u, v)
            for network in (*lanes, *alone):
                network.advance(1.0)
                if step % 16 == 15 and network.quiescent():
                    network.broadcast_heights()
        for lane, cold in zip(lanes, alone):
            assert _state(lane) == _state(cold)
            assert _next_draws(lane) == _next_draws(cold)

    def test_template_of_another_cell_is_refused(self, instance):
        template = NetworkTemplate(instance, SEED)
        with pytest.raises(ValueError, match="another instance or channel seed"):
            FastAsyncNetwork(instance, seed=SEED + 1, template=template)
        with pytest.raises(ValueError, match="another instance or channel seed"):
            FastAsyncNetwork(build_family("grid", 16, 3), seed=SEED, template=template)


def _reaches_destination(network):
    """The induced orientation's search from the destination (the old rule)."""
    heights = network._height
    predecessors = [[] for _ in network._nodes]
    for lo, hi in network.sorted_link_id_pairs():
        tail, head = (lo, hi) if heights[lo] > heights[hi] else (hi, lo)
        predecessors[head].append(tail)
    return all(reaching_destination(network.instance, predecessors))


class TestOrientationRule:
    @pytest.mark.parametrize("mode", MODES)
    def test_lower_neighbour_rule_equals_the_search(self, mode):
        instance = grid_instance(4, 4, oriented_towards_destination=False)
        network = FastAsyncNetwork(instance, mode=mode, min_delay=1.0, max_delay=2.0, seed=4)
        rng = random.Random(4)
        seen = []
        for step in range(80):
            network.advance(0.5)
            if step in (30, 60):
                links = network.sorted_link_pairs()
                u, v = links[rng.randrange(len(links))]
                network.fail_link(u, v)
            oriented = network.is_destination_oriented()
            assert oriented == _reaches_destination(network)
            seen.append(oriented)
        # the rule meets both answers: before, during and after repairs
        assert True in seen and False in seen

    def test_a_cut_off_node_is_not_oriented(self):
        instance = grid_instance(3, 3, oriented_towards_destination=True)
        network = FastAsyncNetwork(instance, seed=1)
        network.run_to_quiescence()
        assert network.is_destination_oriented()
        corner = next(u for u in instance.nodes if len(network.neighbour_ids(
            instance.node_index(u))) == 2 and u != instance.destination)
        for v in list(instance.nbrs(corner)):
            network.fail_link(corner, v)
        assert not network.is_destination_oriented()
        assert not _reaches_destination(network)
