"""The counter-based channel streams: formula, uniformity, independence, pairing.

:class:`~repro.distributed.streams.ChannelStreams` is pinned here against a
pure-Python SplitMix64 written out from its documented formula, its draws
are checked for uniformity at fixed seeds, and both async networks are shown
to read one stream per link whatever the protocol.
"""

from __future__ import annotations

import math

import pytest

from repro.distributed.fast_network import FastAsyncNetwork
from repro.distributed.network import AsyncLinkReversalNetwork
from repro.distributed.protocol import ReversalMode
from repro.distributed.streams import (
    BLOCK,
    KEPT_DRAWS,
    TABLE_DRAWS,
    ChannelStreams,
    StreamBlocks,
)
from repro.topology.generators import build_family

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _expected_draws(seed: int, sender: int, receiver: int, count: int):
    """Draws ``0 .. count - 1`` of one link, straight from the counter formula."""
    key = _mix(_mix((seed + _GAMMA) & _MASK) ^ (sender << 32 | receiver))
    return [(_mix((key + (j + 1) * _GAMMA) & _MASK) >> 11) * 2.0**-53 for j in range(count)]


def _chi_square_uniform(values, bins: int = 20) -> float:
    """The chi-square statistic of ``values`` in ``[0, 1)`` against uniform bins."""
    counts = [0] * bins
    for value in values:
        counts[int(value * bins)] += 1
    expected = len(values) / bins
    return sum((c - expected) ** 2 / expected for c in counts)


#: (sender, receiver) ranks of a few links, including both directions of one
LINKS = ((0, 1), (1, 0), (7, 3), (1048575, 2), (5, 5))


class TestCounterFormula:
    @pytest.mark.parametrize("seed", (0, 1, -5, 2**63 - 1, 6059224078317680019))
    def test_draws_past_block_boundaries_equal_the_formula(self, seed):
        count = 3 * BLOCK + 7
        streams = ChannelStreams(seed, *zip(*LINKS))
        for lid, (sender, receiver) in enumerate(LINKS):
            draw = streams.drawer(lid)
            assert [draw() for _ in range(count)] == _expected_draws(
                seed, sender, receiver, count
            )

    def test_iterator_and_refill_protocol_equals_the_drawer(self):
        # the fast network's inlined read: next(draws[lid]), refill when dry
        streams = ChannelStreams(11, *zip(*LINKS))
        got = []
        for _ in range(45):
            try:
                got.append(next(streams.draws[2]))
            except StopIteration:
                got.append(streams.refill(2))
        assert got == _expected_draws(11, 7, 3, 45)

    def test_seed_is_taken_modulo_two_to_the_64(self):
        a = ChannelStreams(3, [0], [1]).drawer(0)
        b = ChannelStreams(3 + (1 << 64), [0], [1]).drawer(0)
        assert [a() for _ in range(20)] == [b() for _ in range(20)]

    def test_no_links(self):
        assert ChannelStreams(4, [], []).draws == []


class TestSharedBlocks:
    """Readers of one :class:`StreamBlocks`, as the networks of one cell are."""

    #: past the block boundaries at BLOCK, 2·BLOCK and 4·BLOCK draws
    COUNT = 4 * BLOCK + 5

    def _read(self, streams, lid, count):
        # the fast network's inlined read: next(draws[lid]), refill when dry
        got = []
        for _ in range(count):
            try:
                got.append(next(streams.draws[lid]))
            except StopIteration:
                got.append(streams.refill(lid))
        return got

    @pytest.mark.parametrize("seed", (0, 31))
    def test_interleaved_readers_read_the_formula(self, seed):
        blocks = StreamBlocks(seed, *zip(*LINKS))
        first = ChannelStreams.reading(blocks)
        second = ChannelStreams.reading(blocks)
        for lid, (sender, receiver) in enumerate(LINKS):
            # the first reader stops mid-block, the second reads on (past the
            # computed draws on link 0; later links read draws grown by it),
            # and the first reads on through the grown list
            got_first = self._read(first, lid, 5)
            got_second = self._read(second, lid, BLOCK + 1)
            got_first += self._read(first, lid, 2 * BLOCK)
            got_second += self._read(second, lid, self.COUNT - BLOCK - 1)
            got_first += self._read(first, lid, self.COUNT - 2 * BLOCK - 5)
            expected = _expected_draws(seed, sender, receiver, self.COUNT)
            assert got_first == got_second == expected

    def test_a_later_reader_reads_the_grown_draws_from_the_start(self):
        blocks = StreamBlocks(7, *zip(*LINKS))
        self._read(ChannelStreams.reading(blocks), 3, self.COUNT)
        assert len(blocks.blocks[3]) == 8 * BLOCK  # three doublings
        late = ChannelStreams.reading(blocks)
        draw = late.drawer(3)
        assert [draw() for _ in range(self.COUNT)] == _expected_draws(7, 1048575, 2, self.COUNT)
        # every link grew with the one that ran dry, in one pass each time
        assert {len(block) for block in blocks.blocks} == {8 * BLOCK}

    def test_past_the_table_bound_a_link_grows_alone(self):
        # all links grow together up to 4 * BLOCK draws each, then alone
        count = TABLE_DRAWS // (4 * BLOCK)
        links = [(lid % 64, lid // 64) for lid in range(count)]
        blocks = StreamBlocks(3, *zip(*links))
        streams = ChannelStreams.reading(blocks)
        got = self._read(streams, 5, KEPT_DRAWS)
        assert got == _expected_draws(3, *links[5], KEPT_DRAWS)
        assert len(blocks.blocks[5]) == KEPT_DRAWS
        assert {len(block) for lid, block in enumerate(blocks.blocks) if lid != 5} == {
            4 * BLOCK
        }
        draw = streams.drawer(6)
        assert [draw() for _ in range(6 * BLOCK)] == _expected_draws(3, *links[6], 6 * BLOCK)
        assert len(blocks.blocks[6]) == 8 * BLOCK


    def test_readers_past_the_kept_draws_read_their_own(self):
        blocks = StreamBlocks(9, *zip(*LINKS))
        count = 3 * KEPT_DRAWS + 5
        readers = [ChannelStreams.reading(blocks) for _ in range(2)]
        got = [self._read(readers[0], 4, KEPT_DRAWS + 3), self._read(readers[1], 4, 7)]
        got[1] += self._read(readers[1], 4, count - 7)
        got[0] += self._read(readers[0], 4, count - KEPT_DRAWS - 3)
        assert got[0] == got[1] == _expected_draws(9, 5, 5, count)
        assert len(blocks.blocks[4]) == KEPT_DRAWS


class TestUniformity:
    """At fixed seeds, so every check is deterministic (alpha = 0.001)."""

    #: the chi-square quantile at 0.999 for 20 bins (19 degrees of freedom)
    CRITICAL = 43.82

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_delay_draws_are_uniform_along_streams(self, seed):
        links = [(s, r) for s in range(8) for r in range(8) if s != r]
        streams = ChannelStreams(seed, *zip(*links))
        min_delay, max_delay = 1.0, 2.0
        delays = []
        for lid in range(len(links)):
            draw = streams.drawer(lid)
            delays += [min_delay + (max_delay - min_delay) * draw() for _ in range(40)]
        assert all(min_delay <= d < max_delay for d in delays)
        positions = [(d - min_delay) / (max_delay - min_delay) for d in delays]
        assert _chi_square_uniform(positions) < self.CRITICAL

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_first_draws_are_uniform_across_adjacent_links(self, seed):
        # neighbouring ranks give neighbouring key inputs: the key mix must
        # still spread every link's first draw uniformly
        links = [(s, r) for s in range(48) for r in range(48) if s != r]
        streams = ChannelStreams(seed, *zip(*links))
        firsts = [next(streams.draws[lid]) for lid in range(len(links))]
        assert _chi_square_uniform(firsts) < self.CRITICAL

    @pytest.mark.parametrize("loss", (0.1, 0.25))
    @pytest.mark.parametrize("seed", (1, 2))
    def test_loss_draws_match_their_rate(self, loss, seed):
        # every sent message takes exactly one loss draw, so the dropped
        # count is Binomial(sent, loss): within four standard deviations
        fast = FastAsyncNetwork(
            build_family("grid", 49, seed), min_delay=1.0, max_delay=2.0,
            loss_probability=loss, seed=seed,
        )
        fast.run_with_beacons(max_rounds=30)
        sent, dropped = sum(fast._sent), sum(fast._dropped)
        assert sent > 1000
        assert abs(dropped - sent * loss) <= 4 * math.sqrt(sent * loss * (1 - loss))


class TestIndependenceAndPairing:
    def test_distinct_links_get_distinct_streams(self):
        instance = build_family("grid", 49, 1)
        fast = FastAsyncNetwork(instance, min_delay=1.0, max_delay=2.0, seed=9)
        links = list(zip(fast._link_from, fast._link_to))
        assert len(set(links)) == len(links) == 2 * instance.edge_count
        prefixes = set()
        for lid in range(len(links)):
            draw = fast._streams.drawer(lid)
            prefixes.add(tuple(draw() for _ in range(4)))
        assert len(prefixes) == len(links)

    def test_both_networks_and_both_protocols_read_one_stream_per_link(self):
        instance = build_family("geometric", 12, 2)
        nodes = instance.nodes
        # the expected draws depend on the seed and the link alone
        for mode in (ReversalMode.PARTIAL, ReversalMode.FULL):
            kwargs = dict(mode=mode, min_delay=1.0, max_delay=2.0, loss_probability=0.1, seed=17)
            fast = FastAsyncNetwork(instance, **kwargs)
            oracle = AsyncLinkReversalNetwork(instance, **kwargs)
            for lid, (s, r) in enumerate(zip(fast._link_from, fast._link_to)):
                fast_draw = fast._streams.drawer(lid)
                oracle_draw = oracle._channels[(nodes[s], nodes[r])]._draw
                expected = _expected_draws(17, s, r, 20)
                assert [fast_draw() for _ in range(20)] == expected
                assert [oracle_draw() for _ in range(20)] == expected
