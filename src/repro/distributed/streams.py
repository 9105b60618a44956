"""Counter-based random streams, one per directed channel.

Every directed link ``sender -> receiver`` of an asynchronous network owns a
SplitMix64 counter stream (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011, for the counter-based idea):

* its key is ``mix(mix(seed + γ) ^ (sender << 32 | receiver))``, where
  ``mix`` is the SplitMix64 finaliser, ``γ`` the golden-ratio increment, the
  seed is taken modulo 2^64 and the ranks are below 2^32;
* draw ``j`` (from 0) is ``mix(key + (j + 1)·γ)``, its top 53 bits scaled
  to ``[0, 1)``.

A draw is a pure function of ``(key, j)``, so a stream needs no state but
its counter and costs nothing to start.  :class:`StreamBlocks` derives
every link's key and first block of :data:`BLOCK` draws in one numpy pass.
When a reader runs past the draws of a link, every link's draws double in
one more pass: the links of a network draw alike (a beacon round draws on
all of them), so a run costs a few numpy calls, not one per link and
block.  Past :data:`TABLE_DRAWS` draws in all, only the link that ran dry
doubles its draws, and a link keeps at most :data:`KEPT_DRAWS` draws for
its readers: one that reads on computes its own, so a link that draws
without end (a cut-off component reversing until its event budget) holds
no growing list.
The key ignores the protocol, so two algorithms handed the same base seed
see the same stream on every link.

:class:`ChannelStreams` is one reader's position in every link's stream.
Several readers may share one :class:`StreamBlocks` (the networks of one
topology cell do, see
:class:`~repro.distributed.fast_network.NetworkTemplate`): the draws one
reader computed serve the others, and each reader still sees every
stream from its first draw.

Both :class:`~repro.distributed.network.AsyncLinkReversalNetwork` and
:class:`~repro.distributed.fast_network.FastAsyncNetwork` draw from here, in
the same per-link order: the loss test ``u < loss`` (lossy channels only),
then the delay ``min + (max - min)·u`` (random-delay channels only), which
is :meth:`random.Random.uniform`'s formula.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Sequence

import numpy as np

#: The version of the draw scheme above.  Run identities of specs whose
#: channels draw hash it (:attr:`~repro.experiments.spec.ScenarioSpec.run_id`),
#: so a store written under another scheme is re-run, not resumed.
STREAM_VERSION = 1

#: Draws every link starts with.
BLOCK = 16

#: The most draws all links together hold while they grow together.
TABLE_DRAWS = 1 << 16

#: The most draws one link keeps for every reader (``BLOCK`` doubled); a
#: reader past them computes its own, this many at a time.
KEPT_DRAWS = 16 * BLOCK

_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, elementwise and in place (uint64 wraps)."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _blocks(keys: np.ndarray, start: int, count: int = BLOCK) -> List[List[float]]:
    """Draws ``start .. start + count - 1`` of every key, one list per key."""
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64) * _GAMMA
    bits = _mix(keys[:, None] + counters) >> np.uint64(11)
    return (bits.astype(np.float64) * 2.0**-53).tolist()


class StreamBlocks:
    """Every directed link's key and the draws computed so far.

    Link ``lid`` runs from rank ``senders[lid]`` to rank ``receivers[lid]``.
    ``blocks[lid]`` holds its draws ``0 .. len - 1``.  The lists only grow,
    so a reader's iterator over one stays valid while other readers grow
    it.
    """

    def __init__(self, seed: int, senders: Sequence[int], receivers: Sequence[int]):
        base = _mix(np.array([(seed + _GAMMA_INT) & _MASK], dtype=np.uint64))
        links = np.asarray(senders, dtype=np.uint64) << np.uint64(32)
        links |= np.asarray(receivers, dtype=np.uint64)
        self._keys = _mix(links ^ base)
        self.blocks: List[List[float]] = _blocks(self._keys, 0)

    def grow(self, lid: int) -> None:
        """Double link ``lid``'s computed draws, and every link's while they fit.

        Every link holds as many draws as long as they grow together: once
        doubling them all would pass :data:`TABLE_DRAWS`, it would for every
        longer link too, so from then on each link grows alone.
        """
        start = len(self.blocks[lid])
        if 2 * start * len(self.blocks) <= TABLE_DRAWS:
            for block, more in zip(self.blocks, _blocks(self._keys, start, start)):
                block += more
        else:
            self.blocks[lid] += self.draws_from(lid, start, start)

    def draws_from(self, lid: int, start: int, count: int) -> List[float]:
        """Link ``lid``'s draws ``start .. start + count - 1``."""
        return _blocks(self._keys[lid:lid + 1], start, count)[0]


class ChannelStreams:
    """One reader of the streams of a network's directed links, by link id.

    Link ``lid``'s next draw is ``next(draws[lid])``; when that iterator is
    exhausted, :meth:`refill` computes more draws and returns the link's
    next one.  ``ChannelStreams(seed, senders, receivers)`` reads streams
    of its own; :meth:`reading` starts a reader on shared blocks.
    """

    def __init__(self, seed: int, senders: Sequence[int], receivers: Sequence[int]):
        self._start(StreamBlocks(seed, senders, receivers))

    @classmethod
    def reading(cls, blocks: StreamBlocks) -> "ChannelStreams":
        """A reader of ``blocks`` that stands at every link's first draw."""
        streams = cls.__new__(cls)
        streams._start(blocks)
        return streams

    def _start(self, blocks: StreamBlocks) -> None:
        self._blocks = blocks
        #: per link: an iterator over the link's kept draws, or over the
        #: reader's own draws past them
        self.draws: List[Iterator[float]] = list(map(iter, blocks.blocks))
        #: per link read past its kept draws: the draw after the reader's own
        self._own_next: Dict[int, int] = {}

    def refill(self, lid: int) -> float:
        """Read on past link ``lid``'s computed draws: call on ``StopIteration``."""
        start = self._own_next.get(lid)
        if start is None:
            block = self._blocks.blocks[lid]
            # an iterator stops only at the end of its list, so this
            # reader's next draw is the first one not yet computed
            start = len(block)
            if start < KEPT_DRAWS:
                self._blocks.grow(lid)
                # a list iterator that raised StopIteration stays exhausted
                # even after its list grows: go on with a fresh one past the
                # draw returned
                draws = self.draws[lid] = iter(block)
                draws.__setstate__(start + 1)
                return block[start]
        own = self._blocks.draws_from(lid, start, KEPT_DRAWS)
        self._own_next[lid] = start + KEPT_DRAWS
        draws = self.draws[lid] = iter(own)
        return next(draws)

    def drawer(self, lid: int) -> Callable[[], float]:
        """Link ``lid``'s stream as a zero-argument callable."""
        draws = self.draws
        refill = self.refill

        def draw() -> float:
            try:
                return next(draws[lid])
            except StopIteration:
                return refill(lid)

        return draw
