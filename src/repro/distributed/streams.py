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
its counter and costs nothing to start.  :class:`ChannelStreams` derives
every link's key and first block of :data:`BLOCK` draws in one numpy pass
when a network is built; a link computes its next block only when it runs
dry.  The key ignores the protocol, so two algorithms handed the same base
seed see the same stream on every link.

Both :class:`~repro.distributed.network.AsyncLinkReversalNetwork` and
:class:`~repro.distributed.fast_network.FastAsyncNetwork` draw from here, in
the same per-link order: the loss test ``u < loss`` (lossy channels only),
then the delay ``min + (max - min)·u`` (random-delay channels only), which
is :meth:`random.Random.uniform`'s formula.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence

import numpy as np

#: The version of the draw scheme above.  Run identities of specs whose
#: channels draw hash it (:attr:`~repro.experiments.spec.ScenarioSpec.run_id`),
#: so a store written under another scheme is re-run, not resumed.
STREAM_VERSION = 1

#: Draws a link computes at a time.
BLOCK = 16

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


def _blocks(keys: np.ndarray, start: int) -> List[List[float]]:
    """Draws ``start .. start + BLOCK - 1`` of every key, one list per key."""
    counters = np.arange(start + 1, start + BLOCK + 1, dtype=np.uint64) * _GAMMA
    bits = _mix(keys[:, None] + counters) >> np.uint64(11)
    return (bits.astype(np.float64) * 2.0**-53).tolist()


class ChannelStreams:
    """The streams of a network's directed links, indexed by link id.

    Link ``lid`` runs from rank ``senders[lid]`` to rank ``receivers[lid]``.
    Its next draw is ``next(draws[lid])``; when that iterator is exhausted,
    :meth:`refill` starts the link's next block and returns its first draw.
    """

    def __init__(self, seed: int, senders: Sequence[int], receivers: Sequence[int]):
        base = _mix(np.array([(seed + _GAMMA_INT) & _MASK], dtype=np.uint64))
        links = np.asarray(senders, dtype=np.uint64) << np.uint64(32)
        links |= np.asarray(receivers, dtype=np.uint64)
        self._keys = _mix(links ^ base)
        #: per link: an iterator over the rest of its current block
        self.draws: List[Iterator[float]] = list(map(iter, _blocks(self._keys, 0)))
        #: per link: the counter of its next block's first draw
        self._next_block = [BLOCK] * len(self.draws)

    def refill(self, lid: int) -> float:
        """Start link ``lid``'s next block and return its first draw."""
        start = self._next_block[lid]
        self._next_block[lid] = start + BLOCK
        (block,) = _blocks(self._keys[lid:lid + 1], start)
        draws = self.draws[lid] = iter(block)
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
