"""Mask-level scheduler choice logic for the lockstep simulation loop.

Every scheduler in :data:`repro.schedulers.SCHEDULER_FACTORIES` has a twin
here that picks the next actors directly from a lane's incremental
**sink-id set** — no state objects, no action objects, and (for the
adversarial/greedy heuristics) no neighbour-set unpacking: hop distances and
instance order are precomputed id arrays, so a pick is a ``max``/``min`` over
a small set of ints.

Exactness contract
------------------

A mask scheduler must reproduce its object-level counterpart *bit for bit*:
same actor choice at every step and — for the seeded schedulers — the same
RNG consumption.  That holds because the object schedulers enumerate enabled
nodes as ``state.sinks()`` (sink ids ascending, i.e. instance node order)
and the mask schedulers sort the same ids into the same order,
and because ``random.Random.choice`` / ``sample`` / ``randint`` consume
randomness as a function of the sequence *length* only, never of the element
values.  The differential test suite pins this equivalence for every
scheduler on every kernel algorithm.

``bind(kernel)`` reads what a scheduler needs of the compiled kernel once
per phase, before the first pick (hop distances, node order, whether it
takes multi-id actions); ``select(sinks)`` then returns a tuple of actor
node-ids (one action of the run — a multi-id tuple is PR's concurrent
``reverse(S)``) or ``None`` for quiescence.  Scheduler objects are
single-phase: the scenario runner builds a fresh one per
convergence/repair phase, exactly as the object path builds a fresh
:class:`~repro.schedulers.base.Scheduler` per phase.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, Optional, Set, Tuple

Token = Tuple[int, ...]


class MaskScheduler:
    """Base class: picks actor-id tuples from a lane's sink set."""

    def bind(self, kernel) -> None:
        """Attach to one compiled kernel (per-instance tables); default: no-op."""

    def select(self, sinks: Set[int]) -> Optional[Token]:
        """The next action's actor ids, or ``None`` to declare quiescence."""
        raise NotImplementedError


class MaskSequentialScheduler(MaskScheduler):
    """First enabled node in instance order (twin of ``SequentialScheduler``)."""

    def select(self, sinks: Set[int]) -> Optional[Token]:
        if not sinks:
            return None
        return (min(sinks),)


class MaskRandomScheduler(MaskScheduler):
    """Seeded uniform choice over the sink ids (twin of ``RandomScheduler``).

    ``subset_probability`` mirrors the object scheduler: with that
    probability (PR only) a uniformly random non-empty subset of the sinks
    fires as one concurrent action.  ``choice``/``randint``/``sample`` are
    replayed on the id list, consuming the RNG identically to the object
    path on the node list.
    """

    def __init__(self, seed: Optional[int] = None, subset_probability: float = 0.0):
        if not 0.0 <= subset_probability <= 1.0:
            raise ValueError("subset_probability must be in [0, 1]")
        self.subset_probability = subset_probability
        self._rng = random.Random(seed)

    def bind(self, kernel) -> None:
        self._subsets = self.subset_probability > 0.0 and kernel.supports_subsets

    def select(self, sinks: Set[int]) -> Optional[Token]:
        if not sinks:
            return None
        ids = sorted(sinks)
        rng = self._rng
        if self._subsets and rng.random() < self.subset_probability:
            size = rng.randint(1, len(ids))
            return tuple(rng.sample(ids, size))
        return (ids[rng.randrange(len(ids))],)


class MaskGreedyScheduler(MaskScheduler):
    """All sinks step every round (twin of ``GreedyScheduler``).

    For PR the round is one concurrent multi-id action; for the single-node
    kernels the round is serialised from a snapshot queue of the round-start
    sinks (serialisation never disables a queued sink — sinks are pairwise
    non-adjacent — but membership is re-checked like the object scheduler
    re-checks enabledness).
    """

    def __init__(self, concurrent_for_pr: bool = True):
        self.concurrent_for_pr = concurrent_for_pr
        self._round_queue: Deque[int] = deque()

    def bind(self, kernel) -> None:
        self._concurrent = self.concurrent_for_pr and kernel.supports_subsets

    def select(self, sinks: Set[int]) -> Optional[Token]:
        if self._concurrent:
            if not sinks:
                return None
            return tuple(sorted(sinks))
        while True:
            while self._round_queue:
                i = self._round_queue.popleft()
                if i in sinks:
                    return (i,)
            if not sinks:
                return None
            self._round_queue = deque(sorted(sinks))


class _DistanceScheduler(MaskScheduler):
    """Shared hop-distance machinery of the adversarial/lazy heuristics."""

    def bind(self, kernel) -> None:
        self._distance = kernel.hop_distances


class MaskAdversarialScheduler(_DistanceScheduler):
    """Farthest sink from the destination (twin of ``AdversarialScheduler``).

    Ties break towards the smallest id, matching the object scheduler's
    ``max`` by ``(distance, -instance order)``.
    """

    def select(self, sinks: Set[int]) -> Optional[Token]:
        if not sinks:
            return None
        distance = self._distance
        return (max(sinks, key=lambda i: (distance[i], -i)),)


class MaskLazyScheduler(_DistanceScheduler):
    """Closest sink to the destination (twin of ``LazyScheduler``)."""

    def select(self, sinks: Set[int]) -> Optional[Token]:
        if not sinks:
            return None
        distance = self._distance
        return (min(sinks, key=lambda i: (distance[i], i)),)


class MaskRoundRobinScheduler(MaskScheduler):
    """Fair rotation over the non-destination ids (twin of ``RoundRobinScheduler``)."""

    def bind(self, kernel) -> None:
        instance = kernel.instance
        self._order = tuple(
            i for i in range(instance.node_count) if i != instance._dest_id
        )
        self._cursor = 0

    def select(self, sinks: Set[int]) -> Optional[Token]:
        order = self._order
        n = len(order)
        for offset in range(n):
            i = order[(self._cursor + offset) % n]
            if i in sinks:
                self._cursor = (self._cursor + offset + 1) % n
                return (i,)
        return None


#: Name → factory registry; the names (and per-name seed semantics) mirror
#: :data:`repro.schedulers.SCHEDULER_FACTORIES` one-for-one, so a scenario
#: spec's scheduler axis resolves on either engine.  Only ``random`` draws
#: from its seed.
MASK_SCHEDULER_FACTORIES: Dict[str, Callable[[Optional[int]], MaskScheduler]] = {
    "greedy": lambda seed: MaskGreedyScheduler(),
    "sequential": lambda seed: MaskSequentialScheduler(),
    "random": lambda seed: MaskRandomScheduler(seed=seed),
    "adversarial": lambda seed: MaskAdversarialScheduler(),
    "lazy": lambda seed: MaskLazyScheduler(),
    "round-robin": lambda seed: MaskRoundRobinScheduler(),
}


def make_mask_scheduler(name: str, seed: Optional[int] = None) -> MaskScheduler:
    """Build the named mask-level scheduler with the given seed."""
    try:
        factory = MASK_SCHEDULER_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"no mask-level scheduler {name!r}; known: "
            f"{', '.join(sorted(MASK_SCHEDULER_FACTORIES))}"
        ) from None
    return factory(seed)
