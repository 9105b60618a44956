"""Churn shared by the churn-capable engines.

Link-failure and mobility churn hand a converged orientation over to the
next repair phase.  The legacy oracle and the compiled synchronous engine
agree on every churn decision byte for byte, and both take their steps from
:class:`ScenarioChurn`, on two representations:

* **packed state** (:meth:`ScenarioChurn.next_links`, the ``kernel``
  engine): a run's :class:`Links` are its topology, an alive-link mask and
  an orientation mask in the topology's edge ids.  A link failure draws one
  seeded alive link (:class:`LinkDraw`), skips it if it is a bridge of the
  alive links, and clears its bit; no instance is built, and the repair
  phase runs on the topology's compiled kernel restricted to the survivors.
  Deleting a link cannot close a cycle, so nothing is re-checked.  A
  mobility step moves the run onto the step's trajectory instance, carrying
  the surviving links' orientations over when that stays acyclic
  (:func:`carried_over_flips`, :func:`~repro.core.graph.mask_is_acyclic`);
* **instances** (:meth:`ScenarioChurn.next_instance`, the legacy oracle):
  a link failure re-packs the survivor as a new instance
  (:func:`fail_seeded_link`, through
  :meth:`~repro.core.graph.LinkReversalInstance.oriented_by`), and a
  mobility step builds the carried-over instance
  (:func:`carried_over_instance`), which the automaton validates.

Mobility replays a :func:`mobility_trajectory`, which depends only on the
topology seed, so the compiled engine keeps one per topology in its
``KernelCache`` and every algorithm × scheduler cell of a replicate shares
it.

The message-passing engines (async and data plane) fail links in a live
network instead, through :func:`fail_seeded_links`.
"""

from __future__ import annotations

import logging
import random
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro.core.graph import LinkReversalInstance, link_splits, mask_is_acyclic
from repro.experiments.spec import derive_seed

Node = Hashable

logger = logging.getLogger(__name__)


def fail_seeded_links(
    network,
    rng: random.Random,
    count: int,
    record: Dict[str, object],
    fail: Callable[[Node, Node], None],
    settle: Optional[Callable[[], None]] = None,
) -> None:
    """Fail up to ``count`` seeded links of a live network, skipping partitions.

    Each attempt draws one of ``network.sorted_link_pairs()`` with
    ``rng.randrange``.  A link whose failure would partition the network is
    skipped and tallied in ``record["partition_skips"]``; any other is
    failed through ``fail(u, v)``, tallied in ``record["failures_applied"]``,
    and followed by ``settle()`` when given.  Attempts stop early once no
    link is left.
    """
    for _ in range(count):
        candidates = network.sorted_link_pairs()
        if not candidates:
            return
        u, v = candidates[rng.randrange(len(candidates))]
        if network.link_would_partition(u, v):
            record["partition_skips"] += 1
            logger.debug(
                "run %s: skipping failure of link (%s, %s) — would "
                "partition the network", record.get("run_id"), u, v,
            )
            continue
        fail(u, v)
        record["failures_applied"] += 1
        if settle is not None:
            settle()


#: A churn step whose new link set would partition the network; engines skip
#: it and count it in ``record["partition_skips"]``.
PARTITION = "partition"


def fail_seeded_link(
    instance: LinkReversalInstance, mask: int, rng: random.Random
) -> Union[LinkReversalInstance, str]:
    """Fail one seeded link of a converged instance; the repair phase's instance.

    The link is drawn from ``sorted(instance.initial_edges)`` with
    ``rng.randrange``.  Returns :data:`PARTITION` when failing it would
    disconnect the graph, else the surviving instance: the ``mask``
    orientation of ``instance`` as its initial one, minus the failed link.
    ``instance`` must have a link left.
    """
    edges = instance.initial_edges
    edge = sorted(range(len(edges)), key=edges.__getitem__)[rng.randrange(len(edges))]
    if not instance.is_connected(without_edge=edge):
        return PARTITION
    return instance.oriented_by(mask, drop=edge)


MobilityStep = Union[None, str, LinkReversalInstance]


def mobility_trajectory(
    size: int, topology_seed: int, steps: int
) -> Tuple[MobilityStep, ...]:
    """The link churn of ``steps`` random-waypoint moves of a geometric network.

    The walk starts from the ``geometric`` family's network for ``size`` and
    ``topology_seed`` (the instance the engines converge on first).  Per
    step: ``None`` when no link changed, :data:`PARTITION` when the new link
    set is disconnected, else the fresh distance-oriented instance.  The
    sequence depends on nothing else, so every algorithm × scheduler cell of
    a replicate can share one (the engines keep it in their ``KernelCache``).
    """
    from repro.topology.manet import random_geometric_instance
    from repro.topology.mobility import RandomWaypointMobility

    _, network = random_geometric_instance(size, radius=0.4, seed=topology_seed)
    mobility = RandomWaypointMobility(
        network, seed=derive_seed(topology_seed, "mobility")
    )
    trajectory: List[MobilityStep] = []
    for _ in range(steps):
        if mobility.step().is_empty:
            trajectory.append(None)
            continue
        fresh = mobility.network.to_instance()
        trajectory.append(fresh if fresh.is_connected() else PARTITION)
    return tuple(trajectory)


def carried_over_flips(
    fresh: LinkReversalInstance, instance: LinkReversalInstance, mask: int
) -> int:
    """The orientation of ``fresh`` that keeps the surviving links' directions.

    Bit ``e`` is set when link ``e`` of ``fresh`` is also a link of
    ``instance`` and points the other way in the ``mask`` orientation of
    ``instance``; new links keep ``fresh``'s (distance-towards-destination)
    direction.
    """
    edge_id = instance._edge_id
    previous = instance.initial_edges
    flips = 0
    for e, edge in enumerate(fresh.initial_edges):
        old = edge_id.get(edge)
        # the link survives and currently points the other way
        if old is not None and (previous[old] == edge) == bool((mask >> old) & 1):
            flips |= 1 << e
    return flips


def carried_over_instance(
    fresh: LinkReversalInstance, instance: LinkReversalInstance, mask: int
) -> Tuple[LinkReversalInstance, bool]:
    """Re-pack a churned instance, carrying surviving edge orientations over.

    The result is ``fresh`` re-oriented by :func:`carried_over_flips`.  When
    the carried orientation would contain a cycle the fresh instance is used
    instead; the second return value flags that reorientation.
    """
    flips = carried_over_flips(fresh, instance, mask)
    if not flips:
        return fresh, False
    candidate = fresh.oriented_by(flips)
    if candidate.is_initially_acyclic():
        return candidate, False
    return fresh, True


class LinkDraw:
    """One topology's tables for :func:`fail_seeded_link`'s decisions on packed state.

    The oracle draws from its instance's links sorted by their initial
    ``(tail, head)`` pairs, and its instance is the topology re-oriented by
    the orientation the last repair phase started from.  Each link's two
    directed pairs are ranked once among all of them, so ordering the alive
    links is a sort of ints.  The partition test searches the alive links;
    on the whole topology, where every run's first failure is tested, its
    answers are kept.
    """

    __slots__ = (
        "forward", "backward", "link_of", "connected", "_topology", "_initial", "_full",
        "_whole",
    )

    def __init__(self, instance: LinkReversalInstance):
        pairs = []
        for e, (u, v) in enumerate(instance.initial_edges):
            pairs.append(((u, v), e, False))
            pairs.append(((v, u), e, True))
        pairs.sort(key=lambda item: item[0])
        self.forward = [0] * instance.edge_count
        self.backward = [0] * instance.edge_count
        self.link_of = [e for _, e, _ in pairs]
        for rank, (_, e, reversed_) in enumerate(pairs):
            (self.backward if reversed_ else self.forward)[e] = rank
        self._initial = sorted(range(instance.edge_count), key=self.forward.__getitem__)
        self.connected = instance.is_connected()
        self._full = (1 << instance.edge_count) - 1
        # per link: whether failing it partitions the whole topology
        self._whole: List[Optional[bool]] = [None] * instance.edge_count
        self._topology = instance

    def draw(self, alive: int, base: int, rng: random.Random) -> int:
        """The id of the link drawn from ``alive``, ordered by ``base``'s pairs."""
        if alive == self._full and not base:
            # every run's first draw: the topology's own pairs
            return self._initial[rng.randrange(len(self._initial))]
        forward, backward = self.forward, self.backward
        ranks = sorted([
            backward[e] if (base >> e) & 1 else forward[e]
            for e in range(len(forward)) if (alive >> e) & 1
        ])
        return self.link_of[ranks[rng.randrange(len(ranks))]]

    def splits(self, alive: int, link: int) -> bool:
        """Whether failing ``link`` would partition the ``alive`` links."""
        # the alive links are connected iff the topology is (a failure that
        # would partition them is skipped), so the failure partitions them
        # iff the link's endpoints fall apart without it
        if not self.connected:
            return True
        if alive != self._full:
            return link_splits(self._topology, alive, link)
        split = self._whole[link]
        if split is None:
            split = self._whole[link] = link_splits(self._topology, alive, link)
        return split


class Links:
    """A churning run's packed link state, in its topology's edge ids.

    ``alive`` has a bit per surviving link and ``mask`` is the current
    orientation (bit ``e`` set: link ``e`` points against ``topology``'s
    initial orientation).  ``base`` is the orientation the last repair
    phase started from, whose pairs order the next link draw.
    """

    __slots__ = ("topology", "alive", "mask", "base")

    def __init__(self, topology: LinkReversalInstance, alive: int, mask: int, base: int = 0):
        self.topology = topology
        self.alive = alive
        self.mask = mask
        self.base = base


class ScenarioChurn:
    """The churn steps of one link-failure or mobility scenario.

    :meth:`next_links` (packed state) and :meth:`next_instance` (instances)
    give the start of each step's repair phase, or ``None`` when the step
    leaves nothing to repair: no link is left to fail, the step would
    partition the network, or a mobility step changed no link.  One
    scenario uses one of the two.  ``seed_label`` names the derived seed of
    the repair phases' schedulers.  With an engine's ``KernelCache`` and
    topology ``key`` the mobility trajectory and the link-draw tables are
    kept beside that topology's compiled kernels (and evicted with it);
    without, they are built afresh.
    """

    def __init__(self, spec, cache=None, key: Hashable = None):
        self.trajectory: Optional[Tuple[MobilityStep, ...]] = None
        self._cache, self._key = cache, key
        # the per-topology tables of next_links, fetched on first use
        self._draw: Optional[LinkDraw] = None
        self._carried: Optional[Dict[Tuple[int, int], Tuple[int, bool]]] = None
        if spec.failure_model == "link-failures":
            self.seed_label = "repair"
            self._rng = random.Random(derive_seed(spec.scheduler_seed, "failures"))
            return
        self.seed_label = "churn"
        build = partial(
            mobility_trajectory, spec.size, spec.topology_seed, spec.failure_count
        )
        self.trajectory = (
            build() if cache is None
            else cache.kernel(key, ("mobility", spec.failure_count), build)
        )

    def next_links(
        self, index: int, links: Links, record: Dict[str, object]
    ) -> Optional[Links]:
        """Step ``index`` from ``links``: the repair phase's start, on packed state.

        The result's ``mask`` (and ``base``) is the orientation the phase
        starts from.  Tallies ``partition_skips`` and ``reorientations`` in
        ``record``; the decisions are :meth:`next_instance`'s.
        """
        if self.trajectory is None:
            if not links.alive:
                return None
            draw = self._draw
            if draw is None:
                build = partial(LinkDraw, links.topology)
                draw = self._draw = (
                    build() if self._cache is None
                    else self._cache.kernel(self._key, "link-draw", build)
                )
            link = draw.draw(links.alive, links.base, self._rng)
            if draw.splits(links.alive, link):
                record["partition_skips"] += 1
                return None
            alive = links.alive & ~(1 << link)
            start = links.mask & alive
            return Links(links.topology, alive, start, start)
        fresh = self.trajectory[index]
        if fresh is None:
            return None
        if fresh is PARTITION:
            record["partition_skips"] += 1
            return None
        if self._carried is None:
            # (step, orientation) -> (start orientation, reoriented): every
            # run on the topology meets step `index` from the same previous
            # instance (which steps apply depends on the trajectory alone),
            # and runs of different algorithms and schedulers often from the
            # same orientation
            self._carried = (
                {} if self._cache is None else self._cache.kernel(self._key, "carried", dict)
            )
        carried = self._carried.get((index, links.mask))
        if carried is None:
            flips = carried_over_flips(fresh, links.topology, links.mask)
            reoriented = bool(flips) and not mask_is_acyclic(fresh, flips)
            carried = self._carried[index, links.mask] = (
                0 if reoriented else flips, reoriented
            )
        flips, reoriented = carried
        record["reorientations"] += reoriented
        return Links(fresh, (1 << fresh.edge_count) - 1, flips, flips)

    def next_instance(
        self, index: int, instance: LinkReversalInstance, mask: int,
        record: Dict[str, object],
    ) -> Optional[LinkReversalInstance]:
        """Step ``index`` from ``instance`` in its ``mask`` orientation.

        Tallies ``partition_skips`` and ``reorientations`` in ``record``.
        """
        if self.trajectory is None:
            if not instance.edge_count:
                return None
            candidate = fail_seeded_link(instance, mask, self._rng)
        else:
            candidate = self.trajectory[index]
            if candidate is None:
                return None
            if candidate is not PARTITION:
                candidate, reoriented = carried_over_instance(candidate, instance, mask)
                record["reorientations"] += reoriented
        if candidate is PARTITION:
            record["partition_skips"] += 1
            return None
        return candidate
