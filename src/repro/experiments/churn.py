"""Churn shared by the churn-capable engines.

Link-failure and mobility churn both hand a converged orientation over to a
new ``LinkReversalInstance`` for the next repair phase.  The legacy oracle
and the compiled synchronous engine agree on every churn decision byte for
byte, so the steps come from one place, :class:`ScenarioChurn`:

* a link failure draws one seeded link, skips it if it is a bridge, and
  re-packs the survivor at the id level
  (:meth:`~repro.core.graph.LinkReversalInstance.oriented_by`), with no
  re-validation and no frozenset per edge;
* mobility replays a :func:`mobility_trajectory`, which depends only on the
  topology seed, so the compiled engine keeps one per topology in its
  ``KernelCache`` and every algorithm × scheduler cell of a replicate
  shares it; each step's fresh instance takes over the surviving links'
  orientations through :func:`carried_over_instance`.

The message-passing engines (async and data plane) fail links in a live
network instead, through :func:`fail_seeded_links`.
"""

from __future__ import annotations

import logging
import random
from functools import partial
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro.core.graph import LinkReversalInstance
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


def carried_over_instance(
    fresh: LinkReversalInstance, instance: LinkReversalInstance, mask: int
) -> Tuple[LinkReversalInstance, bool]:
    """Re-pack a churned instance, carrying surviving edge orientations over.

    Links of ``fresh`` that ``instance`` also has keep their direction in
    the ``mask`` orientation of ``instance``; new links take ``fresh``'s
    (distance-towards-destination) direction.  When the carried orientation
    would contain a cycle the fresh instance is used instead; the second
    return value flags that reorientation.
    """
    edge_id = instance._edge_id
    previous = instance.initial_edges
    flips = 0
    for e, edge in enumerate(fresh.initial_edges):
        old = edge_id.get(edge)
        # the link survives and currently points the other way
        if old is not None and (previous[old] == edge) == bool((mask >> old) & 1):
            flips |= 1 << e
    if not flips:
        return fresh, False
    candidate = fresh.oriented_by(flips)
    if candidate.is_initially_acyclic():
        return candidate, False
    return fresh, True


class ScenarioChurn:
    """The churn steps of one link-failure or mobility scenario.

    :meth:`next_instance` gives the instance of each step's repair phase,
    or ``None`` when the step leaves nothing to repair: no link is left to
    fail, the step would partition the network, or a mobility step changed
    no link.  ``seed_label`` names the derived seed of the repair phases'
    schedulers.  With an engine's ``KernelCache`` and topology ``key`` the
    mobility trajectory is kept beside that topology's compiled kernels (and
    evicted with it); without, it is built afresh.
    """

    def __init__(self, spec, cache=None, key: Hashable = None):
        self.trajectory: Optional[Tuple[MobilityStep, ...]] = None
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
