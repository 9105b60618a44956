"""Churn helpers shared by the churn-capable engines.

Link-failure and mobility churn both rebuild a ``LinkReversalInstance``
mid-scenario while carrying the current edge orientations over; the legacy,
kernel and batch engines all agree on this re-packing byte for byte, so the
logic lives here once.  (Moved out of :mod:`repro.experiments.runner` when
the batch engine arrived — the engines import it without importing each
other.)  The message-passing engines (async and data plane) fail links in a
live network instead, through :func:`fail_seeded_links`.
"""

from __future__ import annotations

import logging
import random
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.core.graph import DirectedEdge, LinkReversalInstance

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


def surviving_instance_from_edges(
    instance: LinkReversalInstance,
    directed_edges: Sequence[DirectedEdge],
    dropped_link: Tuple[Node, Node],
) -> LinkReversalInstance:
    """The instance left after removing one undirected link, keeping orientations."""
    dropped = frozenset(dropped_link)
    surviving = tuple(
        (tail, head)
        for tail, head in directed_edges
        if frozenset((tail, head)) != dropped
    )
    return LinkReversalInstance(instance.nodes, instance.destination, surviving)


def carried_over_instance(
    fresh: LinkReversalInstance, directed_edges: Sequence[DirectedEdge]
) -> Tuple[LinkReversalInstance, bool]:
    """Re-pack a churned instance, carrying surviving edge orientations over.

    Surviving links keep their current direction; new links take ``fresh``'s
    (distance-towards-destination) direction.  When the carried orientation
    would contain a cycle the fresh instance is used instead; the second
    return value flags that reorientation.
    """
    surviving = {
        frozenset(edge): edge
        for edge in directed_edges
        if frozenset(edge) in fresh.undirected_edges
    }
    edges = tuple(
        surviving.get(frozenset(edge), edge) for edge in fresh.initial_edges
    )
    candidate = LinkReversalInstance(fresh.nodes, fresh.destination, edges)
    if candidate.is_initially_acyclic():
        return candidate, False
    return fresh, True
