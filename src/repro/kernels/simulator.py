"""Per-instance simulation tables, run tallies and the kernel cache.

:class:`SignatureSimulator` holds what every convergence phase on one
compiled :class:`~repro.kernels.signature.SignatureExpander` shares: the
per-node neighbour ids, the ``(edge bit, neighbour id)`` incidence rows of
the incremental sink updates, the table of nodes that can ever be a sink
and the hop distances the distance-driven schedulers read
(:func:`repro.core.graph.hop_distances`).  It carries no run state, so any
number of :class:`~repro.kernels.batch.BatchSimulator` lanes may reference
one simulator; :meth:`BatchSimulator.run <repro.kernels.batch.BatchSimulator.run>`
is the loop that drives them:

* the **sink set is maintained incrementally**: a step by node ``i`` can
  only change the sink status of ``i`` itself and of the neighbours whose
  edge it flipped, so each step updates ``O(deg(i))`` candidates via one
  XOR/AND membership test each instead of rescanning the graph;
* **work accounting is signature-XOR** (:class:`WorkTally`):
  ``edge_reversals`` is the popcount of ``pre ^ post`` over the edge bits,
  and an actor's step is a dummy step iff the XOR misses its incident-edge
  mask — the same arithmetic :class:`repro.analysis.work.WorkObserver` uses,
  minus the state objects;
* **rounds** (:class:`RoundTally`) replicate the experiment runner's
  scheduler-independent round rule (a new round starts whenever an actor
  takes its second step since the round began), tracking actor *nodes* so
  the count keeps accumulating across the churn phases of a run, whichever
  topology each phase's kernel was compiled on;
* the **deadline** is checked every :data:`DEADLINE_CHECK_STRIDE` steps
  (always including the first), mirroring the legacy observer's stride.

The object-level execution engine (:func:`repro.automata.executions.run`)
remains the documented oracle; the experiment runner's differential tests
pin the two paths to field-for-field identical results.

:class:`KernelCache` is the per-process amortiser: campaign workers execute
chunks of scenarios that mostly share ``(family, size, topology_seed)``
topologies, so instances and compiled kernels are LRU-cached with hit/miss
counters that surface in ``repro sweep --json``.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property
from typing import Callable, Dict, Hashable, Optional, Set, Tuple

from repro.core.graph import LinkReversalInstance, hop_distances
from repro.kernels.signature import PartialReversalExpander, SignatureExpander
from repro.telemetry.metrics import MetricsRegistry

#: Steps between wall-clock reads of a cooperative deadline.  The first step
#: of every phase is always checked, so an already-expired budget aborts
#: immediately (exact-timeout semantics); past that, a run may overshoot its
#: deadline by at most ``stride - 1`` steps.
DEADLINE_CHECK_STRIDE = 64

#: Compiled entries (simulators, mobility trajectories and the simulators of
#: their steps, link-draw tables, initial phases, final-state verdicts) a
#: :class:`KernelCache` keeps per instance of
#: capacity: past ``capacity * KERNELS_PER_INSTANCE`` the least recently used
#: entry goes, so a hot instance cannot gather entries without bound.
KERNELS_PER_INSTANCE = 32

class DeadlineExceeded(Exception):
    """Raised when a scenario passes its wall-clock deadline."""


class WorkTally:
    """Accumulated work counters of one scenario (across all its phases)."""

    __slots__ = ("node_steps", "edge_reversals", "dummy_steps")

    def __init__(self) -> None:
        self.node_steps = 0
        self.edge_reversals = 0
        self.dummy_steps = 0


class RoundTally:
    """Scheduler-independent round counter (the ``_RoundObserver`` rule).

    A round ends when an actor takes its second step since the round began.
    Actors are tracked as *nodes*, not ids, so the tally keeps accumulating
    across churn phases: a mobility step moves the run onto another
    trajectory instance, whose ids need not match (node identities are
    stable).
    """

    __slots__ = ("rounds", "_seen")

    def __init__(self) -> None:
        self.rounds = 0
        self._seen: Set[Hashable] = set()

    def observe(self, actor_ids: Tuple[int, ...], nodes: Tuple[Hashable, ...]) -> None:
        """Record one action by the nodes with the given ids."""
        if self.rounds == 0:
            self.rounds = 1
        seen = self._seen
        if len(actor_ids) == 1:  # the overwhelmingly common single-node action
            node = nodes[actor_ids[0]]
            if node in seen:
                self.rounds += 1
                self._seen = {node}
            else:
                seen.add(node)
            return
        for i in actor_ids:
            if nodes[i] in seen:
                self.rounds += 1
                self._seen = {nodes[j] for j in actor_ids}
                return
        for i in actor_ids:
            seen.add(nodes[i])


class _IncidentPairs(dict):
    """Per node id: its alive ``(edge bit, neighbour id)`` pairs, built on first use.

    A churn repair phase runs a restricted simulator for a few steps, so
    only the rows of the nodes that actually step are worth building.
    """

    __slots__ = ("_eids", "_ids", "_kernel", "_base")

    def __init__(
        self, instance: LinkReversalInstance, kernel: SignatureExpander,
        base: Optional["SignatureSimulator"],
    ):
        super().__init__()
        self._eids = instance._incident_eids
        self._ids = instance._incident_nbr_ids
        self._kernel = kernel
        self._base = base

    def __missing__(self, i: int) -> Tuple[Tuple[int, int], ...]:
        base = self._base
        if base is not None and self._kernel._inc[i] == base.kernel._inc[i]:
            # the node lost no link: its base row, built once per topology
            row = self[i] = base._incident[i]
            return row
        alive = self._kernel._edge_mask
        row = self[i] = tuple(
            (1 << e, j) for e, j in zip(self._eids[i], self._ids[i]) if (alive >> e) & 1
        )
        return row


class SignatureSimulator:
    """The run-state-free tables of one kernel that batch lanes share.

    The tables cover the kernel's alive links: all of them for a compiled
    kernel, the survivors for a churn repair phase's restricted one
    (:meth:`restricted`).
    """

    def __init__(
        self, kernel: SignatureExpander, base: Optional["SignatureSimulator"] = None
    ):
        self.kernel = kernel
        self.instance: LinkReversalInstance = kernel.instance
        instance = self.instance
        # per node id: (edge bit, neighbour id) pairs for the sink updates
        self._incident = _IncidentPairs(instance, kernel, base)
        if base is not None and kernel._sink_candidates is base.kernel._sink_candidates:
            self._can_sink = base._can_sink
        else:
            self._can_sink = [False] * instance.node_count
            for i in kernel._sink_candidates:
                self._can_sink[i] = True
        #: whether the kernel accepts multi-id actions (PR's ``reverse(S)``);
        #: a plain attribute — schedulers read it on every select call
        self.supports_subsets = isinstance(kernel, PartialReversalExpander)

    @cached_property
    def hop_distances(self) -> Tuple[int, ...]:
        """Per node id: its hop distance to the destination over alive links.

        :func:`repro.core.graph.hop_distances` on the kernel's links.  The
        distance-driven schedulers read it on every bind, so it is computed
        once per simulator.
        """
        return hop_distances(self.instance, self.kernel._edge_mask)

    def restricted(self, alive: int, start: int) -> "SignatureSimulator":
        """The simulator of a repair phase on the ``alive`` links from ``start``.

        See :meth:`SignatureExpander.restricted
        <repro.kernels.signature.SignatureExpander.restricted>`; returns
        ``self`` when the kernel is unchanged.  The phase's lane starts at
        ``start`` (:meth:`BatchSimulator.add_lane
        <repro.kernels.batch.BatchSimulator.add_lane>`).
        """
        kernel = self.kernel.restricted(alive, start)
        return self if kernel is self.kernel else SignatureSimulator(kernel, self)

    def initial_signature(self) -> int:
        """The kernel's initial signature (fresh bookkeeping, initial mask)."""
        return self.kernel.initial_signature()

    def sink_id_set(self, sig: int) -> Set[int]:
        """The non-destination sink ids of ``sig`` as a mutable set."""
        return set(self.kernel.sink_ids(sig))


class KernelCache:
    """LRU cache of instances and compiled kernels with hit/miss counters.

    Campaign chunks execute many scenarios over few distinct topologies
    (every algorithm × scheduler × failure-model cell of one replicate shares
    a ``(family, size, topology_seed)`` instance), so a small per-process
    cache amortises both topology construction and kernel compilation.
    Instances are immutable and kernels hold no run state, so sharing them
    across scenarios is safe.  Stats are cumulative; callers snapshot
    :meth:`stats` around a chunk to report deltas.

    The default ``capacity`` holds a full campaign axis sweep's worth of
    topologies (families × sizes × replicates regularly reaches several
    dozen distinct instances).  The counters live in a
    :class:`~repro.telemetry.metrics.MetricsRegistry` (``metrics``, prefixed
    by ``prefix``) so the per-process engine cache reports into the shared
    ``ENGINE_METRICS`` namespace; a bare ``KernelCache()`` counts into a
    private registry of its own.
    """

    def __init__(
        self,
        capacity: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        prefix: str = "",
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._instances: "OrderedDict[Hashable, LinkReversalInstance]" = OrderedDict()
        # values are whatever the caller compiles: a bare SignatureExpander
        # or a wrapper built on one (the runner caches whole simulators)
        self._kernels: "OrderedDict[Tuple[Hashable, Hashable], object]" = OrderedDict()
        if metrics is None:
            metrics = MetricsRegistry()
        self._instance_hits = metrics.counter(prefix + "instance_hits")
        self._instance_builds = metrics.counter(prefix + "instance_builds")
        self._kernel_hits = metrics.counter(prefix + "kernel_hits")
        self._kernel_compiles = metrics.counter(prefix + "kernel_compiles")

    def instance(
        self, key: Hashable, build: Callable[[], LinkReversalInstance]
    ) -> LinkReversalInstance:
        """The cached instance for ``key``, building (and caching) on a miss."""
        cached = self._instances.get(key)
        if cached is not None:
            self._instances.move_to_end(key)
            self._instance_hits.inc()
            return cached
        self._instance_builds.inc()
        instance = build()
        self._instances[key] = instance
        if len(self._instances) > self.capacity:
            evicted, _ = self._instances.popitem(last=False)
            for kernel_key in [k for k in self._kernels if k[0] == evicted]:
                del self._kernels[kernel_key]
        return instance

    def kernel(
        self,
        key: Hashable,
        algorithm: Hashable,
        compile_kernel: Callable[[], Optional[object]],
    ) -> Optional[object]:
        """The cached compiled object for ``(key, algorithm)``.

        The value is whatever ``compile_kernel`` builds — a
        :class:`~repro.kernels.signature.SignatureExpander` or a wrapper on
        one (e.g. a :class:`SignatureSimulator`, or any other per-topology
        product such as a mobility trajectory).  A ``None`` result (no
        kernel for this automaton) is not cached — those callers fall back
        to the object path anyway.  Nor is anything cached for a ``key``
        whose instance is not: entries are evicted with their instance, and
        past :data:`KERNELS_PER_INSTANCE` entries per instance of capacity
        in least-recently-used order, so the cache stays bounded by its
        capacity.
        """
        kernel_key = (key, algorithm)
        cached = self._kernels.get(kernel_key)
        if cached is not None:
            self._kernels.move_to_end(kernel_key)
            self._kernel_hits.inc()
            return cached
        self._kernel_compiles.inc()
        kernel = compile_kernel()
        if kernel is not None and key in self._instances:
            self._kernels[kernel_key] = kernel
            while len(self._kernels) > self.capacity * KERNELS_PER_INSTANCE:
                self._kernels.popitem(last=False)
        return kernel

    def stats(self) -> Dict[str, int]:
        """Cumulative cache counters (JSON-compatible)."""
        return {
            "instance_hits": self._instance_hits.value,
            "instance_builds": self._instance_builds.value,
            "kernel_hits": self._kernel_hits.value,
            "kernel_compiles": self._kernel_compiles.value,
        }

    def clear(self) -> None:
        """Drop every cached object (counters are kept — they are cumulative)."""
        self._instances.clear()
        self._kernels.clear()
