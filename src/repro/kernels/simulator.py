"""Run tallies, the deadline stride and the kernel cache of the simulation engine.

:meth:`BatchSimulator.run <repro.kernels.batch.BatchSimulator.run>` is the
loop that drives convergence phases on compiled
:class:`~repro.kernels.signature.SignatureExpander` kernels; this module
holds what it counts with:

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
from typing import Callable, Dict, Hashable, Optional, Set, Tuple

from repro.core.graph import LinkReversalInstance
from repro.telemetry.metrics import MetricsRegistry

#: Steps between wall-clock reads of a cooperative deadline.  The first step
#: of every phase is always checked, so an already-expired budget aborts
#: immediately (exact-timeout semantics); past that, a run may overshoot its
#: deadline by at most ``stride - 1`` steps.
DEADLINE_CHECK_STRIDE = 64

#: Compiled entries (kernels, mobility trajectories and the kernels of their
#: steps, link-draw tables, initial phases, final-state verdicts) a
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
        # values are whatever the caller compiles: a SignatureExpander or
        # another per-topology product (phases, trajectories, verdicts)
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
        :class:`~repro.kernels.signature.SignatureExpander`, or any other
        per-topology product such as a mobility trajectory.  A ``None``
        result (no kernel for this automaton) is not cached — those callers
        fall back to the object path anyway.  Nor is anything cached for a ``key``
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
