"""Compiled int-signature kernels shared by the model checker and simulator.

Every automaton state has a compact **int signature** (the orientation's
edge-reversal bitmask with per-node bookkeeping packed into the high bits).
This package holds everything that computes *directly on those ints* with no
state objects on the hot path:

* :mod:`repro.kernels.signature` — the compiled kernels
  (:class:`SignatureExpander` and the PR / OneStepPR / NewPR / FR
  specialisations, which BLL reuses), each the one object of its kernel:
  the ``step`` tables, the simulation tables (incidence rows, can-sink
  table, hop distances) and their restriction to a churn repair phase's
  alive links, plus the twin-node symmetry machinery.  The exhaustive
  model checker (:mod:`repro.exploration`) and the simulation engine both
  build on these; the mask-level structural checks live in
  :mod:`repro.core.graph`.
* :mod:`repro.kernels.schedulers` — mask-level scheduler choice logic: every
  scheduler in :data:`repro.schedulers.SCHEDULER_FACTORIES` has a twin here
  that picks actors from a lane's incremental sink-id set without
  unpacking a single neighbour set, consuming randomness identically to its
  object-level counterpart so seeded runs are bit-for-bit reproducible
  across engines.
* :mod:`repro.kernels.vector` — batch twins of the compiled expanders:
  :class:`VectorExpander` takes a numpy array of signature rows (``k``
  ``uint64`` words per signature) and returns the whole successor frontier
  via bitwise column operations, in the automaton's ``enabled_actions``
  order.  The model checker's compiled loop
  (:class:`repro.exploration.ModelChecker`) runs on these for every
  instance of at most 64 nodes.
* :mod:`repro.kernels.simulator` — the :class:`WorkTally` /
  :class:`RoundTally` accumulators and the per-process
  :class:`KernelCache` that amortises kernel compilation across the runs
  of a campaign chunk.
* :mod:`repro.kernels.batch` — :class:`BatchSimulator`, the one mask-level
  convergence loop: any number of phases as lockstep lanes, with work/round
  accounting via signature XOR, crash-stopped nodes, per-lane step bounds,
  optional actor traces and the shared deadline.  The ``kernel`` campaign
  engine, its churn repair phases and ``repro run`` all run on it.

The object-level automata remain the *documented oracle*: differential tests
assert field-for-field equality between a kernel run and the legacy
object-path run for every algorithm/scheduler/churn combination.
"""

from repro.kernels.signature import (
    FullReversalExpander,
    NewPRExpander,
    OneStepPRExpander,
    PartialReversalExpander,
    SignatureExpander,
    compile_expander,
    twin_node_classes,
)
from repro.kernels.schedulers import (
    MASK_SCHEDULER_FACTORIES,
    MaskScheduler,
    make_mask_scheduler,
)
from repro.kernels.batch import BatchLaneOutcome, BatchSimulator
from repro.kernels.vector import (
    BatchExpansion,
    VectorExpander,
    compile_vector_expander,
    decode_token,
    mask_is_acyclic_batch,
    mask_is_destination_oriented_batch,
)
from repro.kernels.simulator import KernelCache, RoundTally, WorkTally

__all__ = [
    "BatchExpansion",
    "BatchLaneOutcome",
    "BatchSimulator",
    "FullReversalExpander",
    "VectorExpander",
    "compile_vector_expander",
    "decode_token",
    "mask_is_acyclic_batch",
    "mask_is_destination_oriented_batch",
    "KernelCache",
    "MASK_SCHEDULER_FACTORIES",
    "MaskScheduler",
    "NewPRExpander",
    "OneStepPRExpander",
    "PartialReversalExpander",
    "RoundTally",
    "SignatureExpander",
    "WorkTally",
    "compile_expander",
    "make_mask_scheduler",
    "twin_node_classes",
]
