"""Compiled int-signature kernels shared by the model checker and simulator.

PR 1 gave every automaton state a compact **int signature** (the
orientation's edge-reversal bitmask with per-node bookkeeping packed into the
high bits).  This package holds everything that computes *directly on those
ints* with no state objects on the hot path:

* :mod:`repro.kernels.signature` — the compiled successor kernels
  (:class:`SignatureExpander` and the PR / OneStepPR / NewPR / FR
  specialisations) plus the mask-level structural checks and twin-node
  symmetry machinery.  The exhaustive model checker
  (:mod:`repro.exploration`) and the simulation engine both build on these.
* :mod:`repro.kernels.schedulers` — mask-level scheduler choice logic: every
  scheduler in :data:`repro.schedulers.SCHEDULER_FACTORIES` has a twin here
  that picks actors from the simulator's incremental sink-id set without
  unpacking a single neighbour set, consuming randomness identically to its
  object-level counterpart so seeded runs are bit-for-bit reproducible
  across engines.
* :mod:`repro.kernels.vector` — batch twins of the compiled expanders:
  :class:`VectorExpander` takes a numpy array of signature rows (``k``
  ``uint64`` words per signature) and returns the whole successor frontier
  via bitwise column operations, in exact scalar generation order.  The
  model checker's compiled loop (:class:`repro.exploration.ModelChecker`)
  runs on these for every instance of at most 64 nodes.
* :mod:`repro.kernels.simulator` — :class:`SignatureSimulator`, one
  convergence phase with work/round accounting via signature XOR and
  deadline handling, all as pure int operations; plus the per-process
  :class:`KernelCache` that amortises kernel compilation across the runs of
  a campaign chunk.
* :mod:`repro.kernels.batch` — :class:`BatchSimulator`, many such phases as
  lockstep lanes (crash-stopped nodes and per-lane step bounds included):
  the scenario-execution fast path of the campaign engine.

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
    mask_directed_edges,
    mask_final_state_checks,
    mask_is_acyclic,
    mask_is_destination_oriented,
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
from repro.kernels.simulator import (
    KernelCache,
    PhaseOutcome,
    RoundTally,
    SignatureSimulator,
    WorkTally,
    cache_capacity_from_env,
)

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
    "cache_capacity_from_env",
    "MASK_SCHEDULER_FACTORIES",
    "MaskScheduler",
    "NewPRExpander",
    "OneStepPRExpander",
    "PartialReversalExpander",
    "PhaseOutcome",
    "RoundTally",
    "SignatureExpander",
    "SignatureSimulator",
    "WorkTally",
    "compile_expander",
    "make_mask_scheduler",
    "mask_directed_edges",
    "mask_final_state_checks",
    "mask_is_acyclic",
    "mask_is_destination_oriented",
    "twin_node_classes",
]
