"""repro — reproduction of *Partial Reversal Acyclicity* (Radeva & Lynch, 2011).

This package implements the link-reversal algorithms studied in the paper
(Partial Reversal ``PR``, its one-node-at-a-time variant ``OneStepPR``, the
paper's new parity-based variant ``NewPR``, and the Full Reversal baseline
``FR``), together with:

* an I/O-automaton framework for expressing the algorithms exactly as the
  paper does (:mod:`repro.automata`);
* verification machinery for the paper's invariants, the acyclicity theorems
  and the simulation relations R' and R (:mod:`repro.verification`);
* compiled int-signature kernels — the shared fast-path substrate of the
  exhaustive model checker and the scenario simulation engine
  (:mod:`repro.kernels`);
* a bounded model checker that exhaustively explores reachable states of any
  automaton on small instances (:mod:`repro.exploration`);
* schedulers / adversaries and work counting (:mod:`repro.schedulers`,
  :mod:`repro.analysis`);
* a discrete-event simulator for asynchronous, message-passing executions of
  link reversal (:mod:`repro.distributed`), with route maintenance under
  link failures and mobility run as experiment campaigns
  (:mod:`repro.experiments`);
* topology generators, including MANET-style geometric graphs and mobility
  (:mod:`repro.topology`).

Quickstart
----------

>>> from repro import LinkReversalInstance, PartialReversal, GreedyScheduler, run
>>> instance = LinkReversalInstance.from_directed_edges(
...     nodes=["d", "a", "b", "c"],
...     destination="d",
...     edges=[("d", "a"), ("a", "b"), ("b", "c")],
... )
>>> automaton = PartialReversal(instance)
>>> result = run(automaton, GreedyScheduler(seed=0))
>>> result.final_state.is_destination_oriented()
True
"""

from repro.core.graph import (
    EdgeDirection,
    LinkReversalInstance,
    Orientation,
)
from repro.core.embedding import PlanarEmbedding
from repro.core.pr import PartialReversal, PRState, ReverseSet
from repro.core.one_step_pr import OneStepPartialReversal, OneStepPRState
from repro.core.new_pr import NewPartialReversal, NewPRState, Parity
from repro.core.full_reversal import FullReversal, FRState
from repro.core.bll import BinaryLinkLabels, BLLState
from repro.core.heights import GBPartialReversalHeights, GBFullReversalHeights
from repro.automata.ioa import Action, IOAutomaton
from repro.automata.executions import Execution, ExecutionResult, run
from repro.schedulers.base import Scheduler
from repro.schedulers.greedy import GreedyScheduler
from repro.schedulers.sequential import SequentialScheduler
from repro.schedulers.random_scheduler import RandomScheduler
from repro.schedulers.adversarial import AdversarialScheduler, LazyScheduler
from repro.verification.acyclicity import is_acyclic, check_acyclic_execution
from repro.verification.invariants import (
    check_invariant_3_1,
    check_invariant_3_2,
    check_invariant_4_1,
    check_invariant_4_2,
)
from repro.verification.simulation import (
    RelationRPrime,
    RelationR,
    check_pr_to_onestep_simulation,
    check_onestep_to_newpr_simulation,
)
from repro.exploration.state_space import StateSpaceExplorer, ExplorationReport
from repro.exploration.checker import CheckReport, ModelChecker
from repro.exploration.counterexample import CounterexampleTrace
from repro.analysis.work import WorkSummary, count_reversals, compare_algorithms
from repro.topology.generators import (
    chain_instance,
    grid_instance,
    layered_instance,
    random_dag_instance,
    star_instance,
    tree_instance,
)

__version__ = "1.0.0"

__all__ = [
    "Action",
    "AdversarialScheduler",
    "BLLState",
    "BinaryLinkLabels",
    "CheckReport",
    "CounterexampleTrace",
    "ModelChecker",
    "EdgeDirection",
    "Execution",
    "ExecutionResult",
    "ExplorationReport",
    "FRState",
    "FullReversal",
    "GBFullReversalHeights",
    "GBPartialReversalHeights",
    "GreedyScheduler",
    "IOAutomaton",
    "LazyScheduler",
    "LinkReversalInstance",
    "NewPRState",
    "NewPartialReversal",
    "OneStepPRState",
    "OneStepPartialReversal",
    "Orientation",
    "PRState",
    "Parity",
    "PartialReversal",
    "PlanarEmbedding",
    "RandomScheduler",
    "RelationR",
    "RelationRPrime",
    "ReverseSet",
    "Scheduler",
    "SequentialScheduler",
    "StateSpaceExplorer",
    "WorkSummary",
    "chain_instance",
    "check_acyclic_execution",
    "check_invariant_3_1",
    "check_invariant_3_2",
    "check_invariant_4_1",
    "check_invariant_4_2",
    "check_onestep_to_newpr_simulation",
    "check_pr_to_onestep_simulation",
    "compare_algorithms",
    "count_reversals",
    "grid_instance",
    "is_acyclic",
    "layered_instance",
    "random_dag_instance",
    "run",
    "star_instance",
    "tree_instance",
]
