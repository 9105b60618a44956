"""Exhaustive and randomized exploration of automaton state spaces.

The paper's invariants are universally quantified over *reachable states*.
This package turns those universally-quantified claims into machine-checked
facts at the largest instance sizes the hardware allows:

* :class:`~repro.exploration.checker.ModelChecker` — the production engine:
  one compiled breadth-first loop over signature rows of any width (no state
  materialisation on the hot path), with twin-node symmetry reduction, an
  optional disk-spilled visited set and first-class counterexample traces,
  plus a generic loop for automata without a compiled kernel.  Surfaced as
  ``repro check``;
* :class:`~repro.exploration.state_space.StateSpaceExplorer` — the simple
  state-materialising reference explorer, kept as the oracle the production
  engine is differentially tested against;
* :mod:`repro.exploration.random_walk` — long random executions for
  instances where exhaustive exploration is infeasible;
* :mod:`repro.exploration.enumerate_graphs` — enumeration of all small DAG
  instances so the exhaustive check can quantify over *graphs* as well as
  over states.

The compiled signature kernels the checker explores with now live in
:mod:`repro.kernels` (they are shared with the scenario simulation engine);
the historical names are still re-exported here and from
:mod:`repro.exploration.frontier`.
"""

from repro.exploration.checker import CheckReport, ModelChecker, check_exhaustively
from repro.exploration.counterexample import CounterexampleTrace
from repro.exploration.frontier import (
    SignatureExpander,
    VisitedSet,
    compile_expander,
    mask_is_acyclic,
    mask_is_destination_oriented,
    twin_node_classes,
)
from repro.exploration.state_space import (
    ExplorationReport,
    PredicateFailure,
    StateSpaceExplorer,
    explore_and_check,
)
from repro.exploration.random_walk import RandomWalkChecker, RandomWalkReport
from repro.exploration.enumerate_graphs import (
    all_dag_instances,
    all_connected_dag_instances,
)

__all__ = [
    "CheckReport",
    "CounterexampleTrace",
    "ExplorationReport",
    "ModelChecker",
    "PredicateFailure",
    "RandomWalkChecker",
    "RandomWalkReport",
    "SignatureExpander",
    "StateSpaceExplorer",
    "VisitedSet",
    "all_connected_dag_instances",
    "all_dag_instances",
    "check_exhaustively",
    "compile_expander",
    "explore_and_check",
    "mask_is_acyclic",
    "mask_is_destination_oriented",
    "twin_node_classes",
]
