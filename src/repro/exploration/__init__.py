"""Exhaustive and randomized exploration of automaton state spaces.

The paper's invariants are universally quantified over *reachable states*.
This package turns those universally-quantified claims into machine-checked
facts at the largest instance sizes the hardware allows:

* :class:`~repro.exploration.checker.ModelChecker` — the production engine:
  one compiled breadth-first loop over signature rows of any width (no state
  materialisation on the hot path), with twin-node symmetry reduction, an
  optional disk-spilled visited set
  (:class:`~repro.exploration.frontier.VisitedSet`) and first-class
  counterexample traces.  Automata without a compiled kernel run on the
  reference explorer below.  Surfaced as ``repro check``;
* :class:`~repro.exploration.state_space.StateSpaceExplorer` — the simple
  state-materialising reference explorer: the oracle the compiled loop is
  differentially tested against, and the checker's loop for every other
  automaton;
* :mod:`repro.exploration.random_walk` — long random executions for
  instances where exhaustive exploration is infeasible;
* :mod:`repro.exploration.enumerate_graphs` — enumeration of all small DAG
  instances so the exhaustive check can quantify over *graphs* as well as
  over states.

The compiled signature kernels the checker explores with live in
:mod:`repro.kernels` (they are shared with the scenario simulation engine).
"""

from repro.exploration.checker import CheckReport, ModelChecker, check_exhaustively
from repro.exploration.counterexample import CounterexampleTrace
from repro.exploration.frontier import VisitedSet
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
    "StateSpaceExplorer",
    "VisitedSet",
    "all_connected_dag_instances",
    "all_dag_instances",
    "check_exhaustively",
    "explore_and_check",
]
