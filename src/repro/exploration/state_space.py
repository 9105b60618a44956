"""Reference breadth-first exploration of an automaton's reachable states.

The explorer performs a breadth-first search from the initial state, following
*every* enabled action (for PR that includes every non-empty subset of the
sink set — exactly the action set of Algorithm 1), deduplicating states by
their canonical :meth:`signature`.  A set of named predicates is evaluated on
every newly discovered state; any violation is recorded together with a
replayable :class:`~repro.exploration.counterexample.CounterexampleTrace`
reaching the offending state.

This is the **reference implementation**: it materialises a full state object
per transition and runs in a single process, which keeps it simple enough to
serve as the oracle that the production engine —
:class:`~repro.exploration.checker.ModelChecker`, which explores compact
signatures directly in whole-frontier batches, spills the visited set to disk
and applies symmetry reduction — is differentially tested against
(``tests/test_model_check_differential.py``).  Use :class:`ModelChecker` for
anything beyond toy sizes.

For the link-reversal automata the reachable space is finite: each node can
take only a bounded number of steps before the graph is destination oriented,
so exploration always terminates (the ``max_states`` bound exists as a
safety net and for exploring deliberately large instances partially).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Mapping, Optional, Tuple

from repro.automata.ioa import Action, IOAutomaton
from repro.exploration.counterexample import CounterexampleTrace

#: A predicate evaluated on every reachable state.  It may return a ``bool``
#: or any object with a truthy ``holds`` attribute (e.g. an
#: :class:`~repro.verification.invariants.InvariantReport`).
StatePredicate = Callable[[object], object]


@dataclass
class PredicateFailure:
    """A reachable state violating a predicate, with its replayable trace.

    ``trace`` is a full :class:`~repro.exploration.counterexample
    .CounterexampleTrace`: replaying its actions from the initial state
    reproduces the violating state.  The legacy ``path`` view (the raw action
    tuple) is kept as a property for callers that only need the action
    sequence.
    """

    predicate_name: str
    trace: CounterexampleTrace
    detail: str

    @property
    def path(self) -> Tuple[Action, ...]:
        """The action sequence reaching the violating state."""
        return self.trace.actions


@dataclass
class ExplorationReport:
    """Summary of an exhaustive exploration run."""

    automaton_name: str
    states_explored: int = 0
    transitions_explored: int = 0
    quiescent_states: int = 0
    truncated: bool = False
    failures: List[PredicateFailure] = field(default_factory=list)
    max_depth: int = 0

    @property
    def all_predicates_hold(self) -> bool:
        """Whether no predicate was violated on any explored state."""
        return not self.failures

    def __str__(self) -> str:
        status = "OK" if self.all_predicates_hold else f"{len(self.failures)} FAILURE(S)"
        suffix = " (truncated)" if self.truncated else ""
        return (
            f"[{self.automaton_name}] {self.states_explored} states, "
            f"{self.transitions_explored} transitions, depth {self.max_depth}, "
            f"{self.quiescent_states} quiescent — {status}{suffix}"
        )


def _predicate_outcome(result: object) -> Tuple[bool, str]:
    """Normalise a predicate result to ``(holds, detail)``.

    The detail is the first three ``violations`` when the result lists
    them, else its ``detail`` string (a
    :class:`~repro.verification.properties.PropertyReport` has one), else
    empty.
    """
    holds = getattr(result, "holds", None)
    if holds is None:
        return bool(result), ""
    violations = getattr(result, "violations", None)
    if violations:
        return bool(holds), "; ".join(str(v) for v in list(violations)[:3])
    return bool(holds), str(getattr(result, "detail", "") or "")


class StateSpaceExplorer:
    """Breadth-first exhaustive explorer with per-state predicate checking.

    Parameters
    ----------
    automaton:
        The automaton to explore.
    predicates:
        Mapping from predicate name to predicate.  Use the bundles in
        :mod:`repro.verification.invariants` for the paper's invariants.
    max_states:
        Exploration stops (and the report is marked ``truncated``) once this
        many distinct states have been discovered.
    use_single_actions_only:
        When ``True`` only single-node actions are followed.  For PR this
        explores the OneStepPR-reachable subset, which is often enough and
        exponentially cheaper; the default ``False`` follows every subset
        action exactly as Algorithm 1 allows.
    """

    def __init__(
        self,
        automaton: IOAutomaton,
        predicates: Optional[Mapping[str, StatePredicate]] = None,
        max_states: int = 200_000,
        use_single_actions_only: bool = False,
    ):
        self.automaton = automaton
        self.predicates = dict(predicates or {})
        self.max_states = max_states
        self.use_single_actions_only = use_single_actions_only

    # ------------------------------------------------------------------
    def explore(self) -> ExplorationReport:
        """Run the exhaustive exploration and return the report."""
        automaton = self.automaton
        report = ExplorationReport(automaton_name=automaton.name)

        initial = automaton.initial_state()
        seen = {initial.signature()}
        queue: deque = deque()
        queue.append((initial, (), 0))
        report.states_explored = 1
        self._check_state(initial, (), report)

        while queue:
            state, path, depth = queue.popleft()
            report.max_depth = max(report.max_depth, depth)

            if self.use_single_actions_only:
                actions = list(automaton.enabled_single_actions(state))
            else:
                actions = list(automaton.enabled_actions(state))
            if not actions:
                report.quiescent_states += 1
                continue

            for action in actions:
                successor = automaton.apply(state, action)
                report.transitions_explored += 1
                signature = successor.signature()
                if signature in seen:
                    continue
                if report.states_explored >= self.max_states:
                    report.truncated = True
                    return report
                seen.add(signature)
                report.states_explored += 1
                new_path = path + (action,)
                self._check_state(successor, new_path, report)
                queue.append((successor, new_path, depth + 1))
        return report

    # ------------------------------------------------------------------
    def _check_state(self, state, path: Tuple[Action, ...], report: ExplorationReport) -> None:
        for name, predicate in self.predicates.items():
            outcome = predicate(state)
            holds, detail = _predicate_outcome(outcome)
            if not holds:
                trace = CounterexampleTrace(
                    automaton_name=self.automaton.name,
                    predicate_name=name,
                    detail=detail,
                    actions=path,
                )
                report.failures.append(PredicateFailure(name, trace, detail))


def explore_and_check(
    automaton: IOAutomaton,
    predicates: Mapping[str, StatePredicate],
    max_states: int = 200_000,
    use_single_actions_only: bool = False,
) -> ExplorationReport:
    """Convenience wrapper: build a :class:`StateSpaceExplorer` and run it."""
    explorer = StateSpaceExplorer(
        automaton,
        predicates=predicates,
        max_states=max_states,
        use_single_actions_only=use_single_actions_only,
    )
    return explorer.explore()
