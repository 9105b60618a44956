"""Executions of I/O automata: alternating state/action sequences.

An *execution* of an automaton is a finite alternating sequence
``s_0, a_1, s_1, a_2, s_2, ...`` where ``s_0`` is the initial state, every
``a_i`` is enabled in ``s_{i-1}``, and ``s_i`` is the result of applying
``a_i`` to ``s_{i-1}``.  This module provides:

* :class:`Step` / :class:`Execution` — the recorded sequence, with validation
  and replay helpers used heavily by the verification layer;
* :func:`run` — drive an automaton with a :class:`~repro.schedulers.base.Scheduler`
  until quiescence or a step bound, optionally invoking per-step observers
  (this is how invariants are checked *along* executions);
* :class:`ExecutionResult` — what :func:`run` returns (execution, convergence
  flag, and step statistics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.automata.ioa import Action, IOAutomaton, TransitionError

StateT = TypeVar("StateT")

#: Signature of a per-step observer: ``observer(step_index, pre_state, action, post_state)``.
Observer = Callable[[int, object, Action, object], None]


@dataclass(frozen=True)
class Step(Generic[StateT]):
    """A single transition ``(pre_state, action, post_state)`` of an execution."""

    index: int
    pre_state: StateT
    action: Action
    post_state: StateT


class Execution(Generic[StateT]):
    """A recorded finite execution of an automaton.

    The execution stores every intermediate state, which is what the paper's
    invariants quantify over ("in every reachable state ...").  States are the
    immutable snapshots returned by the automaton, so holding them is safe.
    """

    def __init__(self, automaton: IOAutomaton, initial_state: StateT):
        self.automaton = automaton
        self._states: List[StateT] = [initial_state]
        self._actions: List[Action] = []

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def append(self, action: Action, post_state: StateT) -> None:
        """Record one transition.  The action is assumed already applied."""
        self._actions.append(action)
        self._states.append(post_state)

    def extend_by_applying(self, actions: Iterable[Action]) -> None:
        """Apply each action in turn (validating enabledness) and record it."""
        for action in actions:
            current = self.final_state
            if not self.automaton.is_enabled(current, action):
                raise TransitionError(
                    f"action {action!r} is not enabled in state #{len(self._actions)}"
                )
            self.append(action, self.automaton.apply(current, action))

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def initial_state(self) -> StateT:
        """The first state ``s_0``."""
        return self._states[0]

    @property
    def final_state(self) -> StateT:
        """The last state of the execution."""
        return self._states[-1]

    @property
    def states(self) -> Tuple[StateT, ...]:
        """All states ``s_0 .. s_k`` in order."""
        return tuple(self._states)

    @property
    def actions(self) -> Tuple[Action, ...]:
        """All actions ``a_1 .. a_k`` in order (the *trace* of the execution)."""
        return tuple(self._actions)

    @property
    def length(self) -> int:
        """Number of transitions taken."""
        return len(self._actions)

    def steps(self) -> Iterator[Step[StateT]]:
        """Iterate over the transitions as :class:`Step` records."""
        for i, action in enumerate(self._actions):
            yield Step(i, self._states[i], action, self._states[i + 1])

    def state_at(self, index: int) -> StateT:
        """The state after ``index`` transitions (``state_at(0)`` is initial)."""
        return self._states[index]

    # ------------------------------------------------------------------
    # validation / checks
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Re-check that every recorded transition is legal.

        Raises :class:`TransitionError` on the first violation.  Used by tests
        to make sure schedulers and the distributed layer only ever produce
        legitimate executions.
        """
        for step in self.steps():
            if not self.automaton.is_enabled(step.pre_state, step.action):
                raise TransitionError(
                    f"step {step.index}: action {step.action!r} not enabled"
                )
            recomputed = self.automaton.apply(step.pre_state, step.action)
            if recomputed.signature() != step.post_state.signature():
                raise TransitionError(
                    f"step {step.index}: recorded post-state does not match transition function"
                )

    def check_state_property(self, predicate: Callable[[StateT], bool]) -> Optional[int]:
        """Return the index of the first state violating ``predicate``, or ``None``."""
        for i, state in enumerate(self._states):
            if not predicate(state):
                return i
        return None

    def __len__(self) -> int:
        return len(self._actions)

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"<Execution of {self.automaton.name}: {self.length} steps>"


@dataclass
class ExecutionResult(Generic[StateT]):
    """Outcome of :func:`run`.

    Attributes
    ----------
    execution:
        The full recorded execution.
    converged:
        ``True`` if the run stopped because no action was enabled (quiescence),
        ``False`` if it stopped because the step bound was hit.
    steps_taken:
        Number of transitions performed.
    """

    execution: Execution[StateT]
    converged: bool
    steps_taken: int

    @property
    def final_state(self) -> StateT:
        """The last state reached."""
        return self.execution.final_state

    @property
    def initial_state(self) -> StateT:
        """The initial state of the run."""
        return self.execution.initial_state


#: Default cap on execution length; generous enough for the worst-case
#: Θ(n_b²) executions studied in the benchmarks, while guaranteeing
#: termination of :func:`run` even for misbehaving custom automata.
DEFAULT_MAX_STEPS = 1_000_000


def run(
    automaton: IOAutomaton,
    scheduler,
    max_steps: Optional[int] = None,
    initial_state: Optional[StateT] = None,
    observers: Sequence[Observer] = (),
    record_states: bool = True,
) -> ExecutionResult:
    """Drive ``automaton`` with ``scheduler`` until quiescence or ``max_steps``.

    Parameters
    ----------
    automaton:
        Any :class:`~repro.automata.ioa.IOAutomaton`.
    scheduler:
        A :class:`~repro.schedulers.base.Scheduler`; it is asked to pick one of
        the enabled actions at every step (the adversary of the paper's model).
    max_steps:
        Upper bound on transitions (defaults to :data:`DEFAULT_MAX_STEPS`).
    initial_state:
        Start from this state instead of the automaton's initial state (used
        when resuming after a topology change).
    observers:
        Callables invoked after every transition with
        ``(step_index, pre_state, action, post_state)``.  Invariant checking
        along executions is implemented as an observer.
    record_states:
        When ``False``, intermediate states are not retained (the execution
        will contain only the initial and final state); use for very long
        benchmark runs where memory matters.  Step observers still see every
        intermediate state.

    Returns
    -------
    ExecutionResult
    """
    if max_steps is None:
        max_steps = DEFAULT_MAX_STEPS

    state = automaton.initial_state() if initial_state is None else initial_state
    execution = Execution(automaton, state)
    scheduler.reset(automaton)

    # hoisted so the hot loop never iterates an empty dispatch list: a run
    # without observers pays no per-step dispatch cost at all
    dispatch_observers = bool(observers)

    steps = 0
    converged = False
    while steps < max_steps:
        action = scheduler.select(automaton, state)
        if action is None:
            converged = True
            break
        if not automaton.is_enabled(state, action):
            raise TransitionError(
                f"scheduler {scheduler!r} selected disabled action {action!r}"
            )
        next_state = automaton.apply(state, action)
        if dispatch_observers:
            for observer in observers:
                observer(steps, state, action, next_state)
        if record_states:
            execution.append(action, next_state)
        else:
            # keep only the endpoints: rewrite the single-state suffix
            execution._actions.append(action)
            if len(execution._states) > 1:
                execution._states[-1] = next_state
            else:
                execution._states.append(next_state)
        state = next_state
        steps += 1
    else:
        # step bound reached without the scheduler declaring quiescence
        converged = not automaton.has_enabled_action(state)

    return ExecutionResult(execution=execution, converged=converged, steps_taken=steps)


def replay(
    automaton: IOAutomaton,
    actions: Sequence[Action],
    initial_state: Optional[StateT] = None,
) -> Execution:
    """Replay an explicit action sequence on ``automaton`` and return the execution.

    Every action is validated against its precondition; this is how the
    simulation-relation checker constructs the corresponding executions of
    OneStepPR and NewPR from a PR trace.
    """
    state = automaton.initial_state() if initial_state is None else initial_state
    execution = Execution(automaton, state)
    execution.extend_by_applying(actions)
    return execution
