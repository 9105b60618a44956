"""The simulation relations of Section 5, as executable checkers.

The paper transfers the acyclicity proof from NewPR back to the original PR
through two binary relations:

* **R′** relates reachable states of PR and OneStepPR: the directed graphs are
  identical and every node's ``list`` is identical (Section 5.2).
* **R** relates reachable states of OneStepPR and NewPR: the directed graphs
  are identical, and ``parity[u] = even`` implies ``list[u] ⊆ out_nbrs(u)``
  while ``parity[u] = odd`` implies ``list[u] ⊆ in_nbrs(u)`` (Section 5.3).

Lemma 5.1 / Lemma 5.3 show how to construct, for every step of the "source"
automaton, a finite sequence of steps of the "target" automaton that restores
the relation:

* a PR action ``reverse(S)`` corresponds to one ``reverse(u)`` of OneStepPR
  per ``u ∈ S`` (in any order);
* a OneStepPR action ``reverse(w)`` corresponds to one NewPR ``reverse(w)``
  when ``list[w] ≠ nbrs(w)``, and to *two* consecutive ``reverse(w)`` steps
  (a dummy step followed by a real one) when ``list[w] = nbrs(w)``.

The checkers below replay a recorded execution of the source automaton,
construct exactly that corresponding execution of the target automaton, and
verify the relation at every correspondence point.  This is the empirical
content of Theorems 5.2, 5.4 and 5.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.automata.executions import Execution
from repro.core.base import Reverse
from repro.core.graph import LinkReversalInstance
from repro.core.new_pr import NewPartialReversal, NewPRState, Parity
from repro.core.one_step_pr import OneStepPartialReversal, OneStepPRState
from repro.core.pr import PartialReversal, PRState, ReverseSet

Node = Hashable


# ----------------------------------------------------------------------
# the relations themselves
# ----------------------------------------------------------------------
class RelationRPrime:
    """The relation R′ between PR states and OneStepPR states (Section 5.2)."""

    def __init__(self, instance: LinkReversalInstance):
        self.instance = instance

    def holds(self, pr_state: PRState, onestep_state: OneStepPRState) -> bool:
        """Whether ``(pr_state, onestep_state) ∈ R′``."""
        return not self.violations(pr_state, onestep_state)

    def violations(self, pr_state: PRState, onestep_state: OneStepPRState) -> List[str]:
        """Human-readable descriptions of every violated condition of R′."""
        problems: List[str] = []
        if pr_state.graph_signature() != onestep_state.graph_signature():
            problems.append("directed graphs differ (condition 1 of R')")
        for u in self.instance.nodes:
            if pr_state.list_of(u) != onestep_state.list_of(u):
                problems.append(
                    f"list[{u}] differs: PR has {sorted(map(str, pr_state.list_of(u)))}, "
                    f"OneStepPR has {sorted(map(str, onestep_state.list_of(u)))} (condition 2 of R')"
                )
        return problems


class RelationR:
    """The relation R between OneStepPR states and NewPR states (Section 5.3)."""

    def __init__(self, instance: LinkReversalInstance):
        self.instance = instance

    def holds(self, onestep_state: OneStepPRState, newpr_state: NewPRState) -> bool:
        """Whether ``(onestep_state, newpr_state) ∈ R``."""
        return not self.violations(onestep_state, newpr_state)

    def violations(self, onestep_state: OneStepPRState, newpr_state: NewPRState) -> List[str]:
        """Human-readable descriptions of every violated condition of R."""
        problems: List[str] = []
        if onestep_state.graph_signature() != newpr_state.graph_signature():
            problems.append("directed graphs differ (condition 1 of R)")
        for u in self.instance.nodes:
            lst = onestep_state.list_of(u)
            parity = newpr_state.parity(u)
            if parity is Parity.EVEN and not lst <= self.instance.out_nbrs(u):
                problems.append(
                    f"parity[{u}] is even but list[{u}]={sorted(map(str, lst))} "
                    "is not a subset of out_nbrs (condition 2 of R)"
                )
            if parity is Parity.ODD and not lst <= self.instance.in_nbrs(u):
                problems.append(
                    f"parity[{u}] is odd but list[{u}]={sorted(map(str, lst))} "
                    "is not a subset of in_nbrs (condition 3 of R)"
                )
        return problems


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class SimulationCheckResult:
    """Outcome of checking a simulation relation along one execution."""

    relation_name: str
    holds: bool
    correspondence_points: int
    failures: List[Tuple[int, str]] = field(default_factory=list)
    corresponding_execution: Optional[Execution] = None

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        if self.holds:
            return (
                f"{self.relation_name}: holds at all {self.correspondence_points} "
                "correspondence points"
            )
        lines = [f"{self.relation_name}: FAILED at {len(self.failures)} point(s)"]
        for index, reason in self.failures[:10]:
            lines.append(f"  source step {index}: {reason}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Lemma 5.1 / Theorem 5.2 — PR simulates OneStepPR via R'
# ----------------------------------------------------------------------
def check_pr_to_onestep_simulation(
    pr_execution: Execution,
    instance: Optional[LinkReversalInstance] = None,
) -> SimulationCheckResult:
    """Replay a PR execution, build the corresponding OneStepPR execution, check R′.

    For each PR action ``reverse(S)`` the corresponding OneStepPR fragment is
    one ``reverse(u)`` per ``u ∈ S`` (Lemma 5.1).  The relation is required to
    hold initially and after every completed fragment.
    """
    if instance is None:
        instance = pr_execution.automaton.instance
    relation = RelationRPrime(instance)
    onestep = OneStepPartialReversal(instance)
    onestep_execution = Execution(onestep, onestep.initial_state())

    failures: List[Tuple[int, str]] = []
    points = 0

    t_state = onestep_execution.final_state
    points += 1
    for problem in relation.violations(pr_execution.initial_state, t_state):
        failures.append((0, f"initial states: {problem}"))

    for step in pr_execution.steps():
        action = step.action
        if isinstance(action, Reverse):
            nodes: Tuple[Node, ...] = (action.node,)
        elif isinstance(action, ReverseSet):
            nodes = action.actors()
        else:  # pragma: no cover - defensive
            failures.append((step.index, f"unexpected action type {type(action).__name__}"))
            continue
        for u in nodes:
            sub_action = Reverse(u)
            if not onestep.is_enabled(t_state, sub_action):
                failures.append(
                    (step.index, f"corresponding OneStepPR action reverse({u}) is not enabled")
                )
                break
            t_state = onestep.apply(t_state, sub_action)
            onestep_execution.append(sub_action, t_state)
        points += 1
        for problem in relation.violations(step.post_state, t_state):
            failures.append((step.index, problem))

    return SimulationCheckResult(
        relation_name="R' (PR -> OneStepPR)",
        holds=not failures,
        correspondence_points=points,
        failures=failures,
        corresponding_execution=onestep_execution,
    )


# ----------------------------------------------------------------------
# Lemma 5.3 / Theorem 5.4 — OneStepPR simulates NewPR via R
# ----------------------------------------------------------------------
def check_onestep_to_newpr_simulation(
    onestep_execution: Execution,
    instance: Optional[LinkReversalInstance] = None,
) -> SimulationCheckResult:
    """Replay a OneStepPR execution, build the corresponding NewPR execution, check R.

    For each OneStepPR action ``reverse(w)`` the corresponding NewPR fragment
    is a single ``reverse(w)`` when ``list[w] ≠ nbrs(w)`` and two consecutive
    ``reverse(w)`` steps otherwise (Lemma 5.3).
    """
    if instance is None:
        instance = onestep_execution.automaton.instance
    relation = RelationR(instance)
    newpr = NewPartialReversal(instance)
    newpr_execution = Execution(newpr, newpr.initial_state())

    failures: List[Tuple[int, str]] = []
    points = 0

    t_state = newpr_execution.final_state
    points += 1
    for problem in relation.violations(onestep_execution.initial_state, t_state):
        failures.append((0, f"initial states: {problem}"))

    for step in onestep_execution.steps():
        action = step.action
        if isinstance(action, ReverseSet):
            if len(action.nodes) != 1:
                failures.append(
                    (step.index, "OneStepPR execution contains a multi-node action")
                )
                continue
            (w,) = tuple(action.nodes)
        elif isinstance(action, Reverse):
            w = action.node
        else:  # pragma: no cover - defensive
            failures.append((step.index, f"unexpected action type {type(action).__name__}"))
            continue

        pre_list = step.pre_state.list_of(w)
        repetitions = 2 if pre_list == instance.nbrs(w) else 1
        ok = True
        for _ in range(repetitions):
            sub_action = Reverse(w)
            if not newpr.is_enabled(t_state, sub_action):
                failures.append(
                    (step.index, f"corresponding NewPR action reverse({w}) is not enabled")
                )
                ok = False
                break
            t_state = newpr.apply(t_state, sub_action)
            newpr_execution.append(sub_action, t_state)
        points += 1
        if ok:
            for problem in relation.violations(step.post_state, t_state):
                failures.append((step.index, problem))

    return SimulationCheckResult(
        relation_name="R (OneStepPR -> NewPR)",
        holds=not failures,
        correspondence_points=points,
        failures=failures,
        corresponding_execution=newpr_execution,
    )


# ----------------------------------------------------------------------
# Theorem 5.5 — the full chain PR -> OneStepPR -> NewPR
# ----------------------------------------------------------------------
@dataclass
class SimulationChainResult:
    """Result of checking R' then R along one PR execution (Theorem 5.5)."""

    r_prime: SimulationCheckResult
    r: SimulationCheckResult

    @property
    def holds(self) -> bool:
        """Whether both relations held at every correspondence point."""
        return self.r_prime.holds and self.r.holds

    def __bool__(self) -> bool:
        return self.holds


def check_full_simulation_chain(pr_execution: Execution) -> SimulationChainResult:
    """Check R′ along a PR execution, then R along the constructed OneStepPR execution.

    This mirrors the proof of Theorem 5.5: every reachable PR state is related
    (via R′ then R) to a reachable NewPR state with the same directed graph,
    so PR inherits NewPR's acyclicity.
    """
    r_prime_result = check_pr_to_onestep_simulation(pr_execution)
    onestep_execution = r_prime_result.corresponding_execution
    if onestep_execution is None:  # pragma: no cover - defensive
        raise RuntimeError("R' check did not produce a corresponding execution")
    r_result = check_onestep_to_newpr_simulation(onestep_execution)
    return SimulationChainResult(r_prime=r_prime_result, r=r_result)


# ----------------------------------------------------------------------
# mask-level fast path: the same chain on compiled int kernels
# ----------------------------------------------------------------------
@dataclass
class MaskSimulationChainReport:
    """Result of the mask-level R′-then-R chain check along a PR actor trace.

    The counters mirror :class:`SimulationChainResult`: for a failure-free
    trace, ``r_prime_points == len(trace) + 1``, ``onestep_steps`` is the
    length of the constructed OneStepPR execution, ``r_points`` is
    ``onestep_steps + 1`` and ``newpr_steps`` the length of the constructed
    NewPR execution (dummy steps included).  ``failures`` records the first
    detection of each violation (the object checkers re-report a persisting
    violation at every subsequent point; the *verdicts* agree).  The
    object-level checkers above remain the oracle; the differential tests
    pin the two implementations to identical verdicts and counts.
    """

    r_prime_holds: bool
    r_holds: bool
    r_prime_points: int
    r_points: int
    pr_actions: int
    onestep_steps: int
    newpr_steps: int
    failures: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        """Whether both relations held at every correspondence point."""
        return self.r_prime_holds and self.r_holds

    def __bool__(self) -> bool:
        return self.holds


class MaskSimulationChain:
    """Reusable mask-level checker of Theorem 5.5's simulation chain.

    Compiles the OneStepPR and NewPR kernels for one instance once; every
    :meth:`check` call then runs a single fused pass over a PR actor-id
    trace, entirely on int signatures:

    * **R′** — the PR and OneStepPR kernels share one signature layout *and*
      one single-step function (PR's ``reverse(S)`` kernel effect is by
      construction the composition of the members' OneStepPR steps — the
      object-level equivalence of that composition with Algorithm 1's
      simultaneous effect is pinned by the kernel differential tests), so
      condition 1 (same directed graph) and condition 2 (same lists) hold
      identically whenever the corresponding execution *exists*.  What the
      pass verifies is exactly Lemma 5.1's remaining content: every
      fragment action ``reverse(u)``, ``u ∈ S``, is enabled where the
      construction needs it.
    * **R** — per OneStepPR step the Lemma 5.3 fragment (two NewPR steps
      when ``list[w] = nbrs(w)``, one otherwise) is applied to the NewPR
      signature, and the relation is re-checked *incrementally*: a node's
      (row, parity) pair only changes when the step touches it, so only the
      actor and the partners whose row gained a bit are re-tested — the
      parity conditions are subset tests of the ``list[u]`` row against a
      precomputed allowed-position mask (initial out-neighbour positions
      for even parity, in-neighbour positions for odd).
    """

    def __init__(self, instance: LinkReversalInstance):
        from repro.kernels.signature import NewPRExpander, OneStepPRExpander

        self.instance = instance
        self._os_kernel = OneStepPRExpander(OneStepPartialReversal(instance))
        self._npr_kernel = NewPRExpander(NewPartialReversal(instance))
        self._edge_mask = (1 << instance.edge_count) - 1
        self._inc = instance._incident_mask
        self._tail = instance._tail_sel
        n = instance.node_count
        # per node: allowed list-row positions under even parity = positions
        # of the initial out-neighbours (the edges the node initially tails)
        even_allowed = []
        for i in range(n):
            allowed = 0
            for k, e in enumerate(instance._incident_eids[i]):
                if (self._tail[i] >> e) & 1:
                    allowed |= 1 << k
            even_allowed.append(allowed)
        self._even_allowed = tuple(even_allowed)
        self._odd_allowed = tuple(
            self._os_kernel._row_mask[i] ^ even_allowed[i] for i in range(n)
        )
        # per node: incident neighbour ids aligned with the CSR rows
        self._nbr_ids = instance._incident_nbr_ids
        self._dest = instance._dest_id
        self._degree = instance._degree

    def check(self, pr_trace: Sequence[Tuple[int, ...]]) -> MaskSimulationChainReport:
        """Check the chain along one PR execution given as actor-id tuples.

        ``pr_trace`` is one tuple per ``reverse(S)`` action (e.g. recorded
        by a traced :meth:`repro.kernels.batch.BatchSimulator.add_lane`).
        """
        os_kernel = self._os_kernel
        npr_kernel = self._npr_kernel
        os_step = os_kernel.step
        npr_step = npr_kernel.step
        row_shift = os_kernel._row_shift
        row_mask = os_kernel._row_mask
        npr_shift = npr_kernel._shift
        even_allowed = self._even_allowed
        odd_allowed = self._odd_allowed
        nbr_ids = self._nbr_ids
        edge_mask = self._edge_mask

        inc = self._inc
        tail = self._tail
        failures: List[Tuple[int, str]] = []
        r_failures: List[Tuple[int, str]] = []
        os_sig = os_kernel.initial_signature()
        npr_sig = npr_kernel.initial_signature()
        onestep_steps = 0
        newpr_steps = 0
        r_points = 1  # the initial correspondence point (empty rows: holds)

        for index, token in enumerate(pr_trace):
            for w in token:
                # Lemma 5.1: the OneStepPR fragment action must be enabled
                # (sink test inlined — this loop dominates the whole check)
                if ((os_sig ^ tail[w]) & inc[w]) or not self._degree[w] or w == self._dest:
                    failures.append(
                        (index, f"corresponding OneStepPR action for id {w} not enabled")
                    )
                    break
                pre_row = (os_sig >> row_shift[w]) & row_mask[w]
                os_sig = os_step(os_sig, w)
                onestep_steps += 1
                # Lemma 5.3: a dummy-plus-real NewPR pair when the list was full
                repetitions = 2 if pre_row == row_mask[w] else 1
                fragment_ok = True
                for _ in range(repetitions):
                    if (npr_sig ^ tail[w]) & inc[w]:
                        r_failures.append(
                            (onestep_steps - 1,
                             f"corresponding NewPR action for id {w} not enabled")
                        )
                        fragment_ok = False
                        break
                    npr_sig = npr_step(npr_sig, w)
                    newpr_steps += 1
                r_points += 1
                if fragment_ok:
                    if (os_sig ^ npr_sig) & edge_mask:
                        r_failures.append(
                            (onestep_steps - 1, "directed graphs differ (R)")
                        )
                    # only the actor's parity and its partners' rows changed;
                    # w's own row was just cleared, so only partners matter
                    for j in nbr_ids[w]:
                        row = (os_sig >> row_shift[j]) & row_mask[j]
                        if not row:
                            continue
                        allowed = (
                            odd_allowed[j]
                            if (npr_sig >> npr_shift[j]) & 1
                            else even_allowed[j]
                        )
                        if row & ~allowed:
                            r_failures.append(
                                (onestep_steps - 1,
                                 f"list row of id {j} escapes its parity set (R)")
                            )

        return MaskSimulationChainReport(
            r_prime_holds=not failures,
            r_holds=not r_failures,
            r_prime_points=len(pr_trace) + 1,
            r_points=r_points,
            pr_actions=len(pr_trace),
            onestep_steps=onestep_steps,
            newpr_steps=newpr_steps,
            failures=failures + r_failures,
        )

