"""Exhaustive model checker over compact state signatures.

:class:`ModelChecker` is the production engine behind ``repro check``.  It
explores every reachable state of an automaton breadth-first, working
directly on signature rows from :mod:`repro.kernels.vector` (no state
materialisation on the hot path), and offers:

* **per-state invariant hooks** — the bundles from
  :mod:`repro.verification.invariants` plus two built-in checks, run on
  signatures by the compiled loop: ``acyclic`` (Theorems 4.3/5.5, checked
  with a bit-parallel Kahn peel) and ``progress`` (every quiescent state is
  destination oriented — the termination/goal condition of link reversal);
* **counterexample extraction** — predecessor pointers are kept per state
  (an action path per queued state on the reference loop), and any
  predicate violation is reconstructed into a replayable
  :class:`~repro.exploration.counterexample.CounterexampleTrace`;
* **twin-node symmetry reduction** (``symmetry=True``) and a **disk-spilled
  visited set** (``spill_threshold=...``) for explorations beyond what
  memory can hold.

There is one compiled loop.  It expands one whole BFS level per round
through the batch kernels; it runs PR / OneStepPR / NewPR / FR on instances
of at most :data:`~repro.kernels.vector.MAX_NODES` nodes, with signatures of
any width.  Every other automaton and larger instance (BLL, say) runs on the
reference :class:`~repro.exploration.state_space.StateSpaceExplorer` itself,
with the built-in checks handed to it as ordinary predicates (no spill, no
symmetry).  The compiled loop matches the explorer exactly — same BFS order,
same state/transition/depth/quiescence accounting, same truncation
behaviour, same failure order — which the differential regression tests pin
down.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Hashable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.automata.ioa import IOAutomaton
from repro.exploration.counterexample import CounterexampleTrace
from repro.exploration.frontier import VisitedSet
from repro.exploration.state_space import (
    ExplorationReport,
    PredicateFailure,
    StatePredicate,
    StateSpaceExplorer,
    _predicate_outcome,
)
from repro.kernels.signature import compile_expander
from repro.kernels.vector import (
    MAX_NODES,
    compile_vector_expander,
    decode_token,
    int_rows,
    mask_is_acyclic_batch,
    mask_is_destination_oriented_batch,
    row_ints,
    row_keys,
)
from repro.verification.properties import check_destination_oriented_at_quiescence

logger = logging.getLogger(__name__)

#: Built-in predicate names (the compiled loop checks them on the signature
#: level, without decoding).
ACYCLIC = "acyclic"
PROGRESS = "progress"

_PROGRESS_DETAIL = "quiescent state is not destination oriented"

#: Deferred-acyclicity batch size: when no other failure source can
#: interleave, freshly discovered states are buffered across rounds and
#: Kahn-checked in bulk once this many accumulate.
_ACYCLIC_BATCH = 4096


@dataclass
class CheckReport(ExplorationReport):
    """Outcome of one :meth:`ModelChecker.run`: the explorer's report plus
    the fields only the checker fills in."""

    predicate_names: Tuple[str, ...] = ()
    symmetry_reduced: bool = False
    spilled: bool = False
    #: Whether the compiled (whole-frontier numpy) loop ran this check.
    vectorized: bool = False
    wall_time_s: float = 0.0
    #: Populated only when ``collect_signatures=True`` (test instrumentation).
    signatures: Optional[Set[Hashable]] = None
    #: Visited-set spill/compaction counters (telemetry surface, not stored).
    spill_stats: Optional[Dict[str, int]] = None

    def __str__(self) -> str:
        extras = [
            label for label, present in (
                ("symmetry-reduced", self.symmetry_reduced),
                ("vectorised", self.vectorized),
                ("spilled", self.spilled),
            ) if present
        ]
        extra = f" [{', '.join(extras)}]" if extras else ""
        return super().__str__() + extra

    def to_record(self, **extra: Any) -> Dict[str, Any]:
        """Flat JSON-safe record for the experiments result store.

        ``status`` is ``"violated"`` when any predicate failed, else
        ``"truncated"`` / ``"ok"``; counterexample traces ride along under
        ``counterexamples`` in the serialised trace schema.  Only the
        reconstructed traces (bounded by the checker's
        ``max_traced_failures``) are serialised — ``violations`` still
        counts every failure, so a predicate failing on a large fraction of
        a huge space cannot balloon the stored record.
        """
        if self.failures:
            status = "violated"
        elif self.truncated:
            status = "truncated"
        else:
            status = "ok"
        record: Dict[str, Any] = {
            "status": status,
            "states_explored": self.states_explored,
            "transitions_explored": self.transitions_explored,
            "quiescent_states": self.quiescent_states,
            "max_depth": self.max_depth,
            "truncated": self.truncated,
            "violations": len(self.failures),
            "predicates": list(self.predicate_names),
            "symmetry_reduced": self.symmetry_reduced,
            "spilled": self.spilled,
            "vectorized": self.vectorized,
            "wall_time_s": round(self.wall_time_s, 4),
            # only a verified claim when the acyclicity check actually ran
            "acyclic_final": (
                not any(f.predicate_name == ACYCLIC for f in self.failures)
                if ACYCLIC in self.predicate_names
                else None
            ),
            "counterexamples": [
                f.trace.to_dict() for f in self.failures if f.trace.reconstructed
            ],
        }
        record.update(extra)
        return record


# ----------------------------------------------------------------------
# lazy predecessor store for the compiled loop
# ----------------------------------------------------------------------
class _ArrayPredecessors:
    """Predecessor pointers kept as per-round arrays, decoded lazily.

    The compiled loop discovers thousands of states per round; a dict entry
    per state would reintroduce the per-state Python cost the batch engine
    removes.  Rounds are appended as raw arrays and only materialised into a
    lookup table when a counterexample actually needs a predecessor walk —
    failures are the rare case, clean runs never pay.
    """

    def __init__(self, initial: int):
        self._rounds: List[Tuple] = []
        self._table: Optional[Dict] = None
        self._initial = initial

    def append_round(self, sigs, parent_sigs, tokens) -> None:
        self._rounds.append((sigs, parent_sigs, tokens))
        self._table = None

    def get(self, sig: int) -> Optional[Tuple]:
        if self._table is None:
            table: Dict = {self._initial: (None, None)}
            for sigs, parent_sigs, tokens in self._rounds:
                for value, parent, token in zip(
                    row_ints(sigs), row_ints(parent_sigs), tokens.tolist()
                ):
                    table[value] = (parent, decode_token(token))
            self._table = table
        return self._table.get(sig)


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
class ModelChecker:
    """Exhaustive BFS model checker with symmetry reduction and spill.

    Parameters
    ----------
    automaton:
        The automaton to explore.  PR / OneStepPR / NewPR / FR on at most
        :data:`~repro.kernels.vector.MAX_NODES` nodes run on the compiled
        loop; anything else runs on the reference
        :class:`~repro.exploration.state_space.StateSpaceExplorer`.
    predicates:
        Named state predicates (the bundles from
        :mod:`repro.verification.invariants`), evaluated on every newly
        discovered state.  These decode the state; the built-in checks below
        do not.
    max_states:
        Truncation bound on distinct states (at least 1), mirroring the
        reference explorer.
    single_actions_only:
        Restrict PR to singleton ``reverse({u})`` actions (the
        OneStepPR-reachable subset), exactly like the reference flag.
    symmetry:
        Canonicalise every signature over twin-node permutations before
        deduplication.  Sound for label-invariant predicates; see
        :mod:`repro.kernels.signature` for the argument and caveats.
        Compiled loop only.
    check_acyclicity / check_progress:
        Built-in checks: every state's orientation is a DAG; every quiescent
        state is destination oriented.  The compiled loop runs them on
        signatures; the reference loop as the predicates
        ``state.is_acyclic()`` and
        :func:`~repro.verification.properties
        .check_destination_oriented_at_quiescence`, and refuses states that
        lack the ``is_acyclic`` / ``is_destination_oriented`` hooks.
    spill_threshold / spill_dir:
        Enable the disk-spilled visited set once the in-memory set reaches
        the threshold.  Compiled loop only.
    spill_max_runs:
        Compact the spilled sorted runs into one whenever more than this
        many accumulate (``None`` disables).
    track_traces:
        Keep predecessor pointers so violations come back as replayable
        counterexample traces.  Disable to halve memory on huge clean runs
        (the reference loop keeps its paths regardless and drops them from
        the report).
    collect_signatures:
        Attach the full visited signature set to the report (tests only).
    max_traced_failures:
        Cap on the number of failures converted into full traces.
    """

    def __init__(
        self,
        automaton: IOAutomaton,
        predicates: Optional[Mapping[str, StatePredicate]] = None,
        *,
        max_states: int = 1_000_000,
        single_actions_only: bool = False,
        symmetry: bool = False,
        check_acyclicity: bool = False,
        check_progress: bool = False,
        spill_threshold: Optional[int] = None,
        spill_dir: Optional[str] = None,
        spill_max_runs: Optional[int] = 8,
        track_traces: bool = True,
        collect_signatures: bool = False,
        max_traced_failures: int = 25,
    ):
        if max_states < 1:
            raise ValueError(f"max_states must be at least 1, got {max_states}")
        self.automaton = automaton
        self.predicates = dict(predicates or {})
        self.max_states = max_states
        self.single_actions_only = single_actions_only
        self.symmetry = symmetry
        self.check_acyclicity = check_acyclicity
        self.check_progress = check_progress
        self.spill_threshold = spill_threshold
        self.spill_dir = spill_dir
        self.spill_max_runs = spill_max_runs
        self.track_traces = track_traces
        self.collect_signatures = collect_signatures
        self.max_traced_failures = max_traced_failures
        self._vector = compile_vector_expander(
            compile_expander(automaton, single_actions_only), symmetry
        )
        self._expander = self._vector.scalar if self._vector is not None else None
        if self._vector is None:
            for wanted, feature in ((symmetry, "symmetry reduction"),
                                    (spill_threshold is not None, "disk spill")):
                if wanted:
                    raise ValueError(
                        f"{feature} requires a compiled signature kernel "
                        f"(PR, OneStepPR, NewPR or FR on at most {MAX_NODES} "
                        f"nodes); {automaton.name!r} runs on the reference loop"
                    )

    # ------------------------------------------------------------------
    def run(self) -> CheckReport:
        """Explore the reachable state space and return the report."""
        start = time.perf_counter()
        if self._vector is not None:
            names = list(self.predicates)
            if self.check_acyclicity:
                names.insert(0, ACYCLIC)
            if self.check_progress:
                names.append(PROGRESS)
            report = CheckReport(
                automaton_name=self.automaton.name,
                predicate_names=tuple(names),
                symmetry_reduced=bool(self.symmetry and self._expander.has_symmetry),
            )
            self._run_vector(report)
        else:
            report = self._run_reference()
        report.wall_time_s = time.perf_counter() - start
        logger.info(
            "%s: %d states, %d transitions, depth %d in %.3fs",
            report.automaton_name, report.states_explored,
            report.transitions_explored, report.max_depth, report.wall_time_s,
        )
        if _telemetry.ENABLED:
            registry = _telemetry.REGISTRY
            registry.inc("checker.states", report.states_explored)
            registry.inc("checker.transitions", report.transitions_explored)
            if report.spilled:
                registry.inc("checker.spilled_runs")
            if report.spill_stats and report.spill_stats.get("spills"):
                registry.inc("checker.spills", report.spill_stats["spills"])
            if report.spill_stats and report.spill_stats.get("compactions"):
                registry.inc(
                    "checker.compactions", report.spill_stats["compactions"]
                )
            if report.wall_time_s > 0:
                registry.max_gauge(
                    "checker.states_per_s",
                    round(report.states_explored / report.wall_time_s, 1),
                )
        return report

    # ------------------------------------------------------------------
    # the compiled loop
    # ------------------------------------------------------------------
    def _run_vector(self, report: CheckReport) -> None:
        """Whole-frontier BFS: one numpy round per level, reference-exact.

        Every accounting decision the reference explorer takes per state is
        taken here per round, in a way provably equal to its outcome:

        * successors come out of the batch expander in exact scalar
          generation order, so ``np.unique``'s first-occurrence indices pick
          the same predecessor/token the reference FIFO would have;
        * truncation is emulated per state: the first genuinely-new
          successor past ``max_states`` is located inside the round and
          transitions/quiescents are only counted up to that point;
        * failure ordering is reconstructed by sorting round events on
          (frontier position, emission position, check index) — the order
          the reference emits them in.  Acyclicity is Kahn-checked as a
          batch mask; when no predicate can interleave it is additionally
          deferred across rounds in :data:`_ACYCLIC_BATCH` buffers.
        """
        expander = self._expander
        vector = self._vector
        instance = expander.instance
        report.vectorized = True
        initial = expander.initial_signature()
        if self.symmetry:
            initial = expander.canonicalize(initial)
        frontier = int_rows([initial], vector.words)
        visited = VisitedSet(
            spill_threshold=self.spill_threshold,
            spill_dir=self.spill_dir,
            max_runs=self.spill_max_runs,
        )
        visited.update_sorted(row_keys(frontier))
        report.states_explored = 1
        predecessors = _ArrayPredecessors(initial) if self.track_traces else None
        raw_failures: List[Tuple[Hashable, str, str]] = []
        # acyclicity can only be deferred across rounds when nothing else
        # (predicate or progress failures) has to interleave with it
        defer_acyclic = (
            self.check_acyclicity
            and not self.predicates
            and not self.check_progress
        )
        pending: List = []
        pending_count = 0

        def cycle_failure(sig: int) -> Tuple[Hashable, str, str]:
            cycle = expander.state_for(sig).orientation.find_cycle()
            return (sig, ACYCLIC, "cycle: " + " -> ".join(map(str, cycle)))

        def flush_acyclic() -> None:
            nonlocal pending_count
            if not pending:
                return
            sigs = np.concatenate(pending) if len(pending) > 1 else pending[0]
            pending.clear()
            pending_count = 0
            bad = sigs[~mask_is_acyclic_batch(instance, sigs)]
            raw_failures.extend(cycle_failure(sig) for sig in row_ints(bad))

        def discover(new_sigs, parents, positions, events) -> None:
            """Queue the discovery checks of the states one round accepted."""
            nonlocal pending_count
            if self.check_acyclicity:
                if defer_acyclic:
                    pending.append(new_sigs)
                    pending_count += len(new_sigs)
                    if pending_count >= _ACYCLIC_BATCH:
                        flush_acyclic()
                else:
                    bad = np.flatnonzero(~mask_is_acyclic_batch(instance, new_sigs))
                    for k, sig in zip(bad.tolist(), row_ints(new_sigs[bad])):
                        events.append(
                            (int(parents[k]), int(positions[k]), 0, cycle_failure(sig))
                        )
            if self.predicates:
                for k, sig in enumerate(row_ints(new_sigs)):
                    state = expander.state_for(sig)
                    for check, (name, predicate) in enumerate(
                        self.predicates.items(), start=1
                    ):
                        holds, detail = _predicate_outcome(predicate(state))
                        if not holds:
                            events.append(
                                (int(parents[k]), int(positions[k]), check,
                                 (sig, name, detail))
                            )

        try:
            # events: (frontier pos, emission pos, check idx, failure)
            events: List[Tuple[int, int, int, Tuple]] = []
            discover(frontier, [0], [0], events)
            depth = 0
            while True:
                if events:
                    events.sort(key=lambda event: event[:3])
                    raw_failures.extend(event[3] for event in events)
                    events = []
                if not len(frontier):
                    break
                report.max_depth = depth
                if _telemetry.ENABLED:
                    _telemetry.REGISTRY.observe("checker.frontier", len(frontier))
                    _telemetry.REGISTRY.inc("checker.batch_rounds")
                expansion = vector.expand(frontier)
                successors = expansion.successors
                parents = expansion.parents
                unique, first_index = np.unique(
                    row_keys(successors), return_index=True
                )
                known = visited.contains_many(unique)
                new_first = np.sort(first_index[~known])
                budget = self.max_states - report.states_explored
                truncating = new_first.size > budget
                if truncating:
                    # exact reference truncation: the (budget+1)-th new
                    # successor is where the reference stops mid-state
                    report.truncated = True
                    cut = int(new_first[budget])
                    accepted = new_first[:budget]
                    report.transitions_explored += cut + 1
                    quiescent = expansion.quiescent[
                        expansion.quiescent < int(parents[cut])
                    ]
                else:
                    accepted = new_first
                    report.transitions_explored += len(successors)
                    quiescent = expansion.quiescent
                report.quiescent_states += int(quiescent.size)
                if self.check_progress and quiescent.size:
                    quiet = frontier.take(quiescent, axis=0)
                    stuck = ~mask_is_destination_oriented_batch(instance, quiet)
                    for position, sig in zip(
                        quiescent[stuck].tolist(), row_ints(quiet[stuck])
                    ):
                        events.append((position, -1, 0, (sig, PROGRESS, _PROGRESS_DETAIL)))
                new_sigs = successors.take(accepted, axis=0)
                report.states_explored += int(accepted.size)
                if accepted.size:
                    if predecessors is not None:
                        predecessors.append_round(
                            new_sigs,
                            frontier.take(parents[accepted], axis=0),
                            expansion.tokens[accepted],
                        )
                    discover(new_sigs, parents[accepted], accepted, events)
                if truncating:
                    visited.update_sorted(np.sort(row_keys(new_sigs)))
                    frontier = new_sigs[:0]
                else:
                    visited.update_sorted(unique[~known])
                    frontier = new_sigs
                depth += 1

            flush_acyclic()
            report.spilled = visited.spilled_runs > 0
            report.spill_stats = visited.stats
            if self.collect_signatures:
                report.signatures = set(visited)
        finally:
            visited.close()
        self._attach_failures(
            report, raw_failures, predecessors.get if predecessors is not None else None
        )

    def _attach_failures(
        self,
        report: CheckReport,
        raw_failures: List[Tuple[Hashable, str, str]],
        parent_of,
    ) -> None:
        """Walk predecessor chains into traced failures.

        ``parent_of(sig)`` returns the stored ``(parent, actor token)``
        entry or ``None`` (``parent_of`` itself is ``None`` when traces are
        off); a ``None`` entry or parent ends the walk.
        """
        expander = self._expander
        for index, (sig, name, detail) in enumerate(raw_failures):
            traced = parent_of is not None and index < self.max_traced_failures
            actions: List = []
            signatures: List[Hashable] = [sig]
            if traced:
                current = sig
                while True:
                    entry = parent_of(current)
                    if entry is None or entry[0] is None:
                        break
                    parent, token = entry
                    actions.append(expander.action_for(token))
                    signatures.append(parent)
                    current = parent
                actions.reverse()
                signatures.reverse()
            trace = CounterexampleTrace(
                automaton_name=self.automaton.name,
                predicate_name=name,
                detail=detail,
                actions=tuple(actions),
                signatures=tuple(signatures) if traced else None,
                symmetry_reduced=report.symmetry_reduced,
                reconstructed=traced,
            )
            report.failures.append(PredicateFailure(name, trace, detail))

    # ------------------------------------------------------------------
    # the reference loop, for automata without a compiled kernel
    # ------------------------------------------------------------------
    def _run_reference(self) -> CheckReport:
        """Run :class:`StateSpaceExplorer` with the built-in checks as predicates."""
        automaton = self.automaton
        initial = automaton.initial_state()
        # the built-in checks must not silently turn into no-ops: a report
        # listing them (and a store record claiming acyclic_final) would
        # otherwise assert something that was never evaluated
        for wanted, hook, option in (
            (self.check_acyclicity, "is_acyclic", "check_acyclicity"),
            (self.check_progress, "is_destination_oriented", "check_progress"),
        ):
            if wanted and getattr(initial, hook, None) is None:
                raise ValueError(
                    f"{option} requires states exposing {hook}(); "
                    f"{type(initial).__name__} has none"
                )
        checks: Dict[Optional[str], StatePredicate] = {}
        if self.check_acyclicity:
            checks[ACYCLIC] = lambda state: state.is_acyclic()
        checks.update(self.predicates)
        if self.check_progress:
            checks[PROGRESS] = functools.partial(
                check_destination_oriented_at_quiescence, automaton
            )
        names = tuple(checks)
        signatures: Optional[Set[Hashable]] = None
        if self.collect_signatures:
            # a predicate sees every discovered state exactly once, so what
            # it collects is the explorer's visited set; it never fails, and
            # its key cannot clash with a predicate name
            signatures = set()
            checks[None] = lambda state: signatures.add(state.signature()) or True
        explored = StateSpaceExplorer(
            automaton, checks, max_states=self.max_states,
            use_single_actions_only=self.single_actions_only,
        ).explore()
        report = CheckReport(**vars(explored), predicate_names=names, signatures=signatures)
        for index, failure in enumerate(report.failures):
            if not self.track_traces or index >= self.max_traced_failures:
                failure.trace = replace(failure.trace, actions=(), reconstructed=False)
        return report


def check_exhaustively(
    automaton: IOAutomaton,
    predicates: Optional[Mapping[str, StatePredicate]] = None,
    **options: Any,
) -> CheckReport:
    """Convenience wrapper: build a :class:`ModelChecker` and run it."""
    return ModelChecker(automaton, predicates, **options).run()
