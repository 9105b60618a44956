"""Parallel exhaustive model checker over compact int state signatures.

:class:`ModelChecker` is the production engine behind ``repro check``.  It
explores every reachable state of an automaton breadth-first, working
directly on the int signatures from :mod:`repro.exploration.frontier` (no
state materialisation on the hot path), and offers:

* **per-state invariant hooks** — the bundles from
  :mod:`repro.verification.invariants` plus two built-in signature-level
  checks: ``acyclic`` (Theorems 4.3/5.5, checked with a mask-only Kahn scan)
  and ``progress`` (every quiescent state is destination oriented — the
  termination/goal condition of link reversal);
* **counterexample extraction** — predecessor pointers are kept per state,
  and any predicate violation is reconstructed into a replayable
  :class:`~repro.exploration.counterexample.CounterexampleTrace`;
* **sharded exploration** — with ``workers >= 2`` the signature space is
  hash-partitioned across worker processes that exchange cross-shard
  frontier entries in BFS rounds (each worker owns the signatures hashing to
  its shard, dedups them locally, and routes successors to their owners);
* **twin-node symmetry reduction** (``symmetry=True``) and a **disk-spilled
  visited set** (``spill_threshold=...``) for explorations beyond what a
  Python set can hold.

Semantics match the legacy :class:`~repro.exploration.state_space
.StateSpaceExplorer` exactly in single-process mode — same BFS order, same
state/transition/depth/quiescence accounting, same truncation behaviour —
which the differential regression tests pin down.  Automata without a
compiled kernel fall back to a generic state-materialising path (single
process, no spill).
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Set, Tuple

try:  # the vectorised frontier path needs numpy; scalar paths do not
    import numpy as np
except ImportError:  # pragma: no cover - the toolchain ships numpy
    np = None  # type: ignore[assignment]

from repro import telemetry as _telemetry
from repro._mp import fork_preferring_context
from repro.automata.ioa import IOAutomaton
from repro.exploration.counterexample import CounterexampleTrace
from repro.exploration.frontier import (
    SignatureExpander,
    VisitedSet,
    compile_expander,
    mask_is_acyclic,
    mask_is_destination_oriented,
    shard_of,
)
from repro.kernels.vector import (
    compile_vector_expander,
    decode_token,
    mask_is_acyclic_batch,
    mask_is_destination_oriented_batch,
    shard_of_batch,
)
from repro.exploration.state_space import (
    PredicateFailure,
    StatePredicate,
    _predicate_outcome,
)

logger = logging.getLogger(__name__)

#: Built-in predicate names (checked on the signature level, no decoding).
ACYCLIC = "acyclic"
PROGRESS = "progress"

_PROGRESS_DETAIL = "quiescent state is not destination oriented"

#: Deferred-acyclicity batch size on the vectorised path: when no other
#: failure source can interleave, freshly discovered states are buffered
#: across rounds and Kahn-checked in bulk once this many accumulate.
_ACYCLIC_BATCH = 4096


@dataclass
class CheckReport:
    """Outcome of one :meth:`ModelChecker.run` invocation."""

    automaton_name: str
    states_explored: int = 0
    transitions_explored: int = 0
    quiescent_states: int = 0
    truncated: bool = False
    max_depth: int = 0
    failures: List[PredicateFailure] = field(default_factory=list)
    predicate_names: Tuple[str, ...] = ()
    workers: int = 1
    symmetry_reduced: bool = False
    spilled: bool = False
    #: Whether the vectorised (whole-frontier numpy) engine ran this check.
    vectorized: bool = False
    wall_time_s: float = 0.0
    #: Populated only when ``collect_signatures=True`` (test instrumentation).
    signatures: Optional[Set[Hashable]] = None
    #: Visited-set spill/compaction counters (telemetry surface, not stored).
    spill_stats: Optional[Dict[str, int]] = None

    @property
    def all_predicates_hold(self) -> bool:
        """Whether no predicate was violated on any explored state."""
        return not self.failures

    def __str__(self) -> str:
        status = "OK" if self.all_predicates_hold else f"{len(self.failures)} FAILURE(S)"
        suffix = " (truncated)" if self.truncated else ""
        extras = []
        if self.workers > 1:
            extras.append(f"{self.workers} workers")
        if self.symmetry_reduced:
            extras.append("symmetry-reduced")
        if self.vectorized:
            extras.append("vectorised")
        if self.spilled:
            extras.append("spilled")
        extra = f" [{', '.join(extras)}]" if extras else ""
        return (
            f"[{self.automaton_name}] {self.states_explored} states, "
            f"{self.transitions_explored} transitions, depth {self.max_depth}, "
            f"{self.quiescent_states} quiescent — {status}{suffix}{extra}"
        )

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
            "workers": self.workers,
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
# shared per-state evaluation
# ----------------------------------------------------------------------
def _discovery_failures(
    sig: Hashable,
    expander: SignatureExpander,
    predicates: Mapping[str, StatePredicate],
    check_acyclicity: bool,
) -> List[Tuple[Hashable, str, str]]:
    """Evaluate the discovery-time checks on one signature."""
    failures: List[Tuple[Hashable, str, str]] = []
    if check_acyclicity:
        mask = expander.orientation_mask(sig)
        if not mask_is_acyclic(expander.instance, mask):
            cycle = expander.state_for(sig).orientation.find_cycle()
            failures.append(
                (sig, ACYCLIC, "cycle: " + " -> ".join(map(str, cycle)))
            )
    if predicates:
        state = expander.state_for(sig)
        for name, predicate in predicates.items():
            holds, detail = _predicate_outcome(predicate(state))
            if not holds:
                failures.append((sig, name, detail))
    return failures


# ----------------------------------------------------------------------
# sharded worker process
# ----------------------------------------------------------------------
def _shard_worker(
    conn,
    index: int,
    shards: int,
    automaton: IOAutomaton,
    predicates: Mapping[str, StatePredicate],
    options: Dict[str, Any],
) -> None:
    """Own one hash-shard of signature space; driven round-by-round by the parent.

    Protocol (parent → worker, worker replies on the same pipe):

    * ``("round", entries)`` — ``entries`` are ``(sig, parent_sig, token)``
      triples routed to this shard.  The worker dedups them against its
      visited set, records predecessor pointers, runs the discovery checks,
      expands the fresh signatures and replies with
      ``(new, transitions, quiescent, out_by_owner, failures)``.
    * ``("probe", entries)`` — read-only: replies with how many entries are
      genuinely new (absent from the visited set, deduped within the batch)
      *without* inserting them, so the visited set keeps matching
      ``states_explored``.  Used to decide whether hitting ``max_states``
      with a pending frontier actually truncated anything.
    * ``("parent_of", sig)`` — replies with the stored ``(parent, token)``.
    * ``("signatures",)`` — replies with the full visited set (tests only).
    * ``("stats",)`` — replies with ``{"spilled_runs": int}``.
    * ``("stop",)`` — terminates the worker loop.

    Any exception while handling a message is shipped back as a
    ``("__shard_error__", detail)`` reply instead of killing the process,
    so the parent can raise a diagnosable error rather than an EOF.
    """
    expander = compile_expander(automaton, options["single_actions_only"])
    symmetry = options["symmetry"]
    check_acyclicity = options["check_acyclicity"]
    check_progress = options["check_progress"]
    spill_threshold = options["spill_threshold"]
    visited = VisitedSet(
        key_bytes=(expander.signature_bits + 7) // 8 if spill_threshold else None,
        spill_threshold=spill_threshold,
        spill_dir=options["spill_dir"],
        max_runs=options.get("spill_max_runs", 8),
    )
    if options.get("vectorized"):
        vector = compile_vector_expander(expander, symmetry)
        if vector is None:  # pragma: no cover - parent compiled the same gate
            conn.send(("__shard_error__", "vector kernel unavailable in worker"))
            return
        _shard_worker_vector(conn, index, shards, expander, vector, predicates,
                             options, visited)
        return
    predecessors: Optional[Dict[Hashable, Tuple]] = {} if options["track_traces"] else None
    instance = expander.instance

    while True:
        message = conn.recv()
        kind = message[0]
        try:
            if kind == "round":
                new = transitions = quiescent = 0
                out: Dict[int, List[Tuple[Hashable, Hashable, Tuple[int, ...]]]] = {}
                failures: List[Tuple[Hashable, str, str]] = []
                fresh: List[Hashable] = []
                for sig, parent, token in message[1]:
                    if not visited.add(sig):
                        continue
                    if predecessors is not None:
                        predecessors[sig] = (parent, token)
                    new += 1
                    fresh.append(sig)
                    failures.extend(
                        _discovery_failures(sig, expander, predicates, check_acyclicity)
                    )
                routed: set = set()  # round-local dedup of outgoing frontier entries
                for sig in fresh:
                    successors = expander.successors(sig)
                    if not successors:
                        quiescent += 1
                        if check_progress and not mask_is_destination_oriented(
                            instance, expander.orientation_mask(sig)
                        ):
                            failures.append((sig, PROGRESS, _PROGRESS_DETAIL))
                        continue
                    for token, successor in successors:
                        transitions += 1
                        if symmetry:
                            successor = expander.canonicalize(successor)
                        if successor in routed:
                            continue
                        owner = shard_of(successor, shards)
                        if owner == index and successor in visited:
                            continue
                        routed.add(successor)
                        out.setdefault(owner, []).append((successor, sig, token))
                conn.send((new, transitions, quiescent, out, failures))
            elif kind == "probe":
                batch: set = set()
                for sig, _parent, _token in message[1]:
                    if sig not in visited:
                        batch.add(sig)
                conn.send(len(batch))
            elif kind == "parent_of":
                conn.send(
                    predecessors.get(message[1]) if predecessors is not None else None
                )
            elif kind == "signatures":
                conn.send(set(visited))
            elif kind == "stats":
                conn.send({"spilled_runs": visited.spilled_runs})
            else:  # "stop"
                visited.close()
                conn.close()
                return
        except Exception as error:  # noqa: BLE001 — ship the failure to the parent
            conn.send(("__shard_error__", f"{type(error).__name__}: {error}"))


def _shard_worker_vector(
    conn,
    index: int,
    shards: int,
    expander: SignatureExpander,
    vector,
    predicates: Mapping[str, StatePredicate],
    options: Dict[str, Any],
    visited: VisitedSet,
) -> None:
    """Vector twin of the :func:`_shard_worker` message loop.

    Same protocol, but frontier entries travel as ``(sigs, parent_sigs,
    tokens)`` uint64 array triples instead of per-entry tuples — a token of
    0 marks the root entry.  One extra message exists: ``("drain",)``
    flushes the worker's deferred acyclicity buffer and replies with any
    remaining failures, sent by the parent once the BFS ends and before
    traces are collected.
    """
    check_acyclicity = options["check_acyclicity"]
    check_progress = options["check_progress"]
    instance = expander.instance
    edge_mask = np.uint64(expander._edge_mask)
    predecessors = _ArrayPredecessors() if options["track_traces"] else None
    defer_acyclic = check_acyclicity and not predicates and not check_progress
    pending: List = []
    pending_count = 0

    def flush_acyclic(failures: List[Tuple[Hashable, str, str]]) -> None:
        nonlocal pending_count
        if not pending:
            return
        sigs = np.concatenate(pending) if len(pending) > 1 else pending[0]
        pending.clear()
        pending_count = 0
        good = mask_is_acyclic_batch(instance, sigs & edge_mask)
        for sig in sigs[~good]:
            sig = int(sig)
            cycle = expander.state_for(sig).orientation.find_cycle()
            failures.append(
                (sig, ACYCLIC, "cycle: " + " -> ".join(map(str, cycle)))
            )

    while True:
        message = conn.recv()
        kind = message[0]
        try:
            if kind == "round":
                sigs, parent_sigs, tokens = message[1]
                new = transitions = quiescent_count = 0
                out: Dict[int, Tuple] = {}
                failures: List[Tuple[Hashable, str, str]] = []
                if sigs.size:
                    unique, first_index = np.unique(sigs, return_index=True)
                    known = visited.contains_many(unique)
                    new_first = np.sort(first_index[~known])
                    fresh = sigs[new_first]
                    visited.update_sorted(unique[~known])
                    new = int(fresh.size)
                else:
                    fresh = sigs
                if new:
                    if predecessors is not None:
                        predecessors.append_round(
                            fresh, parent_sigs[new_first], tokens[new_first]
                        )
                    # discovery checks in scalar order: per fresh signature,
                    # acyclicity first, then each predicate
                    events: List[Tuple[int, int, Tuple]] = []
                    if check_acyclicity:
                        if defer_acyclic:
                            pending.append(fresh)
                            pending_count += new
                            if pending_count >= _ACYCLIC_BATCH:
                                flush_acyclic(failures)
                        else:
                            good = mask_is_acyclic_batch(
                                instance, fresh & edge_mask
                            )
                            for k in np.flatnonzero(~good):
                                sig = int(fresh[int(k)])
                                cycle = (
                                    expander.state_for(sig)
                                    .orientation.find_cycle()
                                )
                                events.append(
                                    (
                                        int(k),
                                        0,
                                        (
                                            sig,
                                            ACYCLIC,
                                            "cycle: "
                                            + " -> ".join(map(str, cycle)),
                                        ),
                                    )
                                )
                    if predicates:
                        for k in range(new):
                            state = expander.state_for(int(fresh[k]))
                            for check, (name, predicate) in enumerate(
                                predicates.items(), start=1
                            ):
                                holds, detail = _predicate_outcome(
                                    predicate(state)
                                )
                                if not holds:
                                    events.append(
                                        (k, check, (int(fresh[k]), name, detail))
                                    )
                    if events:
                        events.sort(key=lambda event: event[:2])
                        failures.extend(event[2] for event in events)
                    expansion = vector.expand(fresh)
                    transitions = int(expansion.successors.size)
                    quiescent_count = int(expansion.quiescent.size)
                    if check_progress and expansion.quiescent.size:
                        oriented = mask_is_destination_oriented_batch(
                            instance, fresh[expansion.quiescent] & edge_mask
                        )
                        for position in expansion.quiescent[~oriented]:
                            failures.append(
                                (
                                    int(fresh[int(position)]),
                                    PROGRESS,
                                    _PROGRESS_DETAIL,
                                )
                            )
                    if transitions:
                        # round-local dedup: keep the first emission of each
                        # successor, exactly like the scalar ``routed`` set
                        keep_order = np.sort(
                            np.unique(expansion.successors, return_index=True)[1]
                        )
                        routed_sigs = expansion.successors[keep_order]
                        routed_parents = fresh[expansion.parents[keep_order]]
                        routed_tokens = expansion.tokens[keep_order]
                        owners = shard_of_batch(routed_sigs, shards)
                        keep = np.ones(routed_sigs.size, dtype=bool)
                        mine = owners == index
                        if mine.any():
                            # self-owned successors can be filtered against
                            # the local visited set before shipping
                            values = routed_sigs[mine]
                            order = np.argsort(values, kind="stable")
                            hit = visited.contains_many(values[order])
                            unhit = np.empty(values.size, dtype=bool)
                            unhit[order] = ~hit
                            keep[np.flatnonzero(mine)] = unhit
                        if not keep.all():
                            routed_sigs = routed_sigs[keep]
                            routed_parents = routed_parents[keep]
                            routed_tokens = routed_tokens[keep]
                            owners = owners[keep]
                        for owner in np.unique(owners):
                            selection = owners == owner
                            out[int(owner)] = (
                                routed_sigs[selection],
                                routed_parents[selection],
                                routed_tokens[selection],
                            )
                conn.send((new, transitions, quiescent_count, out, failures))
            elif kind == "probe":
                probe_sigs = message[1]
                count = 0
                if probe_sigs.size:
                    unique = np.unique(probe_sigs)
                    count = int((~visited.contains_many(unique)).sum())
                conn.send(count)
            elif kind == "drain":
                drained: List[Tuple[Hashable, str, str]] = []
                flush_acyclic(drained)
                conn.send(drained)
            elif kind == "parent_of":
                conn.send(
                    predecessors.get(message[1]) if predecessors is not None else None
                )
            elif kind == "signatures":
                conn.send(set(visited))
            elif kind == "stats":
                conn.send({"spilled_runs": visited.spilled_runs, **visited.stats})
            else:  # "stop"
                visited.close()
                conn.close()
                return
        except Exception as error:  # noqa: BLE001 — ship the failure to the parent
            conn.send(("__shard_error__", f"{type(error).__name__}: {error}"))


def _shard_recv(connection):
    """Receive a worker reply, surfacing shipped worker exceptions."""
    reply = connection.recv()
    if isinstance(reply, tuple) and len(reply) == 2 and reply[0] == "__shard_error__":
        raise RuntimeError(f"shard worker failed: {reply[1]}")
    return reply


# ----------------------------------------------------------------------
# lazy predecessor store for the vectorised paths
# ----------------------------------------------------------------------
class _ArrayPredecessors:
    """Predecessor pointers kept as per-round arrays, decoded lazily.

    The vectorised paths discover thousands of states per round; a dict
    entry per state would reintroduce the per-state Python cost the batch
    engine removes.  Rounds are appended as raw arrays and only materialised
    into a lookup table when a counterexample actually needs a predecessor
    walk — failures are the rare case, clean runs never pay.

    A token of 0 marks a root entry (the initial state has no actors), so
    the sharded exchange can ship roots in the same array triple.
    """

    def __init__(self, initial: Optional[int] = None):
        self._rounds: List[Tuple] = []
        self._table: Optional[Dict] = None
        self._initial = initial

    def append_round(self, sigs, parent_sigs, tokens) -> None:
        self._rounds.append((sigs, parent_sigs, tokens))
        self._table = None

    def get(self, sig: int) -> Optional[Tuple]:
        if self._table is None:
            table: Dict = {}
            if self._initial is not None:
                table[self._initial] = (None, None)
            for sigs, parent_sigs, tokens in self._rounds:
                for value, parent, token in zip(
                    sigs.tolist(), parent_sigs.tolist(), tokens.tolist()
                ):
                    table[value] = (
                        (None, None) if token == 0 else (parent, decode_token(token))
                    )
            self._table = table
        return self._table.get(sig)


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
class ModelChecker:
    """Exhaustive BFS model checker with sharding, symmetry and spill.

    Parameters
    ----------
    automaton:
        The automaton to explore.  PR / OneStepPR / NewPR / FR run on
        compiled signature kernels; anything else uses the generic
        state-materialising path (single process only).
    predicates:
        Named state predicates (the bundles from
        :mod:`repro.verification.invariants`), evaluated on every newly
        discovered state.  These decode the state; the built-in checks below
        do not.
    max_states:
        Truncation bound on distinct states, mirroring the legacy explorer.
    workers:
        ``>= 2`` enables the sharded multiprocessing mode (hash-partitioned
        signature space, round-based frontier exchange).  For exhaustive
        (untruncated) runs the visited sets, counts and failure sets are
        identical to a single-process run; when ``max_states`` binds, the
        sharded cap is round-granular (the count may overshoot slightly and
        an exactly-exhausting final round reports a complete run).
    single_actions_only:
        Restrict PR to singleton ``reverse({u})`` actions (the
        OneStepPR-reachable subset), exactly like the legacy flag.
    symmetry:
        Canonicalise every signature over twin-node permutations before
        deduplication.  Sound for label-invariant predicates; see
        :mod:`repro.exploration.frontier` for the argument and caveats.
    check_acyclicity / check_progress:
        Built-in signature-level checks: every state's orientation is a DAG;
        every quiescent state is destination oriented.
    spill_threshold / spill_dir:
        Enable the disk-spilled visited set once the in-memory set reaches
        the threshold (per worker, in sharded mode).
    spill_max_runs:
        Compact the spilled sorted runs into one whenever more than this
        many accumulate (the delta-run compaction knob; ``None`` disables).
    vectorized:
        ``"auto"`` (default) runs the whole-frontier numpy engine whenever
        the signature fits one 64-bit lane (see
        :func:`repro.kernels.vector.compile_vector_expander` for the exact
        gate; with ``symmetry`` the batch engine canonicalises whole
        successor columns), falling back to the scalar expanders
        otherwise.  ``"never"`` forces the scalar path; ``"always"``
        raises if the batch engine cannot run.  Counts,
        visited sets, traces and truncation points are identical between
        the two engines (differentially pinned); only throughput differs.
    track_traces:
        Keep predecessor pointers so violations come back as replayable
        counterexample traces.  Disable to halve memory on huge clean runs.
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
        workers: int = 1,
        single_actions_only: bool = False,
        symmetry: bool = False,
        check_acyclicity: bool = False,
        check_progress: bool = False,
        spill_threshold: Optional[int] = None,
        spill_dir: Optional[str] = None,
        spill_max_runs: Optional[int] = 8,
        vectorized: str = "auto",
        track_traces: bool = True,
        collect_signatures: bool = False,
        max_traced_failures: int = 25,
    ):
        self.automaton = automaton
        self.predicates = dict(predicates or {})
        self.max_states = max_states
        self.workers = max(1, workers)
        self.single_actions_only = single_actions_only
        self.symmetry = symmetry
        self.check_acyclicity = check_acyclicity
        self.check_progress = check_progress
        self.spill_threshold = spill_threshold
        self.spill_dir = spill_dir
        self.spill_max_runs = spill_max_runs
        if isinstance(vectorized, bool):  # ergonomic alias
            vectorized = "always" if vectorized else "never"
        if vectorized not in ("auto", "always", "never"):
            raise ValueError(
                f"vectorized must be 'auto', 'always' or 'never', got {vectorized!r}"
            )
        self.vectorized = vectorized
        self.track_traces = track_traces
        self.collect_signatures = collect_signatures
        self.max_traced_failures = max_traced_failures
        self._expander = compile_expander(automaton, single_actions_only)
        self._vector = None
        if vectorized != "never":
            self._vector = compile_vector_expander(self._expander, symmetry)
        if vectorized == "always" and self._vector is None:
            raise ValueError(
                "vectorized='always' but the batch engine cannot run here "
                "(no compiled kernel, a signature wider than 64 bits, more "
                "than 64 nodes, or a PR/OneStepPR node of degree above the "
                "step-table limit)"
            )
        if self._expander is None:
            if self.workers > 1:
                raise ValueError(
                    f"sharded exploration requires a compiled signature kernel "
                    f"(PR/OneStepPR/NewPR/FR); {automaton.name!r} has none"
                )
            if self.symmetry:
                raise ValueError(
                    "symmetry reduction requires a compiled signature kernel"
                )
            if self.spill_threshold is not None:
                raise ValueError(
                    "disk spill requires a compiled signature kernel "
                    "(generic signatures have no fixed width)"
                )

    # ------------------------------------------------------------------
    def run(self) -> CheckReport:
        """Explore the reachable state space and return the report."""
        start = time.perf_counter()
        names = list(self.predicates)
        if self.check_acyclicity:
            names.insert(0, ACYCLIC)
        if self.check_progress:
            names.append(PROGRESS)
        report = CheckReport(
            automaton_name=self.automaton.name,
            predicate_names=tuple(names),
            workers=self.workers,
            symmetry_reduced=bool(
                self.symmetry and self._expander is not None and self._expander.has_symmetry
            ),
        )
        if self.workers > 1:
            if self._vector is not None:
                self._run_sharded(report, vector=True)
            else:
                self._run_sharded(report)
        elif self._vector is not None:
            self._run_vector(report)
        elif self._expander is not None:
            self._run_compiled(report)
        else:
            self._run_generic(report)
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
    # single-process compiled path
    # ------------------------------------------------------------------
    def _run_compiled(self, report: CheckReport) -> None:
        expander = self._expander
        initial = expander.initial_signature()
        if self.symmetry:
            initial = expander.canonicalize(initial)
        visited = VisitedSet(
            key_bytes=(expander.signature_bits + 7) // 8 if self.spill_threshold else None,
            spill_threshold=self.spill_threshold,
            spill_dir=self.spill_dir,
            max_runs=self.spill_max_runs,
        )
        visited.add(initial)
        report.states_explored = 1
        predecessors: Optional[Dict] = {initial: (None, None)} if self.track_traces else None
        try:
            raw_failures = _discovery_failures(
                initial, expander, self.predicates, self.check_acyclicity
            )

            queue: deque = deque()
            queue.append((initial, 0))
            while queue:
                sig, depth = queue.popleft()
                if depth > report.max_depth:
                    report.max_depth = depth
                    if _telemetry.ENABLED:
                        # one frontier-size sample per BFS level, not per state
                        _telemetry.REGISTRY.observe(
                            "checker.frontier", len(queue) + 1
                        )
                successors = expander.successors(sig)
                if not successors:
                    report.quiescent_states += 1
                    if self.check_progress and not mask_is_destination_oriented(
                        expander.instance, expander.orientation_mask(sig)
                    ):
                        raw_failures.append((sig, PROGRESS, _PROGRESS_DETAIL))
                    continue
                for token, successor in successors:
                    report.transitions_explored += 1
                    if self.symmetry:
                        successor = expander.canonicalize(successor)
                    if report.states_explored >= self.max_states:
                        # at the cap, mirror the legacy explorer exactly: a
                        # pure membership probe (no insertion) so that any
                        # genuinely new successor truncates the run while
                        # collect_signatures stays consistent with
                        # states_explored
                        if successor in visited:
                            continue
                        report.truncated = True
                        queue.clear()
                        break
                    if not visited.add(successor):
                        continue
                    report.states_explored += 1
                    if predecessors is not None:
                        predecessors[successor] = (sig, token)
                    raw_failures.extend(
                        _discovery_failures(
                            successor, expander, self.predicates, self.check_acyclicity
                        )
                    )
                    queue.append((successor, depth + 1))

            report.spilled = visited.spilled_runs > 0
            report.spill_stats = visited.stats
            if self.collect_signatures:
                report.signatures = set(visited)
        finally:
            visited.close()
        self._attach_failures(report, raw_failures, predecessors)

    # ------------------------------------------------------------------
    # single-process vectorised path
    # ------------------------------------------------------------------
    def _run_vector(self, report: CheckReport) -> None:
        """Whole-frontier BFS: one numpy round per level, scalar-exact.

        Every accounting decision the scalar loop takes per state is taken
        here per round, in a way provably equal to the scalar outcome:

        * successors come out of the batch expander in exact scalar
          generation order, so ``np.unique``'s first-occurrence indices pick
          the same predecessor/token the scalar FIFO would have;
        * truncation is emulated per state: the first genuinely-new
          successor past ``max_states`` is located inside the round and
          transitions/quiescents are only counted up to that point;
        * failure ordering is reconstructed by sorting round events on
          (frontier position, emission position, check index) — the order
          the scalar loop emits them in.  Acyclicity is Kahn-checked as a
          batch mask; when no predicate can interleave it is additionally
          deferred across rounds in :data:`_ACYCLIC_BATCH` buffers.
        """
        expander = self._expander
        vector = self._vector
        instance = expander.instance
        report.vectorized = True
        edge_mask = np.uint64(expander._edge_mask)
        initial = expander.initial_signature()
        if self.symmetry:
            initial = expander.canonicalize(initial)
        visited = VisitedSet(
            key_bytes=(expander.signature_bits + 7) // 8 if self.spill_threshold else None,
            spill_threshold=self.spill_threshold,
            spill_dir=self.spill_dir,
            max_runs=self.spill_max_runs,
        )
        visited.add(initial)
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

        def flush_acyclic() -> None:
            nonlocal pending_count
            if not pending:
                return
            sigs = np.concatenate(pending) if len(pending) > 1 else pending[0]
            pending.clear()
            pending_count = 0
            good = mask_is_acyclic_batch(instance, sigs & edge_mask)
            for sig in sigs[~good]:
                sig = int(sig)
                cycle = expander.state_for(sig).orientation.find_cycle()
                raw_failures.append(
                    (sig, ACYCLIC, "cycle: " + " -> ".join(map(str, cycle)))
                )

        try:
            if defer_acyclic:
                pending.append(np.array([initial], dtype=np.uint64))
                pending_count = 1
            else:
                raw_failures.extend(
                    _discovery_failures(
                        initial, expander, self.predicates, self.check_acyclicity
                    )
                )
            frontier = np.array([initial], dtype=np.uint64)
            depth = 0
            while frontier.size:
                report.max_depth = depth
                if _telemetry.ENABLED:
                    _telemetry.REGISTRY.observe("checker.frontier", frontier.size)
                    _telemetry.REGISTRY.inc("checker.batch_rounds")
                expansion = vector.expand(frontier)
                successors = expansion.successors
                parents = expansion.parents
                # events: (frontier pos, emission pos, check idx, failure)
                events: List[Tuple[int, int, int, Tuple]] = []
                if successors.size:
                    unique, first_index, _ = np.unique(
                        successors, return_index=True, return_inverse=True
                    )
                    known = visited.contains_many(unique)
                    new_first = np.sort(first_index[~known])
                else:
                    unique = successors
                    known = np.zeros(0, dtype=bool)
                    new_first = np.zeros(0, dtype=np.int64)
                budget = self.max_states - report.states_explored
                truncating = new_first.size > budget
                if truncating:
                    # exact scalar truncation: the (budget+1)-th new successor
                    # is where the scalar loop would have stopped mid-state
                    report.truncated = True
                    cut = int(new_first[budget])
                    accepted = new_first[:budget]
                    report.transitions_explored += cut + 1
                    quiescent = expansion.quiescent[
                        expansion.quiescent < int(parents[cut])
                    ]
                else:
                    accepted = new_first
                    report.transitions_explored += int(successors.size)
                    quiescent = expansion.quiescent
                report.quiescent_states += int(quiescent.size)
                if self.check_progress and quiescent.size:
                    oriented = mask_is_destination_oriented_batch(
                        instance, frontier[quiescent] & edge_mask
                    )
                    for position in quiescent[~oriented]:
                        position = int(position)
                        events.append(
                            (
                                position,
                                -1,
                                0,
                                (int(frontier[position]), PROGRESS, _PROGRESS_DETAIL),
                            )
                        )
                new_sigs = successors[accepted]
                report.states_explored += int(accepted.size)
                if predecessors is not None and accepted.size:
                    predecessors.append_round(
                        new_sigs,
                        frontier[parents[accepted]],
                        expansion.tokens[accepted],
                    )
                if self.check_acyclicity and new_sigs.size:
                    if defer_acyclic:
                        pending.append(new_sigs)
                        pending_count += int(new_sigs.size)
                        if pending_count >= _ACYCLIC_BATCH:
                            flush_acyclic()
                    else:
                        good = mask_is_acyclic_batch(instance, new_sigs & edge_mask)
                        for k in np.flatnonzero(~good):
                            position = int(accepted[k])
                            sig = int(new_sigs[k])
                            cycle = expander.state_for(sig).orientation.find_cycle()
                            events.append(
                                (
                                    int(parents[position]),
                                    position,
                                    0,
                                    (
                                        sig,
                                        ACYCLIC,
                                        "cycle: " + " -> ".join(map(str, cycle)),
                                    ),
                                )
                            )
                if self.predicates:
                    for position in accepted:
                        position = int(position)
                        state = expander.state_for(int(successors[position]))
                        for check, (name, predicate) in enumerate(
                            self.predicates.items(), start=1
                        ):
                            holds, detail = _predicate_outcome(predicate(state))
                            if not holds:
                                events.append(
                                    (
                                        int(parents[position]),
                                        position,
                                        check,
                                        (int(successors[position]), name, detail),
                                    )
                                )
                if events:
                    events.sort(key=lambda event: event[:3])
                    raw_failures.extend(event[3] for event in events)
                if truncating:
                    if accepted.size:
                        visited.update_sorted(np.sort(new_sigs))
                    break
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
        self._attach_failures(report, raw_failures, predecessors)

    def _attach_failures(
        self,
        report: CheckReport,
        raw_failures: List[Tuple[Hashable, str, str]],
        predecessors: Optional[Dict],
    ) -> None:
        """Convert raw ``(sig, predicate, detail)`` hits into traced failures."""
        parent_of = predecessors.get if predecessors is not None else lambda sig: None
        self._build_failures(report, raw_failures, parent_of)

    def _build_failures(
        self,
        report: CheckReport,
        raw_failures: List[Tuple[Hashable, str, str]],
        parent_of: Callable[[Hashable], Optional[Tuple]],
    ) -> None:
        """Walk predecessor chains (via ``parent_of``) into traced failures.

        ``parent_of(sig)`` returns the stored ``(parent, token)`` entry or
        ``None``; a ``None`` entry or parent ends the walk.  Shared by the
        single-process paths (dict lookup) and the sharded path (pipe
        round-trip to the owning worker).
        """
        expander = self._expander
        for index, (sig, name, detail) in enumerate(raw_failures):
            traced = self.track_traces and index < self.max_traced_failures
            actions: List = []
            signatures: List[Hashable] = [sig]
            if traced:
                current = sig
                while True:
                    entry = parent_of(current)
                    if entry is None or entry[0] is None:
                        break
                    parent, token = entry
                    actions.append(
                        expander.action_for(token) if expander is not None else token
                    )
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
    # generic fallback (no compiled kernel): legacy state-materialising BFS
    # ------------------------------------------------------------------
    def _run_generic(self, report: CheckReport) -> None:
        automaton = self.automaton
        initial = automaton.initial_state()
        # the built-in checks must not silently turn into no-ops: a report
        # listing them (and a store record claiming acyclic_final) would
        # otherwise assert something that was never evaluated
        if self.check_acyclicity and getattr(initial, "is_acyclic", None) is None:
            raise ValueError(
                f"check_acyclicity requires states exposing is_acyclic(); "
                f"{type(initial).__name__} has none"
            )
        if self.check_progress and getattr(initial, "is_destination_oriented", None) is None:
            raise ValueError(
                f"check_progress requires states exposing is_destination_oriented(); "
                f"{type(initial).__name__} has none"
            )
        initial_sig = initial.signature()
        visited = {initial_sig}
        report.states_explored = 1
        predecessors: Optional[Dict] = {initial_sig: (None, None)} if self.track_traces else None
        raw_failures = self._generic_state_failures(initial_sig, initial)

        queue: deque = deque()
        queue.append((initial, 0))
        while queue:
            state, depth = queue.popleft()
            if depth > report.max_depth:
                report.max_depth = depth
            if self.single_actions_only:
                actions = list(automaton.enabled_single_actions(state))
            else:
                actions = list(automaton.enabled_actions(state))
            if not actions:
                report.quiescent_states += 1
                if self.check_progress and not state.is_destination_oriented():
                    raw_failures.append(
                        (state.signature(), PROGRESS, _PROGRESS_DETAIL)
                    )
                continue
            sig = state.signature()
            for action in actions:
                successor = automaton.apply(state, action)
                report.transitions_explored += 1
                successor_sig = successor.signature()
                if successor_sig in visited:
                    continue
                if report.states_explored >= self.max_states:
                    report.truncated = True
                    queue.clear()
                    break
                visited.add(successor_sig)
                report.states_explored += 1
                if predecessors is not None:
                    predecessors[successor_sig] = (sig, action)
                raw_failures.extend(
                    self._generic_state_failures(successor_sig, successor)
                )
                queue.append((successor, depth + 1))

        if self.collect_signatures:
            report.signatures = set(visited)
        self._attach_failures(report, raw_failures, predecessors)

    def _generic_state_failures(self, sig, state) -> List[Tuple[Hashable, str, str]]:
        failures: List[Tuple[Hashable, str, str]] = []
        if self.check_acyclicity and not state.is_acyclic():
            failures.append((sig, ACYCLIC, "directed cycle in reachable state"))
        for name, predicate in self.predicates.items():
            holds, detail = _predicate_outcome(predicate(state))
            if not holds:
                failures.append((sig, name, detail))
        return failures

    # ------------------------------------------------------------------
    # sharded multi-process path
    # ------------------------------------------------------------------
    def _run_sharded(self, report: CheckReport, vector: bool = False) -> None:
        expander = self._expander
        workers = self.workers
        context = fork_preferring_context()
        options = {
            "single_actions_only": self.single_actions_only,
            "symmetry": self.symmetry,
            "check_acyclicity": self.check_acyclicity,
            "check_progress": self.check_progress,
            "spill_threshold": self.spill_threshold,
            "spill_dir": None,
            "spill_max_runs": self.spill_max_runs,
            "track_traces": self.track_traces,
            "vectorized": vector,
        }
        connections = []
        processes = []
        for index in range(workers):
            worker_options = dict(options)
            if self.spill_dir is not None:
                worker_options["spill_dir"] = f"{self.spill_dir}/worker-{index}"
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker,
                args=(child_conn, index, workers, self.automaton, self.predicates, worker_options),
                daemon=True,
            )
            try:
                process.start()
            except Exception as error:  # spawn platforms pickle the args
                for connection in connections:
                    connection.close()
                raise ValueError(
                    f"failed to start shard workers — on spawn-only platforms the "
                    f"automaton and predicates must be picklable (lambda-based "
                    f"bundles need a fork platform or workers=1): {error}"
                ) from error
            child_conn.close()
            connections.append(parent_conn)
            processes.append(process)

        try:
            initial = expander.initial_signature()
            if self.symmetry:
                initial = expander.canonicalize(initial)
            if vector:
                report.vectorized = True
                root = (
                    np.array([initial], dtype=np.uint64),
                    np.array([initial], dtype=np.uint64),
                    np.zeros(1, dtype=np.uint64),  # token 0 marks the root
                )
                buckets: Dict[int, List] = {shard_of(initial, workers): [root]}
                empty_round = tuple(np.zeros(0, dtype=np.uint64) for _ in range(3))
            else:
                buckets = {shard_of(initial, workers): [(initial, None, None)]}

            def round_payload(entries: List):
                """Concatenate a bucket's array triples into one triple."""
                if not entries:
                    return empty_round
                if len(entries) == 1:
                    return entries[0]
                return tuple(np.concatenate(parts) for parts in zip(*entries))

            raw_failures: List[Tuple[Hashable, str, str]] = []
            round_index = 0
            while buckets:
                if report.states_explored >= self.max_states:
                    # round-granular truncation: the cap is only evaluated
                    # between BFS rounds, so the count may overshoot slightly.
                    # The pending frontier may consist entirely of duplicates
                    # (an exactly-exhausted space), so probe before declaring
                    # truncation: workers dedup the entries without checking
                    # or expanding them and report how many were new.
                    probe_new = 0
                    for index in range(workers):
                        if vector:
                            connections[index].send(
                                ("probe", round_payload(buckets.get(index, []))[0])
                            )
                        else:
                            connections[index].send(
                                ("probe", buckets.get(index, []))
                            )
                    for index in range(workers):
                        probe_new += _shard_recv(connections[index])
                    report.truncated = probe_new > 0
                    break
                for index in range(workers):
                    if vector:
                        connections[index].send(
                            ("round", round_payload(buckets.get(index, [])))
                        )
                    else:
                        connections[index].send(("round", buckets.get(index, [])))
                next_buckets: Dict[int, List] = {}
                round_new = 0
                for index in range(workers):
                    new, transitions, quiescent, out, failures = _shard_recv(
                        connections[index]
                    )
                    round_new += new
                    report.transitions_explored += transitions
                    report.quiescent_states += quiescent
                    raw_failures.extend(failures)
                    for owner, entries in out.items():
                        if vector:
                            next_buckets.setdefault(owner, []).append(entries)
                        else:
                            next_buckets.setdefault(owner, []).extend(entries)
                report.states_explored += round_new
                if round_new:
                    report.max_depth = round_index
                if vector:
                    frontier = sum(
                        int(triple[0].size)
                        for entries in next_buckets.values()
                        for triple in entries
                    )
                else:
                    frontier = sum(len(entries) for entries in next_buckets.values())
                logger.debug(
                    "sharded round %d: %d new states, frontier %d",
                    round_index, round_new, frontier,
                )
                if _telemetry.ENABLED:
                    if frontier:
                        _telemetry.REGISTRY.observe("checker.frontier", frontier)
                    if vector and round_new:
                        _telemetry.REGISTRY.inc("checker.batch_rounds")
                round_index += 1
                buckets = next_buckets

            if vector:
                # flush each worker's deferred acyclicity buffer before
                # collecting traces
                for connection in connections:
                    connection.send(("drain",))
                for connection in connections:
                    raw_failures.extend(_shard_recv(connection))
            self._collect_sharded_failures(report, raw_failures, connections)
            if self.collect_signatures:
                collected: Set[Hashable] = set()
                for connection in connections:
                    connection.send(("signatures",))
                    collected |= _shard_recv(connection)
                report.signatures = collected
            for connection in connections:
                connection.send(("stats",))
                stats = _shard_recv(connection)
                if stats["spilled_runs"]:
                    report.spilled = True
                if vector:
                    totals = report.spill_stats or {}
                    for key in ("spills", "compactions", "runs", "spilled_signatures"):
                        if key in stats:
                            totals[key] = totals.get(key, 0) + int(stats[key])
                    report.spill_stats = totals
        finally:
            for connection in connections:
                try:
                    connection.send(("stop",))
                    connection.close()
                except (BrokenPipeError, OSError):  # worker already gone
                    pass
            for process in processes:
                process.join(timeout=10)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()

    def _collect_sharded_failures(
        self,
        report: CheckReport,
        raw_failures: List[Tuple[Hashable, str, str]],
        connections,
    ) -> None:
        """Reconstruct failure traces by walking predecessor chains shard-wise."""
        workers = self.workers

        def parent_of(sig: Hashable) -> Optional[Tuple]:
            owner = shard_of(sig, workers)
            connections[owner].send(("parent_of", sig))
            return _shard_recv(connections[owner])

        self._build_failures(report, raw_failures, parent_of)


def check_exhaustively(
    automaton: IOAutomaton,
    predicates: Optional[Mapping[str, StatePredicate]] = None,
    **options: Any,
) -> CheckReport:
    """Convenience wrapper: build a :class:`ModelChecker` and run it."""
    return ModelChecker(automaton, predicates, **options).run()
