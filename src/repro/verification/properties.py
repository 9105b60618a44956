"""Derived correctness properties of link-reversal executions.

Beyond the acyclicity invariants, destination-oriented routing (the
application that motivates the paper) relies on a handful of global
properties that the library makes checkable:

* **destination orientation at quiescence** — when no non-destination node is
  a sink, every node has a directed path to the destination (on connected
  graphs whose orientation is a DAG: the only possible sink is then the
  destination, and every maximal directed walk must end in it);
* **confluence** — the final orientation reached from a given initial state is
  the same under every scheduler (link reversal has the diamond property);
* **sink independence** — no two adjacent nodes are ever sinks at the same
  time, which is what makes the concurrent ``reverse(S)`` step of PR
  well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.automata.executions import Execution, run
from repro.automata.ioa import IOAutomaton

Node = Hashable


@dataclass
class PropertyReport:
    """Generic result of a property check."""

    property_name: str
    holds: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        status = "holds" if self.holds else "FAILED"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"{self.property_name}: {status}{suffix}"


def check_destination_oriented_at_quiescence(
    automaton: IOAutomaton, state
) -> PropertyReport:
    """If ``state`` is quiescent, every node must have a path to the destination.

    For non-quiescent states the property holds vacuously.  The check assumes
    the underlying undirected graph is connected (unreachable components can
    obviously never route to the destination).
    """
    name = "destination-oriented at quiescence"
    if automaton.has_enabled_action(state):
        return PropertyReport(name, True, "state is not quiescent (vacuous)")
    orientation = getattr(state, "orientation", None)
    if orientation is None:
        orientation = state.to_orientation()
    stranded = orientation.nodes_without_path_to_destination()
    if stranded:
        return PropertyReport(
            name,
            False,
            f"quiescent but nodes {sorted(map(str, stranded))} cannot reach the destination",
        )
    return PropertyReport(name, True)


def check_sinks_are_independent(state) -> PropertyReport:
    """No two adjacent nodes are sinks simultaneously.

    This is immediate from the definitions (the shared edge cannot point at
    both endpoints) but the concurrent-step semantics of PR depends on it, so
    it is kept as an explicit regression check.
    """
    name = "sinks are pairwise non-adjacent"
    orientation = getattr(state, "orientation", None)
    if orientation is None:
        orientation = state.to_orientation()
    instance = state.instance
    sinks = set(orientation.sinks(exclude_destination=False))
    for u in sinks:
        overlap = instance.nbrs(u) & sinks
        if overlap:
            return PropertyReport(
                name, False, f"sinks {u} and {sorted(map(str, overlap))[0]} are adjacent"
            )
    return PropertyReport(name, True)


def check_confluence(
    automaton_factory,
    schedulers: Sequence,
    max_steps: Optional[int] = None,
) -> PropertyReport:
    """The final orientation is independent of the scheduler.

    Parameters
    ----------
    automaton_factory:
        A zero-argument callable returning a fresh automaton (each scheduler
        gets its own instance so no state leaks between runs).
    schedulers:
        The schedulers to compare.
    max_steps:
        Optional step bound passed to :func:`repro.automata.executions.run`.

    Link reversal enjoys the diamond property: if two different sinks are both
    enabled, stepping them in either order leads to the same state, so all
    maximal executions end in the same orientation.  This check runs every
    scheduler to quiescence and compares the final directed graphs.
    """
    name = "confluence of the final orientation"
    signatures = []
    for scheduler in schedulers:
        automaton = automaton_factory()
        result = run(automaton, scheduler, max_steps=max_steps, record_states=False)
        if not result.converged:
            return PropertyReport(
                name, False, f"scheduler {scheduler!r} did not converge within the step bound"
            )
        final = result.final_state
        signature = getattr(final, "graph_signature", None)
        signatures.append(signature() if signature is not None else final.signature())
    # graph signatures are compact ints (the orientation's reversal bitmask),
    # directly comparable across automata over the same instance
    distinct = set(signatures)
    if len(distinct) > 1:
        return PropertyReport(name, False, f"{len(distinct)} distinct final orientations observed")
    return PropertyReport(name, True, f"{len(schedulers)} schedulers agree")
