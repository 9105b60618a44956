"""Work accounting: reversal counts, step counts and algorithm comparison.

The efficiency measure used throughout the link-reversal literature (and in
Section 1 of the paper) is the *total number of reversals* performed by all
nodes until the graph becomes destination oriented.  This module measures it
for any automaton / scheduler combination and provides:

* :func:`count_reversals` — run one execution and summarise the work;
* :func:`compare_algorithms` — PR vs OneStepPR vs NewPR vs FR on the same
  instance under the same scheduler family (experiments E9 and E12).

The Θ(n_b²) worst-case series of experiment E10 (the bound of Busch &
Tirthapura quoted by the paper) is a campaign over the ``chain`` family at
size ``n_b + 1``: see ``repro worst-case``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Mapping, Optional

from repro.automata.executions import run
from repro.automata.ioa import IOAutomaton
from repro.core.full_reversal import FullReversal
from repro.core.graph import LinkReversalInstance
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal

Node = Hashable


@dataclass
class WorkSummary:
    """Work performed by one execution of a link-reversal algorithm."""

    algorithm: str
    scheduler: str
    node_steps: int
    edge_reversals: int
    dummy_steps: int
    converged: bool
    destination_oriented: bool
    per_node_steps: Dict[Node, int] = field(default_factory=dict)
    per_node_reversals: Dict[Node, int] = field(default_factory=dict)

    @property
    def total_work(self) -> int:
        """Total node steps — the cost measure of the literature."""
        return self.node_steps

    def to_dict(self, per_node: bool = False) -> Dict[str, object]:
        """JSON-compatible form (used by ``--json`` CLI output and the store)."""
        data: Dict[str, object] = {
            "algorithm": self.algorithm,
            "scheduler": self.scheduler,
            "node_steps": self.node_steps,
            "edge_reversals": self.edge_reversals,
            "dummy_steps": self.dummy_steps,
            "converged": self.converged,
            "destination_oriented": self.destination_oriented,
        }
        if per_node:
            data["per_node_steps"] = {str(k): v for k, v in self.per_node_steps.items()}
            data["per_node_reversals"] = {
                str(k): v for k, v in self.per_node_reversals.items()
            }
        return data

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"{self.algorithm}/{self.scheduler}: {self.node_steps} steps, "
            f"{self.edge_reversals} edge reversals, {self.dummy_steps} dummy steps, "
            f"{'converged' if self.converged else 'NOT converged'}"
        )


class WorkObserver:
    """Per-step observer accumulating step and reversal counts.

    Public so that callers composing their own observer stacks (the experiment
    runner adds round counting and a wall-clock deadline on top) can reuse the
    signature-XOR reversal accounting instead of re-deriving it.
    """

    def __init__(self) -> None:
        self.node_steps = 0
        self.edge_reversals = 0
        self.dummy_steps = 0
        self.per_node_steps: Dict[Node, int] = {}
        self.per_node_reversals: Dict[Node, int] = {}

    def __call__(self, step_index, pre_state, action, post_state) -> None:
        actors = action.actors()
        self.node_steps += len(actors)
        # the graph signatures are reversal bitmasks over the same edge index,
        # so the XOR's set bits are exactly the edges this step flipped
        instance = pre_state.instance
        diff = pre_state.graph_signature() ^ post_state.graph_signature()
        flipped_by: Dict[Node, int] = {}
        flipped_total = 0
        while diff:
            low = diff & -diff
            edge_index = low.bit_length() - 1
            diff ^= low
            flipped_total += 1
            tail, head = instance.edge_endpoints(edge_index)
            # attribute the reversal to the actor incident to the edge
            for node in actors:
                if node == tail or node == head:
                    flipped_by[node] = flipped_by.get(node, 0) + 1
                    break
        self.edge_reversals += flipped_total
        for node in actors:
            self.per_node_steps[node] = self.per_node_steps.get(node, 0) + 1
            reversed_here = flipped_by.get(node, 0)
            self.per_node_reversals[node] = (
                self.per_node_reversals.get(node, 0) + reversed_here
            )
            if reversed_here == 0:
                self.dummy_steps += 1


def count_reversals(
    automaton: IOAutomaton,
    scheduler,
    max_steps: Optional[int] = None,
) -> WorkSummary:
    """Run one execution to quiescence and summarise the work performed."""
    observer = WorkObserver()
    result = run(
        automaton, scheduler, max_steps=max_steps, observers=(observer,), record_states=False
    )
    final = result.final_state
    oriented = final.is_destination_oriented() if hasattr(final, "is_destination_oriented") else False
    return WorkSummary(
        algorithm=automaton.name,
        scheduler=type(scheduler).__name__,
        node_steps=observer.node_steps,
        edge_reversals=observer.edge_reversals,
        dummy_steps=observer.dummy_steps,
        converged=result.converged,
        destination_oriented=oriented,
        per_node_steps=observer.per_node_steps,
        per_node_reversals=observer.per_node_reversals,
    )


#: The default set of algorithms compared by :func:`compare_algorithms`.
DEFAULT_ALGORITHMS: Mapping[str, Callable[[LinkReversalInstance], IOAutomaton]] = {
    "PR": PartialReversal,
    "OneStepPR": OneStepPartialReversal,
    "NewPR": NewPartialReversal,
    "FR": FullReversal,
}


def compare_algorithms(
    instance: LinkReversalInstance,
    scheduler_factory: Callable[[], object],
    algorithms: Optional[Mapping[str, Callable[[LinkReversalInstance], IOAutomaton]]] = None,
    max_steps: Optional[int] = None,
) -> Dict[str, WorkSummary]:
    """Run every algorithm on the same instance and return their work summaries.

    ``scheduler_factory`` is called once per algorithm so that scheduler state
    (round queues, RNG position) never leaks between runs.
    """
    algorithms = dict(algorithms or DEFAULT_ALGORITHMS)
    results: Dict[str, WorkSummary] = {}
    for name, factory in algorithms.items():
        automaton = factory(instance)
        scheduler = scheduler_factory()
        results[name] = count_reversals(automaton, scheduler, max_steps=max_steps)
    return results
