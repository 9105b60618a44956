"""First-class counterexample traces extracted by the model checker.

When exploration finds a state violating a predicate, the raw artefact is a
chain of predecessor pointers over compact int signatures.  This module turns
that chain into a :class:`CounterexampleTrace` — a named, serialisable object
that can be *replayed* through the automaton's transition function to
re-produce the violating state, so a failure report is never just "state
0x2f3 is bad" but a checked recipe for reaching it.

Two replay modes exist:

* :meth:`CounterexampleTrace.replay` re-applies the recorded actions from the
  automaton's initial state (validating every precondition) and returns the
  full :class:`~repro.automata.executions.Execution`.  This is exact whenever
  the trace was extracted without symmetry reduction.
* :meth:`CounterexampleTrace.verify_signatures` walks the recorded signature
  chain one transition at a time through a signature expander, canonicalising
  after every step.  This is the validity check for traces extracted *with*
  symmetry reduction, where each recorded state is the canonical
  representative of the orbit actually reached (see
  :mod:`repro.kernels.signature` for the soundness argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.automata.ioa import Action, IOAutomaton
from repro.automata.executions import Execution, replay


@dataclass(frozen=True)
class CounterexampleTrace:
    """A replayable path from the initial state to a predicate violation.

    Attributes
    ----------
    automaton_name:
        Name of the automaton the trace belongs to (``PR``, ``FR``, ...).
    predicate_name:
        The predicate that failed on the final state of the trace.
    detail:
        Human-readable violation detail (e.g. the offending cycle).
    actions:
        The action sequence ``a_1 .. a_k`` reaching the violating state.
    signatures:
        Optional signature chain ``sig(s_0) .. sig(s_k)`` (one longer than
        ``actions``).  Present when the trace was extracted by the signature
        frontier; ``None`` for traces built by the legacy explorer.
    symmetry_reduced:
        When ``True`` the signatures are canonical orbit representatives and
        :meth:`replay` may diverge from the chain after the first symmetric
        step — use :meth:`verify_signatures` instead.
    reconstructed:
        ``False`` for failures beyond the checker's ``max_traced_failures``
        cap (or with trace tracking disabled): the violation is real but the
        path was not rebuilt, and :meth:`replay` refuses rather than
        returning a misleading empty execution.
    """

    automaton_name: str
    predicate_name: str
    detail: str
    actions: Tuple[Action, ...]
    signatures: Optional[Tuple[Hashable, ...]] = None
    symmetry_reduced: bool = False
    reconstructed: bool = True

    @property
    def depth(self) -> int:
        """Number of transitions from the initial state to the violation."""
        return len(self.actions)

    # ------------------------------------------------------------------
    # replay / validation
    # ------------------------------------------------------------------
    def replay(self, automaton: IOAutomaton) -> Execution:
        """Re-apply the recorded actions from the initial state.

        Every precondition is validated by
        :func:`repro.automata.executions.replay`; the returned execution's
        final state is the violating state.  Raises ``ValueError`` when the
        trace was extracted under symmetry reduction (the action sequence is
        then only valid between canonical representatives).
        """
        if not self.reconstructed:
            raise ValueError(
                "trace was not reconstructed (beyond max_traced_failures or "
                "trace tracking disabled); re-run with a higher cap to replay"
            )
        if self.symmetry_reduced:
            raise ValueError(
                "trace was extracted under symmetry reduction; "
                "use verify_signatures(expander) instead of replay()"
            )
        return replay(automaton, self.actions)

    def verify_signatures(self, expander) -> None:
        """Validate the trace one transition at a time through ``expander``.

        For every recorded step, the parent signature is decoded to a state,
        the action is checked to be enabled and applied, and the successor's
        (canonicalised, when applicable) signature is compared against the
        recorded child.  Raises ``ValueError`` on the first mismatch (an
        explicit raise, not an ``assert`` — the check must survive
        ``python -O``).
        """
        if self.signatures is None:
            raise ValueError("trace carries no signature chain to verify")
        automaton = expander.automaton
        for i, action in enumerate(self.actions):
            parent_sig, child_sig = self.signatures[i], self.signatures[i + 1]
            state = expander.state_for(parent_sig)
            if not automaton.is_enabled(state, action):
                raise ValueError(
                    f"step {i}: {action!r} not enabled in recorded state"
                )
            successor = automaton.apply(state, action)
            sig = expander.encode_state(successor)
            if self.symmetry_reduced:
                sig = expander.canonicalize(sig)
            if sig != child_sig:
                raise ValueError(
                    f"step {i}: replayed signature {sig!r} != recorded {child_sig!r}"
                )

    # ------------------------------------------------------------------
    # serialisation (the trace schema stored by ``repro check``)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form: actor lists per action plus the signature chain.

        Actions are serialised exactly like
        :func:`repro.io.serialization.execution_to_dict` (a list of actor
        lists), so stored counterexamples share the executions' trace schema.
        Signatures are stringified — PR signatures can exceed JSON number
        precision in other tooling even though Python's :mod:`json` would
        round-trip them.
        """
        return {
            "automaton": self.automaton_name,
            "predicate": self.predicate_name,
            "detail": self.detail,
            "depth": self.depth,
            "actions": [{"actors": list(action.actors())} for action in self.actions],
            "signatures": (
                None
                if self.signatures is None
                else [str(sig) for sig in self.signatures]
            ),
            "symmetry_reduced": self.symmetry_reduced,
            "reconstructed": self.reconstructed,
        }

    def __str__(self) -> str:
        steps = " ; ".join(str(action) for action in self.actions) or "<initial state>"
        return (
            f"[{self.automaton_name}] {self.predicate_name} violated at depth "
            f"{self.depth}: {steps}"
        )
