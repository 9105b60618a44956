"""The ``check`` engine: one exhaustive model check per :class:`CheckSpec`.

It runs :class:`~repro.exploration.checker.ModelChecker` on the spec's
topology and fills the record's ``check`` group (see
:data:`~repro.experiments.store.RECORD_FIELDS`).  The checker takes no
deadline, so a per-run ``timeout_s`` does not cut a check short.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Dict

from repro.experiments.engines import ExecutionEngine, register_engine
from repro.experiments.spec import ALGORITHM_FACTORIES, CHECK_EXECUTION_FIELDS, CheckSpec
from repro.experiments.store import CHECK, group_defaults
from repro.exploration.checker import ACYCLIC, PROGRESS, CheckReport, ModelChecker
from repro.topology.generators import build_family
from repro.verification.invariants import newpr_invariant_checks, pr_invariant_checks

ENGINE_CHECK = "check"

#: The ``paper`` invariant group's bundle per algorithm (FR and BLL have none).
PAPER_INVARIANTS = {
    "pr": pr_invariant_checks, "onestep-pr": pr_invariant_checks, "new-pr": newpr_invariant_checks,
}


def check_outcome(report: CheckReport) -> Dict[str, Any]:
    """The record fields a model check's report fills in.

    Only the reconstructed traces (at most the checker's
    ``max_traced_failures``) are serialised, while ``violations`` counts
    every failure, so a predicate failing on much of a huge space cannot
    balloon the record.  ``acyclic_final`` is ``None`` unless the
    acyclicity check ran, and ``destination_oriented`` is ``None`` unless
    the progress check ran.
    """
    record = {name: getattr(report, name) for name in (
        "states_explored", "transitions_explored", "quiescent_states", "max_depth",
        "truncated", "symmetry_reduced", "spilled", "vectorized",
    )}
    checked = report.predicate_names
    failed = {f.predicate_name for f in report.failures}
    record.update(
        status="violated" if report.failures else "truncated" if report.truncated else "ok",
        violations=len(report.failures),
        predicates=list(checked),
        acyclic_final=ACYCLIC not in failed if ACYCLIC in checked else None,
        destination_oriented=PROGRESS not in failed if PROGRESS in checked else None,
        counterexamples=[f.trace.to_dict() for f in report.failures if f.trace.reconstructed],
    )
    return record


class CheckEngine(ExecutionEngine):
    """The production model checker, one spec at a time."""

    name = ENGINE_CHECK
    spec_type = CheckSpec
    record_groups = (CHECK,)

    @cached_property
    def record_init(self) -> Dict[str, Any]:
        """The check group's fields the engine fills, at their fresh values
        (the group's spec fields arrive with the spec)."""
        spec_keys = CheckSpec().to_dict()
        return {k: v for k, v in group_defaults(CHECK).items() if k not in spec_keys}

    def supports(self, spec) -> bool:
        return isinstance(spec, CheckSpec)

    def unsupported_reason(self, spec) -> str:
        return "the check engine runs model-check specs (CheckSpec) only"

    def execute(self, lanes, deadline) -> None:
        for spec, record in lanes:
            for name in CHECK_EXECUTION_FIELDS:
                record.pop(name, None)
            instance = build_family(spec.family, spec.size, spec.seed)
            record.update(nodes=instance.node_count, edges=instance.edge_count)
            paper = PAPER_INVARIANTS.get(spec.algorithm)
            report = ModelChecker(
                ALGORITHM_FACTORIES[spec.algorithm](instance),
                paper() if paper is not None and "paper" in spec.invariants else None,
                max_states=spec.max_states,
                single_actions_only=spec.single_actions,
                symmetry=spec.symmetry,
                check_acyclicity=ACYCLIC in spec.invariants,
                check_progress=PROGRESS in spec.invariants,
                spill_threshold=spec.spill_threshold,
                spill_dir=spec.spill_dir,
                spill_max_runs=spec.spill_max_runs,
                max_traced_failures=spec.max_traced,
            ).run()
            record.update(check_outcome(report))


register_engine(CheckEngine())
