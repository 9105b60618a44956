"""Quantitative analysis of link-reversal executions.

* :mod:`repro.analysis.work` — reversal and step counting, per-node work,
  algorithm comparison (PR vs FR vs NewPR), and the Θ(n_b²) worst-case sweep;
* :mod:`repro.analysis.statistics` — tiny self-contained helpers (means,
  percentiles, least-squares polynomial fit) so the benchmarks do not need
  scipy at runtime.
"""

from repro.analysis.work import (
    WorkSummary,
    count_reversals,
    compare_algorithms,
    per_node_reversals,
    worst_case_sweep,
)
from repro.analysis.statistics import mean, percentile, fit_polynomial, quadratic_fit_r2

__all__ = [
    "WorkSummary",
    "compare_algorithms",
    "count_reversals",
    "fit_polynomial",
    "mean",
    "per_node_reversals",
    "percentile",
    "quadratic_fit_r2",
    "worst_case_sweep",
]
