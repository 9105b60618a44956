"""Quantitative analysis of link-reversal executions.

* :mod:`repro.analysis.work` — reversal and step counting, per-node work,
  and algorithm comparison (PR vs FR vs NewPR);
* :mod:`repro.analysis.statistics` — tiny self-contained helpers (means,
  percentiles, least-squares polynomial fit) so the benchmarks do not need
  scipy at runtime.
"""

from repro.analysis.work import (
    WorkSummary,
    count_reversals,
    compare_algorithms,
)
from repro.analysis.statistics import mean, percentile, fit_polynomial, quadratic_fit_r2

__all__ = [
    "WorkSummary",
    "compare_algorithms",
    "count_reversals",
    "fit_polynomial",
    "mean",
    "percentile",
    "quadratic_fit_r2",
]
