"""Sharded experiment campaigns with a persistent, resumable result store.

The paper's claims are statements over *families* of topologies and
adversarial schedules; this subpackage is the machinery that measures them at
that granularity instead of one scenario at a time:

* :mod:`repro.experiments.spec` — declarative :class:`ScenarioSpec` /
  :class:`CampaignSpec` layer; a campaign is the cross-product of topology
  families × algorithms × schedulers × sizes × seed replicates × failure
  models, expanded into a deterministic, seed-stamped run list;
* :mod:`repro.experiments.engines` — the :class:`ExecutionEngine` registry:
  the compiled signature-kernel path, the object-automaton oracle and the
  asynchronous message-passing engine are peers selected per scenario
  (``auto`` routes each spec to the best supporting engine);
* :mod:`repro.experiments.runner` — executes one scenario inside a worker
  (everything rebuilt from plain data), including link-failure and mobility
  churn phases and per-run invariant checks;
* :mod:`repro.experiments.async_engine` — the ``async`` engine: delay-model ×
  loss × churn scenarios on the compiled
  :class:`~repro.distributed.fast_network.FastAsyncNetwork`;
* :mod:`repro.experiments.executor` — shards the run list across a
  ``multiprocessing`` pool with chunked dispatch, cooperative per-run
  timeouts and crash isolation;
* :mod:`repro.experiments.store` — persistent results: append-only JSONL
  shards, the one store format that campaign resume and every query read;
* :mod:`repro.experiments.aggregate` — group-by summaries, work-vs-size
  curves with quadratic fits, and the PR-vs-FR worst-case ordering check.

The CLI surface is ``python -m repro sweep`` / ``python -m repro report``.
"""

from repro.experiments.aggregate import (
    async_summary,
    build_report,
    group_summary,
    pr_vs_fr_ordering,
    work_curves,
)
from repro.experiments.engines import (
    ENGINE_REGISTRY,
    ExecutionEngine,
    engine_names,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.experiments.executor import CampaignReport, run_campaign
from repro.experiments.runner import ScenarioTimeout, execute_scenario
from repro.experiments.spec import (
    ALGORITHM_FACTORIES,
    CampaignSpec,
    ScenarioSpec,
    derive_seed,
)
from repro.experiments.store import ResultStore

__all__ = [
    "ALGORITHM_FACTORIES",
    "CampaignReport",
    "CampaignSpec",
    "ENGINE_REGISTRY",
    "ExecutionEngine",
    "ResultStore",
    "ScenarioSpec",
    "ScenarioTimeout",
    "async_summary",
    "build_report",
    "derive_seed",
    "engine_names",
    "execute_scenario",
    "get_engine",
    "group_summary",
    "pr_vs_fr_ordering",
    "register_engine",
    "resolve_engine",
    "run_campaign",
    "work_curves",
]
