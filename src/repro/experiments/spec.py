"""Declarative scenario and campaign specifications.

A :class:`ScenarioSpec` pins down *one* run completely: which topology family
at which size built from which seed, which algorithm, which scheduler with
which (independently derived) seed, and which failure/churn model is applied.
Everything in a spec is plain data — strings and ints — so specs cross
process boundaries untouched and workers can rebuild the full object graph
locally (see :mod:`repro.experiments.runner`).

A :class:`CampaignSpec` is the cross-product description of a whole
experiment family: lists of families, algorithms, schedulers, sizes, seed
replicates and failure models.  :meth:`CampaignSpec.expand` flattens it into
a deterministic, seed-stamped run list, which is what the sharded executor
partitions across workers and what the result store keys on.

A :class:`CheckSpec` pins down one exhaustive model check of one algorithm
on one generated topology.  It is its own one-run campaign, so the executor
stores, resumes and traces it like any sweep.

Seed derivation
---------------

Seeds are derived with a stable hash (:func:`derive_seed`), never with
Python's randomised ``hash``.  Two properties matter:

* the *topology* seed depends on ``(base_seed, family, size, replicate)``
  only — every algorithm/scheduler combination of one replicate runs on the
  **same** instance, so work comparisons are paired;
* the *scheduler* seed additionally depends on the algorithm and scheduler
  names — schedules are **not** correlated across algorithms, so a comparison
  never hinges on one shared random schedule (the bug the CLI ``compare``
  command used to have).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.bll import BinaryLinkLabels
from repro.core.full_reversal import FullReversal
from repro.core.new_pr import NewPartialReversal
from repro.core.one_step_pr import OneStepPartialReversal
from repro.core.pr import PartialReversal
from repro.distributed.streams import STREAM_VERSION
from repro.schedulers import SCHEDULER_FACTORIES
from repro.topology.generators import FAMILY_NAMES

#: Name → automaton-class registry used by the campaigns and the CLI.
ALGORITHM_FACTORIES = {
    "pr": PartialReversal,
    "onestep-pr": OneStepPartialReversal,
    "new-pr": NewPartialReversal,
    "fr": FullReversal,
    "bll": BinaryLinkLabels,
}

#: Supported failure / churn models (see runner.execute_scenario).
FAILURE_MODELS = ("none", "link-failures", "mobility")

#: Channel delay models of the asynchronous engine; a spec with a
#: ``delay_model`` is an async message-passing scenario (None = synchronous).
#: The table itself lives with the network layer.
DELAY_MODEL_NAMES = ("zero", "fixed", "uniform", "fifo")

#: Traffic models of the packet data plane; a spec with a ``traffic`` model
#: is a data-plane scenario (engine ``dataplane``).  The model table itself
#: lives with the data-plane layer (``repro.dataplane.traffic``) — this
#: mirror keeps spec validation import-light, and a test pins the two.
TRAFFIC_MODEL_NAMES = ("trickle", "steady", "heavy", "bursty")

#: Fault-injection sentinel: a spec with this "algorithm" makes a pooled
#: worker process hard-exit, exercising the executor's crash isolation.  It
#: passes validation (so campaigns can inject it deliberately) but has no
#: automaton, so an inline run records an error instead of killing the parent.
CRASH_SENTINEL = "__crash__"


def derive_seed(*components: Any) -> int:
    """Derive a stable 63-bit seed from arbitrary (stringifiable) components.

    Uses blake2b, not ``hash()``, so the derivation is identical across
    processes and interpreter invocations.
    """
    text = "\x1f".join(str(c) for c in components)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFFFFFFFFFF


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-determined run of one algorithm on one topology."""

    family: str
    size: int
    algorithm: str
    scheduler: str
    topology_seed: int
    scheduler_seed: int
    replicate: int = 0
    failure_model: str = "none"
    failure_count: int = 0
    max_steps: Optional[int] = None
    campaign: str = "adhoc"
    #: ``None`` = synchronous scheduler-driven run; a delay-model name makes
    #: this an asynchronous message-passing scenario (engine ``async``).
    delay_model: Optional[str] = None
    #: Per-message loss probability of the async channels.
    loss: float = 0.0
    #: ``None`` = control plane only; a traffic-model name rides a packet
    #: workload on the routed DAG (engine ``dataplane``).  ``delay_model``
    #: then configures the *control-plane* channels (default ``fixed``).
    traffic: Optional[str] = None
    #: Crash-stop protocol faults: this many non-destination nodes (picked
    #: by :func:`repro.faults.nodes.select_crashed_ids` from the topology
    #: seed) keep their announced heights but silently stop reversing.
    #: Supported by the kernel and async engines only.
    node_faults: int = 0

    def validate(self) -> None:
        """Check every axis against the registries; raise ``ValueError`` if off."""
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.algorithm not in ALGORITHM_FACTORIES and self.algorithm != CRASH_SENTINEL:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.scheduler not in SCHEDULER_FACTORIES:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.failure_model not in FAILURE_MODELS:
            raise ValueError(f"unknown failure model {self.failure_model!r}")
        if self.failure_model == "mobility" and self.family != "geometric":
            raise ValueError("the mobility model only applies to the geometric family")
        if self.size < 2:
            raise ValueError("size must be at least 2")
        if self.failure_count < 0:
            raise ValueError("failure_count must be non-negative")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.delay_model is not None and self.delay_model not in DELAY_MODEL_NAMES:
            raise ValueError(
                f"unknown delay model {self.delay_model!r}; "
                f"choose from {', '.join(DELAY_MODEL_NAMES)}"
            )
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if self.delay_model is None and self.loss != 0.0:
            raise ValueError("loss applies to async scenarios only (set a delay_model)")
        if self.delay_model is not None and self.failure_model == "mobility":
            raise ValueError("the async engine does not support mobility churn")
        if self.traffic is not None and self.traffic not in TRAFFIC_MODEL_NAMES:
            raise ValueError(
                f"unknown traffic model {self.traffic!r}; "
                f"choose from {', '.join(TRAFFIC_MODEL_NAMES)}"
            )
        if self.traffic is not None and self.failure_model == "mobility":
            raise ValueError("the dataplane engine does not support mobility churn")
        if self.node_faults < 0:
            raise ValueError("node_faults must be non-negative")
        if self.node_faults > self.size - 2:
            raise ValueError(
                "node_faults must leave the destination and at least one "
                f"live node ({self.node_faults} faults on size {self.size})"
            )
        if self.node_faults > 0 and self.failure_model != "none":
            raise ValueError(
                "node_faults cannot be combined with link-failure/mobility churn"
            )
        if self.node_faults > 0 and self.traffic is not None:
            raise ValueError("the dataplane engine does not support node_faults")

    @property
    def run_id(self) -> str:
        """Stable content hash identifying this run in the result store."""
        identity = dict(zip(_IDENTITY_FIELDS, _spec_values(self)))
        # async axes join the identity only when set, so every pre-async
        # run_id (and therefore campaign resume against old stores) is stable
        if self.delay_model is not None:
            identity["delay_model"] = self.delay_model
            identity["loss"] = self.loss
            # ... with the channel-stream version: a store written under
            # another draw scheme re-runs these specs instead of resuming
            identity["stream_version"] = STREAM_VERSION
        # ... and the traffic axis likewise, preserving pre-dataplane run_ids
        if self.traffic is not None:
            identity["traffic"] = self.traffic
        # ... and node faults, preserving pre-fault-plane run_ids
        if self.node_faults:
            identity["node_faults"] = self.node_faults
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (what is sent to worker processes and stored).

        Zips :data:`SPEC_FIELDS` with the field values rather than calling
        :func:`dataclasses.asdict` — the latter deep-copies every field and
        dominated the campaign engine's per-run dispatch overhead (every
        field here is already plain data).
        """
        record = dict(zip(SPEC_FIELDS, _spec_values(self)))
        record["run_id"] = self.run_id
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys ignored)."""
        return cls(**{name: data[name] for name in SPEC_FIELDS if name in data})


#: The spec's field names in constructor order, read from the dataclass.
SPEC_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(ScenarioSpec))
_spec_values = attrgetter(*SPEC_FIELDS)
#: The fields every ``run_id`` hashes: those declared before ``campaign``
#: (the later axes join the hash only when set).
_IDENTITY_FIELDS = SPEC_FIELDS[:SPEC_FIELDS.index("campaign")]


#: The ``kind`` of a model check's record, which tells its dict apart.
CHECK_KIND = "check"

#: Invariant groups a model check can select (``repro check --invariants``).
CHECK_INVARIANTS = ("acyclic", "progress", "paper")


@dataclass(frozen=True)
class CheckSpec:
    """One exhaustive model check of one algorithm on one generated topology.

    ``run_id`` hashes the fields before ``campaign``.  The ones after it
    change how the check executes, not what it verifies: they stay out of
    the ``run_id`` and out of the stored record.  A check spec is its own
    one-run campaign (``name``, :meth:`expand`) for ``run_campaign``.
    """

    family: str = "chain"
    size: int = 8
    algorithm: str = "pr"
    seed: int = 0
    invariants: Tuple[str, ...] = ("acyclic", "progress")
    max_states: int = 1_000_000
    single_actions: bool = False
    symmetry: bool = False
    campaign: str = "check"
    #: Spill the visited set to disk (into ``spill_dir``, or a temporary
    #: directory) beyond this many signatures; ``None`` never spills.
    spill_threshold: Optional[int] = None
    spill_dir: Optional[str] = None
    spill_max_runs: Optional[int] = 8
    #: Counterexamples reconstructed into full traces.
    max_traced: int = 10

    def validate(self) -> None:
        """Check every field's range; raise ``ValueError`` if one is off."""
        unknown = set(self.invariants) - set(CHECK_INVARIANTS)
        if unknown:
            raise ValueError(
                f"unknown invariant group(s) {sorted(unknown)}; "
                f"choose from {', '.join(CHECK_INVARIANTS)}"
            )
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.algorithm not in ALGORITHM_FACTORIES:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.size < 2:
            raise ValueError("size must be at least 2")
        if self.max_states < 1:
            raise ValueError(f"max_states must be at least 1, got {self.max_states}")
        if self.max_traced < 0:
            raise ValueError(f"max_traced must be at least 0, got {self.max_traced}")
        if self.symmetry or self.spill_threshold is not None:
            # refused before a record exists: the spill setting is no part
            # of the run_id, so a stored refusal would answer for the check
            # without it
            from repro.kernels.vector import MAX_NODES
            from repro.topology.generators import build_family

            nodes = build_family(self.family, self.size, self.seed).node_count
            if nodes > MAX_NODES:
                feature = "symmetry reduction" if self.symmetry else "disk spill"
                raise ValueError(
                    f"{feature} requires a compiled signature kernel (at most "
                    f"{MAX_NODES} nodes); {nodes} nodes run on the reference loop"
                )

    @property
    def run_id(self) -> str:
        """Stable content hash of the identity fields, ``kind`` included."""
        identity = dict(zip(_CHECK_IDENTITY_FIELDS, _check_values(self)))
        identity.update(kind=CHECK_KIND, invariants=sorted(self.invariants))
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        """The record's spec fields, plus the execution settings for the
        worker (the check engine drops them from the record)."""
        record = dict(zip(CHECK_SPEC_FIELDS, _check_values(self)))
        record.update(run_id=self.run_id, kind=CHECK_KIND, scheduler="exhaustive",
                      invariants=sorted(self.invariants))
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CheckSpec":
        """Rebuild a spec from :meth:`to_dict` output or a stored record."""
        values = {name: data[name] for name in CHECK_SPEC_FIELDS if name in data}
        return cls(**{**values, "invariants": tuple(values.get("invariants", cls.invariants))})

    @property
    def name(self) -> str:
        return self.campaign

    def expand(self) -> List["CheckSpec"]:
        self.validate()
        return [self]


CHECK_SPEC_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(CheckSpec))
_check_values = attrgetter(*CHECK_SPEC_FIELDS)
_CHECK_IDENTITY_FIELDS = CHECK_SPEC_FIELDS[:CHECK_SPEC_FIELDS.index("campaign")]
#: The execution settings: shipped to the worker, kept out of the record.
CHECK_EXECUTION_FIELDS = CHECK_SPEC_FIELDS[len(_CHECK_IDENTITY_FIELDS) + 1:]


def spec_from_dict(data: Dict[str, Any]) -> Union[ScenarioSpec, CheckSpec]:
    """Rebuild a scenario or a check spec from its plain-data form."""
    return (CheckSpec if data.get("kind") == CHECK_KIND else ScenarioSpec).from_dict(data)


def spec_and_record(
    raw: Union[ScenarioSpec, CheckSpec, Dict[str, Any]],
) -> Tuple[Union[ScenarioSpec, CheckSpec], Dict[str, Any]]:
    """A run's spec and a fresh record of its spec fields (the worker entry).

    An executor-shipped dict is :meth:`ScenarioSpec.to_dict` output with
    every field and its ``run_id``: it is copied as the record, so the
    content-hash ``run_id`` is not derived again per run, and the spec is
    built positionally, skipping :meth:`~ScenarioSpec.from_dict`'s
    filtering dictcomp (both showed up in sweep profiles).  Any other dict,
    a check spec's among them, goes through :func:`spec_from_dict`.  The
    spec is not validated here.
    """
    if not isinstance(raw, dict):
        return raw, raw.to_dict()
    if "run_id" in raw:
        try:
            spec = ScenarioSpec(*map(raw.__getitem__, SPEC_FIELDS))
        except KeyError:
            spec = spec_from_dict(raw)
        return spec, dict(raw)
    spec = spec_from_dict(raw)
    return spec, spec.to_dict()


@dataclass
class CampaignSpec:
    """Cross-product description of an experiment campaign."""

    name: str = "campaign"
    families: Sequence[str] = ("chain",)
    algorithms: Sequence[str] = ("pr", "fr")
    schedulers: Sequence[str] = ("greedy",)
    sizes: Sequence[int] = (10,)
    replicates: int = 1
    base_seed: int = 0
    failure_models: Sequence[Tuple[str, int]] = field(default_factory=lambda: [("none", 0)])
    max_steps: Optional[int] = None
    #: Async axes: ``(None,)`` keeps the campaign synchronous; delay-model
    #: names open the delay × loss × churn cross-product on the async engine.
    delay_models: Sequence[Optional[str]] = (None,)
    losses: Sequence[float] = (0.0,)
    #: Data-plane axis: ``(None,)`` keeps the campaign control-plane only;
    #: traffic-model names ride packet workloads on the dataplane engine.
    traffics: Sequence[Optional[str]] = (None,)
    #: Crash-stop axis: how many nodes silently stop reversing per cell.
    #: ``(0,)`` keeps the campaign fault-free.
    node_fault_counts: Sequence[int] = (0,)

    def __post_init__(self) -> None:
        if self.replicates < 0:
            raise ValueError(f"replicates must be non-negative, got {self.replicates}")
        self.families = tuple(self.families)
        self.algorithms = tuple(self.algorithms)
        self.schedulers = tuple(self.schedulers)
        self.sizes = tuple(int(s) for s in self.sizes)
        self.failure_models = tuple((str(m), int(k)) for m, k in self.failure_models)
        self.delay_models = tuple(
            None if m is None else str(m) for m in self.delay_models
        )
        self.losses = tuple(float(p) for p in self.losses)
        self.traffics = tuple(None if t is None else str(t) for t in self.traffics)
        self.node_fault_counts = tuple(int(k) for k in self.node_fault_counts)

    @staticmethod
    def _cell_applicable(
        family: str,
        failure_model: str,
        delay_model: Optional[str],
        loss: float,
        traffic: Optional[str] = None,
        node_faults: int = 0,
        size: Optional[int] = None,
    ) -> bool:
        """Whether one cross-product cell expands to a valid scenario.

        Non-applicable combinations are skipped rather than rejected, the
        same convention as mobility on non-geometric families: a mixed
        campaign (e.g. ``delay_models=(None, "uniform")``) sweeps each axis
        value over the cells where it makes sense.
        """
        if failure_model == "mobility" and family != "geometric":
            return False
        if delay_model is None and loss != 0.0:
            return False  # loss is an async channel property
        if delay_model is not None and failure_model == "mobility":
            return False  # the async engine does not support mobility churn
        if traffic is not None and failure_model == "mobility":
            return False  # the dataplane engine does not support mobility churn
        if node_faults > 0:
            if failure_model != "none":
                return False  # crash-stop faults never combine with churn
            if traffic is not None:
                return False  # the dataplane engine does not support node_faults
            if size is not None and node_faults > size - 2:
                return False  # destination + one live node must survive
        return True

    @property
    def run_count(self) -> int:
        """Size of the expanded run list (matches ``len(self.expand())``)."""
        cells = 0
        for family in self.families:
            for size in self.sizes:
                cells += sum(
                    1
                    for model, _ in self.failure_models
                    for delay_model in self.delay_models
                    for loss in self.losses
                    for traffic in self.traffics
                    for node_faults in self.node_fault_counts
                    if self._cell_applicable(
                        family, model, delay_model, loss, traffic,
                        node_faults, size,
                    )
                )
        return cells * len(self.algorithms) * len(self.schedulers) * self.replicates

    def expand(self) -> List[ScenarioSpec]:
        """The deterministic, seed-stamped run list of this campaign.

        Iteration order is the declared axis order (families outermost,
        failure models then delay models then losses innermost), so the
        list — and every ``run_id`` in it — is reproducible from the spec
        alone.
        """
        runs: List[ScenarioSpec] = []
        for family in self.families:
            for size in self.sizes:
                for replicate in range(self.replicates):
                    topology_seed = derive_seed(
                        self.base_seed, "topology", family, size, replicate
                    )
                    for algorithm in self.algorithms:
                        for scheduler in self.schedulers:
                            scheduler_seed = derive_seed(
                                self.base_seed, "scheduler", family, size,
                                replicate, algorithm, scheduler,
                            )
                            for failure_model, failure_count in self.failure_models:
                                for delay_model in self.delay_models:
                                    for loss in self.losses:
                                        for traffic in self.traffics:
                                            for node_faults in self.node_fault_counts:
                                                if not self._cell_applicable(
                                                    family, failure_model,
                                                    delay_model, loss, traffic,
                                                    node_faults, size,
                                                ):
                                                    continue
                                                spec = ScenarioSpec(
                                                    family=family,
                                                    size=size,
                                                    algorithm=algorithm,
                                                    scheduler=scheduler,
                                                    topology_seed=topology_seed,
                                                    scheduler_seed=scheduler_seed,
                                                    replicate=replicate,
                                                    failure_model=failure_model,
                                                    failure_count=failure_count,
                                                    max_steps=self.max_steps,
                                                    campaign=self.name,
                                                    delay_model=delay_model,
                                                    loss=loss,
                                                    traffic=traffic,
                                                    node_faults=node_faults,
                                                )
                                                spec.validate()
                                                runs.append(spec)
        return runs

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form, stored next to the results for provenance."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_dict` output (absent axes take
        their defaults)."""
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})
