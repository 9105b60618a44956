"""The execution-engine registry: every way to run a scenario, as peers.

An :class:`ExecutionEngine` is one complete way of executing a
:class:`~repro.experiments.spec.ScenarioSpec`:

``kernel``
    The compiled signature-kernel fast path (synchronous scheduler model;
    every algorithm on any registry scheduler): a group of lockstep lanes
    per call.
``legacy``
    The object-level I/O-automaton oracle (synchronous): what the
    differential suites pin ``kernel`` to, and ``--engine legacy`` runs.
``async``
    The compiled asynchronous message-passing engine
    (:class:`~repro.distributed.fast_network.FastAsyncNetwork`): nodes react
    to height messages over delayed / lossy / churning links.  Selected by
    giving the spec a ``delay_model``; supports the height-based algorithms
    (``pr`` → partial mode, ``fr`` → full mode).
``dataplane``
    Packet forwarding over a live async control plane, selected by giving
    the spec a ``traffic`` model: a group of lanes stepped in lockstep on
    one packet simulator per call.
``check``
    One exhaustive model check per :class:`~repro.experiments.spec.CheckSpec`.

Engines declare which specs they :meth:`~ExecutionEngine.supports`;
``resolve_engine("auto", spec)`` picks the highest-priority supporting
engine of the spec's class, so a spec with a ``delay_model`` routes to the
async engine, a synchronous spec to the kernel engine and a check spec to
the check engine, with no caller knowing the engine list.  Registering a new engine is one
:func:`register_engine` call — the runner, executor, CLI and store plumbing
pick it up through the registry.

Engines ``execute(lanes, deadline)``: ``lanes`` is a list of ``(spec,
record)`` pairs that share one deadline, and each flat result record is
mutated in place; partial work tallies must be flushed even when raising
(timeouts are recorded with the work done so far).
:func:`repro.experiments.runner.run_scenarios` forms the groups from each
engine's :meth:`~ExecutionEngine.group_key`: the ``kernel``, ``async`` and
``dataplane`` engines are handed more than one lane.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.experiments.spec import ScenarioSpec
from repro.experiments.store import RESULT, group_defaults

#: The pseudo-engine name that picks the best supporting engine per spec.
ENGINE_AUTO = "auto"


class ExecutionEngine(ABC):
    """One complete way of executing a scenario spec.

    Subclasses define ``name`` (the registry key and the value of the result
    record's ``engine`` field) and ``auto_priority`` (higher wins when
    ``auto`` resolves among supporting engines).
    """

    name: str = ""
    auto_priority: int = 0
    #: The spec class this engine runs (``auto`` offers a spec to its class's).
    spec_type: type = ScenarioSpec
    #: The record field groups this engine's records carry beside the spec
    #: fields (see :data:`~repro.experiments.store.RECORD_FIELDS`).
    record_groups: Tuple[str, ...] = (RESULT,)

    @cached_property
    def record_init(self) -> Dict[str, Any]:
        """The declared fields of :attr:`record_groups` at their fresh values."""
        return group_defaults(*self.record_groups)

    @abstractmethod
    def supports(self, spec: "ScenarioSpec") -> bool:
        """Whether this engine can execute ``spec`` without changing semantics."""

    def unsupported_reason(self, spec: "ScenarioSpec") -> str:
        """Human-readable reason used when an explicit choice is rejected."""
        return f"engine {self.name!r} does not support this spec"

    def group_key(self, spec: "ScenarioSpec") -> Optional[Tuple[Hashable, ...]]:
        """The key of the lanes ``spec`` may share one ``execute`` call with.

        ``None`` (the default) runs every spec alone.
        """
        return None

    @abstractmethod
    def execute(
        self,
        lanes: List[Tuple["ScenarioSpec", Dict[str, Any]]],
        deadline: Optional[float],
    ) -> None:
        """Run every ``(spec, record)`` lane, mutating each record in place.

        Each record arrives holding its spec fields and :attr:`record_init`.

        Must update the records' work tallies (``node_steps`` etc.) even on
        a timeout / error exit, so partial work is never lost.  Each
        registered class defines ``execute`` itself: span tracing wraps it
        per engine class.
        """


#: name -> engine instance, in registration order (auto ties break on
#: ``auto_priority``, then registration order).
ENGINE_REGISTRY: Dict[str, ExecutionEngine] = {}

#: spec class -> its engines by falling ``auto_priority`` (built on first use).
_AUTO_ORDER: Dict[type, Tuple[ExecutionEngine, ...]] = {}


def register_engine(engine: ExecutionEngine, replace: bool = False) -> ExecutionEngine:
    """Add an engine to the registry (``replace=True`` to override)."""
    if not engine.name or engine.name == ENGINE_AUTO:
        raise ValueError(f"invalid engine name {engine.name!r}")
    if engine.name in ENGINE_REGISTRY and not replace:
        raise ValueError(f"engine {engine.name!r} already registered")
    ENGINE_REGISTRY[engine.name] = engine
    _AUTO_ORDER.clear()
    return engine


def engine_names() -> Tuple[str, ...]:
    """Every selectable engine name (``auto`` first, then the registry)."""
    return (ENGINE_AUTO, *ENGINE_REGISTRY)


def get_engine(name: str) -> ExecutionEngine:
    """The registered engine of that name (``auto`` is not an engine)."""
    try:
        return ENGINE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; choose from {', '.join(engine_names())}"
        ) from None


def resolve_engine(engine: str, spec: "ScenarioSpec") -> str:
    """The engine name a spec will actually run on.

    ``auto`` picks the highest-priority engine of the spec's class that
    supports the spec, or raises a ``ValueError`` listing each such
    engine's reason to refuse it; an explicit engine name must support the
    spec or a ``ValueError`` explains why (silently changing semantics is
    worse than failing).
    """
    if engine == ENGINE_AUTO:
        candidates = _AUTO_ORDER.get(type(spec))
        if candidates is None:
            candidates = _AUTO_ORDER[type(spec)] = tuple(sorted(
                (e for e in ENGINE_REGISTRY.values() if isinstance(spec, e.spec_type)),
                key=lambda e: -e.auto_priority,
            ))
        for candidate in candidates:
            if candidate.supports(spec):
                return candidate.name
        reasons = " ".join(
            f"[{candidate.name}] {candidate.unsupported_reason(spec)}."
            for candidate in ENGINE_REGISTRY.values()
            if isinstance(spec, candidate.spec_type)
        )
        raise ValueError(f"no registered engine supports this spec: {reasons}")
    chosen = get_engine(engine)
    if not chosen.supports(spec):
        raise ValueError(chosen.unsupported_reason(spec))
    return chosen.name
