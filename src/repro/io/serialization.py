"""JSON-friendly serialisation of instances and executions.

The benchmark harness stores the instances and traces it generates so that
runs can be reproduced and diffed.  Only built-in types appear in the output
(dicts, lists, strings, ints), so the structures can be dumped with
:mod:`json` directly.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.automata.executions import Execution, replay
from repro.core.graph import LinkReversalInstance
from repro.distributed.network import NetworkReport

Node = Hashable


class SerializationError(ValueError):
    """Raised when serialised data cannot be rebuilt into a live object."""


# ----------------------------------------------------------------------
# checksummed JSONL lines (result-store shard integrity)
# ----------------------------------------------------------------------
_CRC_SEPARATOR = "\t"
_CRC_DIGITS = 8
_CRC_ALPHABET = set("0123456789abcdef")

#: The one encoder of store records: ``encode_record(record)`` is
#: ``json.dumps(record, sort_keys=True)`` without building an encoder per
#: call.  Shard lines and the index's ``record`` column both come from it.
encode_record = json.JSONEncoder(sort_keys=True).encode

#: Its compact twin for telemetry events (``separators=(",", ":")``).
_encode_event = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def checksummed_line(payload: str) -> str:
    """Append a CRC32 suffix to one JSONL payload: ``<json>\\t<crc32 hex>``.

    The separator is a literal TAB, which cannot appear inside the compact
    JSON payload itself (``json.dumps`` escapes tabs in strings as ``\\t``),
    so :func:`split_checksummed_line` can split unambiguously from the right.
    """
    return payload + _CRC_SEPARATOR + format(zlib.crc32(payload.encode("utf-8")), "08x")


def split_checksummed_line(line: str) -> Tuple[str, Optional[bool]]:
    """Split a shard line into ``(payload, crc_ok)``.

    ``crc_ok`` is ``True``/``False`` for a line carrying a CRC32 suffix, and
    ``None`` for a legacy line written before checksums existed (no TAB, or a
    suffix that is not exactly 8 hex digits — such a tail is treated as part
    of the payload, which for legacy lines it is).
    """
    payload, separator, suffix = line.rpartition(_CRC_SEPARATOR)
    if not separator or len(suffix) != _CRC_DIGITS or not set(suffix) <= _CRC_ALPHABET:
        return line, None
    return payload, format(zlib.crc32(payload.encode("utf-8")), "08x") == suffix


def instance_to_dict(instance: LinkReversalInstance) -> Dict[str, Any]:
    """Serialise an instance to plain data."""
    return {
        "nodes": list(instance.nodes),
        "destination": instance.destination,
        "initial_edges": [list(edge) for edge in instance.initial_edges],
    }


def instance_from_dict(data: Dict[str, Any]) -> LinkReversalInstance:
    """Rebuild an instance previously produced by :func:`instance_to_dict`."""
    return LinkReversalInstance(
        nodes=tuple(data["nodes"]),
        destination=data["destination"],
        initial_edges=tuple((u, v) for u, v in data["initial_edges"]),
    )


def execution_to_dict(execution: Execution) -> Dict[str, Any]:
    """Serialise an execution to plain data (actions plus endpoint orientations).

    Intermediate states are not serialised — they can be reconstructed by
    replaying the actions with :func:`repro.automata.executions.replay`.
    """
    actions: List[Dict[str, Any]] = []
    for action in execution.actions:
        actions.append({"actors": list(action.actors())})
    return {
        "automaton": execution.automaton.name,
        "instance": instance_to_dict(execution.automaton.instance),
        "actions": actions,
        "initial_edges": [list(edge) for edge in execution.initial_state.directed_edges()],
        "final_edges": [list(edge) for edge in execution.final_state.directed_edges()],
        "length": execution.length,
    }


def _automaton_classes() -> Dict[str, Any]:
    """Automaton-name → class registry (lazy to avoid import cycles)."""
    from repro.core.bll import BinaryLinkLabels
    from repro.core.full_reversal import FullReversal
    from repro.core.new_pr import NewPartialReversal
    from repro.core.one_step_pr import OneStepPartialReversal
    from repro.core.pr import PartialReversal

    return {
        "PR": PartialReversal,
        "OneStepPR": OneStepPartialReversal,
        "NewPR": NewPartialReversal,
        "FR": FullReversal,
        "BLL": BinaryLinkLabels,
    }


#: NetworkReport fields and the plain types their values must round-trip as.
_NETWORK_REPORT_FIELDS: Dict[str, type] = {
    "simulated_time": float,
    "events_dispatched": int,
    "messages_sent": int,
    "messages_delivered": int,
    "messages_lost": int,
    "total_reversals": int,
    "destination_oriented": bool,
    "acyclic": bool,
}


def network_report_to_dict(report: NetworkReport) -> Dict[str, Any]:
    """Serialise an asynchronous run's :class:`NetworkReport` to plain data.

    The async twin of :func:`execution_to_dict`: campaign stores and replay
    tooling persist async outcomes with only built-in types.
    """
    return {name: getattr(report, name) for name in _NETWORK_REPORT_FIELDS}


def network_report_from_dict(data: Dict[str, Any]) -> NetworkReport:
    """Rebuild a :class:`NetworkReport` from :func:`network_report_to_dict` output.

    Validates presence and plain-data type of every field (``int`` is
    accepted where ``float`` is expected, as JSON round-trips may narrow
    whole floats) and raises :class:`SerializationError` on malformed input
    rather than returning a silently wrong report.
    """
    kwargs: Dict[str, Any] = {}
    for name, kind in _NETWORK_REPORT_FIELDS.items():
        if name not in data:
            raise SerializationError(f"network report is missing field {name!r}")
        value = data[name]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise SerializationError(
                f"network report field {name!r} must be {kind.__name__}, "
                f"got {type(value).__name__}"
            )
        kwargs[name] = value
    return NetworkReport(**kwargs)


def execution_from_dict(data: Dict[str, Any]) -> Execution:
    """Rebuild an execution previously produced by :func:`execution_to_dict`.

    The inverse is replay-based: the instance and automaton are
    reconstructed, the serialised action trace is re-applied step by step
    (validating every precondition), and the resulting final orientation is
    checked against the serialised ``final_edges``.  A mismatch — a tampered
    trace, or data produced by an incompatible algorithm version — raises
    :class:`SerializationError` rather than returning a silently wrong
    execution.
    """
    from repro.core.base import Reverse
    from repro.core.pr import ReverseSet

    classes = _automaton_classes()
    name = data.get("automaton")
    if name not in classes:
        raise SerializationError(
            f"unknown automaton {name!r}; known: {', '.join(sorted(classes))}"
        )
    instance = instance_from_dict(data["instance"])
    automaton = classes[name](instance)

    actions = []
    for entry in data["actions"]:
        actors = entry["actors"]
        if not actors:
            raise SerializationError("serialised action with no actors")
        if name == "PR":
            # PR's actions are set-valued reverse(S); the JSON list order is
            # irrelevant because the action stores a frozenset
            actions.append(ReverseSet(frozenset(actors)))
        else:
            if len(actors) != 1:
                raise SerializationError(
                    f"automaton {name} takes single-node actions, got {actors!r}"
                )
            actions.append(Reverse(actors[0]))

    execution = replay(automaton, actions)

    expected = {tuple(edge) for edge in data["final_edges"]}
    replayed = {tuple(edge) for edge in execution.final_state.directed_edges()}
    if replayed != expected:
        raise SerializationError(
            "replayed final orientation does not match the serialised final_edges"
        )
    return execution


# ----------------------------------------------------------------------
# telemetry sidecar events (see repro.telemetry.spans for the schema)
# ----------------------------------------------------------------------
#: Required plain-typed fields per telemetry event kind.  ``attrs`` /
#: ``counters`` / ``gauges`` / ``histograms`` are free-form dicts;
#: ``parent_id`` may be ``None`` (root spans) and run metadata fields on
#: ``scenario`` events may be ``None`` (crashed placeholders).
_TELEMETRY_EVENT_FIELDS: Dict[str, Dict[str, type]] = {
    "span": {
        "name": str, "span_id": int, "depth": int,
        "t_start": float, "dur_s": float, "attrs": dict,
    },
    "event": {"name": str, "t": float, "attrs": dict},
    "scenario": {"t": float, "wall_s": float},
    "metrics": {"t": float, "counters": dict, "gauges": dict, "histograms": dict},
}


def telemetry_event_from_dict(data: Dict[str, Any]) -> Dict[str, Any]:
    """Validate one parsed ``telemetry.jsonl`` event and return it.

    The sidecar is written by :func:`telemetry_events_to_jsonl` and read back
    through here (``ResultStore.iter_telemetry``), so a schema drift between
    writer and reader fails loudly as a :class:`SerializationError` instead
    of silently feeding ``repro trace`` garbage.
    """
    if not isinstance(data, dict):
        raise SerializationError(
            f"telemetry event must be an object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    fields = _TELEMETRY_EVENT_FIELDS.get(kind)
    if fields is None:
        known = ", ".join(sorted(_TELEMETRY_EVENT_FIELDS))
        raise SerializationError(
            f"telemetry event has unknown kind {kind!r}; known: {known}"
        )
    for name, kind_type in fields.items():
        if name not in data:
            raise SerializationError(
                f"telemetry {kind} event is missing field {name!r}"
            )
        value = data[name]
        if kind_type is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
            data[name] = value
        if not isinstance(value, kind_type) or (
            kind_type is int and isinstance(value, bool)
        ):
            raise SerializationError(
                f"telemetry {kind} event field {name!r} must be "
                f"{kind_type.__name__}, got {type(value).__name__}"
            )
    if kind == "span":
        parent = data.get("parent_id")
        if parent is not None and (not isinstance(parent, int) or isinstance(parent, bool)):
            raise SerializationError(
                "telemetry span event field 'parent_id' must be int or null"
            )
    return data


def telemetry_events_to_jsonl(events: Sequence[Dict[str, Any]]) -> str:
    """Serialise telemetry events to JSONL text (one compact object per line).

    The write path stays cheap — no validation, the tracer emits only
    schema-conforming events — while :func:`telemetry_event_from_dict`
    validates on read.
    """
    return "".join(_encode_event(event) + "\n" for event in events)
