"""The run-record declaration: every field table is derived from one list.

:data:`repro.experiments.store.RECORD_FIELDS` declares each field of a run
record once: its index column, fresh value, group and mark.  These tests pin
the declaration to what the spec, the engines, the crash placeholders, the
SQLite index and the README actually hold.
"""

from __future__ import annotations

import re
import sqlite3
from pathlib import Path

import pytest

from repro.dataplane.packets import PacketSimulator
from repro.experiments.engines import ENGINE_REGISTRY
from repro.experiments.executor import _crashed_records
from repro.experiments.runner import execute_scenario
from repro.experiments.spec import ScenarioSpec
from repro.experiments.store import (
    ENGINE_VOLATILE_FIELDS,
    MESSAGE,
    OUTCOME_FIELDS,
    PACKET,
    RECORD_FIELDS,
    RESULT,
    RESULT_INIT,
    SPEC,
    VOLATILE_FIELDS,
    ResultStore,
    group_defaults,
)

FIELD_NAMES = [f.name for f in RECORD_FIELDS]
README = Path(__file__).resolve().parents[1] / "README.md"


def _schema_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Result-store schema")
    return text[start:text.index("\n## ", start)]


def test_every_field_is_declared_once():
    assert len(FIELD_NAMES) == len(set(FIELD_NAMES))
    assert {f.group for f in RECORD_FIELDS} == {SPEC, RESULT, MESSAGE, PACKET}


def test_spec_group_is_the_spec_dict():
    spec = ScenarioSpec("chain", 6, "pr", "greedy", 1, 2)
    assert set(group_defaults(SPEC)) == set(spec.to_dict())


def test_comparison_sets_split_the_result_group():
    assert VOLATILE_FIELDS == ("wall_time_s",)
    assert set(ENGINE_VOLATILE_FIELDS) == {"engine", "wall_time_s"}
    assert set(OUTCOME_FIELDS) | set(ENGINE_VOLATILE_FIELDS) == set(RESULT_INIT)
    assert not set(OUTCOME_FIELDS) & set(ENGINE_VOLATILE_FIELDS)


def test_packet_group_is_what_the_simulator_counts():
    sim = PacketSimulator(
        link_from=[0, 1], link_to=[1, 0], n_nodes=2, destination=0,
        rates=[0.0, 1.0], undirected_distance=[0, 1], seed=1,
    )
    assert set(sim.counters()) == set(group_defaults(PACKET))


def test_crashed_placeholder_carries_every_declared_field():
    spec = ScenarioSpec("chain", 6, "pr", "greedy", 1, 2, traffic="steady")
    (record,) = _crashed_records([spec.to_dict()], "worker died")
    assert set(record) == set(FIELD_NAMES)
    assert record["packets_forwarded"] == 0
    assert (record["status"], record["error"]) == ("crashed", "worker died")


def test_engines_declare_their_groups():
    groups = {name: engine.record_groups for name, engine in ENGINE_REGISTRY.items()}
    assert groups == {
        "kernel": (RESULT,),
        "legacy": (RESULT,),
        "async": (RESULT, MESSAGE),
        "dataplane": (RESULT, MESSAGE, PACKET),
    }


def test_early_dataplane_error_still_carries_its_groups(monkeypatch):
    # an engine that fails before its first counter flush still writes
    # every declared field, at its fresh value
    from repro.experiments import dataplane_engine

    def refuse(*args, **kwargs):
        raise RuntimeError("no instance")

    monkeypatch.setattr(dataplane_engine, "load_instance", refuse)
    spec = ScenarioSpec("chain", 6, "pr", "greedy", 1, 2, traffic="steady")
    record = execute_scenario(spec)
    assert record["status"] == "error"
    assert set(record) == set(FIELD_NAMES)
    assert record["messages_sent"] is None and record["packets_forwarded"] == 0


def test_index_mirrors_every_indexed_field(tmp_path):
    spec = ScenarioSpec("grid", 9, "fr", "greedy", 1, 2, traffic="steady", max_steps=16)
    record = execute_scenario(spec)
    with ResultStore(tmp_path) as store:
        store.append([record])
    indexed = [f.name for f in RECORD_FIELDS if f.column is not None]
    with sqlite3.connect(tmp_path / "index.sqlite") as connection:
        row = connection.execute(f"SELECT {', '.join(indexed)} FROM runs").fetchone()
    expected = [
        int(record[name]) if isinstance(record[name], bool) else record[name]
        for name in indexed
    ]
    assert list(row) == expected


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_readme_schema_names_the_field(name):
    assert re.search(rf"`{name}`", _schema_section()), name
