"""The run-record declaration: every field table is derived from one list.

:data:`repro.experiments.store.RECORD_FIELDS` declares each field of a run
record once: its fresh value, group and mark.  These tests pin the
declaration to what the specs, the engines, the crash placeholders, the
store's filters and the README actually hold.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.dataplane.packets import PacketSimulator
from repro.experiments.engines import ENGINE_REGISTRY
from repro.experiments.executor import _crashed_records
from repro.experiments.runner import execute_scenario
from repro.experiments.spec import CHECK_EXECUTION_FIELDS, CheckSpec, ScenarioSpec
from repro.experiments.store import (
    CHECK,
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
#: Every field a scenario record can carry: all but the check group.
SCENARIO_FIELDS = set(FIELD_NAMES) - set(group_defaults(CHECK))
README = Path(__file__).resolve().parents[1] / "README.md"


def _schema_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Result-store schema")
    return text[start:text.index("\n## ", start)]


def test_every_field_is_declared_once():
    assert len(FIELD_NAMES) == len(set(FIELD_NAMES))
    assert {f.group for f in RECORD_FIELDS} == {SPEC, RESULT, MESSAGE, PACKET, CHECK}


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


def test_crashed_placeholder_carries_every_scenario_field():
    spec = ScenarioSpec("chain", 6, "pr", "greedy", 1, 2, traffic="steady")
    (record,) = _crashed_records([spec.to_dict()], "worker died")
    assert set(record) == SCENARIO_FIELDS
    assert record["packets_forwarded"] == 0
    assert (record["status"], record["error"]) == ("crashed", "worker died")


def test_engines_declare_their_groups():
    groups = {name: engine.record_groups for name, engine in ENGINE_REGISTRY.items()}
    assert groups == {
        "kernel": (RESULT,),
        "legacy": (RESULT,),
        "async": (RESULT, MESSAGE),
        "dataplane": (RESULT, MESSAGE, PACKET),
        "check": (CHECK,),
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
    assert set(record) == SCENARIO_FIELDS
    assert record["messages_sent"] is None and record["packets_forwarded"] == 0


def test_every_declared_field_filters(tmp_path):
    spec = ScenarioSpec("grid", 9, "fr", "greedy", 1, 2, traffic="steady", max_steps=16)
    record = execute_scenario(spec)
    with ResultStore(tmp_path) as store:
        store.append([record])
        for name in FIELD_NAMES:
            if name in record:
                assert store.records(**{name: record[name]}) == [record], name


#: The fields a check record shares with the spec and result groups.
CHECK_SHARED = {
    "run_id", "campaign", "family", "size", "algorithm", "scheduler",
    "status", "engine", "nodes", "edges", "acyclic_final", "destination_oriented",
    "wall_time_s",
}


def test_check_group_is_the_check_record():
    # the check spec's record fields, less its execution settings, are the
    # group's spec half plus the shared spec fields; the engine adds the rest
    spec = CheckSpec(family="grid", size=9, algorithm="fr", spill_threshold=4)
    spec_half = set(spec.to_dict()) - set(CHECK_EXECUTION_FIELDS)
    assert spec_half <= set(group_defaults(CHECK)) | CHECK_SHARED
    record = execute_scenario(spec)
    assert record["status"] == "ok"
    assert set(record) == set(group_defaults(CHECK)) | CHECK_SHARED
    assert record["spilled"] is True


def test_check_record_reads_back_whole(tmp_path):
    record = execute_scenario(CheckSpec(family="grid", size=9, algorithm="fr"))
    with ResultStore(tmp_path) as store:
        store.append([record])
        assert store.records(engine="check") == [record]


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_readme_schema_names_the_field(name):
    assert re.search(rf"`{name}`", _schema_section()), name
