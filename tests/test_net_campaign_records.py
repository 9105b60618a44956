"""Golden records: a small async + data-plane campaign, pinned field for field.

The message-passing and packet engines are optimised without changing a
single stored value, so a fixed campaign's records are kept in
``data/net_campaign_records.jsonl`` and every field except ``wall_time_s``
must match.  To re-record after a deliberate behaviour change::

    PYTHONPATH=src python tests/test_net_campaign_records.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "data" / "net_campaign_records.jsonl"

VOLATILE = ("wall_time_s",)


def _campaigns():
    from repro.experiments.spec import CampaignSpec

    message_passing = CampaignSpec(
        name="golden-async",
        families=("grid", "geometric"),
        algorithms=("pr", "fr"),
        sizes=(9,),
        base_seed=41,
        failure_models=[("link-failures", 2)],
        delay_models=("zero", "fixed", "uniform", "fifo"),
        losses=(0.0, 0.1),
    )
    data_plane = CampaignSpec(
        name="golden-dataplane",
        families=("grid", "geometric"),
        algorithms=("pr", "fr"),
        sizes=(9,),
        base_seed=41,
        failure_models=[("link-failures", 2)],
        max_steps=160,
        delay_models=("fixed", "uniform"),
        losses=(0.0, 0.1),
        traffics=("steady", "heavy", "bursty"),
    )
    return message_passing, data_plane


def campaign_records():
    """The stable fields of every record of the golden campaigns, in order."""
    from repro.experiments.runner import execute_scenario

    records = []
    for campaign in _campaigns():
        for spec in campaign.expand():
            record = execute_scenario(spec)
            records.append({k: v for k, v in record.items() if k not in VOLATILE})
    return records


def test_records_match_the_golden_campaign():
    expected = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    # a JSON round trip, so tuples and floats compare as the fixture stores them
    got = [json.loads(json.dumps(record)) for record in campaign_records()]
    assert [r["run_id"] for r in got] == [r["run_id"] for r in expected]
    engines = {r["engine"] for r in got}
    assert engines == {"async", "dataplane"}
    for record, golden in zip(got, expected):
        assert record["status"] == "ok", record["run_id"]
        mismatched = {
            key: (record.get(key), golden.get(key))
            for key in record.keys() | golden.keys()
            if record.get(key) != golden.get(key)
        }
        assert not mismatched, (record["run_id"], mismatched)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        "".join(json.dumps(record, sort_keys=True) + "\n" for record in campaign_records())
    )
    print(f"wrote {FIXTURE}")
