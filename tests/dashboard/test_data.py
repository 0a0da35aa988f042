"""Dashboard data layer: runs index, journal tail, fleet proxy."""

from __future__ import annotations

import json

import pytest

from repro.dashboard.data import DashboardData
from repro.runtime.records import RunRecord, write_run_record

def _record(name, timestamp, status="ok"):
    return RunRecord(
        name=name,
        timestamp=timestamp,
        outcome={"status": status},
        git_revision="abc1234",
    )


@pytest.fixture()
def populated(tmp_path):
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    write_run_record(_record("fig7", "20260101T000000"), runs_dir)
    write_run_record(_record("fig8", "20260102T000000", "failed"), runs_dir)
    journal = tmp_path / "sweep-journal.jsonl"
    journal.write_text(
        json.dumps({"key": "fig7", "status": "done", "attempts": 1}) + "\n"
        + json.dumps({"key": "fig8", "status": "failed", "attempts": 2}) + "\n"
    )
    return DashboardData(runs_dir=runs_dir, journal_path=journal)


def test_index_summarizes_everything(populated):
    index = populated.index()
    assert index["run_count"] == 2
    assert index["latest_run"]["name"] == "fig8"
    assert index["server_url"] is None


def test_runs_filtering(populated):
    assert [r["name"] for r in populated.runs()] == ["fig7", "fig8"]
    assert [r["name"] for r in populated.runs(status="failed")] == ["fig8"]
    assert [r["name"] for r in populated.runs(name="fig7")] == ["fig7"]
    assert [r["name"] for r in populated.runs(last=1)] == ["fig8"]


def test_run_detail_and_traversal_rejection(populated):
    listing = populated.runs()
    detail = populated.run_detail(listing[0]["file"])
    assert detail["name"] == "fig7"
    assert populated.run_detail("nope.json") is None
    assert populated.run_detail("../secrets.json") is None
    assert populated.run_detail("sub/dir.json") is None
    assert populated.run_detail(".hidden.json") is None
    assert populated.run_detail("not-json.txt") is None


def test_journal_tail_and_offsets(populated):
    tail = populated.journal_tail()
    assert [e["key"] for e in tail["entries"]] == ["fig7", "fig8"]
    assert tail["done"] == 1 and tail["failed"] == 1
    assert tail["next_offset"] == 2
    # Poll again from next_offset: nothing new.
    again = populated.journal_tail(tail["next_offset"])
    assert again["entries"] == [] and again["next_offset"] == 2
    # New line appended -> only the new entry comes back.
    with open(populated.journal_path, "a") as handle:
        handle.write(json.dumps({"key": "fig9", "status": "done"}) + "\n")
    fresh = populated.journal_tail(tail["next_offset"])
    assert [e["key"] for e in fresh["entries"]] == ["fig9"]
    assert fresh["next_offset"] == 3


def test_journal_tail_stops_at_torn_line(populated):
    with open(populated.journal_path, "a") as handle:
        handle.write('{"key": "fig9", "status"')  # writer mid-append
    tail = populated.journal_tail()
    assert [e["key"] for e in tail["entries"]] == ["fig7", "fig8"]
    # The torn line is not consumed; the next poll retries it.
    assert tail["next_offset"] == 2


def test_journal_tail_missing_file(tmp_path):
    data = DashboardData(journal_path=tmp_path / "absent.jsonl")
    tail = data.journal_tail()
    assert tail == {"entries": [], "next_offset": 0, "exists": False}
    assert DashboardData().journal_tail()["exists"] is False


def test_fleet_metrics_requires_configuration(populated):
    with pytest.raises(ConnectionError, match="no --server-url"):
        populated.fleet_metrics()


def test_fleet_metrics_unreachable_server(tmp_path):
    data = DashboardData(server_url="http://127.0.0.1:1")
    with pytest.raises(ConnectionError, match="fleet metrics fetch"):
        data.fleet_metrics(timeout_s=0.5)
