"""Chaos drill slot bounds: the CLI and the fleet hooks reject bad slots."""

import pytest

from repro.cli import main
from repro.serve import FleetConfig, ReplicaFleet
from repro.serve import cli as serve_cli


@pytest.mark.parametrize("slot", ["-1", "3"])
def test_infer_chaos_rejects_out_of_range_slot(tmp_path, monkeypatch, capsys, slot):
    """An out-of-range --chaos-slot exits 2 before any replica is spawned."""

    def no_server(*args, **kwargs):
        raise AssertionError("no fleet may be built for a bad --chaos-slot")

    monkeypatch.setattr(serve_cli, "build_server", no_server)
    runs_dir = tmp_path / "runs"
    assert main([
        "infer", "--chaos", "--registry", str(tmp_path),
        "--chaos-replicas", "3", "--chaos-slot", slot,
        "--runs-dir", str(runs_dir),
    ]) == 2
    assert "--chaos-slot" in capsys.readouterr().err
    assert not runs_dir.exists()


def test_fleet_chaos_hooks_reject_out_of_range_slots(published_registry):
    registry, _ = published_registry
    fleet = ReplicaFleet(registry, FleetConfig(replicas=2))  # never started
    for slot in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            fleet.kill_replica(slot)
        with pytest.raises(ValueError, match="out of range"):
            fleet.inject_fault(slot, "slow", 1.0)
        with pytest.raises(ValueError, match="out of range"):
            fleet.replica_pid(slot)
    assert fleet.replica_pid(1) is None
    assert fleet.kill_replica(1) is None
