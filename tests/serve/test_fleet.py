"""Replica fleet: routing, supervision, respawn, drain, hot reload."""

import os
import threading
import time

import numpy as np
import pytest

from repro.datasets.activities import ACTIVITY_NAMES
from repro.models import CNNLSTMClassifier
from repro.runtime.backoff import RetryPolicy
from repro.runtime.errors import (
    CircuitOpenError,
    DrainingError,
    ModelNotFoundError,
    RegistryError,
    ReplicaDiedError,
    ServeError,
)
from repro.runtime.telemetry import metrics
from repro.serve import EngineConfig, FleetConfig, ModelRegistry, ReplicaFleet
from repro.serve.fleet import (
    BREAKER_COOLDOWN_S,
    REPLICA_STATES,
    ReplicaState,
    _rebuild_error,
)

from ..conftest import MICRO_MODEL_CONFIG
from .conftest import NUM_FRAMES


def fast_config(replicas: int, **overrides) -> FleetConfig:
    """Test-speed supervision: 50 ms heartbeats, sub-second respawn."""
    settings = dict(
        replicas=replicas,
        engine=EngineConfig(
            max_batch=4, max_delay_ms=2.0, screen_by_default=False
        ),
        heartbeat_interval_s=0.05,
        heartbeat_miss_dead=6,
        respawn=RetryPolicy(
            max_attempts=4, base_delay_s=0.05, max_delay_s=0.25
        ),
        reload_poll_s=0.1,
    )
    settings.update(overrides)
    return FleetConfig(**settings)


def wait_for(predicate, timeout_s: float = 20.0, interval_s: float = 0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture()
def fleet(published_registry):
    registry, _ = published_registry
    with ReplicaFleet(registry, fast_config(2)) as running:
        yield running


@pytest.fixture()
def solo_fleet(published_registry):
    registry, _ = published_registry
    with ReplicaFleet(registry, fast_config(1)) as running:
        yield running


def test_fleet_config_validation():
    with pytest.raises(ValueError, match="replicas"):
        FleetConfig(replicas=0)
    with pytest.raises(ValueError, match="heartbeat"):
        FleetConfig(heartbeat_miss_degraded=9, heartbeat_miss_dead=2)
    with pytest.raises(ValueError, match="breaker"):
        FleetConfig(breaker_failures=0)
    assert REPLICA_STATES[0] == ReplicaState.STARTING
    assert REPLICA_STATES[-1] == ReplicaState.DEAD


def test_fleet_round_trip_and_states(fleet, published_registry, micro_dataset):
    _, model_id = published_registry
    prediction = fleet.submit(micro_dataset.x[0])
    assert prediction.model_id == model_id
    assert prediction.label == int(np.argmax(prediction.probabilities))
    states = fleet.replica_states()
    assert [state["slot"] for state in states] == [0, 1]
    assert all(state["state"] == ReplicaState.READY for state in states)
    assert all(state["pid"] not in (None, os.getpid()) for state in states)
    assert all(model_id in state["warmed"] for state in states)
    info = fleet.describe()
    assert info["ready"] == 2 and info["total"] == 2
    assert info["draining"] is False
    assert info["alias_pins"]["latest"] == model_id


def test_fleet_serves_concurrent_requests(fleet, micro_dataset):
    results: "list" = [None] * 12
    errors: "list" = []

    def submit(index: int) -> None:
        try:
            results[index] = fleet.submit(micro_dataset.x[index % 4])
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [
        threading.Thread(target=submit, args=(index,)) for index in range(12)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert all(result is not None for result in results)


def test_kill_dash_nine_respawns_and_keeps_serving(fleet, micro_dataset):
    before = metrics().counter("fleet.respawns_total").value
    pid = fleet.kill_replica(0)
    assert pid is not None

    def respawned() -> bool:
        state = fleet.replica_states()[0]
        return state["state"] == ReplicaState.READY and state["pid"] != pid

    assert wait_for(respawned)
    assert metrics().counter("fleet.respawns_total").value > before
    prediction = fleet.submit(micro_dataset.x[0])
    assert prediction.model_id.startswith("m-")


def test_replica_death_fails_only_inflight_requests(
    solo_fleet, micro_dataset
):
    """A request held by a killed replica raises ReplicaDiedError; after
    respawn the same fleet serves again."""
    assert solo_fleet.inject_fault(0, "slow", 1500.0)
    outcome: "dict" = {}

    def submit() -> None:
        try:
            outcome["result"] = solo_fleet.submit(micro_dataset.x[0])
        except Exception as exc:  # noqa: BLE001 - asserted below
            outcome["error"] = exc

    thread = threading.Thread(target=submit)
    thread.start()
    assert wait_for(lambda: solo_fleet.queue_depth() == 1, timeout_s=5.0)
    pid = solo_fleet.kill_replica(0)
    assert pid is not None
    thread.join(timeout=10.0)
    assert isinstance(outcome.get("error"), ReplicaDiedError)

    def respawned() -> bool:
        state = solo_fleet.replica_states()[0]
        return state["state"] == ReplicaState.READY and state["pid"] != pid

    assert wait_for(respawned)
    assert solo_fleet.submit(micro_dataset.x[0]).model_id.startswith("m-")


def test_hung_replica_is_detected_and_replaced(solo_fleet, micro_dataset):
    """A wedged event loop misses heartbeats until the supervisor kills
    and respawns the replica."""
    pid = solo_fleet.replica_pid(0)
    assert solo_fleet.inject_fault(0, "hang", 30.0)

    def replaced() -> bool:
        state = solo_fleet.replica_states()[0]
        return state["state"] == ReplicaState.READY and state["pid"] != pid

    assert wait_for(replaced)
    assert metrics().counter("fleet.heartbeat_misses").value >= 1
    assert solo_fleet.submit(micro_dataset.x[0]).model_id.startswith("m-")


def test_respawn_budget_exhaustion_opens_the_circuit(
    published_registry, micro_dataset
):
    registry, _ = published_registry
    config = fast_config(
        1,
        respawn=RetryPolicy(max_attempts=1, base_delay_s=0.02,
                            max_delay_s=0.05),
    )
    with ReplicaFleet(registry, config) as fleet:
        first_pid = fleet.replica_pid(0)
        fleet.kill_replica(0)
        assert wait_for(
            lambda: fleet.replica_states()[0]["state"] == ReplicaState.READY
            and fleet.replica_pid(0) != first_pid
        )
        fleet.kill_replica(0)
        assert wait_for(
            lambda: fleet.replica_states()[0]["pid"] is None, timeout_s=10.0
        )
        # Budget exhausted: the slot stays empty and submission sheds.
        time.sleep(0.2)
        assert fleet.replica_states()[0]["state"] == ReplicaState.DEAD
        with pytest.raises(CircuitOpenError) as excinfo:
            fleet.submit(micro_dataset.x[0])
        assert excinfo.value.retry_after_s > 0.0


def test_drain_stops_admission_and_flushes(published_registry, micro_dataset):
    registry, _ = published_registry
    with ReplicaFleet(registry, fast_config(2)) as fleet:
        assert fleet.submit(micro_dataset.x[0]) is not None
        assert fleet.drain() is True
        with pytest.raises(DrainingError):
            fleet.submit(micro_dataset.x[0])
        assert fleet.describe()["draining"] is True
        states = {s["state"] for s in fleet.replica_states()}
        assert states <= {ReplicaState.DRAINING, ReplicaState.DEAD}


def test_hot_reload_swaps_only_after_prewarm(
    tmp_path, trained_micro_model, micro_dataset
):
    registry = ModelRegistry(tmp_path / "reload-registry")
    first = registry.publish(trained_micro_model, ACTIVITY_NAMES, NUM_FRAMES)
    with ReplicaFleet(registry, fast_config(2)) as fleet:
        assert fleet.submit(micro_dataset.x[0]).model_id == first
        second = registry.publish(
            CNNLSTMClassifier(MICRO_MODEL_CONFIG, np.random.default_rng(99)),
            ACTIVITY_NAMES,
            NUM_FRAMES,
        )
        assert second != first
        assert wait_for(
            lambda: fleet.describe()["alias_pins"]["latest"] == second
        )
        # The swap only happens once READY replicas pre-warmed the model.
        for state in fleet.replica_states():
            if state["state"] == ReplicaState.READY:
                assert second in state["warmed"]
        assert fleet.submit(micro_dataset.x[0]).model_id == second
        # Pinned ids keep resolving to the old model after the flip.
        assert fleet.submit(micro_dataset.x[0], model=first).model_id == first
        assert metrics().counter("fleet.reloads_total").value >= 1


def test_parent_side_validation_never_reaches_a_replica(fleet, micro_dataset):
    with pytest.raises(ValueError, match="shape"):
        fleet.submit(np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="non-finite"):
        bad = np.array(micro_dataset.x[0], copy=True)
        bad[0, 0, 0] = np.nan
        fleet.submit(bad)
    with pytest.raises(ModelNotFoundError):
        fleet.submit(micro_dataset.x[0], model="m-000000000000")
    with pytest.raises(ValueError, match="deadline"):
        fleet.submit(micro_dataset.x[0], deadline_s=-1.0)


def test_circuit_breaker_trips_and_half_opens(solo_fleet):
    replica = solo_fleet._slots[0].replica
    model_id = "m-breaker-test"
    for _ in range(solo_fleet.config.breaker_failures):
        solo_fleet._record_outcome(
            replica, model_id, RegistryError(model_id, "boom"), 0.01
        )
    # One half-open probe is admitted; the next request is shed with the
    # breaker's cooldown as its Retry-After hint.
    solo_fleet._check_breaker(model_id)
    with pytest.raises(CircuitOpenError) as excinfo:
        solo_fleet._check_breaker(model_id)
    assert 0.0 < excinfo.value.retry_after_s <= BREAKER_COOLDOWN_S
    assert metrics().counter("fleet.breaker_trips").value >= 1
    # A successful outcome closes the breaker again.
    solo_fleet._record_outcome(replica, model_id, None, 0.01)
    solo_fleet._check_breaker(model_id)
    solo_fleet._check_breaker(model_id)


def test_rebuild_error_preserves_the_typed_subclass():
    rebuilt = _rebuild_error("RegistryError", "artifact gone bad")
    assert isinstance(rebuilt, RegistryError)
    assert "artifact gone bad" in str(rebuilt)
    assert isinstance(
        _rebuild_error("ModelNotFoundError", "nope"), ModelNotFoundError
    )
    assert isinstance(_rebuild_error("ValueError", "bad shape"), ValueError)
    # Unknown / non-ReproError types degrade to the ServeError base, never
    # to an unpickling crash.
    assert isinstance(_rebuild_error("SomethingWeird", "??"), ServeError)


def test_fleet_refuses_double_start(fleet):
    with pytest.raises(ServeError, match="already started"):
        fleet.start()


def test_engine_exposes_single_replica_view(engine):
    states = engine.replica_states()
    assert len(states) == 1
    assert states[0]["slot"] == 0
    assert states[0]["state"] == ReplicaState.READY
    assert states[0]["pid"] == os.getpid()
    info = engine.describe()
    assert info["ready"] == 1 and info["total"] == 1
    assert info["draining"] is False
