"""The exception hierarchy contract recovery code relies on."""

import pytest

from repro.runtime.errors import (
    CacheCorruptionError,
    ReproError,
    SimulationError,
    TrainingDivergenceError,
)


def test_all_pipeline_errors_are_repro_errors():
    for cls in (
        CacheCorruptionError,
        SimulationError,
        TrainingDivergenceError,
    ):
        assert issubclass(cls, ReproError)
    assert issubclass(ReproError, Exception)


def test_cache_corruption_carries_path_and_reason():
    err = CacheCorruptionError("/tmp/ds.npz", "truncated")
    assert err.path == "/tmp/ds.npz"
    assert err.reason == "truncated"
    assert "truncated" in str(err)
    assert "/tmp/ds.npz" in str(err)


def test_training_divergence_carries_epoch_and_loss():
    err = TrainingDivergenceError(epoch=7, loss=float("nan"))
    assert err.epoch == 7
    assert err.loss != err.loss  # NaN
    assert "epoch 7" in str(err)


def test_catching_the_family_does_not_swallow_type_errors():
    with pytest.raises(TypeError):
        try:
            raise TypeError("programming error")
        except ReproError:  # pragma: no cover - must not match
            pass
