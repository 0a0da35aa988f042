"""Tests for the ``no_grad`` tape switch and the frozen-parameter contract."""

import threading

import numpy as np
import pytest

from repro.models import CNNLSTMClassifier
from repro.nn import Linear, Parameter, Tensor, conv2d, is_grad_enabled, max_pool2d, no_grad


def _small_net_output(x, weight, linear):
    hidden = max_pool2d(conv2d(x, weight, padding=1).relu(), 2)
    return linear(hidden.reshape(hidden.shape[0], -1).tanh())


def test_outputs_identical_with_and_without_tape(rng):
    x = Tensor(rng.normal(size=(3, 2, 4, 4)))
    weight = Tensor(rng.normal(size=(5, 2, 3, 3)), requires_grad=True)
    linear = Linear(20, 3, rng)
    taped = _small_net_output(x, weight, linear)
    with no_grad():
        untaped = _small_net_output(x, weight, linear)
    assert np.array_equal(taped.data, untaped.data)
    assert taped.requires_grad and taped._parents


def test_results_have_no_parents(rng):
    x = Tensor(rng.normal(size=(2, 1, 4, 4)), requires_grad=True)
    weight = Tensor(rng.normal(size=(3, 1, 3, 3)), requires_grad=True)
    with no_grad():
        out = max_pool2d(conv2d(x, weight, padding=1).relu(), 2)
        total = (out * 2.0 + 1.0).sum()
    for result in (out, total):
        assert not result.requires_grad
        assert result._parents == ()
        assert result._backward is None
    with pytest.raises(RuntimeError):
        total.backward()


def test_parameters_keep_requires_grad(rng):
    linear = Linear(4, 2, rng)
    with no_grad():
        linear(Tensor(np.ones((1, 4))))
        assert all(p.requires_grad for p in linear.parameters())
    assert all(p.requires_grad for p in linear.parameters())


def test_flag_restored_after_nesting_and_exception():
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert not is_grad_enabled()
    assert is_grad_enabled()
    with pytest.raises(ValueError):
        with no_grad():
            raise ValueError("boom")
    assert is_grad_enabled()
    x = Tensor(np.ones(2), requires_grad=True)
    assert (x * 2.0)._parents[0] is x


def test_flag_is_per_thread():
    seen = []
    with no_grad():
        worker = threading.Thread(target=lambda: seen.append(is_grad_enabled()))
        worker.start()
        worker.join()
    assert seen == [True]


def test_inference_entry_points_record_no_tape(micro_model_config, rng, monkeypatch):
    model = CNNLSTMClassifier(micro_model_config, np.random.default_rng(0))
    modes = []
    forward = type(model.encoder).forward

    def spy(self, frames):
        modes.append(is_grad_enabled())
        return forward(self, frames)

    monkeypatch.setattr(type(model.encoder), "forward", spy)
    x = rng.random((2, 8, 16, 16)).astype(np.float32)
    model.predict_logits(x)
    model.frame_features(x)
    assert modes == [False, False]
    assert model.training and is_grad_enabled()


def test_frozen_model_keeps_parameters_and_dtype(micro_model_config, rng):
    model = CNNLSTMClassifier(micro_model_config, np.random.default_rng(0))
    names = [name for name, _ in model.named_parameters()]
    x = rng.random((2, 8, 16, 16)).astype(np.float32)
    before = model.predict_logits(x)
    for param in model.parameters():
        param.requires_grad = False
    assert [name for name, _ in model.named_parameters()] == names
    assert list(model.state_dict()) == names
    assert all(isinstance(p, Parameter) for p in model.parameters())
    assert model.dtype == np.float32
    logits = model.predict_logits(x)
    assert logits.dtype == np.float32
    assert np.array_equal(logits, before)
