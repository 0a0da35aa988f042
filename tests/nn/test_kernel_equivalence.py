"""Pin the BLAS-shaped ``conv2d`` and tap-max ``max_pool2d`` to the old kernels.

The oracles in :mod:`tests.nn.reference_kernels` are the einsum convolution
and argmax pooling the current kernels replaced.  Forward outputs and every
gradient (input, weight, bias) must agree to within ``1e-12`` (float64) or
``1e-5`` (float32) of the reference's largest magnitude; pooling gradients
must land on exactly the same elements.
"""

import numpy as np
import pytest

from repro.nn import Tensor, conv2d, max_pool2d

from . import reference_kernels as ref

TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}


def _assert_close(actual, expected, dtype, what):
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    scale = max(float(np.abs(expected).max()), np.finfo(dtype).tiny)
    error = float(np.abs(actual.astype(np.float64) - expected).max()) / scale
    assert error <= TOLERANCE[dtype], f"{what}: relative error {error:.3g}"


def _run(op, x_data, *args, upstream, **kwargs):
    """Forward with leaves that require grad; backward with ``upstream``."""
    leaves = [Tensor(a.copy(order="K"), requires_grad=True) for a in (x_data, *args)]
    out = op(*leaves, **kwargs)
    out.backward(upstream)
    return out.data, [leaf.grad for leaf in leaves]


CONV_CASES = [
    # (n, c, h, w, f, k, stride, padding)
    (2, 1, 7, 9, 4, 3, 1, 0),
    (2, 1, 7, 9, 4, 3, 1, 1),
    (3, 3, 10, 6, 5, 3, 1, 2),
    (2, 3, 9, 12, 2, 3, 2, 0),
    (2, 8, 11, 8, 6, 3, 2, 1),
    (1, 8, 6, 13, 3, 2, 2, 2),
    (4, 8, 8, 8, 4, 3, 1, 1),
    (2, 3, 5, 7, 3, 1, 2, 0),
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", CONV_CASES, ids=lambda c: "n{}c{}h{}w{}f{}k{}s{}p{}".format(*c))
def test_conv2d_matches_einsum_oracle(case, dtype):
    n, c, h, w, f, k, stride, padding = case
    rng = np.random.default_rng(sum(case))
    x = rng.normal(size=(n, c, h, w)).astype(dtype)
    weight = rng.normal(size=(f, c, k, k)).astype(dtype)
    bias = rng.normal(size=f).astype(dtype)
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    upstream = rng.normal(size=(n, f, out_h, out_w)).astype(dtype)

    got, got_grads = _run(conv2d, x, weight, bias, upstream=upstream,
                          stride=stride, padding=padding)
    want, want_grads = _run(ref.conv2d, x, weight, bias, upstream=upstream,
                            stride=stride, padding=padding)
    _assert_close(got, want, dtype, "forward")
    for name, g, r in zip(("x", "weight", "bias"), got_grads, want_grads):
        _assert_close(g, r, dtype, f"grad {name}")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv2d_without_bias_matches_oracle(dtype):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 6, 7)).astype(dtype)
    weight = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
    upstream = rng.normal(size=(2, 4, 6, 7)).astype(dtype)
    got, got_grads = _run(conv2d, x, weight, upstream=upstream, padding=1)
    want, want_grads = _run(ref.conv2d, x, weight, upstream=upstream, padding=1)
    _assert_close(got, want, dtype, "forward")
    for g, r in zip(got_grads, want_grads):
        _assert_close(g, r, dtype, "grad")


def _pool_inputs(rng, dtype):
    """Random, all-equal and ReLU-zeroed windows, batch- and channel-major."""
    random = rng.normal(size=(2, 3, 8, 12)).astype(dtype)
    equal = np.full((2, 3, 8, 12), 0.5, dtype=dtype)
    relu = np.maximum(rng.normal(size=(2, 3, 8, 12)) - 0.8, 0).astype(dtype)
    mixed = random.copy()
    mixed[:, :, :4] = 0.0  # half the windows zero, the rest random
    # A channel-major layout, as conv2d -> relu hands to the pool.
    channel_major = np.ascontiguousarray(relu.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    return {"random": random, "all_equal": equal, "relu_zeroed": relu,
            "half_zero": mixed, "channel_major": channel_major}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel", [2, 4])
def test_max_pool2d_matches_argmax_oracle(kernel, dtype):
    rng = np.random.default_rng(kernel)
    for name, x in _pool_inputs(rng, dtype).items():
        upstream = rng.normal(size=(2, 3, 8 // kernel, 12 // kernel)).astype(dtype)
        got, (got_grad,) = _run(max_pool2d, x, upstream=upstream, kernel=kernel)
        want, (want_grad,) = _run(ref.max_pool2d, x, upstream=upstream, kernel=kernel)
        assert np.array_equal(got, want), name
        # Each window's gradient goes to the same (first maximal) element.
        assert np.array_equal(got_grad, want_grad), name
        assert np.array_equal(got_grad != 0, want_grad != 0), name


def test_max_pool2d_tie_goes_to_first_tap():
    x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
    max_pool2d(x, 2).sum().backward()
    assert np.array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_channel_major_input_matches_oracle(padding):
    """conv2d -> relu -> max_pool2d hands the next conv a channel-major array."""
    rng = np.random.default_rng(11)
    x = np.ascontiguousarray(rng.normal(size=(8, 3, 6, 10))).transpose(1, 0, 2, 3)
    weight = rng.normal(size=(4, 8, 3, 3))
    bias = rng.normal(size=4)
    out_h, out_w = 6 + 2 * padding - 2, 10 + 2 * padding - 2
    upstream = rng.normal(size=(3, 4, out_h, out_w))
    got, got_grads = _run(conv2d, x, weight, bias, upstream=upstream, padding=padding)
    want, want_grads = _run(ref.conv2d, x, weight, bias, upstream=upstream, padding=padding)
    _assert_close(got, want, np.float64, "forward")
    for g, r in zip(got_grads, want_grads):
        _assert_close(g, r, np.float64, "grad")
