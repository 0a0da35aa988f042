"""Structured differentiable ops: convolution, pooling, dropout, losses.

These complement the elementwise/linear-algebra primitives on
:class:`~repro.nn.tensor.Tensor` with the image ops the frame CNN needs.

Convolution is shaped for BLAS: ``_im2col`` lays the input out as one
``(C*kh*kw, N*out_h*out_w)`` column matrix (a strided window view copied
once), so the forward pass and both gradients are each a single 2-D GEMM
and the bias gradient one row sum.  ``_col2im`` adds column gradients
back with one strided add per kernel tap.  Max pooling (stride == kernel)
is an elementwise maximum over the window's taps.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def _im2col(
    data: np.ndarray, kernel: tuple[int, int], stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Expand ``(N, C, H, W)`` into ``(C*kh*kw, N*out_h*out_w)`` columns.

    Rows follow the weight's ``(c, i, j)`` flattening; columns run over
    ``(n, y, x)`` output positions.
    """
    n, c, h, w = data.shape
    kh, kw = kernel
    if padding:
        # Channel-major padding buffer: the column rows are channel-major,
        # and conv2d's own outputs already are.
        padded = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=data.dtype)
        padded[:, :, padding:-padding, padding:-padding] = data.transpose(1, 0, 2, 3)
        data = padded.transpose(1, 0, 2, 3)
        h += 2 * padding
        w += 2 * padding
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    sn, sc, sh, sw = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data,
        shape=(c, kh, kw, n, out_h, out_w),
        strides=(sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )
    return windows.reshape(c * kh * kw, n * out_h * out_w), (out_h, out_w)


def _col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
    out_size: tuple[int, int],
) -> np.ndarray:
    """Add ``(C*kh*kw, N*out_h*out_w)`` column gradients back into ``(N, C, H, W)``.

    One strided add per kernel tap.  The adds run channel-last, reading
    ``cols.T`` (free when ``cols`` is the transpose of a row-major GEMM
    result, as ``conv2d``'s backward produces).
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h, out_w = out_size
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    taps = cols.T.reshape(n, out_h, out_w, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            padded[:, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += (
                taps[..., i, j]
            )
    grad = padded.transpose(0, 3, 1, 2)
    if padding:
        return grad[:, :, padding:-padding, padding:-padding]
    return grad


def conv2d(
    x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0
) -> Tensor:
    """2D cross-correlation: ``(N, C, H, W) * (F, C, kh, kw) -> (N, F, H', W')``."""
    n = x.shape[0]
    f, c, kh, kw = weight.shape
    if x.shape[1] != c:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {c}")
    cols, (out_h, out_w) = _im2col(x.data, (kh, kw), stride, padding)
    w_mat = weight.data.reshape(f, -1)
    out_mat = w_mat @ cols
    if bias is not None:
        out_mat += bias.data[:, None]
    # (F, N*P) -> (N, F, H', W') as a view; the batch-major copy is left to
    # whichever consumer needs one.
    out_data = out_mat.reshape(f, n, out_h, out_w).transpose(1, 0, 2, 3)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(1, 0, 2, 3).reshape(f, n * out_h * out_w)
        # Both gradient GEMMs are written as the transpose of a product
        # whose long axis (N*P) is the row axis: OpenBLAS runs these
        # skinny shapes 2-3x faster that way round.
        if weight.requires_grad:
            weight._accumulate((cols @ grad_mat.T).T.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=1))
        if x.requires_grad:
            grad_cols = (grad_mat.T @ w_mat).T
            x._accumulate(
                _col2im(grad_cols, x.shape, (kh, kw), stride, padding, (out_h, out_w))
            )

    return Tensor(out_data, _parents=parents, _backward=backward)


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling with square window; requires H, W divisible by the window.

    The forward pass is an elementwise maximum over the ``kernel**2`` taps
    of each window.  The backward pass routes each window's gradient to the
    first tap (row-major) equal to the maximum, the tie rule of ``argmax``.
    """
    stride = stride or kernel
    if stride != kernel:
        raise NotImplementedError("only stride == kernel pooling is supported")
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims ({h}, {w}) not divisible by pool size {kernel}")
    out_h, out_w = h // kernel, w // kernel
    windows = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    taps = [windows[:, :, :, i, :, j] for i in range(kernel) for j in range(kernel)]
    # The output and both gradients keep the input's memory layout.
    out_data = taps[0].copy(order="K")
    for tap in taps[1:]:
        np.maximum(out_data, tap, out=out_data)

    def backward(grad: np.ndarray) -> None:
        if grad.strides != out_data.strides:
            # Elementwise passes over mismatched layouts (a batch-major
            # gradient against channel-major taps) run several times slower.
            aligned = np.empty_like(out_data, dtype=grad.dtype)
            aligned[...] = grad
            grad = aligned
        grad_x = np.empty_like(x.data, dtype=grad.dtype)
        grad_windows = grad_x.reshape(n, c, out_h, kernel, out_w, kernel)
        unclaimed = np.ones_like(out_data, dtype=bool)
        for index, tap in enumerate(taps):
            hit = np.equal(tap, out_data)
            hit &= unclaimed
            unclaimed ^= hit
            i, j = divmod(index, kernel)
            np.multiply(grad, hit, out=grad_windows[:, :, :, i, :, j])
        x._accumulate(grad_x)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: active only in training mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    softmax = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        logits._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

    return Tensor(out_data, _parents=(logits,), _backward=backward)


def softmax(logits: np.ndarray | Tensor, axis: int = -1) -> np.ndarray:
    """Plain (non-differentiable) softmax for inference-side post-processing."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    shifted = data - data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy for ``(N, C)`` logits and ``(N,)`` int labels."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError("logits must be (N, C)")
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels must be ({n},), got {labels.shape}")
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(n), labels]
    return -picked.mean()


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for ``(N, in)`` inputs."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def mse_loss(prediction: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error."""
    target_tensor = target if isinstance(target, Tensor) else Tensor(np.asarray(target))
    diff = prediction - target_tensor
    return (diff * diff).mean()
