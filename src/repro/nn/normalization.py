"""Normalization layers: LayerNorm and BatchNorm1d.

Not used by the paper's baseline CNN-LSTM, but standard equipment for the
architecture-variant studies the threat model invites (the attacker only
*assumes* the victim's architecture; normalization choices are a common
axis of mismatch).
"""

from __future__ import annotations

import numpy as np

from .layers import Module
from .tensor import Parameter, Tensor


class LayerNorm(Module):
    """Normalizes the last dimension to zero mean / unit variance.

    ``y = (x - mean) / sqrt(var + eps) * gamma + beta`` with statistics
    computed per sample over the final axis.
    """

    def __init__(self, normalized_dim: int, eps: float = 1e-5):
        super().__init__()
        if normalized_dim < 1:
            raise ValueError("normalized_dim must be >= 1")
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_dim))
        self.beta = Parameter(np.zeros(normalized_dim))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.gamma.shape[0]:
            raise ValueError(
                f"expected last dim {self.gamma.shape[0]}, got {x.shape[-1]}"
            )
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered / ((variance + self.eps) ** 0.5)
        return normalized * self.gamma + self.beta


class BatchNorm1d(Module):
    """Batch normalization over ``(N, F)`` feature batches.

    Training mode normalizes with batch statistics and maintains
    exponential running estimates; eval mode uses the running estimates —
    the standard train/serve split.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        if num_features < 1:
            raise ValueError("num_features must be >= 1")
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must be in (0, 1)")
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        # Running statistics are buffers, not parameters.
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.gamma.shape[0]:
            raise ValueError(
                f"expected (N, {self.gamma.shape[0]}) input, got {x.shape}"
            )
        if self.training:
            if len(x) < 2:
                raise ValueError("batch norm needs batches of >= 2 in training")
            mean = x.mean(axis=0, keepdims=True)
            centered = x - mean
            variance = (centered * centered).mean(axis=0, keepdims=True)
            self.running_mean = (
                (1.0 - self.momentum) * self.running_mean
                + self.momentum * mean.data[0]
            )
            self.running_var = (
                (1.0 - self.momentum) * self.running_var
                + self.momentum * variance.data[0]
            )
            normalized = centered / ((variance + self.eps) ** 0.5)
        else:
            normalized = (x - self.running_mean) / np.sqrt(
                self.running_var + self.eps
            )
        return normalized * self.gamma + self.beta
