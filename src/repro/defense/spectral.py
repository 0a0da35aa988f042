"""Spectral-signature detection of poisoned training samples.

A training-time defense complementary to the paper's Section VII
proposals: backdoored samples must carry a feature-space signature strong
enough for the model to learn the trigger, and that signature shows up as
an outlier direction in the per-class feature covariance (Tran, Li &
Madry, "Spectral Signatures in Backdoor Attacks", NeurIPS 2018).  The
defender extracts a representation for every training sample, computes the
top singular direction of each class's centered features, and removes the
samples with the largest squared projections before (re)training.

Here the representation is the victim model's LSTM summary of the sample
(the natural analogue of the penultimate layer used in the original
paper), so the defense plugs directly into the CNN-LSTM pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.dataset import HeatmapDataset
from ..models.cnn_lstm import CNNLSTMClassifier
from ..nn import Tensor


@dataclass(frozen=True)
class SpectralConfig:
    """Defense knobs.

    Attributes
    ----------
    removal_fraction:
        Fraction of each class's samples removed (the top outlier scores).
        Tran et al. remove ~1.5x the expected poison rate; with the paper's
        0.4 injection rate concentrated in one target class, a fraction
        around 0.25-0.35 of that class is appropriate.
    min_class_size:
        Classes smaller than this are left untouched (SVD on a handful of
        samples is meaningless).
    """

    removal_fraction: float = 0.3
    min_class_size: int = 6

    def __post_init__(self) -> None:
        if not 0.0 < self.removal_fraction < 1.0:
            raise ValueError("removal_fraction must be in (0, 1)")
        if self.min_class_size < 2:
            raise ValueError("min_class_size must be >= 2")


def sample_representations(
    model: CNNLSTMClassifier, x: np.ndarray, batch_size: int = 64
) -> np.ndarray:
    """``(N, lstm_hidden)`` LSTM summaries of heatmap sequences."""
    x = np.asarray(x, dtype=model.dtype)
    features = model.frame_features(x, batch_size=max(batch_size * 4, 64))
    outputs = []
    with model.inference():
        for start in range(0, len(features), batch_size):
            chunk = Tensor(features[start : start + batch_size])
            outputs.append(model.lstm(chunk).data)
    return np.concatenate(outputs)


def spectral_scores(representations: np.ndarray) -> np.ndarray:
    """Squared projection of each (centered) sample on the top singular
    direction — large values flag the outlier sub-population."""
    representations = np.asarray(representations, dtype=float)
    if representations.ndim != 2:
        raise ValueError("representations must be (N, D)")
    if len(representations) < 2:
        raise ValueError("need at least 2 samples")
    centered = representations - representations.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    projections = centered @ vt[0]
    return projections**2


@dataclass
class SpectralReport:
    """Outcome of one spectral filtering pass."""

    removed_indices: np.ndarray
    scores: np.ndarray  # (N,) outlier score per training sample
    #: Diagnostics when ground truth is known (evaluation only).
    true_positives: int = -1
    false_positives: int = -1

    @property
    def num_removed(self) -> int:
        return len(self.removed_indices)

    def recall(self, poisoned_mask: np.ndarray) -> float:
        """Fraction of truly-poisoned samples removed (evaluation aid)."""
        poisoned_mask = np.asarray(poisoned_mask, dtype=bool)
        total = int(poisoned_mask.sum())
        if total == 0:
            raise ValueError("no poisoned samples in the mask")
        caught = int(poisoned_mask[self.removed_indices].sum())
        return caught / total


class SpectralDefense:
    """Filters suspicious samples from a (possibly poisoned) training set."""

    def __init__(self, model: CNNLSTMClassifier, config: SpectralConfig | None = None):
        self.model = model
        self.config = config or SpectralConfig()

    def analyze(self, dataset: HeatmapDataset) -> SpectralReport:
        """Score every sample; flag per-class top outliers for removal."""
        representations = sample_representations(self.model, dataset.x)
        scores = np.zeros(len(dataset))
        removed: "list[int]" = []
        for label in np.unique(dataset.y):
            indices = dataset.class_indices(int(label))
            if len(indices) < self.config.min_class_size:
                continue
            class_scores = spectral_scores(representations[indices])
            scores[indices] = class_scores
            num_remove = int(round(len(indices) * self.config.removal_fraction))
            if num_remove < 1:
                continue
            worst = indices[np.argsort(class_scores)[::-1][:num_remove]]
            removed.extend(int(i) for i in worst)
        return SpectralReport(
            removed_indices=np.asarray(sorted(removed), dtype=int), scores=scores
        )

    def filter(self, dataset: HeatmapDataset) -> "tuple[HeatmapDataset, SpectralReport]":
        """The cleaned dataset plus the analysis report."""
        report = self.analyze(dataset)
        keep = np.setdiff1d(np.arange(len(dataset)), report.removed_indices)
        return dataset.subset(keep), report
