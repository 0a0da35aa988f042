"""Scale presets for the experiment harness.

Training a CNN-LSTM in pure NumPy bounds the affordable scale, so every
experiment takes a preset:

* ``PAPER`` — the paper's full protocol (8640 samples, 30 repetitions);
  documented for reference, not run by default on a laptop.
* ``DEFAULT`` — laptop scale (``--preset default``).
* ``FAST`` — minutes-scale; used by ``benchmarks/``, perfbench and CI,
  and the scale of the EXPERIMENTS.md numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..datasets.generation import GenerationConfig
from ..models.cnn_lstm import ModelConfig
from ..models.trainer import TrainingConfig
from ..radar.heatmap import HeatmapConfig
from ..xai.shap import ShapConfig


@dataclass(frozen=True)
class ExperimentPreset:
    """Everything that scales an experiment run."""

    name: str
    num_frames: int = 32
    samples_per_class: int = 40
    attacker_samples_per_class: int = 24
    train_fraction: float = 0.8
    epochs: int = 25
    batch_size: int = 32
    learning_rate: float = 3e-3
    patience: int = 12
    repetitions: int = 2
    num_attack_samples: int = 24
    pool_margin: float = 1.25
    shap_samples: int = 128
    num_shap_executions: int = 2
    injection_rates: "tuple[float, ...]" = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    poisoned_frame_counts: "tuple[int, ...]" = (1, 2, 4, 8, 12, 16)
    dropout: float = 0.1
    max_injection_rate: float = 0.5
    #: Optional full override of the generation pipeline (radar, heatmap,
    #: position grid...); ``num_frames`` above always wins.
    generation: "GenerationConfig | None" = None

    def __post_init__(self) -> None:
        if self.samples_per_class < 4:
            raise ValueError("need at least 4 samples per class")
        if max(self.poisoned_frame_counts) > self.num_frames:
            raise ValueError("poisoned frame count exceeds num_frames")

    def generation_config(self) -> GenerationConfig:
        from dataclasses import replace as _replace

        base = self.generation or GenerationConfig()
        return _replace(base, num_frames=self.num_frames)

    def heatmap_config(self) -> HeatmapConfig:
        return self.generation_config().heatmap

    def frame_shape(self) -> "tuple[int, int]":
        return self.heatmap_config().frame_shape

    def model_config(self) -> ModelConfig:
        return ModelConfig(frame_shape=self.frame_shape(), dropout=self.dropout)

    def training_config(self, seed: int = 0, verbose: bool = False) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            patience=self.patience,
            seed=seed,
            verbose=verbose,
        )

    def shap_config(self, seed: int = 0) -> ShapConfig:
        return ShapConfig(num_samples=self.shap_samples, seed=seed)

    def scaled(self, **overrides) -> "ExperimentPreset":
        """A modified copy (e.g. ``FAST.scaled(repetitions=3)``)."""
        return replace(self, **overrides)


#: The scale the paper ran at (Section VI-B/E).  Constructible for
#: completeness; a NumPy backend needs days, not minutes, at this size.
PAPER = ExperimentPreset(
    name="paper",
    num_frames=32,
    samples_per_class=1440,
    attacker_samples_per_class=480,
    epochs=60,
    repetitions=30,
    num_attack_samples=96,
    shap_samples=1024,
    num_shap_executions=12,
    injection_rates=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
    poisoned_frame_counts=(1, 2, 4, 8, 16, 32),
)

#: Laptop scale; EXPERIMENTS.md reports FAST-preset runs, not this one.
DEFAULT = ExperimentPreset(name="default")

#: Minutes scale for benchmarks and CI: 16 frames, one participant, a
#: 3 x 3-position grid — small enough to train in under a minute.
#: ``repro run fig7 --preset fast --no-cache`` at seed 0 measures 71.43%
#: clean accuracy; the band across seeds is ROADMAP item 3's to state.
FAST = ExperimentPreset(
    name="fast",
    num_frames=16,
    samples_per_class=36,
    attacker_samples_per_class=24,
    epochs=24,
    patience=12,
    repetitions=1,
    num_attack_samples=12,
    shap_samples=64,
    num_shap_executions=2,
    injection_rates=(0.1, 0.25, 0.4),
    poisoned_frame_counts=(2, 8),
    generation=GenerationConfig(
        distances_m=(0.8, 1.2, 1.6),
        angles_deg=(-30.0, 0.0, 30.0),
        participants=(1.0,),
    ),
)


def preset_by_name(name: str) -> ExperimentPreset:
    presets = {p.name: p for p in (PAPER, DEFAULT, FAST)}
    if name not in presets:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    return presets[name]
