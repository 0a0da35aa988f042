"""The paper's experiments, named once.

``EXPERIMENT_TABLE`` maps each experiment id to its description, its
runner (``ExperimentContext -> result dataclass``) and the formatter that
prints the result as the paper's rows/series.  The CLI's ``EXPERIMENTS``
(text runners) and the campaigns' ``CELL_RUNNERS`` (result runners) are
both built from it.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from ..datasets.activities import DISSIMILAR_SCENARIOS, SIMILAR_SCENARIOS
from .experiments import (
    ExperimentContext,
    run_ablation,
    run_angle_robustness,
    run_clean_prototype,
    run_defenses,
    run_distance_robustness,
    run_frame_importance,
    run_heatmap_stealth,
    run_injection_rate_sweep,
    run_poisoned_frames_sweep,
    run_simulator_throughput,
    run_spectral_defense,
    run_trigger_size_frames_sweep,
    run_trigger_size_injection_sweep,
)
from .reporting import (
    format_ablation,
    format_confusion_matrix,
    format_defense,
    format_full_sweep,
    format_histogram,
    format_robustness,
    format_spectral_defense,
    format_stealth,
    format_throughput,
)

#: experiment id -> (description, runner(ctx) -> result, formatter(result) -> text)
EXPERIMENT_TABLE: "dict[str, tuple[str, Callable[[ExperimentContext], Any], Callable[[Any], str]]]" = {
    "fig3": ("Most-important-frame index histogram (SHAP)",
             run_frame_importance, format_histogram),
    "fig5": ("DRAI heatmaps with vs without a trigger (stealth)",
             run_heatmap_stealth, format_stealth),
    "fig7": ("Clean prototype confusion matrix",
             run_clean_prototype, format_confusion_matrix),
    "fig8": ("ASR/UASR/CDR vs injection rate (similar trajectory)",
             partial(run_injection_rate_sweep, scenarios=SIMILAR_SCENARIOS),
             format_full_sweep),
    "fig9": ("ASR/UASR/CDR vs #poisoned frames (similar trajectory)",
             partial(run_poisoned_frames_sweep, scenarios=SIMILAR_SCENARIOS),
             format_full_sweep),
    "fig10": ("ASR/UASR/CDR vs injection rate (dissimilar trajectory)",
              partial(run_injection_rate_sweep, scenarios=DISSIMILAR_SCENARIOS),
              format_full_sweep),
    "fig11": ("ASR/UASR/CDR vs #poisoned frames (dissimilar trajectory)",
              partial(run_poisoned_frames_sweep, scenarios=DISSIMILAR_SCENARIOS),
              format_full_sweep),
    "fig12": ("Trigger size comparison over injection rates",
              run_trigger_size_injection_sweep, format_full_sweep),
    "fig13": ("Trigger size comparison over #poisoned frames",
              run_trigger_size_frames_sweep, format_full_sweep),
    "fig14": ("ASR vs attacker angle (seen + zero-shot)",
              run_angle_robustness, format_robustness),
    "fig15": ("ASR vs attacker distance (seen + zero-shot)",
              run_distance_robustness, format_robustness),
    "table1": ("Module ablation + under-clothing triggers",
               run_ablation, format_ablation),
    "sec6d": ("RF simulator throughput",
              run_simulator_throughput, format_throughput),
    "sec7": ("Defenses: trigger detection + augmentation",
             run_defenses, format_defense),
    "spectral": ("Extension: spectral-signature poison filtering",
                 run_spectral_defense, format_spectral_defense),
}
