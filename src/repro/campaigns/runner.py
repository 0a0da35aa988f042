"""Campaign execution: grid cells -> pool tasks -> journal -> record.

``CampaignRunner`` expands a validated config into
:class:`~repro.campaigns.config.CampaignCell` tasks and hands them to the
sweep engine (:func:`~repro.runtime.sweep.run_sweep`, the same loop
``repro run all`` uses): the supervised worker pool (``workers=1`` is the
serial in-process path), a fsynced journal entry per terminal outcome —
so a SIGKILL mid-campaign loses at most the in-flight cells and
``--resume`` skips finished ones — and the ``stop.max_failures``
criterion.  The runner turns the outcomes into :class:`CellResult` rows
and one atomic campaign record.

Cells return *metrics*, not formatted text: :func:`cell_payload` maps
each runner's result dataclass to a JSON-able dict split into
deterministic ``metrics`` (accuracy, ASR/UASR/CDR curves, defense
verdicts — bit-reproducible functions of the seed) and wall-clock
``measured`` values (throughput timings), so campaign cells can be
pinned bit-identical against the hand-written runners.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..eval.experiments import (
    AblationResult,
    CleanPrototypeResult,
    DefenseResult,
    ExperimentContext,
    FrameImportanceExperimentResult,
    RobustnessResult,
    SpectralDefenseResult,
    StealthResult,
    SweepResult,
    ThroughputResult,
)
from ..eval.registry import EXPERIMENT_TABLE
from ..runtime.logging import get_logger
from ..runtime.pool import PoolConfig, PoolTask, TaskResult
from ..runtime.records import default_runs_dir
from ..runtime.sweep import SweepOutcome, run_sweep
from ..runtime.telemetry import metrics, span, telemetry
from .config import (
    CampaignCell,
    CampaignConfig,
    config_digest,
    expand_cells,
    journal_fingerprint,
)
from .records import CampaignRecord, write_campaign_record

_log = get_logger("campaigns.runner")

#: experiment id -> raw runner (result dataclass, not formatted text).
#: Same ids as the CLI's EXPERIMENTS table; campaigns consume metrics.
CELL_RUNNERS: "dict[str, Callable[[ExperimentContext], Any]]" = {
    key: run for key, (_, run, _) in EXPERIMENT_TABLE.items()
}


def _listed(value) -> object:
    """NumPy arrays/scalars -> plain JSON-able Python values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def cell_payload(result: Any) -> "dict[str, dict]":
    """``{"metrics": ..., "measured": ...}`` for one runner result.

    ``metrics`` holds the deterministic outputs (pure functions of the
    seed — what equivalence pins compare); ``measured`` holds wall-clock
    quantities that legitimately differ between runs of the same seed.
    """
    if isinstance(result, ThroughputResult):
        return {
            "metrics": {
                "num_virtual_antennas": result.num_virtual_antennas,
                "num_frames": result.num_frames,
            },
            "measured": {
                "seconds_per_pair_activity": result.seconds_per_pair_activity,
                "seconds_per_activity": result.seconds_per_activity,
            },
        }
    if isinstance(result, CleanPrototypeResult):
        return {
            "metrics": {
                "accuracy": _listed(result.accuracy),
                "confusion": _listed(result.confusion),
                "history_epochs": result.history_epochs,
            },
            "measured": {},
        }
    if isinstance(result, FrameImportanceExperimentResult):
        return {
            "metrics": {
                "histogram": _listed(result.histogram),
                "mean_importance": _listed(result.mean_importance),
                "num_samples": result.num_samples,
            },
            "measured": {},
        }
    if isinstance(result, StealthResult):
        return {
            "metrics": {
                "deviation": {k: _listed(v) for k, v in result.deviation.items()}
            },
            "measured": {},
        }
    if isinstance(result, SweepResult):
        return {
            "metrics": {
                "parameter_name": result.parameter_name,
                "parameter_values": _listed(list(result.parameter_values)),
                "curves": {
                    label: [point.as_dict() for point in points]
                    for label, points in result.curves.items()
                },
            },
            "measured": {},
        }
    if isinstance(result, RobustnessResult):
        return {
            "metrics": {
                "parameter_name": result.parameter_name,
                "parameter_values": _listed(list(result.parameter_values)),
                "seen_mask": list(result.seen_mask),
                "asr": _listed(list(result.asr)),
                "uasr": _listed(list(result.uasr)),
            },
            "measured": {},
        }
    if isinstance(result, AblationResult):
        return {
            "metrics": {
                "rows": [[name, _listed(value)] for name, value in result.rows]
            },
            "measured": {},
        }
    if isinstance(result, DefenseResult):
        return {
            "metrics": {
                "detector": dataclasses.asdict(result.detector_report),
                "asr_without_defense": _listed(result.asr_without_defense),
                "asr_with_augmentation": _listed(result.asr_with_augmentation),
                "cdr_with_augmentation": _listed(result.cdr_with_augmentation),
            },
            "measured": {},
        }
    if isinstance(result, SpectralDefenseResult):
        return {
            "metrics": {
                key: _listed(value)
                for key, value in dataclasses.asdict(result).items()
            },
            "measured": {},
        }
    # Stubbed runners in tests may return plain dicts already in shape.
    if isinstance(result, dict) and set(result) >= {"metrics"}:
        return {
            "metrics": dict(result["metrics"]),
            "measured": dict(result.get("measured", {})),
        }
    raise TypeError(
        f"no campaign payload mapping for {type(result).__name__}"
    )


def _campaign_cell_task(
    experiment: str,
    preset_name: str,
    seed: int,
    overrides: "tuple[tuple[str, object], ...]",
    use_disk_cache: bool,
) -> dict:
    """Pool-worker entry point: run one cell in a fresh context.

    Module-level and picklable; workers rebuild their own
    :class:`ExperimentContext` with ``workers=1`` so a pooled campaign
    never nests a second pool inside a cell.  The resolved preset (base
    preset + overrides) matches :meth:`CampaignCell.resolved_preset`, so
    a cell is bit-identical to the equivalent hand-written invocation.
    """
    cell = CampaignCell(
        index=0, experiment=experiment, preset=preset_name, seed=seed,
        overrides=overrides,
    )
    context = ExperimentContext(
        cell.resolved_preset(), seed=seed,
        use_disk_cache=use_disk_cache, workers=1,
    )
    with span("campaign.cell", experiment=experiment, seed=seed):
        result = CELL_RUNNERS[experiment](context)
    return cell_payload(result)


@dataclass
class CellResult:
    """Terminal outcome of one campaign cell."""

    key: str
    index: int
    experiment: str
    preset: str
    seed: int
    status: str  # done | failed | skipped
    metrics: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    attempts: int = 0
    error: "str | None" = None
    resumed: bool = False

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class CampaignOutcome:
    """What one ``CampaignRunner.run`` produced."""

    record: CampaignRecord
    record_path: Path
    results: "list[CellResult]"
    journal_path: Path
    interrupted: bool = False
    stopped_early: bool = False

    @property
    def counts(self) -> "dict[str, int]":
        return {"done": 0, "failed": 0, "skipped": 0, **_count(self.results)}

    @property
    def all_ok(self) -> bool:
        return all(result.status == "done" for result in self.results)


class CampaignRunner:
    """Executes one campaign config end to end.

    ``run(resume=True)`` replays journaled cells instead of re-running
    them; the journal header carries the config digest, so resuming with
    an edited config refuses instead of mixing incompatible results.
    """

    def __init__(
        self,
        config: CampaignConfig,
        journal_path: "str | Path | None" = None,
        runs_dir: "str | Path | None" = None,
        workers: int = 1,
        pool_config: "PoolConfig | None" = None,
    ):
        self.config = config
        self.runs_dir = Path(runs_dir) if runs_dir else default_runs_dir()
        self.journal_path = (
            Path(journal_path) if journal_path
            else self.runs_dir / f"campaign-{config.name}.jsonl"
        )
        self.workers = max(1, int(workers))
        self.pool_config = pool_config

    def run(self, resume: bool = False) -> CampaignOutcome:
        cells = expand_cells(self.config)
        by_key = {cell.key: cell for cell in cells}
        tasks = [
            PoolTask(
                key=cell.key,
                fn=_campaign_cell_task,
                args=(
                    cell.experiment, cell.preset, cell.seed,
                    cell.overrides, self.config.use_disk_cache,
                ),
            )
            for cell in cells
        ]

        def journal_payload(result: TaskResult) -> dict:
            value = (result.value if result.ok else None) or {}
            return {
                "cell": by_key[result.key].spec(),
                "metrics": dict(value.get("metrics", {})),
                "measured": dict(value.get("measured", {})),
                "error": result.error,
            }

        started = time.time()
        with span("campaign.run", campaign=self.config.name, cells=len(cells)):
            sweep = run_sweep(
                tasks,
                self.journal_path,
                journal_fingerprint(self.config),
                self.pool_config or PoolConfig(workers=self.workers),
                resume=resume,
                payload=journal_payload,
                max_failures=self.config.stop.max_failures,
            )
        resumed = sum(outcome.resumed for outcome in sweep.outcomes)
        if resumed:
            metrics().counter("campaign.cells_resumed").inc(resumed)
            _log.info(
                "campaign %s: %d/%d cells resumed from journal",
                self.config.name, resumed, len(cells),
            )
        skip_reason = (
            "interrupted" if sweep.interrupted else "stop.max_failures reached"
        )
        results = [
            _cell_result(by_key[outcome.key], outcome)
            for outcome in sweep.outcomes
        ] + [
            _cell_result(by_key[key], skipped=skip_reason)
            for key in sweep.undispatched
        ]
        results.sort(key=lambda result: result.index)

        outcome_status = _status(results, sweep.interrupted, sweep.stopped)
        record = CampaignRecord(
            name=self.config.name,
            config=self.config.canonical_dict(),
            config_digest=config_digest(self.config),
            cells=[result.as_dict() for result in results],
            outcome={
                "status": outcome_status,
                "cells_total": len(cells),
                **{f"cells_{k}": v for k, v in _count(results).items()},
                "wall_time_s": time.time() - started,
            },
            spans=telemetry().aggregate(),
        )
        path = write_campaign_record(record, self.runs_dir)
        _log.info(
            "campaign %s: %s (%d cells) record=%s",
            self.config.name, outcome_status, len(cells), path,
        )
        return CampaignOutcome(
            record=record,
            record_path=path,
            results=results,
            journal_path=self.journal_path,
            interrupted=sweep.interrupted,
            stopped_early=sweep.stopped,
        )


def _cell_result(
    cell: CampaignCell,
    outcome: "SweepOutcome | None" = None,
    skipped: str = "",
) -> CellResult:
    """A cell's :class:`CellResult` from its sweep outcome, or as skipped."""
    identity = dict(
        key=cell.key, index=cell.index, experiment=cell.experiment,
        preset=cell.preset, seed=cell.seed, overrides=dict(cell.overrides),
    )
    if outcome is None:
        return CellResult(**identity, status="skipped", error=skipped)
    return CellResult(
        **identity,
        status="done" if outcome.ok else "failed",
        metrics=dict(outcome.payload.get("metrics", {})),
        measured=dict(outcome.payload.get("measured", {})),
        wall_time_s=outcome.wall_time_s,
        attempts=outcome.attempts,
        error=None if outcome.resumed else outcome.error,
        resumed=outcome.resumed,
    )


def _status(results: "list[CellResult]", interrupted: bool, stopped: bool) -> str:
    if interrupted:
        return "interrupted"
    if stopped:
        return "stopped"
    counts = _count(results)
    if counts.get("failed") or counts.get("skipped"):
        return "failed"
    return "ok"


def _count(results: "list[CellResult]") -> "dict[str, int]":
    counts: "dict[str, int]" = {}
    for result in results:
        counts[result.status] = counts.get(result.status, 0) + 1
    return counts
