"""``run all``'s front-end over the sweep engine, with a failure report.

``python -m repro run all`` used to abort the whole campaign on the first
experiment exception — hours of simulator work lost to one bad figure.
:func:`sweep_experiments` instead hands every experiment to
:func:`~repro.runtime.sweep.run_sweep` (journaled, resumable, isolated
per task, serial or over the worker pool) and turns each outcome into an
:class:`ExperimentOutcome` — ok/failed, wall time, full traceback — so
the CLI can exit non-zero only after the full sweep.

Timing rides on the telemetry layer: each experiment runs inside a forced
``experiment.<name>`` span (the repo's single wall-clock mechanism).
While tracing is enabled, an in-process sweep's outcomes also carry a
per-stage breakdown: the spans recorded between one outcome landing and
the next, which on the serial path is exactly that experiment's work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .logging import get_logger
from .pool import PoolConfig, PoolTask
from .sweep import SweepOutcome, run_sweep
from .telemetry import telemetry

_log = get_logger("runtime.runner")

#: Stages surfaced in the per-experiment breakdown (plus experiment.* spans,
#: which are excluded as they duplicate the wall time).
_BREAKDOWN_LIMIT = 3


@dataclass
class ExperimentOutcome:
    """What happened to one experiment of a sweep."""

    name: str
    description: str
    ok: bool
    wall_time_s: float
    error: str = ""
    traceback: str = ""
    #: Span-name -> seconds spent during this experiment (tracing only).
    stage_seconds: "dict[str, float]" = field(default_factory=dict)
    #: True when the outcome was replayed from a sweep journal (resume).
    resumed: bool = False


@dataclass
class FailureReport:
    """Aggregated outcomes of a full sweep."""

    outcomes: "list[ExperimentOutcome]" = field(default_factory=list)
    #: True when SIGINT/SIGTERM ended the sweep before every experiment ran.
    interrupted: bool = False

    @property
    def num_failed(self) -> int:
        return sum(not outcome.ok for outcome in self.outcomes)

    @property
    def failed(self) -> "list[ExperimentOutcome]":
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def all_ok(self) -> bool:
        return self.num_failed == 0

    def format(self) -> str:
        """Human-readable sweep summary with tracebacks of the failures."""
        lines = [
            f"sweep summary: {len(self.outcomes) - self.num_failed}/"
            f"{len(self.outcomes)} experiments succeeded"
        ]
        for outcome in self.outcomes:
            status = ("resume" if outcome.resumed else "ok    ") if outcome.ok \
                else "FAILED"
            lines.append(
                f"  {status} {outcome.name:<8} {outcome.wall_time_s:7.1f}s"
                + (f"  {outcome.error}" if outcome.error else "")
            )
            if outcome.stage_seconds:
                top = sorted(
                    outcome.stage_seconds.items(), key=lambda kv: kv[1], reverse=True
                )[:_BREAKDOWN_LIMIT]
                breakdown = " ".join(f"{name}={secs:.1f}s" for name, secs in top)
                lines.append(f"         spans: {breakdown}")
        for outcome in self.failed:
            lines.append("")
            lines.append(f"--- traceback: {outcome.name} ---")
            lines.append(outcome.traceback.rstrip())
        return "\n".join(lines)


def _span_totals() -> "dict[str, float]":
    """Current total seconds per span name (empty while tracing is off)."""
    tel = telemetry()
    if not tel.enabled:
        return {}
    return {name: entry["total_s"] for name, entry in tel.aggregate().items()}


def _stage_delta(before: "dict[str, float]", after: "dict[str, float]") -> "dict[str, float]":
    """Seconds per span name accrued between two snapshots."""
    delta = {}
    for name, total in after.items():
        spent = total - before.get(name, 0.0)
        if spent > 0.0 and not name.startswith("experiment."):
            delta[name] = spent
    return delta


def run_experiment(name: str, fn: Callable, *args: Any) -> Any:
    """Pool-task body: ``fn(*args)`` inside a forced ``experiment.<name>`` span."""
    with telemetry().span(f"experiment.{name}", force=True):
        return fn(*args)


def sweep_experiments(
    experiments: "list[tuple[str, str, Callable, tuple]]",
    journal_path: "str | Path",
    fingerprint: "dict[str, Any] | None" = None,
    pool_config: "PoolConfig | None" = None,
    resume: bool = False,
    emit: "Callable[[str], None]" = print,
) -> FailureReport:
    """Run ``(name, description, fn, args)`` experiments as one sweep.

    ``fn(*args)`` returns the experiment's printable result, which is
    passed to ``emit`` (stdout by default) as the outcome lands.  ``fn``
    and ``args`` must be picklable when ``pool_config.workers > 1``;
    serial sweeps run in-process.  Already-``done`` journal keys are
    replayed instead of re-run when ``resume`` is set; the report's
    ``interrupted`` flag says SIGINT/SIGTERM cut the sweep short.
    """
    pool_config = pool_config or PoolConfig()
    descriptions = {name: description for name, description, _, _ in experiments}
    tasks = [
        PoolTask(key=name, fn=run_experiment, args=(name, fn, *args))
        for name, _, fn, args in experiments
    ]
    report = FailureReport()
    in_process = pool_config.workers <= 1
    totals = _span_totals()

    def on_outcome(outcome: SweepOutcome) -> None:
        nonlocal totals
        name = outcome.key
        emit(f"=== {name}: {descriptions[name]} ===")
        stages: "dict[str, float]" = {}
        if outcome.resumed:
            emit(f"--- {name} resumed from journal "
                 f"(finished in {outcome.wall_time_s:.1f}s) ---\n")
        else:
            if in_process:
                now = _span_totals()
                stages, totals = _stage_delta(totals, now), now
            if outcome.ok:
                emit(outcome.value)
                emit(f"--- {name} done in {outcome.wall_time_s:.1f}s ---\n")
            else:
                _log.error("experiment failed name=%s error=%s", name, outcome.error)
                emit(f"--- {name} FAILED after {outcome.wall_time_s:.1f}s: "
                     f"{outcome.error} ---\n")
        report.outcomes.append(ExperimentOutcome(
            name=name,
            description=descriptions[name],
            ok=outcome.ok,
            wall_time_s=outcome.wall_time_s,
            error=outcome.error,
            traceback=outcome.traceback,
            stage_seconds=stages,
            resumed=outcome.resumed,
        ))

    sweep = run_sweep(
        tasks, journal_path, fingerprint or {}, pool_config,
        resume=resume,
        payload=lambda result: {
            "description": descriptions[result.key], "error": result.error,
        },
        on_outcome=on_outcome,
    )
    report.interrupted = sweep.interrupted
    return report
