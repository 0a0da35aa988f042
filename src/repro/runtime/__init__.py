"""Cross-cutting runtime services: errors, logging, guards, faults, sweeps.

This package owns the pipeline's failure-handling contract.  Stage code
raises :class:`ReproError` subclasses, guards catch NaN/Inf at stage
boundaries, the sweep engine (:mod:`repro.runtime.sweep`) keeps ``run
all`` and campaign sweeps alive past individual failures over one
journaled dispatch loop, and :mod:`repro.runtime.faults` injects each
failure mode deterministically so tests can prove recovery works.

It also owns the observability contract: :mod:`repro.runtime.telemetry`
provides hierarchical span tracing plus a counters/gauges/histograms
registry, and :mod:`repro.runtime.records` persists one JSON run record
per CLI invocation.
"""

from .backoff import RetryPolicy, retry_call
from .errors import (
    CacheCorruptionError,
    JournalError,
    PoolError,
    ReproError,
    SimulationError,
    TrainingDivergenceError,
)
from .guards import all_finite, count_nonfinite, ensure_finite
from .journal import SweepJournal
from .logging import configure_logging, get_logger, level_for_verbosity, log_event
from .pool import (
    PoolConfig,
    PoolTask,
    TaskResult,
    WorkerPool,
    derive_task_seed,
    run_tasks,
)
from .records import (
    RunRecord,
    format_run_record,
    latest_run_record_path,
    load_run_record,
    write_run_record,
)
from .runner import ExperimentOutcome, FailureReport, sweep_experiments
from .sweep import SweepOutcome, SweepReport, run_sweep
from .telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Telemetry,
    metrics,
    span,
    telemetry,
    traced,
)

__all__ = [
    "CacheCorruptionError",
    "Counter",
    "ExperimentOutcome",
    "FailureReport",
    "Gauge",
    "Histogram",
    "JournalError",
    "MetricsRegistry",
    "PoolConfig",
    "PoolError",
    "PoolTask",
    "ReproError",
    "RetryPolicy",
    "RunRecord",
    "SimulationError",
    "Span",
    "SweepOutcome",
    "SweepReport",
    "SweepJournal",
    "TaskResult",
    "Telemetry",
    "TrainingDivergenceError",
    "WorkerPool",
    "all_finite",
    "configure_logging",
    "count_nonfinite",
    "derive_task_seed",
    "ensure_finite",
    "format_run_record",
    "get_logger",
    "latest_run_record_path",
    "level_for_verbosity",
    "load_run_record",
    "log_event",
    "metrics",
    "retry_call",
    "run_sweep",
    "run_tasks",
    "span",
    "sweep_experiments",
    "telemetry",
    "traced",
    "write_run_record",
]
