"""The sweep engine: keyed tasks -> worker pool -> fsynced journal.

Every sweep in the repo — ``repro run all`` over the paper's experiments
and ``repro campaign run`` over a config's grid cells — runs through
:func:`run_sweep`.  The front-ends only build :class:`PoolTask` lists and
render the outcomes; the engine owns the loop:

* **Resume** — keys the journal already marks ``done`` are not
  dispatched; their journaled entry is replayed as a ``resumed`` outcome.
* **Dispatch** — pending tasks run over one
  :class:`~repro.runtime.pool.WorkerPool` (``workers=1`` is the pool's
  in-process serial path, so closures work there), inheriting its crash
  isolation, deadlines and retry policy.
* **Journaling** — each terminal outcome is checkpointed as it lands, so
  a SIGKILL loses at most the in-flight tasks.
* **Interrupts** — SIGINT/SIGTERM become ``KeyboardInterrupt``, which
  ends the sweep as ``interrupted`` with the journal intact.
* **Stop criterion** — with ``max_failures`` tasks are dispatched in
  waves of ``2 * workers`` and no new wave starts once that many failed;
  without it every pending task goes to the pool at once.

Keys that never reached a terminal state (interrupt or stop) are
reported as ``undispatched``.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from .journal import SweepJournal
from .logging import get_logger
from .pool import PoolConfig, PoolTask, TaskResult, WorkerPool

_log = get_logger("runtime.sweep")


@dataclass
class SweepOutcome:
    """One key's terminal state: freshly run, or replayed from the journal."""

    key: str
    ok: bool
    #: The task's return value (``None`` when failed or resumed).
    value: Any = None
    error: str = ""
    traceback: str = ""
    attempts: int = 0
    wall_time_s: float = 0.0
    #: The journaled payload: just written, or read back on resume.
    payload: dict = field(default_factory=dict)
    resumed: bool = False


@dataclass
class SweepReport:
    """What one :func:`run_sweep` call produced."""

    #: Resumed outcomes (task order), then fresh ones (landing order).
    outcomes: "list[SweepOutcome]" = field(default_factory=list)
    undispatched: "list[str]" = field(default_factory=list)
    interrupted: bool = False
    stopped: bool = False


@contextmanager
def signals_raise_interrupt() -> Iterator[None]:
    """SIGINT/SIGTERM -> ``KeyboardInterrupt`` while the block runs.

    The one stop path of every long-running verb: a sweep unwinds
    through its journal instead of dying mid-write, and ``serve`` and
    ``dashboard`` leave ``serve_forever`` and drain.  The previous
    handlers are restored on exit.  No-op outside the main thread.
    """

    def _handler(signum: int, frame) -> None:
        _log.warning("signal %d received; stopping", signum)
        raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def run_sweep(
    tasks: "list[PoolTask]",
    journal_path: "str | Path",
    fingerprint: "dict[str, Any]",
    pool_config: PoolConfig,
    resume: bool = False,
    payload: "Callable[[TaskResult], dict] | None" = None,
    on_outcome: "Callable[[SweepOutcome], None] | None" = None,
    max_failures: "int | None" = None,
) -> SweepReport:
    """Run keyed ``tasks`` to terminal outcomes, journaling each one.

    ``fingerprint`` is the journal header; resuming against a journal
    with a different one raises
    :class:`~repro.runtime.errors.JournalError` before anything runs.
    ``payload`` maps a fresh result to the dict journaled with it (and
    replayed on resume); ``on_outcome`` observes every outcome as it
    lands.  Never raises for task failures or interrupts.
    """
    journal = SweepJournal.open(journal_path, fingerprint, resume=resume)
    report = SweepReport()

    def land(outcome: SweepOutcome) -> None:
        report.outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)

    def record(result: TaskResult) -> None:
        recorded = payload(result) if payload is not None else {}
        journal.record(
            result.key,
            "done" if result.ok else "failed",
            payload=recorded,
            attempts=result.attempts,
            wall_time_s=result.wall_time_s,
        )
        land(SweepOutcome(
            key=result.key, ok=result.ok, value=result.value,
            error=result.error, traceback=result.traceback,
            attempts=result.attempts, wall_time_s=result.wall_time_s,
            payload=recorded,
        ))

    with journal:
        completed = journal.completed_keys()
        pending = [task for task in tasks if task.key not in completed]
        for task in tasks:
            if task.key in completed:
                entry = journal.entry(task.key)
                land(SweepOutcome(
                    key=task.key, ok=True,
                    attempts=entry.get("attempts", 0),
                    wall_time_s=float(entry.get("wall_time_s", 0.0)),
                    payload=entry.get("payload") or {},
                    resumed=True,
                ))

        wave = len(pending) if max_failures is None else 2 * pool_config.workers
        dispatched = 0
        try:
            with signals_raise_interrupt(), WorkerPool(pool_config) as pool:
                while dispatched < len(pending):
                    failures = sum(not outcome.ok for outcome in report.outcomes)
                    if max_failures is not None and failures >= max_failures:
                        report.stopped = True
                        break
                    batch = pending[dispatched:dispatched + wave]
                    dispatched += len(batch)
                    pool.run(batch, on_result=record)
        except KeyboardInterrupt:
            report.interrupted = True
            _log.warning(
                "sweep interrupted: %d/%d tasks finished; journal %s holds "
                "them (resume with --resume)",
                len(report.outcomes), len(tasks), journal.path,
            )

    landed = {outcome.key for outcome in report.outcomes}
    report.undispatched = [task.key for task in tasks if task.key not in landed]
    return report
