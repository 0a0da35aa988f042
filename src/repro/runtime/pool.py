"""Supervised process-pool executor for independent work units.

Simulator campaigns fan out into thousands of embarrassingly-parallel
tasks (dataset samples, placement candidates, whole experiments).  This
module runs them across worker processes with the robustness semantics the
rest of the pipeline already guarantees in-process:

* **Crash isolation** — each worker is its own process; a segfault or
  ``os._exit`` kills that worker only.  The supervisor detects the death,
  respawns a replacement, and re-queues the task it held as retriable.
* **Retry with backoff** — failed attempts (exception, crash, timeout)
  are re-queued under a :class:`~repro.runtime.backoff.RetryPolicy` with
  deterministic jittered delays; exhausted tasks become failed
  :class:`TaskResult` entries, never sweep aborts.
* **Deadlines** — a task running past its deadline gets its worker
  terminated and is charged a retry.
* **Bounded in-flight state** — at most one task is dispatched per worker
  (assignment is explicit, over per-worker pipes), so task payloads are
  never bulk-serialized into an unbounded queue.
* **Graceful degradation** — ``workers <= 1``, a failed pool start, or
  every worker dying falls back to the serial in-process path with the
  same retry semantics; the sweep always completes.

Determinism: the pool itself adds none of its own randomness.  Callers
derive per-task seeds via :func:`derive_task_seed` so results are
bit-identical no matter how tasks land on workers; assembly is by task
index, not completion order.

Telemetry (parent-side): a ``pool.attempt`` span per dispatched attempt
and counters ``pool.tasks_completed``, ``pool.tasks_failed``,
``pool.retries``, ``pool.timeouts``, ``pool.worker_deaths``,
``pool.degraded``.  Worker-side spans/metrics stay in the worker process
(cross-process aggregation is a future PR).
"""

from __future__ import annotations

import heapq
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable

import numpy as np

from .backoff import RetryPolicy
from .errors import PoolError
from .logging import get_logger
from .supervisor import ChildProcess
from .telemetry import metrics, telemetry

__all__ = [
    "PoolConfig",
    "PoolTask",
    "TaskResult",
    "WorkerPool",
    "derive_task_seed",
    "run_tasks",
]

_log = get_logger("runtime.pool")

#: Supervisor wake-up interval for deadline/death checks.
_POLL_INTERVAL_S = 0.05


def derive_task_seed(campaign_seed: int, task_index: int) -> np.random.SeedSequence:
    """The per-task seed root: ``SeedSequence((campaign_seed, task_index))``.

    Every parallelized stage seeds its per-task RNG from this, which is
    what makes parallel output bit-identical to serial: the stream a task
    consumes depends only on the campaign seed and the task's position in
    the plan, never on which worker ran it or in what order.
    """
    return np.random.SeedSequence((int(campaign_seed), int(task_index)))


@dataclass(frozen=True)
class PoolConfig:
    """Supervision knobs of the worker pool."""

    workers: int = 1
    #: Per-task wall-clock deadline; ``None`` disables deadline kills.
    task_timeout_s: "float | None" = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0.0:
            raise ValueError(
                f"task_timeout_s must be positive, got {self.task_timeout_s}"
            )


@dataclass(frozen=True)
class PoolTask:
    """One unit of work: a picklable callable plus its arguments.

    ``key`` is the stable identity used by journals and telemetry (e.g.
    the experiment name or ``sample-000123``); ``timeout_s`` overrides the
    pool-wide deadline for this task.
    """

    key: str
    fn: Callable
    args: tuple = ()
    kwargs: "dict[str, Any]" = field(default_factory=dict)
    timeout_s: "float | None" = None


@dataclass
class TaskResult:
    """Terminal outcome of one task (after all retries)."""

    index: int
    key: str
    ok: bool
    value: Any = None
    error: str = ""
    traceback: str = ""
    attempts: int = 1
    wall_time_s: float = 0.0


class _Attempt:
    """A scheduled (task, attempt-number) pair with a backoff gate."""

    __slots__ = ("index", "number", "eligible_at")

    def __init__(self, index: int, number: int, eligible_at: float):
        self.index = index
        self.number = number
        self.eligible_at = eligible_at

    def __lt__(self, other: "_Attempt") -> bool:
        return (self.eligible_at, self.index) < (other.eligible_at, other.index)


def _worker_main(conn) -> None:
    """Worker loop: recv task, run it, send outcome; ``None`` stops."""
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        index, number, fn, args, kwargs = item
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
            outcome = (index, number, True, value, "", "")
        except KeyboardInterrupt:
            break
        except BaseException as exc:  # noqa: BLE001 - process isolation boundary
            outcome = (
                index,
                number,
                False,
                None,
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            )
        elapsed = time.perf_counter() - start
        try:
            conn.send((*outcome, elapsed))
        except (EOFError, OSError, BrokenPipeError):
            break
        except Exception as exc:  # unpicklable return value
            conn.send(
                (index, number, False, None,
                 f"unserializable task result ({type(exc).__name__}: {exc})",
                 "", elapsed)
            )


class _Worker:
    """Parent-side handle: a child process and the task it currently holds."""

    __slots__ = ("child", "current", "deadline", "started_at")

    def __init__(self, worker_id: int):
        self.child = ChildProcess(_worker_main, name=f"repro-pool-{worker_id}")
        self.current: "_Attempt | None" = None
        self.deadline: "float | None" = None
        self.started_at = 0.0


class WorkerPool:
    """Supervisor running :class:`PoolTask` lists to :class:`TaskResult` lists.

    Use as a context manager (workers are reaped on exit) or through the
    :func:`run_tasks` convenience wrapper.  ``run`` never raises for task
    failures — only for ``KeyboardInterrupt`` and programming errors.
    """

    def __init__(self, config: "PoolConfig | None" = None):
        self.config = config or PoolConfig()
        self._workers: "list[_Worker]" = []
        self._next_worker_id = 0
        self._respawn_budget = 0
        self._degraded = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def shutdown(self) -> None:
        for worker in self._workers:
            worker.child.stop()
        self._workers.clear()

    def _spawn_worker(self) -> "_Worker | None":
        try:
            worker = _Worker(self._next_worker_id)
        except OSError as exc:
            _log.warning("worker spawn failed: %s", exc)
            return None
        self._next_worker_id += 1
        return worker

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: "list[PoolTask]",
        on_result: "Callable[[TaskResult], None] | None" = None,
    ) -> "list[TaskResult]":
        """Run every task; results are index-ordered, one per task.

        ``on_result`` observes each terminal result as it lands (journal
        checkpointing hooks in here).  Individual task failures surface as
        ``ok=False`` results; the pool itself degrades to serial execution
        rather than failing the sweep.
        """
        if not tasks:
            return []
        if self.config.workers <= 1:
            return self._run_serial(tasks, {}, on_result)

        results: "dict[int, TaskResult]" = {}
        try:
            self._start_workers()
        except PoolError as exc:
            _log.warning("pool degraded to serial execution: %s", exc)
            metrics().counter("pool.degraded").inc()
            return self._run_serial(tasks, results, on_result)

        self._respawn_budget = (
            4 * self.config.workers + len(tasks) * self.config.retry.max_attempts
        )
        pending: "list[_Attempt]" = [
            _Attempt(index, 1, 0.0) for index in range(len(tasks))
        ]
        heapq.heapify(pending)
        try:
            self._supervise(tasks, pending, results, on_result)
        except KeyboardInterrupt:
            self.shutdown()
            raise
        finally:
            self.shutdown()

        if len(results) < len(tasks):
            # Every worker died and could not be respawned: finish what is
            # left in-process so the sweep still completes.
            _log.warning(
                "pool degraded to serial execution: %d/%d tasks remaining",
                len(tasks) - len(results), len(tasks),
            )
            metrics().counter("pool.degraded").inc()
            self._run_serial(tasks, results, on_result)
        return [results[index] for index in range(len(tasks))]

    def _start_workers(self) -> None:
        for _ in range(self.config.workers):
            worker = self._spawn_worker()
            if worker is not None:
                self._workers.append(worker)
        if not self._workers:
            raise PoolError("no worker process could be started")
        metrics().gauge("pool.workers").set(len(self._workers))

    def _supervise(
        self,
        tasks: "list[PoolTask]",
        pending: "list[_Attempt]",
        results: "dict[int, TaskResult]",
        on_result: "Callable[[TaskResult], None] | None",
    ) -> None:
        while len(results) < len(tasks):
            now = time.monotonic()
            self._reap_dead_workers(tasks, pending, results, on_result, now)
            self._enforce_deadlines(tasks, pending, results, on_result, now)
            if not self._workers:
                return  # degrade to serial in run()
            self._dispatch(tasks, pending, results, on_result, now)
            self._collect(tasks, pending, results, on_result)

    # -- supervision steps ---------------------------------------------
    def _reap_dead_workers(self, tasks, pending, results, on_result, now) -> None:
        for worker in list(self._workers):
            if worker.child.alive:
                continue
            exitcode = worker.child.exitcode
            self._workers.remove(worker)
            worker.child.kill()
            metrics().counter("pool.worker_deaths").inc()
            if worker.current is not None:
                attempt = worker.current
                task = tasks[attempt.index]
                _log.warning(
                    "worker died holding task key=%s attempt=%d exitcode=%s",
                    task.key, attempt.number, exitcode,
                )
                self._finish_attempt(worker, attempt, now)
                self._record_failure(
                    tasks, pending, results, on_result, attempt,
                    f"worker died (exitcode {exitcode})", "", now,
                )
            else:
                _log.warning("idle worker died exitcode=%s", exitcode)
            self._respawn(now)

    def _enforce_deadlines(self, tasks, pending, results, on_result, now) -> None:
        for worker in list(self._workers):
            if worker.current is None or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            attempt = worker.current
            task = tasks[attempt.index]
            _log.warning(
                "task deadline exceeded key=%s attempt=%d timeout=%.1fs; "
                "terminating worker",
                task.key, attempt.number, now - worker.started_at,
            )
            metrics().counter("pool.timeouts").inc()
            self._finish_attempt(worker, attempt, now)
            self._workers.remove(worker)
            worker.child.kill()
            self._record_failure(
                tasks, pending, results, on_result, attempt,
                "task deadline exceeded", "", now,
            )
            self._respawn(now)

    def _dispatch(self, tasks, pending, results, on_result, now) -> None:
        for worker in self._workers:
            if worker.current is not None:
                continue
            if not pending or pending[0].eligible_at > now:
                break
            attempt = heapq.heappop(pending)
            task = tasks[attempt.index]
            try:
                worker.child.send(
                    (attempt.index, attempt.number, task.fn, task.args, task.kwargs)
                )
            except OSError:
                # The worker's pipe is gone: it died between reaping cycles.
                # Put the attempt back; the death is handled next cycle.
                heapq.heappush(pending, attempt)
                break
            except Exception as exc:  # unpicklable task: deterministic, no retry
                self._resolve(
                    results,
                    TaskResult(
                        index=attempt.index, key=task.key, ok=False,
                        error=f"unserializable task ({type(exc).__name__}: {exc})",
                        attempts=attempt.number,
                    ),
                    on_result,
                )
                continue
            timeout = task.timeout_s or self.config.task_timeout_s
            worker.current = attempt
            worker.started_at = now
            worker.deadline = None if timeout is None else now + timeout

    def _collect(self, tasks, pending, results, on_result) -> None:
        conns = [w.child.conn for w in self._workers]
        try:
            ready = mp_connection.wait(conns, timeout=_POLL_INTERVAL_S)
        except OSError:  # a connection died mid-wait; reaped next cycle
            return
        for conn in ready:
            worker = next((w for w in self._workers if w.child.conn is conn), None)
            if worker is None:
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                continue  # worker death; reaped next cycle
            index, number, ok, value, error, trace, elapsed = message
            attempt = worker.current
            now = time.monotonic()
            if attempt is None or attempt.index != index:
                continue  # stale result from a superseded attempt
            self._finish_attempt(worker, attempt, now)
            if ok:
                result = TaskResult(
                    index=index, key=tasks[index].key, ok=True, value=value,
                    attempts=number, wall_time_s=elapsed,
                )
                self._resolve(results, result, on_result)
            else:
                self._record_failure(
                    tasks, pending, results, on_result, attempt, error, trace, now,
                )

    # -- bookkeeping ---------------------------------------------------
    def _finish_attempt(self, worker: "_Worker", attempt: "_Attempt", now: float) -> None:
        started = worker.started_at
        worker.current = None
        worker.deadline = None
        # Parent-side attempt span: dispatch -> terminal/collected.
        tel = telemetry()
        if tel.enabled:
            wall_ns = time.perf_counter_ns()
            start_ns = wall_ns - max(0, int((now - started) * 1e9))
            tel.record_span(
                "pool.attempt", start_ns, wall_ns,
                task=attempt.index, attempt=attempt.number,
            )

    def _record_failure(
        self, tasks, pending, results, on_result, attempt, error, trace, now
    ) -> None:
        task = tasks[attempt.index]
        next_number = attempt.number + 1
        if self.config.retry.retries_remaining(next_number):
            delay = self.config.retry.delay_s(attempt.number, seed=attempt.index)
            metrics().counter("pool.retries").inc()
            _log.warning(
                "retrying task key=%s attempt=%d/%d delay=%.3fs error=%s",
                task.key, next_number, self.config.retry.max_attempts, delay, error,
            )
            heapq.heappush(pending, _Attempt(attempt.index, next_number, now + delay))
            return
        result = TaskResult(
            index=attempt.index, key=task.key, ok=False,
            error=error, traceback=trace, attempts=attempt.number,
        )
        self._resolve(results, result, on_result)

    def _resolve(
        self,
        results: "dict[int, TaskResult]",
        result: TaskResult,
        on_result: "Callable[[TaskResult], None] | None",
    ) -> None:
        if result.index in results:
            return
        results[result.index] = result
        name = "pool.tasks_completed" if result.ok else "pool.tasks_failed"
        metrics().counter(name).inc()
        if on_result is not None:
            on_result(result)

    def _respawn(self, now: float) -> None:
        if self._respawn_budget <= 0:
            _log.warning("worker respawn budget exhausted")
            return
        self._respawn_budget -= 1
        worker = self._spawn_worker()
        if worker is not None:
            self._workers.append(worker)
        metrics().gauge("pool.workers").set(len(self._workers))

    # ------------------------------------------------------------------
    # Serial fallback
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        tasks: "list[PoolTask]",
        results: "dict[int, TaskResult]",
        on_result: "Callable[[TaskResult], None] | None",
    ) -> "list[TaskResult]":
        """In-process execution with identical retry/result semantics.

        Deadlines cannot preempt a same-process task, so ``task_timeout_s``
        is advisory here: overruns are logged after the fact.
        """
        policy = self.config.retry
        for index, task in enumerate(tasks):
            if index in results:
                continue
            attempts = 0
            start = time.perf_counter()
            while True:
                attempts += 1
                try:
                    value = task.fn(*task.args, **task.kwargs)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    if policy.retries_remaining(attempts + 1):
                        delay = policy.delay_s(attempts, seed=index)
                        metrics().counter("pool.retries").inc()
                        _log.warning(
                            "retrying task key=%s attempt=%d/%d delay=%.3fs "
                            "error=%s: %s",
                            task.key, attempts + 1, policy.max_attempts, delay,
                            type(exc).__name__, exc,
                        )
                        if delay > 0.0:
                            time.sleep(delay)
                        continue
                    result = TaskResult(
                        index=index, key=task.key, ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                        traceback=traceback.format_exc(),
                        attempts=attempts,
                        wall_time_s=time.perf_counter() - start,
                    )
                    break
                elapsed = time.perf_counter() - start
                timeout = task.timeout_s or self.config.task_timeout_s
                if timeout is not None and elapsed > timeout:
                    _log.warning(
                        "serial task overran its deadline key=%s %.1fs > %.1fs",
                        task.key, elapsed, timeout,
                    )
                result = TaskResult(
                    index=index, key=task.key, ok=True, value=value,
                    attempts=attempts, wall_time_s=elapsed,
                )
                break
            results[index] = result
            name = "pool.tasks_completed" if result.ok else "pool.tasks_failed"
            metrics().counter(name).inc()
            if on_result is not None:
                on_result(result)
        return [results[index] for index in range(len(tasks))]


def run_tasks(
    tasks: "list[PoolTask]",
    config: "PoolConfig | None" = None,
    on_result: "Callable[[TaskResult], None] | None" = None,
) -> "list[TaskResult]":
    """One-shot convenience: run ``tasks`` under a fresh pool."""
    with WorkerPool(config) as pool:
        return pool.run(tasks, on_result=on_result)
