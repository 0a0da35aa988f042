"""WorkerPool: crash isolation, deadlines, retries, determinism, degrade."""

import numpy as np
import pytest

from repro.runtime.backoff import RetryPolicy
from repro.runtime.faults import CrashingTask, FlakyTask, HangingTask
from repro.runtime.pool import (
    PoolConfig,
    PoolTask,
    WorkerPool,
    derive_task_seed,
    run_tasks,
)
from repro.runtime.telemetry import metrics, telemetry

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="pool tests assume the fork start method",
)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05, jitter=0.0)


def _square(value):
    return value * value


def _echo_rng(campaign_seed, task_index):
    rng = np.random.default_rng(derive_task_seed(campaign_seed, task_index))
    return rng.random(4).tolist()


def _boom():
    raise RuntimeError("task exploded")


class TestDeriveTaskSeed:
    def test_deterministic(self):
        a = np.random.default_rng(derive_task_seed(7, 3)).random(8)
        b = np.random.default_rng(derive_task_seed(7, 3)).random(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_per_task_and_campaign(self):
        draws = {
            tuple(np.random.default_rng(derive_task_seed(seed, index)).random(4))
            for seed in (0, 1)
            for index in range(4)
        }
        assert len(draws) == 8


class TestPoolBasics:
    def test_results_are_index_ordered(self):
        tasks = [PoolTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(6)]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert [r.value for r in results] == [i * i for i in range(6)]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_empty_task_list(self):
        assert run_tasks([], PoolConfig(workers=2)) == []

    def test_serial_path_when_single_worker(self):
        tasks = [PoolTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(3)]
        results = run_tasks(tasks, PoolConfig(workers=1, retry=FAST_RETRY))
        assert [r.value for r in results] == [0, 1, 4]

    def test_parallel_rng_matches_serial(self):
        tasks = [
            PoolTask(key=f"t{i}", fn=_echo_rng, args=(11, i)) for i in range(5)
        ]
        serial = run_tasks(tasks, PoolConfig(workers=1, retry=FAST_RETRY))
        parallel = run_tasks(tasks, PoolConfig(workers=3, retry=FAST_RETRY))
        assert [r.value for r in serial] == [r.value for r in parallel]

    def test_on_result_sees_every_terminal_outcome(self):
        seen = []
        tasks = [PoolTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(4)]
        run_tasks(
            tasks, PoolConfig(workers=2, retry=FAST_RETRY),
            on_result=lambda r: seen.append(r.key),
        )
        assert sorted(seen) == [f"t{i}" for i in range(4)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(workers=0)
        with pytest.raises(ValueError):
            PoolConfig(task_timeout_s=0.0)


class TestCrashIsolation:
    def test_crashed_task_is_retried_on_fresh_worker(self, tmp_path):
        metrics().reset()
        crash = CrashingTask(str(tmp_path / "counter"), crash_attempts=1)
        tasks = [
            PoolTask(key="crashy", fn=crash),
            PoolTask(key="ok", fn=_square, args=(3,)),
        ]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert results[0].ok and results[0].value == "survived"
        assert results[0].attempts == 2
        assert results[1].ok and results[1].value == 9
        assert metrics().counter("pool.worker_deaths").value >= 1
        assert metrics().counter("pool.retries").value >= 1

    def test_persistent_crasher_fails_without_killing_sweep(self, tmp_path):
        metrics().reset()
        crash = CrashingTask(str(tmp_path / "counter"), crash_attempts=99)
        tasks = [
            PoolTask(key="doomed", fn=crash),
            PoolTask(key="ok", fn=_square, args=(4,)),
        ]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert not results[0].ok
        assert "worker died" in results[0].error
        assert results[0].attempts == FAST_RETRY.max_attempts
        assert results[1].ok and results[1].value == 16
        assert metrics().counter("pool.tasks_failed").value == 1
        assert metrics().counter("pool.tasks_completed").value == 1


class TestDeadlines:
    def test_hanging_task_is_killed_and_retried(self, tmp_path):
        metrics().reset()
        hang = HangingTask(str(tmp_path / "counter"), hang_attempts=1, hang_s=60.0)
        tasks = [PoolTask(key="hangy", fn=hang)]
        results = run_tasks(
            tasks,
            PoolConfig(workers=2, task_timeout_s=0.5, retry=FAST_RETRY),
        )
        assert results[0].ok and results[0].value == "survived"
        assert results[0].attempts == 2
        assert metrics().counter("pool.timeouts").value >= 1

    def test_per_task_timeout_overrides_pool_default(self, tmp_path):
        hang = HangingTask(str(tmp_path / "counter"), hang_attempts=99, hang_s=60.0)
        tasks = [PoolTask(key="hangy", fn=hang, timeout_s=0.3)]
        results = run_tasks(
            tasks,
            PoolConfig(
                workers=2,
                task_timeout_s=120.0,
                retry=RetryPolicy(max_attempts=1),
            ),
        )
        assert not results[0].ok
        assert "deadline" in results[0].error


class TestRetries:
    def test_flaky_exception_recovers_in_place(self, tmp_path):
        flaky = FlakyTask(str(tmp_path / "counter"), fail_attempts=1)
        results = run_tasks(
            [PoolTask(key="flaky", fn=flaky)],
            PoolConfig(workers=2, retry=FAST_RETRY),
        )
        assert results[0].ok and results[0].attempts == 2

    def test_exhausted_retries_keep_last_error(self, tmp_path):
        results = run_tasks(
            [PoolTask(key="boom", fn=_boom)],
            PoolConfig(workers=2, retry=FAST_RETRY),
        )
        assert not results[0].ok
        assert "task exploded" in results[0].error
        assert "RuntimeError" in results[0].traceback
        assert results[0].attempts == FAST_RETRY.max_attempts

    def test_serial_path_retries_identically(self, tmp_path):
        flaky = FlakyTask(str(tmp_path / "counter"), fail_attempts=2)
        results = run_tasks(
            [PoolTask(key="flaky", fn=flaky)],
            PoolConfig(workers=1, retry=FAST_RETRY),
        )
        assert results[0].ok and results[0].attempts == 3


class TestDegradation:
    def test_failed_pool_start_degrades_to_serial(self, monkeypatch):
        metrics().reset()
        monkeypatch.setattr(WorkerPool, "_spawn_worker", lambda self: None)
        tasks = [PoolTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(3)]
        results = run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
        assert [r.value for r in results] == [0, 1, 4]
        assert metrics().counter("pool.degraded").value == 1


class TestTelemetry:
    def test_attempt_spans_recorded(self):
        tel = telemetry()
        tel.reset()
        tel.enable()
        try:
            tasks = [PoolTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(3)]
            run_tasks(tasks, PoolConfig(workers=2, retry=FAST_RETRY))
            aggregate = tel.aggregate()
        finally:
            tel.disable()
        assert aggregate["pool.attempt"]["count"] == 3
