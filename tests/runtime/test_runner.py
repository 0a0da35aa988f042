"""``run all``'s front-end over the sweep engine, and its failure report."""

import itertools

import pytest

import repro.cli as cli
from repro.runtime.backoff import RetryPolicy
from repro.runtime.pool import PoolConfig
from repro.runtime.runner import sweep_experiments
from repro.runtime.telemetry import span, telemetry

#: Serial, no retries: a failing stub fails on its first attempt.
NO_RETRY = PoolConfig(workers=1, retry=RetryPolicy(max_attempts=1))


@pytest.fixture()
def sweep(tmp_path):
    """``sweep_experiments`` with a fresh journal per call."""
    counter = itertools.count()

    def run(experiments, **kwargs):
        kwargs.setdefault("pool_config", NO_RETRY)
        kwargs.setdefault("emit", lambda _: None)
        journal = tmp_path / f"journal-{next(counter)}.jsonl"
        return sweep_experiments(experiments, journal, **kwargs)

    return run


def _jobs(executed):
    def ok_a():
        executed.append("a")
        return "result-a"

    def bad():
        executed.append("bad")
        raise RuntimeError("injected failure")

    def ok_b():
        executed.append("b")
        return "result-b"

    return [
        ("expa", "first experiment", ok_a, ()),
        ("expbad", "failing experiment", bad, ()),
        ("expb", "last experiment", ok_b, ()),
    ]


def test_isolated_sweep_continues_past_failures(sweep):
    executed = []
    lines = []
    report = sweep(_jobs(executed), emit=lines.append)
    assert executed == ["a", "bad", "b"]  # everything ran despite the crash
    assert [o.name for o in report.outcomes] == ["expa", "expbad", "expb"]
    assert [o.ok for o in report.outcomes] == [True, False, True]
    assert report.num_failed == 1
    assert not report.all_ok
    assert "result-a" in lines and "result-b" in lines
    assert "=== expbad: failing experiment ===" in lines


def test_failure_report_names_failure_with_traceback(sweep):
    report = sweep(_jobs([]))
    failed = report.failed
    assert len(failed) == 1
    assert failed[0].name == "expbad"
    assert "RuntimeError: injected failure" in failed[0].error
    assert "Traceback" in failed[0].traceback
    assert "injected failure" in failed[0].traceback
    formatted = report.format()
    assert "2/3 experiments succeeded" in formatted
    assert "FAILED expbad" in formatted
    assert "injected failure" in formatted


def test_outcomes_record_wall_time(sweep):
    report = sweep(_jobs([]))
    assert all(o.wall_time_s >= 0.0 for o in report.outcomes)


def test_failing_experiment_retried_under_default_policy(sweep):
    executed = []
    report = sweep(_jobs(executed), pool_config=PoolConfig(workers=1))
    assert executed.count("bad") == PoolConfig().retry.max_attempts
    assert [o.ok for o in report.outcomes] == [True, False, True]


def test_all_ok_report(sweep):
    report = sweep([("one", "only", lambda: "fine", ())])
    assert report.all_ok
    assert not report.interrupted
    assert "1/1 experiments succeeded" in report.format()


def test_stage_seconds_empty_while_tracing_disabled(sweep):
    report = sweep([("one", "only", lambda: "fine", ())])
    assert report.outcomes[0].stage_seconds == {}


def test_stage_breakdown_from_spans_when_tracing_enabled(sweep):
    telemetry().enable()

    def staged():
        with span("stage.example"):
            sum(range(10_000))
        return "done"

    report = sweep([("one", "staged experiment", staged, ())])
    stage_seconds = report.outcomes[0].stage_seconds
    assert "stage.example" in stage_seconds
    assert stage_seconds["stage.example"] > 0.0
    # experiment.* spans duplicate the wall time and are excluded.
    assert not any(name.startswith("experiment.") for name in stage_seconds)
    assert "spans: stage.example=" in report.format()
    # ... but every experiment still ran inside its forced span.
    assert "experiment.one" in telemetry().aggregate()


def test_stage_breakdown_is_per_experiment(sweep):
    telemetry().enable()

    def first():
        with span("stage.shared"):
            pass
        return "one"

    def second():
        with span("stage.other"):
            pass
        return "two"

    report = sweep([("a", "first", first, ()), ("b", "second", second, ())])
    assert "stage.shared" in report.outcomes[0].stage_seconds
    assert "stage.shared" not in report.outcomes[1].stage_seconds
    assert "stage.other" in report.outcomes[1].stage_seconds


def test_failed_experiment_keeps_its_stage_breakdown(sweep):
    telemetry().enable()

    def staged_failure():
        with span("stage.before_crash"):
            pass
        raise RuntimeError("late failure")

    report = sweep([("x", "fails after a stage", staged_failure, ())])
    assert not report.outcomes[0].ok
    assert "stage.before_crash" in report.outcomes[0].stage_seconds


def test_resume_replays_journaled_experiments(tmp_path):
    journal = tmp_path / "journal.jsonl"
    executed = []
    sweep_experiments(
        _jobs(executed), journal, pool_config=NO_RETRY, emit=lambda _: None
    )
    lines = []
    report = sweep_experiments(
        _jobs(executed), journal, pool_config=NO_RETRY, resume=True,
        emit=lines.append,
    )
    # Only the failed experiment re-ran; the finished ones were replayed.
    assert executed == ["a", "bad", "b", "bad"]
    assert [(o.name, o.resumed) for o in report.outcomes] == [
        ("expa", True), ("expb", True), ("expbad", False),
    ]
    assert any("expa resumed from journal" in line for line in lines)


def test_serial_run_all_builds_one_shared_context(monkeypatch, tmp_path):
    """fig8-fig13 reuse one context's caches: serial ``run all`` must not
    build a context per experiment."""
    built = []

    class CountingContext(cli.ExperimentContext):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    seen = []

    def runner(ctx):
        seen.append(ctx)
        return "rows"

    monkeypatch.setattr(cli, "ExperimentContext", CountingContext)
    monkeypatch.setattr(
        cli, "EXPERIMENTS", {name: (name, runner) for name in ("s1", "s2", "s3")}
    )
    assert cli.main([
        "-q", "run", "all", "--no-cache",
        "--journal", str(tmp_path / "j.jsonl"),
        "--runs-dir", str(tmp_path / "runs"),
    ]) == 0
    assert len(built) == 1
    assert seen == built * 3
