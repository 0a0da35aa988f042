"""The sweep engine: resume, journaling, interrupts, stop criterion, one pool."""

import json
import multiprocessing
import os
import signal

import pytest

from repro.campaigns import CampaignRunner, parse_campaign
from repro.campaigns import runner as campaign_runner
from repro.runtime import sweep as sweep_module
from repro.runtime.backoff import RetryPolicy
from repro.runtime.errors import JournalError
from repro.runtime.pool import PoolConfig, PoolTask
from repro.runtime.sweep import run_sweep

SERIAL = PoolConfig(workers=1, retry=RetryPolicy(max_attempts=1))
FINGERPRINT = {"sweep": "test"}


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _tasks(fn, n):
    return [PoolTask(key=f"t{i}", fn=fn, args=(i,)) for i in range(n)]


def _journal_entries(path):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["campaign"] == FINGERPRINT
    return lines[1:]


def _payload(result):
    return {"value": result.value}


def test_every_outcome_journaled_as_it_lands(tmp_path):
    journal = tmp_path / "j.jsonl"
    tasks = _tasks(_square, 3) + [PoolTask(key="bad", fn=_boom, args=(9,))]
    seen = []
    report = run_sweep(
        tasks, journal, FINGERPRINT, SERIAL, payload=_payload,
        on_outcome=lambda outcome: seen.append(
            (outcome.key, len(_journal_entries(journal)))
        ),
    )
    assert [o.key for o in report.outcomes] == ["t0", "t1", "t2", "bad"]
    assert [o.value for o in report.outcomes] == [0, 1, 4, None]
    assert "RuntimeError: boom 9" in report.outcomes[-1].error
    assert "Traceback" in report.outcomes[-1].traceback
    # Each outcome was on disk before the observer saw it.
    assert seen == [("t0", 1), ("t1", 2), ("t2", 3), ("bad", 4)]
    entries = _journal_entries(journal)
    assert [e["status"] for e in entries] == ["done"] * 3 + ["failed"]
    assert entries[2]["payload"] == {"value": 4}
    assert report.outcomes[2].payload == {"value": 4}
    assert report.undispatched == []
    assert not report.interrupted and not report.stopped


def test_resume_replays_done_keys_and_reruns_failed(tmp_path):
    journal = tmp_path / "j.jsonl"
    tasks = _tasks(_square, 2) + [PoolTask(key="bad", fn=_boom, args=(0,))]
    run_sweep(tasks, journal, FINGERPRINT, SERIAL, payload=_payload)

    healed = _tasks(_boom, 2) + [PoolTask(key="bad", fn=_square, args=(5,))]
    report = run_sweep(
        healed, journal, FINGERPRINT, SERIAL, resume=True, payload=_payload
    )
    by_key = {o.key: o for o in report.outcomes}
    assert [o.key for o in report.outcomes] == ["t0", "t1", "bad"]
    assert by_key["t1"].resumed and by_key["t1"].ok
    assert by_key["t1"].payload == {"value": 1}  # replayed, not re-run
    assert not by_key["bad"].resumed and by_key["bad"].value == 25


def test_resume_refuses_other_fingerprint_before_running(tmp_path):
    journal = tmp_path / "j.jsonl"
    run_sweep(_tasks(_square, 1), journal, FINGERPRINT, SERIAL)
    with pytest.raises(JournalError):
        run_sweep(
            _tasks(_boom, 1), journal, {"sweep": "other"}, SERIAL, resume=True
        )


def test_keyboard_interrupt_ends_sweep_as_interrupted(tmp_path):
    journal = tmp_path / "j.jsonl"

    def interrupt():
        raise KeyboardInterrupt

    tasks = _tasks(_square, 2) + [PoolTask(key="stop", fn=interrupt)] \
        + [PoolTask(key="later", fn=_square, args=(3,))]
    report = run_sweep(tasks, journal, FINGERPRINT, SERIAL)
    assert report.interrupted
    assert [o.key for o in report.outcomes] == ["t0", "t1"]
    assert report.undispatched == ["stop", "later"]
    assert [e["key"] for e in _journal_entries(journal)] == ["t0", "t1"]


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_signal_becomes_interrupt_and_handlers_are_restored(tmp_path, signum):
    before = signal.getsignal(signum)

    def signal_self(x):
        os.kill(os.getpid(), signum)
        return x

    tasks = [PoolTask(key="first", fn=_square, args=(2,)),
             PoolTask(key="signalled", fn=signal_self, args=(1,)),
             PoolTask(key="never", fn=_square, args=(3,))]
    report = run_sweep(tasks, tmp_path / "j.jsonl", FINGERPRINT, SERIAL)
    assert report.interrupted
    assert [o.key for o in report.outcomes] == ["first"]
    assert report.undispatched == ["signalled", "never"]
    assert signal.getsignal(signum) is before


def test_max_failures_dispatches_in_waves_and_stops(tmp_path):
    report = run_sweep(
        _tasks(_boom, 7), tmp_path / "j.jsonl", FINGERPRINT, SERIAL,
        max_failures=1,
    )
    # workers=1 -> waves of 2: the first wave runs, then dispatch stops.
    assert report.stopped
    assert [o.key for o in report.outcomes] == ["t0", "t1"]
    assert report.undispatched == ["t2", "t3", "t4", "t5", "t6"]


class _CountingPool(sweep_module.WorkerPool):
    created = 0
    runs = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)

    def run(self, *args, **kwargs):
        type(self).runs += 1
        return super().run(*args, **kwargs)


@pytest.fixture()
def counting_pool(monkeypatch):
    monkeypatch.setattr(_CountingPool, "created", 0)
    monkeypatch.setattr(_CountingPool, "runs", 0)
    monkeypatch.setattr(sweep_module, "WorkerPool", _CountingPool)
    return _CountingPool


def test_campaign_without_stop_criterion_uses_one_pool(
    tmp_path, monkeypatch, counting_pool
):
    monkeypatch.setitem(
        campaign_runner.CELL_RUNNERS, "sec6d",
        lambda ctx: {"metrics": {"seed": ctx.seed}},
    )
    config = parse_campaign(
        {"campaign": "one-pool", "experiment": "sec6d", "seeds": [0, 1, 2, 3, 4]}
    )
    outcome = CampaignRunner(config, runs_dir=tmp_path, pool_config=SERIAL).run()
    assert outcome.all_ok
    assert counting_pool.created == 1
    assert counting_pool.runs == 1  # no wave barrier


def test_stop_criterion_reuses_the_one_pool_across_waves(tmp_path, counting_pool):
    run_sweep(
        _tasks(_square, 5), tmp_path / "j.jsonl", FINGERPRINT, SERIAL,
        max_failures=1,
    )
    assert counting_pool.created == 1
    assert counting_pool.runs == 3  # waves of 2, 2, 1


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker processes use the fork start method",
)
def test_parallel_sweep_journals_worker_outcomes(tmp_path):
    journal = tmp_path / "j.jsonl"
    config = PoolConfig(
        workers=2, start_method="fork", retry=RetryPolicy(max_attempts=1)
    )
    tasks = _tasks(_square, 4) + [PoolTask(key="bad", fn=_boom, args=(1,))]
    report = run_sweep(tasks, journal, FINGERPRINT, config, payload=_payload)
    by_key = {o.key: o for o in report.outcomes}
    assert {key: o.value for key, o in by_key.items() if o.ok} == {
        "t0": 0, "t1": 1, "t2": 4, "t3": 9,
    }
    assert not by_key["bad"].ok
    statuses = {e["key"]: e["status"] for e in _journal_entries(journal)}
    assert statuses == {
        "t0": "done", "t1": "done", "t2": "done", "t3": "done", "bad": "failed",
    }
