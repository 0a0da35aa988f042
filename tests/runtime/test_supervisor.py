"""The child-process handle under the worker pool and the replica fleet."""

import os
import signal
import time

import pytest

from repro.runtime import supervisor
from repro.runtime.supervisor import START_METHOD, ChildProcess


def _echo(conn) -> None:
    """Echo messages back until the ``None`` sentinel."""
    while True:
        message = conn.recv()
        if message is None:
            return
        conn.send(message)


def _stubborn(conn) -> None:
    """Ignore the sentinel and SIGTERM; only SIGKILL ends this child."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    while True:
        time.sleep(0.05)


def _exit_with(conn, code: int) -> None:
    os._exit(code)


def _wait_dead(child: ChildProcess, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while child.alive and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not child.alive


def test_start_method_prefers_fork():
    assert START_METHOD in ("fork", "spawn")
    if hasattr(os, "fork"):
        assert START_METHOD == "fork"


def test_round_trip_and_polite_stop():
    child = ChildProcess(_echo, name="test-echo")
    assert child.pid not in (None, os.getpid())
    assert child.alive
    child.send(("ping", 1))
    assert child.conn.recv() == ("ping", 1)
    child.stop()
    assert not child.alive
    assert child.exitcode == 0


def test_args_follow_the_pipe_end():
    child = ChildProcess(_exit_with, (7,))
    _wait_dead(child)
    assert child.exitcode == 7
    child.kill()


def test_stop_escalates_to_kill_when_the_sentinel_is_ignored(monkeypatch):
    join_timeout_s = 0.25
    monkeypatch.setattr(supervisor, "_JOIN_TIMEOUT_S", join_timeout_s)
    child = ChildProcess(_stubborn)
    try:
        assert child.conn.recv() == "ready"
        start = time.monotonic()
        child.stop()
        elapsed = time.monotonic() - start
        survived = child.alive
    finally:
        # A surviving child would hang interpreter exit: multiprocessing
        # only SIGTERMs leftover daemon children, which this one ignores.
        if child.alive:
            os.kill(child.pid, signal.SIGKILL)
    assert not survived
    assert child.exitcode == -signal.SIGKILL
    # Sentinel join, SIGTERM join, then SIGKILL: two bounded waits.
    assert elapsed < 2 * join_timeout_s + 1.0


def test_stop_and_kill_on_a_dead_child_do_not_raise():
    child = ChildProcess(_exit_with, (3,))
    _wait_dead(child)
    child.stop()
    child.kill()
    child.stop()
    assert child.exitcode == 3


def test_send_to_a_dead_child_raises_oserror():
    child = ChildProcess(_exit_with, (0,))
    _wait_dead(child)
    with pytest.raises(OSError):
        child.send(("late",))
    child.kill()
    with pytest.raises(OSError):  # closed handle
        child.send(("later",))
