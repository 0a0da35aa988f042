"""One child process behind a pipe: the mechanism under the pool and the fleet.

:mod:`repro.runtime.pool` (experiment and sample sweeps) and
:mod:`repro.serve.fleet` (engine replicas) both run their work in daemon
child processes they drive over a duplex pipe.  :class:`ChildProcess` is
that mechanism and nothing else: spawn, send, liveness, polite stop and
hard kill.  Policy — what goes over the pipe, when a child counts as
dead, when and how often to replace it — stays with each caller.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Callable

__all__ = ["ChildProcess", "START_METHOD"]

#: ``fork`` where the platform has it (cheap, inherits loaded modules),
#: else ``spawn``.
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)
_CONTEXT = multiprocessing.get_context(START_METHOD)

#: How long :meth:`ChildProcess.stop` / :meth:`ChildProcess.kill` wait for
#: the child to exit before escalating.
_JOIN_TIMEOUT_S = 2.0


class ChildProcess:
    """A started daemon process plus the parent's end of its pipe.

    The child runs ``target(conn, *args)`` with its own pipe end, and is
    expected to stop when it receives ``None``.  Construction raises
    ``OSError`` when the pipe or the process cannot be created.
    """

    def __init__(self, target: Callable, args: tuple = (), name: "str | None" = None):
        parent_conn, child_conn = _CONTEXT.Pipe()
        self.conn = parent_conn
        self._send_lock = threading.Lock()
        self._process = _CONTEXT.Process(
            target=target, args=(child_conn, *args), name=name, daemon=True
        )
        try:
            self._process.start()
        except BaseException:
            parent_conn.close()
            raise
        finally:
            child_conn.close()

    @property
    def pid(self) -> "int | None":
        return self._process.pid

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    @property
    def exitcode(self) -> "int | None":
        return self._process.exitcode

    def send(self, message) -> None:
        """Send one message; raises ``OSError``/``ValueError`` once the pipe is gone."""
        with self._send_lock:
            self.conn.send(message)

    def stop(self) -> None:
        """Polite shutdown: the ``None`` sentinel, a bounded join, then :meth:`kill`."""
        try:
            self.send(None)
        except (OSError, ValueError):
            pass
        self._process.join(timeout=_JOIN_TIMEOUT_S)
        self.kill()

    def kill(self) -> None:
        """Terminate the child if it still runs, reap it, close the pipe."""
        try:
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=_JOIN_TIMEOUT_S)
                if self._process.is_alive():  # SIGTERM ignored
                    self._process.kill()
                    self._process.join(timeout=_JOIN_TIMEOUT_S)
        finally:
            self.conn.close()
