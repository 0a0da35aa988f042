"""The ``repro dashboard`` verb.

Kept separate from ``repro.cli`` for the same reason as
:mod:`repro.serve.cli`: that module registers the subparser and
dispatches here, keeping the experiment CLI readable.
"""

from __future__ import annotations

import argparse

from ..runtime.logging import get_logger
from ..runtime.sweep import signals_raise_interrupt
from .server import build_dashboard_server

_log = get_logger("dashboard.cli")


def add_dashboard_arguments(subparsers) -> None:
    """Register the ``dashboard`` subparser."""
    dashboard = subparsers.add_parser(
        "dashboard",
        help="serve a read-only web view of run records, campaigns, "
        "sweep journals, and live fleet metrics",
    )
    dashboard.add_argument("--host", default="127.0.0.1")
    dashboard.add_argument("--port", type=int, default=8078,
                           help="0 binds an ephemeral port "
                           "(printed at startup)")
    dashboard.add_argument("--runs-dir", metavar="DIR", default=None,
                           help="run-record directory "
                           "(default runs/, or REPRO_RUNS_DIR)")
    dashboard.add_argument("--journal", metavar="PATH", default=None,
                           help="sweep journal to tail at /api/journal "
                           "(default: <runs-dir>/sweep-journal.jsonl)")
    dashboard.add_argument("--server-url", metavar="URL", default=None,
                           help="running `repro serve` instance whose "
                           "fleet metrics /api/fleet proxies")


def run_dashboard(args: argparse.Namespace, log) -> int:
    journal = args.journal
    if journal is None:
        from ..runtime.records import default_runs_dir

        runs_dir = args.runs_dir or default_runs_dir()
        journal = str(runs_dir) + "/sweep-journal.jsonl"
    server = build_dashboard_server(
        host=args.host,
        port=args.port,
        runs_dir=args.runs_dir,
        journal_path=journal,
        server_url=args.server_url,
    )
    with signals_raise_interrupt(), server:
        index = server.data.index()
        log.info(
            "dashboard sees %d run records in %s",
            index["run_count"], index["runs_dir"],
        )
        print(f"dashboard at {server.url}", flush=True)
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            log.info("dashboard shutting down")
    return 0
