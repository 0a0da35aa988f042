"""Repro dashboard: a read-only control plane over emitted artifacts.

The pipeline and serving stacks emit schema-versioned artifacts — run
records under ``runs/``, sweep journals, and a live server's
fleet-merged ``GET /metrics`` — that would otherwise have to be read
from JSON by hand.  ``repro dashboard`` fronts them with a small stdlib
HTTP app (the same ``ThreadingHTTPServer`` style as
:mod:`repro.serve.http`, zero new dependencies):

``repro.dashboard.data``
    Pure read-side indexing: the runs directory, campaign cell
    matrices, sweep-journal tailing, and the fleet ``/metrics`` proxy.
``repro.dashboard.server``
    The HTTP app: ``GET /`` (a tiny self-refreshing HTML page) plus the
    ``/api/*`` JSON endpoints the page — or ``curl`` — consumes.
``repro.dashboard.cli``
    The ``repro dashboard`` verb wiring.
"""

from .data import DashboardData
from .server import DashboardServer, build_dashboard_server

__all__ = [
    "DashboardData",
    "DashboardServer",
    "build_dashboard_server",
]
