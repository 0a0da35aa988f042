"""Dashboard HTTP app: routes, query handling, error mapping, CLI wiring."""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.dashboard.server import build_dashboard_server
from repro.runtime.records import RunRecord, write_run_record


def _get(url, path):
    try:
        with urllib.request.urlopen(f"{url}{path}", timeout=10) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


@pytest.fixture()
def dashboard(tmp_path):
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    write_run_record(
        RunRecord(name="fig7", timestamp="20260101T000000",
                  outcome={"status": "ok"}),
        runs_dir,
    )
    journal = tmp_path / "journal.jsonl"
    journal.write_text(json.dumps({"key": "fig7", "status": "done"}) + "\n")
    server = build_dashboard_server(
        port=0, runs_dir=runs_dir, journal_path=journal
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with server:
            yield server
            server.shutdown()
    finally:
        thread.join(timeout=5)


def test_landing_page_is_html(dashboard):
    with urllib.request.urlopen(dashboard.url + "/", timeout=10) as response:
        assert response.status == 200
        assert "text/html" in response.headers["Content-Type"]
        assert b"repro dashboard" in response.read()


def test_api_index(dashboard):
    status, body = _get(dashboard.url, "/api/index")
    assert status == 200
    assert body["run_count"] == 1


def test_api_runs_listing_and_detail(dashboard):
    status, body = _get(dashboard.url, "/api/runs?last=5")
    assert status == 200
    assert [r["name"] for r in body["runs"]] == ["fig7"]
    status, detail = _get(dashboard.url, f"/api/runs/{body['runs'][0]['file']}")
    assert status == 200
    assert detail["name"] == "fig7"
    status, error = _get(dashboard.url, "/api/runs/absent.json")
    assert status == 404
    assert error["error"]["type"] == "NotFound"


def test_api_runs_rejects_bad_query(dashboard):
    status, body = _get(dashboard.url, "/api/runs?last=banana")
    assert status == 400
    assert body["error"]["type"] == "ValidationError"
    status, body = _get(dashboard.url, "/api/runs?last=-1")
    assert status == 400


def test_api_journal(dashboard):
    status, body = _get(dashboard.url, "/api/journal")
    assert status == 200
    assert body["done"] == 1 and body["next_offset"] == 1
    status, body = _get(dashboard.url, "/api/journal?offset=1")
    assert status == 200
    assert body["entries"] == []


def test_api_fleet_without_server_is_503(dashboard):
    status, body = _get(dashboard.url, "/api/fleet")
    assert status == 503
    assert body["error"]["type"] == "FleetUnavailable"


def test_unknown_route_is_404(dashboard):
    status, body = _get(dashboard.url, "/api/unknown")
    assert status == 404
    assert body["error"]["type"] == "NotFound"


class _StubMetricsHandler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_GET(self):  # noqa: N802
        body = json.dumps(
            {"serve.predictions_total": {"type": "counter", "value": 7}}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_api_fleet_proxies_live_metrics(tmp_path):
    stub = ThreadingHTTPServer(("127.0.0.1", 0), _StubMetricsHandler)
    stub_thread = threading.Thread(target=stub.serve_forever, daemon=True)
    stub_thread.start()
    server = build_dashboard_server(
        port=0,
        runs_dir=tmp_path,
        server_url=f"http://127.0.0.1:{stub.server_address[1]}",
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        status, body = _get(server.url, "/api/fleet")
        assert status == 200
        assert body["metrics"]["serve.predictions_total"]["value"] == 7
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        stub.shutdown()
        stub.server_close()
        stub_thread.join(timeout=5)


def test_cli_registers_dashboard_verb():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args([
        "dashboard", "--port", "0", "--runs-dir", "runs",
        "--server-url", "http://127.0.0.1:8077",
    ])
    assert args.command == "dashboard"
    assert args.port == 0
    assert args.server_url == "http://127.0.0.1:8077"


def test_dashboard_cli_subprocess_exits_cleanly_on_sigterm(tmp_path):
    """`repro dashboard` as a real process: prints its URL, answers
    requests, exits 0 on SIGTERM."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "dashboard",
         "--runs-dir", str(tmp_path), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        line = ""
        deadline = time.time() + 60
        while time.time() < deadline:
            line = process.stdout.readline()
            if "dashboard at" in line:
                break
        assert "dashboard at" in line, line
        url = line.strip().rsplit(" at ", 1)[1]
        status, body = _get(url, "/api/index")
        assert status == 200
        assert body["run_count"] == 0
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
