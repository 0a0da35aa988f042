"""Command-line interface: run any paper experiment from the shell.

Examples::

    python -m repro list
    python -m repro run fig7 --preset fast
    python -m repro run fig8 --preset default --seed 1
    python -m repro -v run all --preset fast --report sweep-report.txt
    python -m repro run sec6d --trace trace.json --metrics metrics.jsonl
    python -m repro stats
    python -m repro campaign validate examples/campaigns/sec6d_tiny.yaml
    python -m repro campaign run examples/campaigns/sec6d_tiny.yaml --resume
    python -m repro publish --registry registry/ --preset fast --detector
    python -m repro serve --registry registry/ --port 8077
    python -m repro infer --url http://127.0.0.1:8077 --requests 50
    python -m repro dashboard --server-url http://127.0.0.1:8077

``publish``/``serve``/``infer`` are the online-serving stack (model
registry + micro-batching HTTP server + load-generating client); see
``repro.serve`` and the README's Serving section.  ``dashboard`` is the
read-only control plane over everything the other verbs emit — run
records, sweep journals, and a live server's fleet metrics (see
``repro.dashboard`` and the README's Dashboard section).  ``campaign``
runs YAML-defined experiment grids with journaled crash-safe resume (see
``repro.campaigns`` and the README's Campaigns section).

Each experiment prints the same rows/series the corresponding paper figure
shows (see EXPERIMENTS.md for the paper-vs-measured comparison).

``run all`` runs every experiment through the sweep engine
(:mod:`repro.runtime.sweep`, shared with ``campaign run``) under an
isolation boundary: one failure is retried under the pool's retry policy,
then recorded in the failure report (outcome, wall time, traceback) and
the sweep continues; the exit code turns non-zero only after the full
sweep.  ``--verbose``/``--quiet`` control the pipeline's structured logs.

``--workers N`` fans work out across a supervised process pool: whole
experiments for ``run all``, dataset-generation samples for a single
experiment.  Sweeps checkpoint every finished experiment to a journal
(``--journal``, default ``<runs-dir>/sweep-journal.jsonl``); after a
SIGINT/SIGTERM or crash, ``--resume`` skips the journaled experiments
instead of redoing them.  An interrupted sweep still flushes the journal,
writes the partial failure report and run record, and exits 130.

Every ``run`` enables span tracing and writes a run record (config, metric
snapshot, span aggregates, outcome) under ``runs/`` — ``repro stats``
pretty-prints the most recent one.  ``--trace`` additionally exports a
Chrome-tracing JSON (load it in ``chrome://tracing`` or ui.perfetto.dev)
and ``--metrics`` a JSONL snapshot of every counter/gauge/histogram.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import Callable

from .runtime.errors import JournalError
from .runtime.logging import configure_logging, get_logger
from .runtime.pool import PoolConfig
from .runtime.records import (
    RunRecord,
    default_runs_dir,
    format_run_listing,
    format_run_record,
    latest_run_record_path,
    list_run_records,
    load_run_record,
    summarize_run_record,
    write_run_record,
)
from .runtime.runner import ExperimentOutcome, FailureReport, sweep_experiments
from .runtime.telemetry import metrics, telemetry

from .campaigns.cli import add_campaign_arguments, run_campaign_command
from .dashboard.cli import add_dashboard_arguments, run_dashboard
from .serve.cli import add_serve_arguments, run_infer, run_publish, run_serve

from .eval import EXPERIMENT_TABLE, ExperimentContext, preset_by_name

#: experiment id -> (description, runner(ctx) -> printable string)
EXPERIMENTS: "dict[str, tuple[str, Callable[[ExperimentContext], str]]]" = {
    key: (description, lambda ctx, run=run, fmt=fmt: fmt(run(ctx)))
    for key, (description, run, fmt) in EXPERIMENT_TABLE.items()
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Physical Backdoor Attacks "
        "against mmWave-based Human Activity Recognition' (ICDCS 2025).",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more pipeline logs (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log pipeline errors",
    )
    parser.add_argument(
        "--log-timestamps", action="store_true",
        help="prefix log lines with wall-clock timestamps "
        "(also via REPRO_LOG_TIMESTAMPS=1)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run.add_argument("--preset", default="fast",
                     choices=["fast", "default", "paper"])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk dataset cache")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="supervised process-pool width: parallel "
                     "experiments for 'run all', parallel dataset "
                     "generation otherwise (1 = serial)")
    run.add_argument("--journal", metavar="PATH", default=None,
                     help="sweep journal path (default "
                     "<runs-dir>/sweep-journal.jsonl; 'run all' only)")
    run.add_argument("--resume", action="store_true",
                     help="skip experiments the journal already marks done")
    run.add_argument("--report", metavar="PATH", default=None,
                     help="also write the sweep failure report to PATH")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="export a Chrome-tracing JSON of all spans to PATH")
    run.add_argument("--metrics", metavar="PATH", default=None,
                     help="export a JSONL metrics snapshot to PATH")
    run.add_argument("--runs-dir", metavar="DIR", default=None,
                     help="directory for run records (default runs/, "
                     "or REPRO_RUNS_DIR)")

    stats = subparsers.add_parser(
        "stats", help="pretty-print the most recent run record "
        "(or --list the runs directory)"
    )
    stats.add_argument("--runs-dir", metavar="DIR", default=None,
                       help="directory holding run records")
    stats.add_argument("--list", action="store_true", dest="list_records",
                       help="list run records instead of printing the latest")
    stats.add_argument("--last", type=int, default=None, metavar="N",
                       help="with --list: only the newest N records")
    stats.add_argument("--status", default=None, metavar="S",
                       help="with --list: only records with this outcome "
                       "status (ok, failed, degraded, interrupted, ...)")
    stats.add_argument("--name", default=None, metavar="GLOB",
                       help="with --list: only records whose experiment "
                       "name matches this shell glob")
    stats.add_argument("--campaign", action="store_true", dest="campaign_only",
                       help="with --list: only campaign records "
                       "(kind=campaign)")

    add_campaign_arguments(subparsers)
    add_serve_arguments(subparsers)
    add_dashboard_arguments(subparsers)
    return parser


def _finalize_run(
    args: argparse.Namespace, outcome: dict, log
) -> None:
    """Export telemetry and persist the run record after a ``run``."""
    tel = telemetry()
    if args.trace:
        path = tel.export_chrome_trace(args.trace)
        log.info("chrome trace written to %s", path)
    if args.metrics:
        path = metrics().export_jsonl(args.metrics)
        log.info("metrics snapshot written to %s", path)
    record = RunRecord(
        name=args.experiment,
        config={
            "experiment": args.experiment,
            "preset": args.preset,
            "seed": args.seed,
            "use_disk_cache": not args.no_cache,
        },
        metrics=metrics().snapshot(),
        spans=tel.aggregate(),
        outcome=outcome,
    )
    path = write_run_record(record, Path(args.runs_dir) if args.runs_dir else None)
    log.info("run record written to %s", path)


def _report_outcome(report: FailureReport) -> dict:
    """Run-record outcome payload for a (possibly single-entry) sweep."""
    if report.interrupted:
        status = "interrupted"
    else:
        status = "ok" if report.all_ok else "failed"
    return {
        "status": status,
        "experiments": [
            {
                "name": outcome.name,
                "ok": outcome.ok,
                "wall_time_s": outcome.wall_time_s,
                "error": outcome.error,
                "resumed": outcome.resumed,
            }
            for outcome in report.outcomes
        ],
    }


def _experiment_task(
    name: str, preset_name: str, seed: int, use_disk_cache: bool
) -> str:
    """Pool-worker entry point: run one experiment in a fresh context.

    Each worker rebuilds its own :class:`ExperimentContext` (process
    boundaries don't share the in-memory caches; the on-disk dataset cache
    still de-duplicates generation across workers) with ``workers=1`` so a
    pooled sweep never nests a second pool inside each experiment.
    """
    preset = preset_by_name(preset_name)
    context = ExperimentContext(
        preset, seed=seed, use_disk_cache=use_disk_cache, workers=1
    )
    _, runner = EXPERIMENTS[name]
    return runner(context)


def _run_one(args: argparse.Namespace, preset, log) -> int:
    """``run <exp>``: fail-fast, in-process, no journal."""
    for flag, value in (
        ("--report", args.report),
        ("--journal", args.journal),
        ("--resume", args.resume),
    ):
        if value:
            log.warning("%s only applies to 'run all'; ignoring", flag)
    name = args.experiment
    description, runner = EXPERIMENTS[name]
    description = f"{description} (preset {preset.name})"
    context = ExperimentContext(
        preset, seed=args.seed, use_disk_cache=not args.no_cache,
        workers=args.workers,
    )
    print(f"=== {name}: {description} ===")
    timer = telemetry().span(f"experiment.{name}", force=True)
    try:
        with timer:
            text = runner(context)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        error = f"{type(exc).__name__}: {exc}"
        print(f"--- {name} FAILED after {timer.duration_s:.1f}s: {error} ---\n")
        log.error("experiment %s failed", name)
        traceback.print_exc()
        _finalize_run(args, {"status": "failed", "error": error}, log)
        return 1
    print(text)
    print(f"--- {name} done in {timer.duration_s:.1f}s ---\n")
    report = FailureReport(
        [ExperimentOutcome(name, description, True, timer.duration_s)]
    )
    _finalize_run(args, _report_outcome(report), log)
    return 0


def _run_all(args: argparse.Namespace, preset, log) -> int:
    """``run all``: every experiment as one journaled, resumable sweep."""
    names = list(EXPERIMENTS)
    runs_dir = Path(args.runs_dir) if args.runs_dir else default_runs_dir()
    journal_path = (
        Path(args.journal) if args.journal
        else runs_dir / "sweep-journal.jsonl"
    )
    fingerprint = {
        "experiment": "all",
        "preset": args.preset,
        "seed": args.seed,
        "use_disk_cache": not args.no_cache,
        "experiments": names,
    }
    descriptions = {
        name: f"{EXPERIMENTS[name][0]} (preset {preset.name})" for name in names
    }
    if args.workers > 1:
        experiments = [
            (name, descriptions[name], _experiment_task,
             (name, args.preset, args.seed, not args.no_cache))
            for name in names
        ]
    else:
        # One shared in-process context: fig8-fig13 reuse its surrogate,
        # attack plans and pair pools instead of rebuilding them.
        context = ExperimentContext(
            preset, seed=args.seed, use_disk_cache=not args.no_cache
        )
        experiments = [
            (name, descriptions[name], EXPERIMENTS[name][1], (context,))
            for name in names
        ]
    try:
        report = sweep_experiments(
            experiments, journal_path, fingerprint,
            PoolConfig(workers=args.workers), resume=args.resume,
        )
    except JournalError as exc:
        log.error("cannot open sweep journal: %s", exc)
        return 2

    print(report.format())
    if report.interrupted:
        print(
            f"sweep interrupted: {len(report.outcomes)}/{len(names)} "
            f"experiments reached a terminal state; resume with "
            f"`repro run all --resume --journal {journal_path}`"
        )
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.format() + "\n")
        log.info("failure report written to %s", args.report)
    _finalize_run(args, _report_outcome(report), log)
    if report.interrupted:
        return 130
    return 0 if report.all_ok else 1


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(
        -1 if args.quiet else args.verbose,
        timestamps=True if args.log_timestamps else None,
    )
    log = get_logger("cli")
    if args.command == "list":
        width = max(len(key) for key in EXPERIMENTS)
        for key, (description, _) in EXPERIMENTS.items():
            print(f"{key:<{width}}  {description}")
        return 0

    if args.command == "publish":
        return run_publish(args, log)

    if args.command == "serve":
        return run_serve(args, log)

    if args.command == "infer":
        return run_infer(args, log)

    if args.command == "dashboard":
        return run_dashboard(args, log)

    if args.command == "campaign":
        return run_campaign_command(args, log)

    if args.command == "stats":
        directory = Path(args.runs_dir) if args.runs_dir else None
        if args.list_records:
            rows = list_run_records(
                directory, name=args.name, status=args.status, last=args.last,
                kind="campaign" if args.campaign_only else None,
            )
            print(format_run_listing(rows))
            return 0 if rows else 1
        for flag, value in (
            ("--last", args.last),
            ("--status", args.status),
            ("--name", args.name),
            ("--campaign", args.campaign_only or None),
        ):
            if value is not None:
                log.warning("%s only applies with --list; ignoring", flag)
        path = latest_run_record_path(directory)
        if path is None:
            log.error("no run records found")
            return 1
        summary = summarize_run_record(path)
        if summary is not None and summary.get("kind") == "campaign":
            from .campaigns.records import (
                format_campaign_record,
                load_campaign_record,
            )

            print(format_campaign_record(load_campaign_record(path)))
            return 0
        print(format_run_record(load_run_record(path)))
        return 0

    if args.workers < 1:
        log.error("--workers must be >= 1, got %d", args.workers)
        return 2
    preset = preset_by_name(args.preset)
    tel = telemetry()
    tel.reset()
    tel.enable()
    metrics().reset()
    try:
        if args.experiment == "all":
            return _run_all(args, preset, log)
        return _run_one(args, preset, log)
    finally:
        tel.disable()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
