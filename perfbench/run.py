"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process, and ends with one combined JSON line.

``--trace 0`` is a timed run: no wrappers, and the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric.  ``--trace 1`` sets up once, repeats the timed region
untraced, then runs it again with every layer probe installed; its last
line carries the per-layer metrics instead, the lines before it give the
tracing overhead, and the spans are written as a Chrome trace under
``perfbench/out/``.  Lines before the last are the human-readable report:
counts, input digest, every check with its result, every metric with its
unit.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: One BLAS thread per process (set before NumPy loads; serve's replicas
#: inherit it).  On a 2-CPU host a second BLAS thread adds no speed here
#: (train and attack measured as fast with one) but spin-waits whenever
#: another process takes a core, which widens the spread between runs.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("train", "datagen", "attack", "serve")

#: End-to-end metrics: name -> unit.  Each is reported on every workload;
#: README.md says what an item and an operation are on each.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "nn.conv2d.calls": "count",
    "nn.conv2d.busy_s": "s",
    "nn.conv2d.gflop": "GFLOP",
    "nn.max_pool2d.busy_s": "s",
    "nn.relu.busy_s": "s",
    "nn.linear.busy_s": "s",
    "nn.lstm.busy_s": "s",
    "nn.backward.busy_s": "s",
    "nn.adam_step.busy_s": "s",
    "models.forward.busy_s": "s",
    "models.forward.self_s": "s",
    "models.predict_logits.busy_s": "s",
    "models.predict_logits.calls": "count",
    "models.frame_features.busy_s": "s",
    "models.evaluate.busy_s": "s",
    "models.batches": "count",
    "geometry.pose_sequence.busy_s": "s",
    "radar.simulate_sequence.calls": "count",
    "radar.simulate_sequence.busy_s": "s",
    "radar.chirps": "count",
    "radar.drai_sequence.busy_s": "s",
    "radar.add_thermal_noise.busy_s": "s",
    "datasets.generate_dataset.self_s": "s",
    "datasets.samples": "count",
    "datasets.generate_paired_sample.busy_s": "s",
    "xai.analyze.busy_s": "s",
    "attack.placement.busy_s": "s",
    "attack.candidates_scored": "count",
    "attack.pair_pool.busy_s": "s",
    "attack.triggered_test.busy_s": "s",
    "attack.compose.busy_s": "s",
    "defense.detector.busy_s": "s",
    "serve.infer_ms_p50": "ms",
    "serve.dispatch_ms_p50": "ms",
    "serve.queue_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "serve.loadgen_late_ms_p99": "ms",
}

#: Set-up repetitions in a timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to benchmark at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def make_workload(name: str):
    import workloads

    classes = {
        "train": workloads.TrainWorkload,
        "datagen": workloads.DatagenWorkload,
        "attack": workloads.AttackWorkload,
    }
    if name == "serve":
        OUT_DIR.mkdir(exist_ok=True)
        return workloads.ServeWorkload(str(OUT_DIR))
    return classes[name]()


def peak_rss_mb() -> float:
    """Largest resident set of this process and any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tail(values_s: "list[float]") -> "tuple[float, float, int]":
    """(percentile, ms, samples beyond): the highest nearest-rank
    p90/p95/p99/p99.9 with at least ten samples beyond it, else p50."""
    ordered = sorted(values_s)
    best = (50.0, 1e3 * statistics.median(ordered), len(ordered) // 2)
    for pct in (90.0, 95.0, 99.0, 99.9):
        rank = math.ceil(round(len(ordered) * pct / 100.0, 9))
        if len(ordered) - rank < 10:
            break
        best = (pct, 1e3 * ordered[rank - 1], len(ordered) - rank)
    return best


def end_to_end(run, setup_s: "list[float]") -> "dict[str, float]":
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        # Total rate, not a median of window rates: this machine's speed
        # shifts in spells of 10-20 s, which a mean over the run averages
        # and a median of windows jumps between.
        "items_per_s": (
            sum(items for items, _ in run.windows)
            / sum(seconds for _, seconds in run.windows)
        ) if run.windows else 0.0,
        "op_p50_ms": 1e3 * statistics.median(run.op_s) if run.op_s else 0.0,
    }


def per_layer(tracer, run) -> "dict[str, float]":
    summary = tracer.summary()
    values: "dict[str, float]" = {}
    for name in PER_LAYER:
        probe, _, stat = name.rpartition(".")
        if name in run.layer:
            values[name] = run.layer[name]
        elif probe in summary and stat in summary[probe]:
            values[name] = summary[probe][stat]
        else:
            values[name] = tracer.counts.get(name, 0.0)
    return values


def measure(workload, state, seed: int, seconds: float):
    """One measured region; an exception fails the run."""
    import workloads

    gc.collect()  # start from a collected heap, not set-up's garbage
    try:
        return workload.measure(state, seed, seconds)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        run = workloads.Run(attempted=1, failed=1)
        run.check("measure", False, f"{type(exc).__name__}: {exc}")
        return run


def check(workload, state, run, seed: int) -> None:
    """The workload's output checks, outside any timed or traced region."""
    if not run.outputs:
        return
    try:
        workload.check(state, run, seed)
    except Exception as exc:  # noqa: BLE001 - a crashed check fails the run
        run.check("check", False, f"{type(exc).__name__}: {exc}")
        run.failed = max(run.failed, 1)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the full report."""
    workload = make_workload(name)
    setup_s: "list[float]" = []
    digests: "list[str]" = []
    state = None
    tracer = traced_run = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if state is not None and hasattr(workload, "close"):
                workload.close(state)
                state = None
            start = time.perf_counter()
            state = workload.setup(seed)
            setup_s.append(time.perf_counter() - start)
            digests.append(workload.input_digest(state))
        run = measure(workload, state, seed, seconds)
        check(workload, state, run, seed)
        if trace:
            import tracing

            tracer = tracing.Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
            with tracing.installed(tracer):
                traced_run = measure(workload, state, seed, seconds)
            check(workload, state, traced_run, seed)
    finally:
        # Closing first reaps the serve replicas, so their peak RSS counts.
        if state is not None and hasattr(workload, "close"):
            workload.close(state)
    report = {
        "workload": name, "seed": seed, "trace": trace,
        "input_digest": digests[-1],
        "setup_repeatable": len(set(digests)) == 1,
        "setup_s_samples": setup_s,
        "untraced": run,
        "end_to_end": end_to_end(run, setup_s),
    }
    if trace:
        path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        tracer.write_chrome_trace(str(path))
        report.update({
            "traced": traced_run,
            "traced_end_to_end": end_to_end(traced_run, setup_s),
            "per_layer": per_layer(tracer, traced_run),
            "trace_path": str(path.relative_to(ROOT)),
            "spans": len(tracer.spans),
        })
    return report


def print_report(report: dict) -> dict:
    """Print the human-readable report; return the final JSON object."""
    runs = [report["untraced"]] + ([report["traced"]] if report["trace"] else [])
    print(f"workload {report['workload']} seed {report['seed']} "
          f"trace {int(report['trace'])}")
    print(f"input_digest {report['input_digest']}")
    for key, value in runs[0].counts.items():
        print(f"count {key} {value}")
    print("setup_s samples " + " ".join(f"{v:.4f}" for v in report["setup_s_samples"]))
    correct = report["setup_repeatable"]
    print(f"check setup.repeatable {'ok' if correct else 'FAIL'}")
    for label, run in zip(("untraced", "traced"), runs):
        for check, passed, detail in run.checks:
            print(f"check {label}.{check} {'ok' if passed else 'FAIL'} {detail}")
            correct = correct and passed
        for key, text in run.notes.items():
            print(f"note {label}.{key} {text}")
        print(f"ops {label} attempted {run.attempted} "
              f"succeeded {run.attempted - run.failed} failed {run.failed}")
    run = runs[0]
    if report["workload"] == "serve" and run.op_s:
        pct, value, beyond = tail(run.op_s)
        print(f"info serve_tail_ms p{pct:g} {value:.4f} ms "
              f"({beyond} of {len(run.op_s)} samples beyond)")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = correct and failed == 0
    if report["trace"]:
        for name in ("items_per_s", "op_p50_ms"):
            plain = report["end_to_end"][name]
            traced = report["traced_end_to_end"][name]
            print(f"trace_overhead {name} untraced {plain:.4f} traced {traced:.4f} "
                  f"delta {traced - plain:+.4f} {END_TO_END[name]}")
        print(f"trace_file {report['trace_path']} spans {report['spans']}")
        values, units = report["per_layer"], PER_LAYER
    else:
        values, units = report["end_to_end"], END_TO_END
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process so its peak RSS is its own.

    Streams each workload's report (ending in its JSON line), then prints
    one combined JSON line with metrics keyed ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        sys.stdout.flush()
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = print_report(report)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
