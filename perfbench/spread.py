"""Run a workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload attack --seeds 1 2 3 4 5

Runs ``BENCHMARK.json``'s command once per seed, one run at a time, and
prints for every end-to-end metric its values, median, quartiles and
spread: the inter-quartile distance (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound.  A
benchmark is steady when every spread except ``setup_s``'s is below a
third of its bound.  ``--json`` writes the raw values and every run's
report, for comparing two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(config: dict, workload: str, seed: int, seconds: int) -> "tuple[dict, str]":
    command = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1]), done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--json", help="write the raw values to this file")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: "dict[str, list[float]]" = {m["name"]: [] for m in config["end_to_end"]}
    reports: "list[str]" = []
    for seed in args.seeds:
        start = time.perf_counter()
        result, report = run_once(config, args.workload, seed, config["run_seconds"])
        wall_s = time.perf_counter() - start
        reports.append(report)
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"seed {seed}: incorrect result {result}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed} wall {wall_s:.1f}s " + " ".join(
            f"{name}={series[-1]:.4g}" for name, series in values.items()), flush=True)
    for metric in config["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:<14} median {median:10.4f} {metric['unit']:<5} "
              f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} "
              f"bound {metric['bound']} {verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps({"values": values, "reports": reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
