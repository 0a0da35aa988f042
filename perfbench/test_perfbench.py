"""The benchmark's own tests (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q

They run every workload once, traced, at its smallest size (about two
minutes on a 2-CPU box).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import tracing  # noqa: E402 - needs the program on the path
import workloads  # noqa: E402

#: Per-layer metrics that must be non-zero on each workload's traced run;
#: every other per-layer metric must read exactly 0 there.
NONZERO = {
    "train": {
        "nn.conv2d.calls", "nn.conv2d.busy_s", "nn.conv2d.gflop",
        "nn.max_pool2d.busy_s", "nn.relu.busy_s", "nn.linear.busy_s",
        "nn.lstm.busy_s", "nn.backward.busy_s", "nn.adam_step.busy_s",
        "models.forward.busy_s", "models.forward.self_s",
        "models.predict_logits.busy_s", "models.predict_logits.calls",
        "models.evaluate.busy_s", "models.batches",
    },
    "datagen": {
        "geometry.pose_sequence.busy_s", "radar.simulate_sequence.calls",
        "radar.simulate_sequence.busy_s", "radar.chirps",
        "radar.drai_sequence.busy_s", "radar.add_thermal_noise.busy_s",
        "datasets.generate_dataset.self_s", "datasets.samples",
    },
    "attack": {
        "nn.conv2d.calls", "nn.conv2d.busy_s", "nn.conv2d.gflop",
        "nn.max_pool2d.busy_s", "nn.relu.busy_s", "nn.linear.busy_s",
        "nn.lstm.busy_s", "models.forward.busy_s", "models.forward.self_s",
        "models.predict_logits.busy_s", "models.predict_logits.calls",
        "models.frame_features.busy_s", "models.batches",
        "geometry.pose_sequence.busy_s", "radar.simulate_sequence.calls",
        "radar.simulate_sequence.busy_s", "radar.chirps",
        "radar.drai_sequence.busy_s", "radar.add_thermal_noise.busy_s",
        "datasets.generate_paired_sample.busy_s", "xai.analyze.busy_s",
        "attack.placement.busy_s", "attack.candidates_scored",
        "attack.pair_pool.busy_s", "attack.triggered_test.busy_s",
        "attack.compose.busy_s", "defense.detector.busy_s",
    },
    "serve": {
        "serve.infer_ms_p50", "serve.dispatch_ms_p50", "serve.queue_ms_p50",
        "serve.batch_size_mean", "serve.loadgen_late_ms_p99",
    },
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_fills_its_layer_metrics(name):
    report = run.run_workload(name, seed=7, seconds=1, trace=True)
    result = run.print_report(report)
    assert result["correct"], result
    assert set(result["metrics"]) == set(run.PER_LAYER)
    values = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert {key for key, value in values.items() if value != 0} == NONZERO[name]
    assert report["spans"] > 0 or name == "serve"


def test_probes_restored_after_tracing():
    before = tracing.originals()
    assert before, "no binding sites found"
    tracer = tracing.Tracer("restore-check")
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert all(getattr(site, attr) is not obj for site, attr, obj in before)
            raise RuntimeError("leave the block early")
    for site, attr, original in before:
        assert getattr(site, attr) is original, (site, attr)


def test_probes_patch_every_binding_site():
    # generation.py imports drai_sequence and add_thermal_noise by name.
    from repro.datasets import generation
    from repro.radar import heatmap, noise

    originals = (heatmap.drai_sequence, noise.add_thermal_noise)
    with tracing.installed(tracing.Tracer("sites")):
        assert generation.drai_sequence is heatmap.drai_sequence
        assert generation.drai_sequence is not originals[0]
        assert generation.add_thermal_noise is not originals[1]
    assert (generation.drai_sequence, generation.add_thermal_noise) == originals


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_input_digest_follows_the_seed(name):
    workload = run.make_workload(name)
    digests = []
    for seed in (3, 3, 4):
        state = workload.setup(seed)
        try:
            digests.append(workload.input_digest(state))
        finally:
            if hasattr(workload, "close"):
                workload.close(state)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_tail_needs_ten_samples_beyond():
    values = [i / 1000.0 for i in range(200)]
    pct, _, beyond = run.tail(values)
    assert (pct, beyond) == (95.0, 10)
    assert run.tail(values[:50])[0] == 50.0


def test_fixed_counts_depend_only_on_seconds():
    assert workloads.TrainWorkload().rounds(12) == 1
    assert workloads.DatagenWorkload().calls(12) == 6
    assert workloads.AttackWorkload().rounds(12) == 8
    assert run.make_workload("serve").request_counts(12) == (240, 420)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "datagen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not Path(tmp_path / "perfbench" / "out").exists()
