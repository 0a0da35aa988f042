"""Span tracing for the benchmark's traced runs.

A traced run patches the public functions of the repo's layers with thin
wrappers that record one span per call: name, start, end, parent span and
run id.  Spans stay in memory and are written once, at the end, as a
Chrome trace (``chrome://tracing`` / Perfetto).  Per-layer metrics are
derived from the spans afterwards:

* ``<probe>.calls`` — number of calls;
* ``<probe>.busy_s`` — wall time inside the probe, counting a nested call
  of the same probe once;
* ``<probe>.self_s`` — busy time minus the time covered by child spans.

Timed (untraced) runs never call :func:`installed`, so they run the
program's own functions with nothing in between.

Each function is patched at every name it is looked up by: a module
attribute is replaced in *every* loaded module that bound it (``from x
import f`` copies the reference, so patching ``x`` alone would miss
callers of the copy), and a method is replaced on its class.  Every
patch is undone on exit, restoring the original objects.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    """One function to trace.

    ``module``/``qualname`` name the function (``"Class.method"`` for a
    method).  ``count`` optionally maps ``(args, kwargs, result)`` to a
    work count recorded under ``count_metric``.
    """

    name: str
    module: str
    qualname: str
    count_metric: Optional[str] = None
    count: Optional[Callable] = None


def _conv2d_gflop(args, kwargs, result) -> float:
    """Forward multiply-adds of one ``conv2d`` call, as GFLOP (2 per MAC)."""
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    n, f, out_h, out_w = result.shape
    _, c, kh, kw = weight.shape
    return 2.0 * n * f * out_h * out_w * c * kh * kw / 1e9


def _chirps(args, kwargs, result) -> int:
    """Chirps synthesized: frames x chirps per frame of ``(T, N_s, N_c, K)``."""
    return int(result.shape[0] * result.shape[2])


#: Every traced layer boundary.  Names are the per-layer metric prefixes.
PROBES: "tuple[Probe, ...]" = (
    # nn
    Probe("nn.conv2d", "repro.nn.functional", "conv2d",
          "nn.conv2d.gflop", _conv2d_gflop),
    Probe("nn.max_pool2d", "repro.nn.functional", "max_pool2d"),
    Probe("nn.linear", "repro.nn.functional", "linear"),
    Probe("nn.relu", "repro.nn.tensor", "Tensor.relu"),
    Probe("nn.lstm", "repro.nn.recurrent", "LSTM.forward"),
    Probe("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    Probe("nn.adam_step", "repro.nn.optim", "Adam.step"),
    # models
    Probe("models.forward", "repro.models.cnn_lstm", "CNNLSTMClassifier.forward",
          "models.batches", lambda args, kwargs, result: 1),
    Probe("models.predict_logits", "repro.models.cnn_lstm",
          "CNNLSTMClassifier.predict_logits"),
    Probe("models.frame_features", "repro.models.cnn_lstm",
          "CNNLSTMClassifier.frame_features"),
    Probe("models.evaluate", "repro.models.trainer", "Trainer.evaluate"),
    # geometry
    Probe("geometry.pose_sequence", "repro.geometry.human",
          "HumanModel.pose_sequence"),
    # radar
    Probe("radar.simulate_sequence", "repro.radar.simulator",
          "FmcwRadarSimulator.simulate_sequence", "radar.chirps", _chirps),
    Probe("radar.drai_sequence", "repro.radar.heatmap", "drai_sequence"),
    Probe("radar.add_thermal_noise", "repro.radar.noise", "add_thermal_noise"),
    # datasets
    Probe("datasets.generate_dataset", "repro.datasets.generation",
          "SampleGenerator.generate_dataset", "datasets.samples",
          lambda args, kwargs, result: len(result)),
    Probe("datasets.generate_paired_sample", "repro.datasets.generation",
          "SampleGenerator.generate_paired_sample"),
    # xai
    Probe("xai.analyze", "repro.xai.frame_importance",
          "FrameImportanceAnalyzer.analyze"),
    # attack
    Probe("attack.placement", "repro.attack.placement",
          "TriggerPlacementOptimizer.optimize", "attack.candidates_scored",
          lambda args, kwargs, result: len(result.candidate_positions)),
    Probe("attack.pair_pool", "repro.attack.poisoning", "build_pair_pool"),
    Probe("attack.triggered_test", "repro.attack.poisoning",
          "build_triggered_test_set"),
    Probe("attack.compose", "repro.attack.poisoning", "compose_poisoned_dataset"),
    # defense
    Probe("defense.detector", "repro.defense.detector", "TriggerDetector.scores"),
)


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: ``[name, start_ns, end_ns, parent_index, thread_id]`` per span.
        self.spans: "list[list]" = []
        self.counts: "dict[str, float]" = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def call(self, probe: Probe, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            record = [probe.name, 0, 0, stack[-1] if stack else -1,
                      threading.get_ident()]
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()
        if probe.count is not None:
            amount = probe.count(args, kwargs, result)
            with self._lock:
                self.counts[probe.count_metric] = (
                    self.counts.get(probe.count_metric, 0.0) + amount
                )
        return result

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def summary(self) -> "dict[str, dict[str, float]]":
        """``{probe: {"calls", "busy_s", "self_s"}}`` over all spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: "dict[str, dict[str, float]]" = {
            probe.name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            for probe in PROBES
        }
        for index, (name, start, end, parent, _) in enumerate(spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:  # outermost call of this probe
                entry["busy_s"] += (end - start) / 1e9
        return out

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace events, with parent and run id."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"id": index, "parent": parent, "run": self.run_id},
            }
            for index, (name, start, end, parent, tid) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"run": self.run_id}}

    def write_chrome_trace(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def _resolve(probe: Probe):
    """(owner, attribute, original) for a method probe; (None, name, fn)
    for a module-level function."""
    module = importlib.import_module(probe.module)
    if "." in probe.qualname:
        class_name, attr = probe.qualname.split(".")
        owner = getattr(module, class_name)
        return owner, attr, owner.__dict__[attr]
    return None, probe.qualname, getattr(module, probe.qualname)


def _wrap(tracer: Tracer, probe: Probe, original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.call(probe, original, args, kwargs)

    return traced


def _binding_sites(original) -> "list[tuple[object, str]]":
    """Every (module, name) whose module attribute *is* ``original``."""
    sites = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is original:
                sites.append((module, name))
    return sites


@contextlib.contextmanager
def installed(tracer: Tracer, probes: "tuple[Probe, ...]" = PROBES):
    """Patch every probe for the duration of the block; always undone."""
    patches: "list[tuple[object, str, object]]" = []
    try:
        for probe in probes:
            owner, attr, original = _resolve(probe)
            wrapped = _wrap(tracer, probe, original)
            sites = [(owner, attr)] if owner is not None else _binding_sites(original)
            for site, name in sites:
                patches.append((site, name, original))
                setattr(site, name, wrapped)
        yield tracer
    finally:
        for site, name, original in reversed(patches):
            setattr(site, name, original)


def originals(probes: "tuple[Probe, ...]" = PROBES) -> "list[tuple[object, str, object]]":
    """(site, name, object) for every binding site, for restore checks."""
    found = []
    for probe in probes:
        owner, attr, original = _resolve(probe)
        sites = [(owner, attr)] if owner is not None else _binding_sites(original)
        found.extend((site, name, original) for site, name in sites)
    return found
