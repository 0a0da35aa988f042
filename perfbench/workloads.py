"""The benchmark's four workloads: ``train``, ``datagen``, ``attack``, ``serve``.

Every workload follows one shape:

* ``setup(seed)`` builds the inputs and whatever the timed region needs
  (datasets, trained surrogate and detector, a started fleet).  It is
  timed and repeated, so work moved into set-up shows in ``setup_s``.
* ``measure(state, seed, seconds)`` runs a fixed amount of work — the
  counts depend only on ``seconds``, never on the clock — and times it.
* ``check(state, run)`` verifies the outputs afterwards, outside the
  timed region.  A failed check marks the operation it belongs to as
  failed.

All randomness derives from the workload seed, so the same seed gives the
same inputs (``input_digest``) and a different seed different ones.
Everything runs at the ``FAST`` preset's geometry: 16 frames of 32 x 32
DRAI heatmaps, batch 32, on the 3 x 3 FAST position grid.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.attack.backdoor import BackdoorAttack, BackdoorConfig
from repro.attack import poisoning
from repro.attack.poisoning import PoisonRecipe
from repro.attack.trigger import TRIGGER_2X2, TRIGGER_4X4
from repro.datasets.activities import DISSIMILAR_SCENARIOS, SIMILAR_SCENARIOS
from repro.datasets.generation import SampleGenerator, plan_dataset_tasks
from repro.defense.detector import DetectorConfig, TriggerDetector
from repro.eval.presets import FAST
from repro.geometry.human import ACTIVITY_NAMES, BODY_ATTACHMENT_POINTS
from repro.models.cnn_lstm import CNNLSTMClassifier
from repro.models.trainer import Trainer, TrainingConfig
from repro.radar.heatmap import drai_sequence_reference
from repro.radar.noise import add_thermal_noise_reference
from repro.runtime.pool import derive_task_seed
from repro.serve.engine import EngineConfig
from repro.serve.fleet import FleetConfig, ReplicaFleet
from repro.serve.registry import ModelRegistry
from repro.xai.shap import ShapConfig

GENERATION = FAST.generation_config()
MODEL = FAST.model_config()
NUM_FRAMES = GENERATION.num_frames
BATCH_SIZE = FAST.batch_size


def child_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and ``keys``."""
    return int(np.random.SeedSequence([int(seed), *keys]).generate_state(1)[0])


def digest(*parts) -> str:
    """Short SHA-256 over arrays (by bytes) and anything else (by repr)."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            hasher.update(np.ascontiguousarray(part).tobytes())
        else:
            hasher.update(repr(part).encode())
    return hasher.hexdigest()[:16]


def training_config(epochs: int, seed: int) -> TrainingConfig:
    """FAST hyper-parameters with early stopping off (patience >= epochs)."""
    return TrainingConfig(
        epochs=epochs, batch_size=BATCH_SIZE, learning_rate=FAST.learning_rate,
        patience=epochs, seed=seed,
    )


@dataclass
class Run:
    """What one timed region did, and what its checks found."""

    #: Operations in the timed region (rounds, dataset calls, requests).
    attempted: int = 0
    #: Operations that raised or failed a check.
    failed: int = 0
    #: ``(work items completed, seconds)`` per throughput window;
    #: ``items_per_s`` is their total items over their total seconds.
    windows: "list[tuple[float, float]]" = field(default_factory=list)
    #: Per-operation latency samples, in seconds.
    op_s: "list[float]" = field(default_factory=list)
    #: ``(check name, passed, detail)``.
    checks: "list[tuple[str, bool, str]]" = field(default_factory=list)
    #: Fixed work counts, printed so a reader can see they repeat.
    counts: "dict[str, int]" = field(default_factory=dict)
    #: Extra report lines (name -> text).
    notes: "dict[str, str]" = field(default_factory=dict)
    #: Per-layer metrics measured from outside the program (serve only).
    layer: "dict[str, float]" = field(default_factory=dict)
    #: Outputs kept for the checks.
    outputs: list = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(passed), detail))
        return bool(passed)


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
class TrainWorkload:
    """Victim training in a closed batch: fresh model, ``fit``, ``predict``."""

    name = "train"
    #: Samples per class generated in set-up; 6 per class are held out,
    #: leaving 144 for ``fit`` (122 trained on, 22 validation).
    samples_per_class = 30
    held_out_per_class = 6
    epochs = 8
    #: Seconds one round (fit + predict) takes on a 2-CPU box; sets the
    #: round count from ``--seconds``.
    round_s = 13.0
    #: Held-out accuracy floor; chance is 1/6.  Fewer epochs or samples
    #: than this leave held-out accuracy at chance.
    accuracy_floor = 0.2

    def setup(self, seed: int):
        generator = SampleGenerator(GENERATION, seed=child_seed(seed, 1))
        data = generator.generate_dataset(self.samples_per_class)
        rng = np.random.default_rng(child_seed(seed, 2))
        held_out = np.concatenate([
            rng.permutation(np.flatnonzero(data.y == label))[: self.held_out_per_class]
            for label in range(len(ACTIVITY_NAMES))
        ])
        train = np.setdiff1d(np.arange(len(data)), held_out)
        train = rng.permutation(train)
        # Warm-up: one epoch over one batch, so lazy allocations and
        # kernel set-up are paid before timing.
        Trainer(training_config(1, seed)).fit(
            CNNLSTMClassifier(MODEL, np.random.default_rng(seed)),
            data.x[train[:BATCH_SIZE]], data.y[train[:BATCH_SIZE]],
        )
        return {
            "train_x": data.x[train], "train_y": data.y[train],
            "test_x": data.x[held_out], "test_y": data.y[held_out],
        }

    def input_digest(self, state) -> str:
        return digest(state["train_x"], state["train_y"],
                      state["test_x"], state["test_y"])

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def measure(self, state, seed: int, seconds: float) -> Run:
        run = Run(counts={"rounds": self.rounds(seconds), "epochs": self.epochs,
                          "train_samples": len(state["train_x"]),
                          "held_out": len(state["test_x"])})
        config = training_config(self.epochs, child_seed(seed, 3))
        fit_s = 0.0
        for index in range(run.counts["rounds"]):
            run.attempted += 1
            start = time.perf_counter()
            model = CNNLSTMClassifier(
                MODEL, np.random.default_rng(child_seed(seed, 4, index))
            )
            history = Trainer(config).fit(model, state["train_x"], state["train_y"])
            fitted = time.perf_counter()
            predictions = model.predict(state["test_x"])
            end = time.perf_counter()
            fit_s += fitted - start
            run.op_s.append(end - start)
            run.outputs.append((history, predictions))
        # Sample-passes: the samples fit() trains on (its validation split
        # held back) times the epochs run.
        num_val = max(1, int(round(len(state["train_x"])
                                   * config.validation_fraction)))
        passes = (len(state["train_x"]) - num_val) * self.epochs
        run.windows.append((passes * run.counts["rounds"], fit_s))
        return run

    def check(self, state, run: Run, seed: int) -> None:
        for index, (history, predictions) in enumerate(run.outputs):
            accuracy = float((predictions == state["test_y"]).mean())
            losses = history.train_loss
            ok = all([
                run.check(f"round{index}.epochs", history.num_epochs == self.epochs,
                          f"{history.num_epochs} of {self.epochs}"),
                run.check(f"round{index}.finite_loss",
                          all(math.isfinite(v) for v in losses + history.val_loss)),
                run.check(f"round{index}.loss_falls", losses[-1] < losses[0],
                          f"{losses[0]:.4f} -> {losses[-1]:.4f}"),
                run.check(f"round{index}.accuracy", accuracy > self.accuracy_floor,
                          f"{accuracy:.3f} > {self.accuracy_floor}"),
            ])
            run.failed += not ok


# ----------------------------------------------------------------------
# datagen
# ----------------------------------------------------------------------
class DatagenWorkload:
    """``generate_dataset`` over all 6 activities, serial, no disk cache."""

    name = "datagen"
    #: One sample per class per FAST grid position: 54 samples a call.
    samples_per_class = 9
    #: Seconds one call takes on a 2-CPU box; sets the call count.
    call_s = 2.0
    #: Largest tolerated |batched - reference| on a [0, 1] heatmap: the
    #: batched chain runs in float32 (complex64 spectra) against the
    #: float64 reference.  Measured: 1.0-1.9e-6 over seeds 101-110.
    twin_atol = 1e-5

    def calls(self, seconds: float) -> int:
        return max(1, round(seconds / self.call_s))

    def setup(self, seed: int):
        # Warm-up, one sample per activity: fills the FFT plan caches and
        # the human-model cache paths before timing.
        warm = SampleGenerator(GENERATION, seed=child_seed(seed, 11))
        for activity in ACTIVITY_NAMES:
            warm.generate_sample(activity, GENERATION.distances_m[0],
                                 GENERATION.angles_deg[0])
        return {"seed": seed}

    def _generator(self, seed: int, index: int) -> SampleGenerator:
        return SampleGenerator(GENERATION, seed=child_seed(seed, 10, index))

    def input_digest(self, state) -> str:
        generator = self._generator(state["seed"], 0)
        return digest(generator.seed, generator.environment_seed,
                      plan_dataset_tasks(GENERATION, generator.seed,
                                         self.samples_per_class))

    def measure(self, state, seed: int, seconds: float) -> Run:
        calls = self.calls(seconds)
        run = Run(counts={"calls": calls,
                          "samples_per_call": self.samples_per_class
                          * len(ACTIVITY_NAMES)})
        for index in range(calls):
            generator = self._generator(seed, index)
            run.attempted += 1
            start = time.perf_counter()
            dataset = generator.generate_dataset(self.samples_per_class, workers=1)
            run.op_s.append(time.perf_counter() - start)
            run.outputs.append(dataset)
        run.windows = [(len(dataset), elapsed)
                       for dataset, elapsed in zip(run.outputs, run.op_s)]
        return run

    def check(self, state, run: Run, seed: int) -> None:
        for index, dataset in enumerate(run.outputs):
            counts = np.bincount(dataset.y, minlength=len(ACTIVITY_NAMES))
            ok = all([
                run.check(f"call{index}.dtype", dataset.x.dtype == np.float32,
                          str(dataset.x.dtype)),
                run.check(f"call{index}.class_counts",
                          bool((counts == self.samples_per_class).all()),
                          str(counts.tolist())),
                run.check(f"call{index}.finite", bool(np.isfinite(dataset.x).all())),
            ])
            run.failed += not ok
        # Spot-check one sample of the first call against the per-frame
        # reference twin (simulate -> noise -> DRAI, float64).
        generator = self._generator(seed, 0)
        plan = plan_dataset_tasks(generator.config, generator.seed,
                                  self.samples_per_class)
        task = plan[int(np.random.default_rng(generator.seed).integers(len(plan)))]
        reference = reference_sample(generator, task)
        error = float(np.abs(run.outputs[0].x[task.index] - reference).max())
        if not run.check("twin.matches_reference", error <= self.twin_atol,
                         f"task {task.index}: max |diff| {error:.2e}"):
            run.failed += 1


def reference_sample(generator: SampleGenerator, task) -> np.ndarray:
    """One planned sample through the pinned per-frame reference chain."""
    shared_rng = generator.rng
    generator.rng = np.random.default_rng(derive_task_seed(generator.seed, task.index))
    try:
        meshes = generator.sample_meshes(task.activity, task.distance_m,
                                         task.angle_deg, stature=task.stature)
        # The generator's own environment facets, so both chains see
        # the same static scene.
        cubes = generator.simulator.simulate_sequence_reference(
            meshes, extra_facets=generator._environment_facets or None
        )
        cubes = add_thermal_noise_reference(cubes, generator.config.snr_db,
                                            generator.rng)
        return drai_sequence_reference(cubes, generator.config.heatmap)
    finally:
        generator.rng = shared_rng


# ----------------------------------------------------------------------
# attack
# ----------------------------------------------------------------------
#: Rounds rotate over the paper's similar and dissimilar scenarios and
#: both trigger sizes.
ATTACK_ROTATION = tuple(
    (scenario, trigger)
    for trigger in (TRIGGER_2X2, TRIGGER_4X4)
    for scenario in (SIMILAR_SCENARIOS[0], DISSIMILAR_SCENARIOS[0])
)


def train_detector(generator: SampleGenerator, clean, seed: int, epochs: int,
                   num_triggered: int) -> "tuple[TriggerDetector, object]":
    """A trigger detector trained on clean vs chest-worn-trigger samples,
    and the triggered samples it saw."""
    recipe = PoisonRecipe(
        scenario=SIMILAR_SCENARIOS[0], trigger=TRIGGER_4X4,
        attachment_position=np.array(BODY_ATTACHMENT_POINTS["chest"]),
        frame_indices=np.arange(NUM_FRAMES), injection_rate=1.0,
        attachment_name="chest",
    )
    triggered = poisoning.build_triggered_test_set(generator, recipe, num_triggered)
    detector = TriggerDetector(
        MODEL.frame_shape, NUM_FRAMES,
        DetectorConfig(training=training_config(epochs, seed)),
        rng=np.random.default_rng(seed),
    )
    detector.fit(clean, triggered)
    return detector, triggered


class AttackWorkload:
    """Attack-preparation rounds against a surrogate trained in set-up."""

    name = "attack"
    #: Clean samples per class the attacker's surrogate trains on.
    surrogate_samples_per_class = 6
    surrogate_epochs = 3
    detector_epochs = 2
    #: Pair-pool and triggered-test sizes per round (FAST's 12).
    pool_size = 12
    triggered_size = 12
    #: Seconds one 4-round rotation takes on a 2-CPU box.
    rotation_s = 6.9

    def rounds(self, seconds: float) -> int:
        return len(ATTACK_ROTATION) * max(1, round(seconds / self.rotation_s))

    def setup(self, seed: int):
        attacker = SampleGenerator(GENERATION, seed=child_seed(seed, 20))
        clean = attacker.generate_dataset(self.surrogate_samples_per_class)
        surrogate = CNNLSTMClassifier(
            MODEL, np.random.default_rng(child_seed(seed, 21))
        )
        Trainer(training_config(self.surrogate_epochs, child_seed(seed, 22))).fit(
            surrogate, clean.x, clean.y
        )
        detector, _ = train_detector(attacker, clean, child_seed(seed, 23),
                                     self.detector_epochs, num_triggered=12)
        return {"clean": clean, "surrogate": surrogate, "detector": detector,
                "environment_seed": attacker.environment_seed}

    def input_digest(self, state) -> str:
        return digest(state["clean"].x, state["clean"].y,
                      [(s.victim, s.target, t.name) for s, t in ATTACK_ROTATION])

    def _round_inputs(self, state, seed: int, index: int):
        scenario, trigger = ATTACK_ROTATION[index % len(ATTACK_ROTATION)]
        generator = SampleGenerator(
            GENERATION, seed=child_seed(seed, 24, index),
            environment_seed=state["environment_seed"],
        )
        config = BackdoorConfig(
            scenario=scenario, trigger=trigger,
            injection_rate=0.4, num_poisoned_frames=8,
            shap=ShapConfig(num_samples=FAST.shap_samples,
                            seed=child_seed(seed, 25, index)),
            num_shap_samples=FAST.num_shap_executions,
        )
        return generator, config

    def measure(self, state, seed: int, seconds: float) -> Run:
        rounds = self.rounds(seconds)
        run = Run(counts={"rounds": rounds, "pool": self.pool_size,
                          "triggered": self.triggered_size})
        surrogate, detector = state["surrogate"], state["detector"]
        for index in range(rounds):
            generator, config = self._round_inputs(state, seed, index)
            run.attempted += 1
            start = time.perf_counter()
            plan = BackdoorAttack(surrogate, generator, config).plan()
            recipe = plan.recipe(config)
            pool = poisoning.build_pair_pool(
                generator, config.scenario.victim, config.trigger,
                plan.attachment_position, self.pool_size, plan.attachment_name,
            )
            poisoned = poisoning.compose_poisoned_dataset(
                pool, plan.frame_indices, config.scenario.target_label
            )
            triggered = poisoning.build_triggered_test_set(
                generator, recipe, self.triggered_size
            )
            predictions = surrogate.predict(triggered.x)
            scores = detector.scores(triggered.x)
            run.op_s.append(time.perf_counter() - start)
            run.outputs.append((config, plan, pool, poisoned, predictions, scores))
        run.windows = [(1, elapsed) for elapsed in run.op_s]
        return run

    def check(self, state, run: Run, seed: int) -> None:
        for index, (config, plan, pool, poisoned, predictions, scores) in enumerate(
            run.outputs
        ):
            frames = np.asarray(plan.frame_indices)
            others = np.setdiff1d(np.arange(NUM_FRAMES), frames)
            ok = all([
                run.check(f"round{index}.target_label",
                          bool((poisoned.y == config.scenario.target_label).all())),
                run.check(f"round{index}.clean_off_plan",
                          np.array_equal(poisoned.x[:, others], pool.clean[:, others])),
                run.check(f"round{index}.triggered_on_plan",
                          np.array_equal(poisoned.x[:, frames],
                                         pool.triggered[:, frames])),
                run.check(f"round{index}.scores",
                          len(scores) == self.triggered_size
                          and bool(((scores >= 0) & (scores <= 1)).all())),
                run.check(f"round{index}.predictions",
                          len(predictions) == self.triggered_size),
            ])
            run.failed += not ok
        # Planning is deterministic: a fresh generator with round 0's seed
        # and scenario must reproduce round 0's plan exactly.
        generator, config = self._round_inputs(state, seed, 0)
        replan = BackdoorAttack(state["surrogate"], generator, config).plan()
        plan = run.outputs[0][1]
        if not run.check(
            "plan.repeatable",
            np.array_equal(replan.frame_indices, plan.frame_indices)
            and np.array_equal(replan.attachment_position, plan.attachment_position),
            f"frames {plan.frame_indices.tolist()} at {plan.attachment_name}",
        ):
            run.failed += 1


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ServeWorkload:
    """A 2-replica fleet serving a model + detector artifact, screening on.

    Phase 1 is a paced open loop at ``rate_rps``, latency timed from each
    request's due time; phase 2 is a closed loop with 2 clients.
    """

    name = "serve"
    replicas = 2
    clients = 2
    #: Phase-1 arrival rate: well below the ~100 req/s closed-loop capacity.
    rate_rps = 40.0
    #: Closed-loop rate used only to size phase 2 from ``--seconds``.
    closed_rps_estimate = 70.0
    samples_per_class = 4
    num_triggered = 12
    model_epochs = 2
    detector_epochs = 2
    #: Requests sent to each replica before timing (model load, caches).
    warmup = 8
    #: Open/closed phase pairs in a run, and closed-loop requests per
    #: throughput window (``items_per_s`` is the median window).
    cycles = 3
    window = 60

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir

    def request_counts(self, seconds: float) -> "tuple[int, int]":
        return (max(20, round(self.rate_rps * seconds / 2)),
                max(20, round(self.closed_rps_estimate * seconds / 2)))

    def setup(self, seed: int):
        generator = SampleGenerator(GENERATION, seed=child_seed(seed, 30))
        clean = generator.generate_dataset(self.samples_per_class)
        model = CNNLSTMClassifier(MODEL, np.random.default_rng(child_seed(seed, 31)))
        Trainer(training_config(self.model_epochs, child_seed(seed, 32))).fit(
            model, clean.x, clean.y
        )
        detector, triggered = train_detector(
            generator, clean, child_seed(seed, 33), self.detector_epochs,
            self.num_triggered,
        )
        pool = np.concatenate([clean.x, triggered.x]).astype(np.float32)
        root = tempfile.mkdtemp(prefix="registry-", dir=self.scratch_dir)
        fleet = None
        try:
            registry = ModelRegistry(root)
            registry.publish(model, ACTIVITY_NAMES, NUM_FRAMES, detector=detector)
            fleet = ReplicaFleet(registry, FleetConfig(
                replicas=self.replicas,
                engine=EngineConfig(screen_by_default=True),
            )).start()
            if not fleet.wait_until_ready(self.replicas, 60.0):
                raise RuntimeError("fleet replicas did not become ready")
            for index in range(self.warmup * self.replicas):
                fleet.submit(pool[index % len(pool)])
        except BaseException:
            if fleet is not None:
                fleet.stop()
            shutil.rmtree(root, ignore_errors=True)
            raise
        return {"model": model, "pool": pool, "fleet": fleet, "root": root,
                "rng_seed": child_seed(seed, 34)}

    def close(self, state) -> None:
        state["fleet"].stop()
        shutil.rmtree(state["root"], ignore_errors=True)

    def input_digest(self, state) -> str:
        return digest(state["pool"], self._request_order(state, 10**6))

    def _request_order(self, state, count: int) -> np.ndarray:
        rng = np.random.default_rng(state["rng_seed"])
        return rng.integers(len(state["pool"]), size=count)

    def measure(self, state, seed: int, seconds: float) -> Run:
        open_n, closed_n = self.request_counts(seconds)
        run = Run(counts={"open_loop_requests": open_n,
                          "closed_loop_requests": closed_n,
                          "rate_rps": int(self.rate_rps),
                          "clients": self.clients, "cycles": self.cycles})
        fleet, pool = state["fleet"], state["pool"]
        total = open_n + closed_n
        order = self._request_order(state, total)
        records: "list" = [None] * total
        errors: "dict[int, str]" = {}
        late: "list[float]" = []

        def send(index: int) -> None:
            try:
                records[index] = fleet.submit(pool[order[index]], screen=True)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                errors[index] = f"{type(exc).__name__}: {exc}"

        # The phases alternate in cycles, so both see the same machine.
        # Requests 0..open_n-1 are the open loop's, the rest the closed's.
        opens = np.linspace(0, open_n, self.cycles + 1).astype(int)
        closeds = open_n + np.linspace(0, closed_n, self.cycles + 1).astype(int)
        for cycle in range(self.cycles):
            late += self._open_loop(send, range(opens[cycle], opens[cycle + 1]),
                                    run.op_s, errors)
            closed = range(closeds[cycle], closeds[cycle + 1])
            for window in _chunks(closed, self.window):
                elapsed = self._closed_loop(send, window)
                completed = sum(1 for i in window if i not in errors)
                run.windows.append((completed, elapsed))

        run.attempted = total
        run.failed = len(errors)
        run.outputs = [records, order, errors]
        served = [p for p in records if p is not None]
        if served:
            run.layer = {
                "serve.infer_ms_p50": statistics.median(p.infer_ms for p in served),
                "serve.dispatch_ms_p50": statistics.median(
                    p.spans_ms.get("dispatch", 0.0) for p in served),
                "serve.queue_ms_p50": statistics.median(p.queue_ms for p in served),
                "serve.batch_size_mean": statistics.fmean(
                    p.batch_size for p in served),
                "serve.loadgen_late_ms_p99": 1e3 * float(np.percentile(late, 99)),
            }
        for index, error in sorted(errors.items())[:5]:
            run.notes[f"error.request{index}"] = error
        return run

    def _open_loop(self, send, indices: range, latencies: "list[float]",
                   errors: "dict[int, str]") -> "list[float]":
        """Paced at ``rate_rps``; sender j owns every ``clients``-th request.

        Appends each served request's latency from its due time; returns
        how late each send was."""
        start = time.perf_counter() + 0.05
        late: "list[float]" = []
        lock = threading.Lock()

        def sender(offset: int) -> None:
            for position in range(offset, len(indices), self.clients):
                due = start + position / self.rate_rps
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter() - due
                send(indices[position])
                latency = time.perf_counter() - due
                with lock:
                    late.append(sent)
                    if indices[position] not in errors:
                        latencies.append(latency)

        _run_threads(sender, self.clients)
        return late

    def _closed_loop(self, send, indices: range) -> float:
        """Each client sends its next request when the last returns."""
        cursor = iter(indices)
        lock = threading.Lock()

        def client(_: int) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                send(index)

        start = time.perf_counter()
        _run_threads(client, self.clients)
        return time.perf_counter() - start

    def check(self, state, run: Run, seed: int) -> None:
        records, order, errors = run.outputs
        pool = state["pool"]
        # In-process reference: each distinct sequence, one at a time.
        logits = {
            int(i): state["model"].predict_logits(pool[i][None])[0]
            for i in np.unique(order)
        }
        mismatched, unscreened = [], []
        for index, prediction in enumerate(records):
            if prediction is None:
                continue
            expected = logits[int(order[index])]
            top2 = np.sort(expected)[-2:]
            # A label may differ only on an exact float32 tie between the
            # top two classes (batch size changes summation order).
            if prediction.label != int(expected.argmax()) and top2[1] - top2[0] > 1e-5:
                mismatched.append(index)
            screening = prediction.screening
            if not screening or not 0.0 <= screening.get("score", -1.0) <= 1.0:
                unscreened.append(index)
        bad = set(mismatched) | set(unscreened)
        run.check("labels_match_in_process", not mismatched,
                  f"{len(mismatched)} of {len(records) - len(errors)} differ")
        run.check("screening_present", not unscreened,
                  f"{len(unscreened)} without a score")
        run.failed += len(bad - set(errors))


def _chunks(indices: range, size: int) -> "list[range]":
    return [indices[i:i + size] for i in range(0, len(indices), size)]


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(i,), daemon=True)
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
