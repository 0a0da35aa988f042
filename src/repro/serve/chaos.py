"""Chaos harness: inject replica faults under load, assert recovery.

The fleet's resilience claims are only real if they survive an adversarial
drill, so this module scripts one: start the standard load generator
(with client retries, the deployment posture) against a fleet-backed
server, inject a fault mid-load — ``kill`` (SIGKILL, the paper-over-able
crash), ``hang`` (a wedged event loop the heartbeats must catch), or
``slow`` (per-request added latency) — then measure what the fleet
promised: no request is lost except those in flight on the dead replica
(and retries win even those back), the replica respawns within the
bounded-backoff budget, and post-recovery latency returns to normal.

:func:`run_chaos` produces a JSON-serializable report;
:func:`assert_recovery` turns the fleet's SLO into hard assertions — the
CI ``chaos-serve`` job and ``repro infer --chaos`` both go through it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..runtime.logging import get_logger
from ..runtime.telemetry import metrics
from .client import run_load
from .fleet import ReplicaFleet, ReplicaState, poll_until

__all__ = ["ChaosPlan", "run_chaos", "assert_recovery"]

_log = get_logger("serve.chaos")

_FAULTS = ("kill", "hang", "slow")


@dataclass(frozen=True)
class ChaosPlan:
    """One scripted fault drill."""

    #: ``kill`` (SIGKILL), ``hang`` (wedge the replica's event loop so
    #: heartbeats miss), or ``slow`` (add per-request latency).
    fault: str = "kill"
    #: Which fleet slot the fault hits.
    target_slot: int = 0
    #: Delay from load start to injection (so requests are in flight).
    inject_after_s: float = 0.5
    #: ``hang`` wedge duration; must exceed the fleet's
    #: ``heartbeat_miss_dead`` budget to force a kill + respawn.
    hang_s: float = 8.0
    #: ``slow`` fault's added latency per request.
    slow_ms: float = 250.0
    #: Load shape during the drill (steady mode, client retries on).
    requests: int = 120
    concurrency: int = 8
    #: How long to wait for the fleet to report recovery.
    recovery_timeout_s: float = 30.0
    #: READY replicas required to call the fleet recovered.
    recovery_ready: int = 1
    #: Post-recovery probe load (the "did latency come back" check).
    post_requests: int = 40

    def __post_init__(self) -> None:
        if self.fault not in _FAULTS:
            raise ValueError(f"fault must be one of {_FAULTS}, got {self.fault!r}")
        if self.requests < 1 or self.post_requests < 0:
            raise ValueError("requests must be >= 1, post_requests >= 0")
        if self.inject_after_s < 0.0 or self.recovery_timeout_s <= 0.0:
            raise ValueError("inject_after_s >= 0 and recovery_timeout_s > 0")


def _inject(fleet: ReplicaFleet, plan: ChaosPlan) -> dict:
    """Fire the planned fault; returns what was done (for the report)."""
    slot = plan.target_slot
    if plan.fault == "kill":
        pid = fleet.kill_replica(slot)
        _log.info("chaos: SIGKILL replica %d (pid %s)", slot, pid)
        return {"fault": "kill", "slot": slot, "pid": pid}
    if plan.fault == "hang":
        sent = fleet.inject_fault(slot, "hang", plan.hang_s)
        _log.info("chaos: hang replica %d for %.1fs (sent=%s)",
                  slot, plan.hang_s, sent)
        return {"fault": "hang", "slot": slot, "hang_s": plan.hang_s,
                "sent": sent}
    sent = fleet.inject_fault(slot, "slow", plan.slow_ms)
    _log.info("chaos: slow replica %d by %.0fms (sent=%s)",
              slot, plan.slow_ms, sent)
    return {"fault": "slow", "slot": slot, "slow_ms": plan.slow_ms,
            "sent": sent}


def run_chaos(
    fleet: ReplicaFleet,
    base_url: str,
    sequences: np.ndarray,
    plan: "ChaosPlan | None" = None,
) -> dict:
    """Run one fault drill against a live fleet-backed server.

    ``fleet`` must be the backend of the server listening at
    ``base_url`` (the harness injects through the object and loads
    through HTTP, exactly the split a real outage has).  Returns a
    report with the under-fault load summary, the injection record,
    recovery timing/respawn evidence, the post-recovery load summary,
    and the fleet metrics counters.
    """
    plan = plan or ChaosPlan()
    pid_before = fleet.replica_pid(plan.target_slot)
    injection: "dict | None" = None
    summary: "dict | None" = None

    def _load() -> None:
        nonlocal summary
        summary = run_load(
            base_url, sequences, requests=plan.requests,
            concurrency=plan.concurrency, screen=False, retry=True,
        )

    load_thread = threading.Thread(target=_load, name="chaos-load", daemon=True)
    load_start = time.monotonic()
    load_thread.start()
    time.sleep(plan.inject_after_s)
    injection = _inject(fleet, plan)
    load_thread.join()
    load_wall_s = time.monotonic() - load_start

    recovery_start = time.monotonic()
    recovered = fleet.wait_until_ready(
        plan.recovery_ready, plan.recovery_timeout_s
    )
    # A killed/hung replica must actually come back, not just leave the
    # survivors READY: wait for the slot to hold a live, READY process.
    respawned = None
    if plan.fault in ("kill", "hang"):
        def back() -> bool:
            state = fleet.replica_states()[plan.target_slot]
            return state["state"] == ReplicaState.READY and state["pid"] not in (
                None, pid_before,
            )

        respawned = poll_until(back, plan.recovery_timeout_s)
    pid_after = fleet.replica_pid(plan.target_slot)
    recovery_wait_s = time.monotonic() - recovery_start

    post = None
    if plan.post_requests:
        post = run_load(
            base_url, sequences, requests=plan.post_requests,
            concurrency=plan.concurrency, screen=False, retry=True,
        )

    snapshot = metrics().snapshot()
    fleet_counters = {
        name: entry.get("value")
        for name, entry in snapshot.items()
        if name.startswith("fleet.") and entry.get("type") == "counter"
    }
    report = {
        "plan": asdict(plan),
        "injection": injection,
        "load": summary,
        "load_wall_s": round(load_wall_s, 3),
        "recovery": {
            "recovered": recovered,
            "wait_s": round(recovery_wait_s, 3),
            "respawned": respawned,
            "pid_before": pid_before,
            "pid_after": pid_after,
            "ready_replicas": fleet.ready_count(),
        },
        "post": post,
        "fleet": fleet.describe(),
        "fleet_counters": fleet_counters,
    }
    _log.info(
        "chaos drill done: fault=%s ok=%s/%s retries=%s recovered=%s "
        "respawned=%s post_p99=%sms",
        plan.fault, summary["ok"] if summary else "?", plan.requests,
        summary["retries"] if summary else "?", recovered, respawned,
        post["latency_ms"]["p99"] if post else "n/a",
    )
    return report


def assert_recovery(report: dict) -> None:
    """The fleet's recovery SLO as hard assertions over a chaos report.

    * every request ultimately succeeded (in-flight requests on the dead
      replica came back 503 and the client's retries won them back);
    * the fleet reports recovered, and a killed/hung replica respawned
      as a new pid within the bounded-backoff budget;
    * the post-recovery probe (when run) also lost nothing.
    """
    load = report["load"]
    plan = report["plan"]
    problems = []
    if load["ok"] != plan["requests"]:
        problems.append(
            f"only {load['ok']}/{plan['requests']} requests succeeded "
            f"(statuses {load['statuses']}, "
            f"{load['other_errors']} other errors)"
        )
    if load["deadline_504"]:
        problems.append(f"{load['deadline_504']} requests timed out (504)")
    if not report["recovery"]["recovered"]:
        problems.append(
            f"fleet not recovered after {report['recovery']['wait_s']}s"
        )
    if report["recovery"]["respawned"] is False:
        problems.append(
            f"replica {plan['target_slot']} did not respawn "
            f"(pid {report['recovery']['pid_before']} -> "
            f"{report['recovery']['pid_after']})"
        )
    post = report.get("post")
    if post is not None and post["ok"] != plan["post_requests"]:
        problems.append(
            f"post-recovery probe lost requests: "
            f"{post['ok']}/{plan['post_requests']}"
        )
    if problems:
        raise AssertionError("chaos SLO violated: " + "; ".join(problems))
