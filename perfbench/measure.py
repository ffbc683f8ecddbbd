"""Timed and traced runs of one workload, with their output checks.

``--trace 0`` (:func:`timed_single`, :func:`timed_fabric`) repeats whole
arms for the run's seconds under :class:`~instrument.Boundary` only and
reports medians; ``--trace 1`` (:func:`traced_single`,
:func:`traced_fabric`) runs one untraced arm, then one arm under
``cProfile`` and :class:`~instrument.Hooks`, and reports the per-layer
split. Every arm's simulated output is checked after its timed interval.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from instrument import LAYERS, Boundary, Hooks, SetupDone, self_seconds

HERE = Path(__file__).resolve().parent
#: Abort-at-boundary arms that time set-up alone, before each timed arm.
SETUP_PROBES = 10
#: Timed arms per run even when one arm outlasts the run's seconds.
MIN_ARMS = 3
#: Supervision counters that mean the sharded arm did not run undisturbed.
SUPERVISION_EVENTS = (
    "supervision.crashes", "supervision.hangs", "supervision.respawns",
    "supervision.degraded_inline", "supervision.finish_timeouts",
)
#: Derived fields of the fabric arm that must read the same at any layout.
DERIVED_FIELDS = (
    "mean_probe_latency_ms", "worst_probe_latency_ms", "detect_ms", "convergence_ms",
)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child (shard worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


class Checker:
    """Counts arms and failed checks; knows the expected output digest."""

    def __init__(self, name: str, seed: int, reference: dict) -> None:
        self.name = name
        committed = reference["workloads"][name].get(str(seed))
        self.attempted = 0
        self.failures: list[str] = []
        #: Digest every arm must match: the committed one, else the first
        #: arm's (repeatability only).
        self.digest = committed["digest"] if committed else None
        if committed is None:
            print(f"note: no committed reference for {name} seed {seed}; "
                  "checking that arms repeat exactly", file=sys.stderr)

    def run(self, arm, *args):
        """Run one arm; an exception is a failed arm, not a crash."""
        self.attempted += 1
        try:
            return arm(*args)
        except Exception as exc:  # every arm failure is reported, not raised
            self.fail(f"arm raised {type(exc).__name__}: {exc}")
            return None

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"FAILED {self.name}: {reason}", file=sys.stderr)

    def output(self, result) -> bool:
        """Check an arm's simulated output against the expected digest."""
        got = workloads.output_digest(self.name, result)
        if self.digest is None:
            self.digest = got
        if got == self.digest:
            return True
        self.fail(f"output digest {got} != expected {self.digest} "
                  f"({workloads.headline(self.name, result)})")
        return False


# -- single-process arms (rubis-coord, trigger-coord) --------------------------


def _arm(name: str):
    return workloads.rubis_arm if name == "rubis-coord" else workloads.trigger_arm


def timed_single(check: Checker, seed: int, seconds: float) -> dict:
    arm = _arm(check.name)
    setup, wall = [], []
    with Boundary() as boundary:
        _setup_probes(check, arm, seed, boundary, 1)  # pays lazy one-off set-up
        began = time.perf_counter()
        while True:
            gc.collect()  # the previous arm's garbage is not the next one's cost
            # Probes before every arm, so set-up samples span the whole run
            # as the arms do, not one moment of the host's load.
            setup += _setup_probes(check, arm, seed, boundary, SETUP_PROBES)
            boundary.reset()
            start = time.perf_counter()
            result = check.run(arm, seed)
            end = time.perf_counter()
            if result is not None and check.output(result):
                setup.append(boundary.at - start)
                wall.append(end - boundary.at)
            if _enough(check.attempted, began, end, seconds):
                break
    return {"wall_s": wall, "setup_s": setup, "peak_rss_mb": [peak_rss_mb()]}


def _setup_probes(check: Checker, arm, seed: int, boundary: Boundary, count: int) -> list:
    """Set-up seconds of ``count`` arms each aborted at its first event."""
    samples = []
    boundary.abort = True
    try:
        for _ in range(count):
            boundary.reset()
            start = time.perf_counter()
            try:
                arm(seed)
            except SetupDone:
                samples.append(boundary.at - start)
            except Exception as exc:  # reported like a failed arm
                check.fail(f"set-up raised {type(exc).__name__}: {exc}")
                break
    finally:
        boundary.abort = False
    return samples


def traced_single(check: Checker, seed: int) -> dict:
    arm = _arm(check.name)
    with Boundary() as boundary:
        start = time.perf_counter()
        result = check.run(arm, seed)
        end = time.perf_counter()
    if result is None:
        return {}
    check.output(result)
    untraced = end - start
    wall, events = end - boundary.at, boundary.sim.events
    with Hooks() as hooks:
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        traced = check.run(arm, seed)
        profile.disable()
        traced_s = time.perf_counter() - start
    if traced is None:
        return {}
    check.output(traced)
    out = layer_report(self_seconds(profile), traced_s, untraced)
    sent, dropped = hooks.channel_totals()
    if check.name == "rubis-coord":
        completed = result.overall.count
    else:
        deployment = hooks.deployments[0]
        completed = (
            deployment.dom1_player.frames_decoded
            + deployment.dom2_disk_player.frames_decoded
        )
    out.update({
        "sim.events": events,
        "sim.host_ns_per_event": wall / events * 1e9,
        "interconnect.channel.sent": sent,
        "interconnect.channel.dropped": dropped,
        "coordination.tunes_applied": hooks.tunes_applied(),
        "platform.knobs.actuations": hooks.knob_actuations(),
        "apps.completed": completed,
    })
    out.update(hooks.counts)
    return out


def _enough(arms: int, began: float, now: float, seconds: float) -> bool:
    """Stop once another arm of the mean length would overrun."""
    return arms >= MIN_ARMS and (now - began) * (arms + 1) / arms > seconds


# -- the sharded arm (fabric-shard2) ---------------------------------------------


def summarize(result, shard_run=None) -> dict:
    """What the checks need from a fabric arm. Arms keep only this, never
    their result: kept results would grow the measured peak RSS with the
    number of arms that fit in the run."""
    return {
        "digest": workloads.output_digest("fabric-shard2", result),
        "derived": [repr(getattr(result, field)) for field in DERIVED_FIELDS],
        "wall": result.wall_seconds,
        "harness": None if shard_run is None else harness_failure(result, shard_run),
    }


def harness_failure(result, shard_run) -> str | None:
    """Why a sharded arm did not measure what it claims, or None."""
    if result.engine != "process":
        causes = shard_run.supervision.get("degradations")
        return f"ran on the {result.engine} engine, not process ({causes})"
    events = {k: shard_run.counters[k] for k in SUPERVISION_EVENTS if shard_run.counters.get(k)}
    if events:
        return f"supervision intervened: {events}"
    return None


def sharded_failure(arm: dict, reference: dict | None) -> str | None:
    if arm["harness"]:
        return arm["harness"]
    if reference is None:
        return "no valid shards=1 reference to compare with"
    if arm["digest"] != reference["digest"]:
        return "merged metrics differ from the shards=1 reference"
    return None


def derived_mismatches(arm: dict, reference: dict) -> int:
    return sum(a != b for a, b in zip(arm["derived"], reference["derived"]))


def fabric_reference(check: Checker, seed: int):
    """The untimed shards=1 inline arm and its seconds. It is checked
    against the committed digest (None when that fails); the sharded
    arms must then equal it."""
    start = time.perf_counter()
    reference = check.run(workloads.fabric_arm, seed, 1)
    elapsed = time.perf_counter() - start
    if reference is not None and not check.output(reference):
        reference = None
    return reference, elapsed


def sharded_arm(check: Checker, boundary: Boundary, seed: int) -> dict | None:
    gc.collect()
    boundary.reset()
    start = time.perf_counter()
    result = check.run(workloads.fabric_arm, seed, workloads.FABRIC_SHARDS)
    if result is None:
        return None
    arm = summarize(result, boundary.shard_run)
    arm["setup"] = time.perf_counter() - start - result.wall_seconds
    return arm


def timed_fabric(check: Checker, seed: int, seconds: float) -> dict:
    arms = []
    if (os.cpu_count() or 1) < workloads.FABRIC_SHARDS:
        check.fail(f"{os.cpu_count()} CPU(s) cannot host {workloads.FABRIC_SHARDS} shards")
    with Boundary() as boundary:
        began = time.perf_counter()
        while True:
            arm = sharded_arm(check, boundary, seed)
            if arm is not None:
                arms.append(arm)
            if _enough(check.attempted, began, time.perf_counter(), seconds):
                break
    # Read before the inline reference runs, so the peak is the sharded
    # workload's own (workers fork from this process, so order matters).
    rss = peak_rss_mb()
    reference, _ = fabric_reference(check, seed)
    reference = None if reference is None else summarize(reference)
    setup, wall = [], []
    for arm in arms:
        reason = sharded_failure(arm, reference)
        if reason:
            check.fail(reason)
            continue
        setup.append(arm["setup"])
        wall.append(arm["wall"])
    if reference is not None and arms:
        print(f"shard.derived_repr_mismatch {derived_mismatches(arms[0], reference)}")
    return {"wall_s": wall, "setup_s": setup, "peak_rss_mb": [rss]}


def traced_fabric(check: Checker, seed: int) -> dict:
    with Boundary() as boundary:
        sharded = sharded_arm(check, boundary, seed)
        shard_run = boundary.shard_run
    reference, inline_s = fabric_reference(check, seed)
    with Hooks() as hooks:
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        traced = check.run(workloads.fabric_arm, seed, 1)
        profile.disable()
        traced_s = time.perf_counter() - start
    if traced is not None:
        check.output(traced)
    # The sharded arm again, with only the coordinator-side frame counter
    # and barrier timer on: the harness numbers the inline profile lacks.
    with Boundary() as boundary, Hooks(harness_only=True) as harness:
        counted = sharded_arm(check, boundary, seed)
    summary = None if reference is None else summarize(reference)
    for arm in (sharded, counted):
        if arm is not None:
            reason = sharded_failure(arm, summary)
            if reason:
                check.fail(reason)
    if None in (sharded, reference, traced, counted):
        return {}
    out = layer_report(self_seconds(profile), traced_s, inline_s)
    out.update(hooks.counts)
    metrics = reference.metrics
    clusters = metrics["clusters"].values()
    out.update({
        "sim.events": reference.events,
        "sim.host_ns_per_event": reference.wall_seconds / reference.events * 1e9,
        "coordination.tunes_sent": (metrics["root"] or {}).get("tunes_sent", 0),
        "coordination.tunes_applied": sum(c["tunes_received"] for c in clusters),
        "platform.knobs.actuations": hooks.knob_actuations(),
        "apps.completed": sum(i["probe_count"] for i in metrics["islands"].values()),
        "shard.windows": shard_run.windows,
        "shard.frames": harness.counts["shard.frames"],
        "shard.barrier_wait_s": harness.barrier_wait_s,
        "shard.boundary.sent": shard_run.counters["sent"],
        "shard.boundary.delivered": shard_run.counters["delivered"],
        "shard.supervision.respawns": shard_run.counters["supervision.respawns"],
        "shard.supervision.journal_messages":
            shard_run.counters["supervision.journal_messages"],
        "shard.speedup_vs_inline": reference.wall_seconds / sharded["wall"],
        "shard.derived_repr_mismatch": derived_mismatches(sharded, summary),
    })
    return out


# -- reporting ---------------------------------------------------------------------

#: Per-layer metric -> unit; every workload reports every name (0 where
#: the workload never enters that layer).
PER_LAYER_COUNTS = (
    "sim.events", "x86.guest.submits", "x86.credit.wakes",
    "x86.credit.set_weight_calls", "ixp.classify_calls", "net.link.sends",
    "net.link.refused", "interconnect.channel.sent", "interconnect.channel.dropped",
    "coordination.tunes_sent", "coordination.tunes_applied",
    "coordination.triggers_sent", "platform.knobs.actuations", "apps.completed",
    "shard.windows", "shard.frames", "shard.boundary.sent", "shard.boundary.delivered",
    "shard.supervision.respawns", "shard.supervision.journal_messages",
    "shard.derived_repr_mismatch",
)
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **dict.fromkeys(PER_LAYER_COUNTS, "count"),
    "sim.host_ns_per_event": "ns",
    "coordination.tune_apply_ratio": "ratio",
    "shard.barrier_wait_s": "s",
    "shard.speedup_vs_inline": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}


def layer_report(selfs: dict, traced_s: float, untraced_s: float) -> dict:
    out = {f"{layer}.self_s": seconds for layer, seconds in selfs.items()}
    out["trace.wall_s"] = traced_s
    out["trace.unattributed_s"] = traced_s - sum(selfs.values())
    out["trace.overhead_ratio"] = traced_s / untraced_s
    return out


def per_layer_metrics(values: dict) -> dict:
    sent = values.get("coordination.tunes_sent", 0)
    values["coordination.tune_apply_ratio"] = (
        values.get("coordination.tunes_applied", 0) / sent if sent else 0.0
    )
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end_metrics(samples: dict) -> dict:
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = samples.get(name) or [0.0]  # no passing arm: the run failed
        median = statistics.median(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name} {median:.6g} {unit} (median of {len(samples.get(name) or [])}, "
              f"range {min(values):.6g}-{max(values):.6g})")
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.environ.update(workloads.ENV[name])
    reference = json.loads((HERE / "reference.json").read_text())
    check = Checker(name, seed, reference)
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)} | "
          f"nproc {os.cpu_count()} python {platform.python_version()} | "
          + " ".join(f"{k}={v}" for k, v in workloads.ENV[name].items()))
    fabric = name == "fabric-shard2"
    if trace:
        values = (traced_fabric if fabric else traced_single)(check, seed)
        metrics = per_layer_metrics(values)
        for metric, entry in metrics.items():
            print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    else:
        samples = (timed_fabric if fabric else timed_single)(check, seed, seconds)
        metrics = end_to_end_metrics(samples)
    failed = len(check.failures)
    attempted = max(check.attempted, failed, 1)
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} arms)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
