#!/usr/bin/env python3
"""CI smoke check for self-healing sharded execution.

Runs the K=128 sharded fabric with a scripted mid-run worker kill (a
picklable :class:`~repro.shard.FaultScript` fired inside the worker
process) and asserts the recovery story end to end:

* the run stays on the **process** engine (the supervisor respawned the
  dead worker instead of degrading the run),
* exactly one crash and one respawn are counted, with journal-replayed
  grants fast-forwarding the reborn shard,
* the merged simulation metrics are **bit-identical** to an undisturbed
  single-process reference — a killed-and-recovered run leaks nothing,
* the recovery wall-time overhead is bounded (replay must be cheap
  relative to the run, or self-healing is a fiction).

Writes a ``shard_chaos_smoke.json`` artefact with the recovery counters
and the overhead against a clean supervised baseline, so recovery cost
is trackable runner-to-runner over time.

Exits non-zero on any mismatch.

Run as: PYTHONPATH=src python tools/shard_chaos_smoke.py
"""

import json
import os
import sys

os.environ.setdefault("REPRO_WORKERS", "2")

from repro.experiments.fabric_sharded import (  # noqa: E402
    _merge_shard_results,
    build_fabric_world,
    sharded_topology,
)
from repro.shard import FaultScript, ShardConfig, ShardPlan, run_sharded  # noqa: E402
from repro.sim import ms  # noqa: E402

K = 128
DURATION = ms(500)
SEED = 1
#: Kill one worker a quarter of the way through the run: fault-hook
#: windows are half-window grants, 200 of them in 500 ms at 5 ms.
KILL_WINDOW = 50
#: Replayed windows must not cost more than the whole clean run again
#: (generous: replay skips routing and runs one shard, not all).
MAX_OVERHEAD_RATIO = 1.0

CONFIG = ShardConfig(
    barrier_timeout_s=30.0,
    heartbeat_interval_s=0.1,
    probe_timeout_s=5.0,
    max_respawns=2,
    respawn_backoff_s=0.01,
)


def run(script=None):
    plan = ShardPlan(sharded_topology(K), shards=2)
    return run_sharded(
        plan, build_fabric_world, (SEED, DURATION, False),
        duration=DURATION, config=CONFIG, fault_hook=script,
    )


def main() -> int:
    reference = run_sharded(
        ShardPlan(sharded_topology(K), shards=1), build_fabric_world,
        (SEED, DURATION, False), duration=DURATION,
    )
    clean = run()
    killed = run(FaultScript(kills=((1, KILL_WINDOW),)))

    assert clean.engine == "process" and killed.engine == "process", (
        f"expected the process engine with REPRO_WORKERS forced, got "
        f"{clean.engine!r} / {killed.engine!r}"
    )
    assert killed.counters["supervision.crashes"] == 1, killed.counters
    assert killed.counters["supervision.respawns"] == 1, killed.counters
    assert killed.counters["supervision.replayed_windows"] == KILL_WINDOW, (
        killed.counters
    )
    assert killed.counters["supervision.degraded_inline"] == 0, killed.counters

    reference_metrics = _merge_shard_results(
        reference.results, reference.counters
    )
    killed_metrics = _merge_shard_results(killed.results, killed.counters)
    assert killed_metrics == reference_metrics, (
        "killed-and-recovered run diverged from the undisturbed "
        "single-process reference"
    )
    assert killed.events == reference.events, (
        f"kernel event counts diverged: {killed.events} vs {reference.events}"
    )

    recovery_s = killed.supervision["recovery_seconds"]
    overhead_s = max(0.0, killed.wall_seconds - clean.wall_seconds)
    assert recovery_s <= MAX_OVERHEAD_RATIO * clean.wall_seconds, (
        f"recovery took {recovery_s:.2f}s against a {clean.wall_seconds:.2f}s "
        f"clean run — replay is too expensive to call self-healing"
    )

    report = {
        "k": K,
        "duration_s": DURATION / 1e9,
        "kill_window": KILL_WINDOW,
        "bit_identical": True,
        "events": killed.events,
        "counters": {
            key: value
            for key, value in sorted(killed.counters.items())
            if key.startswith("supervision.")
        },
        "recovery_seconds": recovery_s,
        "clean_wall_seconds": clean.wall_seconds,
        "killed_wall_seconds": killed.wall_seconds,
        "overhead_seconds": overhead_s,
        "events_per_second": killed.events_per_second,
    }
    with open("shard_chaos_smoke.json", "w") as fh:
        json.dump(report, fh, indent=2)

    print(
        f"shard chaos smoke OK: K={K}, worker killed at grant "
        f"{KILL_WINDOW}, respawned (+{killed.counters['supervision.replayed_windows']} "
        f"replayed grants), bit-identical; recovery {recovery_s:.2f}s, "
        f"overhead +{overhead_s:.2f}s over a {clean.wall_seconds:.2f}s clean run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
