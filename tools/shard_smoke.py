#!/usr/bin/env python3
"""CI smoke check for the sharded fabric execution mode.

Runs the K=128 sharded fabric twice — single-process reference and a
two-shard run forced onto worker processes — and asserts the headline
guarantee plus the fault arc:

* the sharded run's merged simulation metrics are **bit-identical** to
  the single-process reference (the conservative window protocol leaks
  nothing about process placement),
* the run actually used the process engine (REPRO_WORKERS is forced, so
  a silent inline degradation fails the check),
* the shard-crossing partition was detected at both uplink endpoints
  and the spare entity converged fabric-wide after the heal.

Writes a ``shard_smoke.json`` artefact with both arms' events/sec and
wall clock, plus the sharded arm's plan-window and half-window grant
counts, so runner-to-runner throughput is trackable over time.

Exits non-zero on any mismatch.

Run as: PYTHONPATH=src python tools/shard_smoke.py
"""

import json
import os
import sys

os.environ.setdefault("REPRO_WORKERS", "2")

from repro.experiments import run_fabric_sharded_arm  # noqa: E402
from repro.sim import seconds  # noqa: E402

K = 128
DURATION = seconds(1)


def main() -> int:
    reference = run_fabric_sharded_arm(K, shards=1, duration=DURATION, seed=1)
    sharded = run_fabric_sharded_arm(K, shards=2, duration=DURATION, seed=1)

    assert sharded.engine == "process", (
        f"expected the process engine with REPRO_WORKERS forced, "
        f"got {sharded.engine!r}"
    )
    assert sharded.metrics == reference.metrics, (
        "sharded run diverged from the single-process reference"
    )
    assert sharded.events == reference.events, (
        f"kernel event counts diverged: {sharded.events} vs {reference.events}"
    )
    assert reference.detect_ms is not None, (
        "shard-crossing partition was never detected"
    )
    assert reference.recovery_epoch >= 1, (
        "uplink recovery never bumped the epoch"
    )
    assert reference.convergence_ms is not None, (
        "spare entity registered mid-partition never converged fabric-wide"
    )

    report = {
        "k": K,
        "duration_s": DURATION / 1e9,
        "bit_identical": True,
        "detect_ms": reference.detect_ms,
        "convergence_ms": reference.convergence_ms,
        "events": reference.events,
        "reference": {
            "engine": reference.engine,
            "wall_seconds": reference.wall_seconds,
            "events_per_second": reference.events_per_second,
        },
        "sharded": {
            "engine": sharded.engine,
            "shards": sharded.shards,
            "windows": sharded.windows,
            "grants": sharded.grants,
            "wall_seconds": sharded.wall_seconds,
            "events_per_second": sharded.events_per_second,
            "speedup": (
                reference.wall_seconds / sharded.wall_seconds
                if sharded.wall_seconds > 0 else 0.0
            ),
        },
    }
    with open("shard_smoke.json", "w") as fh:
        json.dump(report, fh, indent=2)

    print(
        f"shard smoke OK: K={K}, shards={sharded.shards} ({sharded.engine}), "
        f"bit-identical, detect {reference.detect_ms:.0f} ms, "
        f"converged {reference.convergence_ms:.1f} ms after registration, "
        f"{reference.events_per_second / 1e3:.0f}k ev/s x1 vs "
        f"{sharded.events_per_second / 1e3:.0f}k ev/s x2 "
        f"({report['sharded']['speedup']:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
