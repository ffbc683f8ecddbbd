"""The benchmark's three workloads, each one arm of a public experiment.

Every workload is a batch job: one call into :mod:`repro.experiments`
with the workload seed, returning the experiment's own result object.
The helpers here are shared by ``run.py`` (which times and checks arms)
and ``make_reference.py`` (which commits the digests the checks compare
against), so both always digest the same thing the same way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.experiments import run_fabric_sharded_arm, run_rubis, run_trigger_arm
from repro.sim import seconds

#: Measured simulated length of one RUBiS arm (after its 8 s warmup).
RUBIS_SECONDS = 20
#: Islands in the sharded fabric arm (64 clusters of 8).
FABRIC_ISLANDS = 512
#: Shard worker processes of the fabric arm; one per CPU on a 2-CPU host.
FABRIC_SHARDS = 2

NAMES = ("rubis-coord", "trigger-coord", "fabric-shard2")

#: Environment each workload forces before it runs. The RUBiS and
#: trigger arms stay in one process; the fabric arm needs exactly its
#: two shard workers and no more.
ENV = {
    "rubis-coord": {"REPRO_PARALLEL": "0", "REPRO_WORKERS": "1"},
    "trigger-coord": {"REPRO_PARALLEL": "0", "REPRO_WORKERS": "1"},
    "fabric-shard2": {"REPRO_PARALLEL": "1", "REPRO_WORKERS": str(FABRIC_SHARDS)},
}


def digest(value) -> str:
    """Short stable hash of a result: every field, floats by ``repr``,
    dict keys sorted so only values (never insertion order) count."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    canonical = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def rubis_arm(seed: int):
    """The coordinated RUBiS arm (Figures 2/4/5, Tables 1/2 scenario)."""
    return run_rubis(coordinated=True, duration=seconds(RUBIS_SECONDS), seed=seed)


def trigger_arm(seed: int):
    """The buffer-monitor MPlayer arm (Figure 7 / Table 3 scenario)."""
    return run_trigger_arm(buffer_trigger=True, seed=seed)


def fabric_arm(seed: int, shards: int):
    """The K=512 sharded fabric arm; ``shards=1`` is its inline reference."""
    return run_fabric_sharded_arm(
        FABRIC_ISLANDS, shards=shards, seed=seed, workers=shards
    )


def output_digest(name: str, result) -> str:
    """The digest a workload's check compares: the whole arm result, or
    for the fabric arm its bit-equality artefact (``metrics``), which
    leaves out the execution fields that may differ between runs."""
    return digest(result.metrics if name == "fabric-shard2" else result)


def headline(name: str, result) -> dict:
    """A few readable numbers of an arm, stored beside each digest so a
    mismatch says what moved."""
    if name == "rubis-coord":
        return {
            "throughput": result.throughput,
            "tunes_applied": result.tunes_applied,
            "requests": result.overall.count,
        }
    if name == "trigger-coord":
        return {
            "dom1_fps": result.dom1_fps,
            "dom2_fps": result.dom2_fps,
            "triggers_sent": result.triggers_sent,
            "buffer_high_watermark": result.buffer_high_watermark,
        }
    return {
        "events": result.events,
        "windows": result.windows,
        "root_tunes": result.root_tunes,
        "mean_probe_latency_ms": result.mean_probe_latency_ms,
    }


def reference_arm(name: str, seed: int):
    """The arm whose digest the committed reference holds: the arm
    itself, except for the fabric workload, whose reference is the
    single-process (``shards=1``) run of the same fabric."""
    if name == "rubis-coord":
        return rubis_arm(seed)
    if name == "trigger-coord":
        return trigger_arm(seed)
    return fabric_arm(seed, shards=1)
