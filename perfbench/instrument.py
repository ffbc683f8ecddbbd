"""What the benchmark installs around the program, all from outside it.

* :class:`Boundary` — the only instrument in timed runs. It stamps the
  set-up/run boundary of an arm (the first ``Simulator.run`` call, one
  extra call per arm) and keeps the sharded arm's ``ShardRunResult``
  (one extra call per arm), whose supervision counters the fabric check
  needs. Setting ``abort`` ends an arm at that boundary, which times
  set-up alone.
* :class:`Hooks` — traced runs only: counting wrappers on the public
  entry points of each layer, instance capture for the objects whose
  ``stats()`` the per-layer report reads, and the coordinator's time
  blocked in the supervised shard receive.
* :func:`self_seconds` — folds a ``cProfile`` profile into self time per
  layer, named after the ``repro.<package>`` that owns each frame.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import repro.experiments.fabric_sharded as fabric_sharded
import repro.experiments.mplayer as mplayer_experiment
from repro.coordination import CoordinationAgent
from repro.interconnect import CoordinationChannel, FramedConnection
from repro.ixp.classifier import Classifier
from repro.net.link import Link
from repro.platform.knobs import KnobRegistry
from repro.shard.supervisor import SupervisedEngine
from repro.sim import Simulator
from repro.x86.credit import CreditScheduler
from repro.x86.guest import GuestKernel

REPRO_DIR = Path(fabric_sharded.__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: Modules reported on their own; the rest of their package folds into
#: the package's ``<pkg>.self_s``.
SPLIT_MODULES = {
    "sim": ("core", "process", "queues"),
    "x86": ("credit", "guest", "vm"),
}
#: Packages reported as one layer each. Every other part of ``repro``
#: (faults, gpu, power, testbed.py, parallel.py) folds into ``repro_other``.
PACKAGES = (
    "sim", "x86", "ixp", "net", "interconnect", "coordination", "platform",
    "apps", "metrics", "obs", "experiments", "shard",
)
#: Every self-time bucket, so each workload reports the same names.
LAYERS = tuple(
    f"{pkg}.{module}" for pkg, modules in SPLIT_MODULES.items() for module in modules
) + PACKAGES + ("repro_other", "bench", "other")


class SetupDone(Exception):
    """Raised at the set-up boundary of an arm run with ``abort`` set."""


class Boundary:
    """Stamps each arm's set-up boundary while installed (``with``)."""

    def __init__(self) -> None:
        self.abort = False
        self.reset()

    def reset(self) -> None:
        #: perf_counter() at the arm's first ``Simulator.run`` call.
        self.at: float | None = None
        #: The simulator of the arm (its ``events`` counter).
        self.sim: Simulator | None = None
        #: The sharded arm's ``ShardRunResult``.
        self.shard_run = None

    def __enter__(self) -> "Boundary":
        run, run_sharded = Simulator.run, fabric_sharded.run_sharded

        def stamped_run(sim, until=None):
            if self.at is None:
                self.at = time.perf_counter()
                self.sim = sim
                if self.abort:
                    raise SetupDone
            return run(sim, until)

        def kept_run_sharded(*args, **kwargs):
            self.shard_run = run_sharded(*args, **kwargs)
            return self.shard_run

        self._restore = [
            (Simulator, "run", run),
            (fabric_sharded, "run_sharded", run_sharded),
        ]
        Simulator.run = stamped_run
        fabric_sharded.run_sharded = kept_run_sharded
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in self._restore:
            setattr(owner, attr, original)


class Hooks:
    """Counting wrappers for one traced arm (``with``); restores on exit.

    ``harness_only`` installs just the shard-harness instruments (frames
    sent, coordinator barrier wait), so the forked workers of a sharded
    arm inherit no per-call counters that would slow them down and so
    lengthen the very barrier wait being timed.
    """

    def __init__(self, harness_only: bool = False) -> None:
        self.harness_only = harness_only
        self.counts: Counter[str] = Counter()
        self.barrier_wait_s = 0.0
        self.agents: list = []
        self.channels: list = []
        self.registries: list = []
        self.deployments: list = []
        self._restore: list = []

    def __enter__(self) -> "Hooks":
        self._count("shard.frames", FramedConnection, "send")
        self._barrier()
        if self.harness_only:
            return self
        for metric, cls, attr in (
            ("x86.guest.submits", GuestKernel, "submit"),
            ("x86.credit.wakes", CreditScheduler, "wake"),
            ("x86.credit.set_weight_calls", CreditScheduler, "set_weight"),
            ("ixp.classify_calls", Classifier, "classify"),
            ("coordination.tunes_sent", CoordinationAgent, "send_tune"),
            ("coordination.triggers_sent", CoordinationAgent, "send_trigger"),
        ):
            self._count(metric, cls, attr)
        for store, cls in (
            (self.agents, CoordinationAgent),
            (self.channels, CoordinationChannel),
            (self.registries, KnobRegistry),
        ):
            self._keep(store, cls)
        self._link_send()
        self._keep_result(self.deployments, mplayer_experiment, "deploy_mplayer")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)

    def _patch(self, owner, attr, make):
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _count(self, metric, cls, attr):
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[metric] += 1
                return original(*args, **kwargs)
            return counted

        self._patch(cls, attr, make)

    def _keep(self, store, cls):
        def make(original):
            def init(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                store.append(obj)
            return init

        self._patch(cls, "__init__", make)

    def _keep_result(self, store, owner, attr):
        def make(original):
            def kept(*args, **kwargs):
                result = original(*args, **kwargs)
                store.append(result)
                return result
            return kept

        self._patch(owner, attr, make)

    def _link_send(self):
        counts = self.counts

        def make(original):
            def send(link, packet):
                accepted = original(link, packet)
                counts["net.link.sends"] += 1
                if accepted is False:
                    counts["net.link.refused"] += 1
                return accepted
            return send

        self._patch(Link, "send", make)

    def _barrier(self):
        def make(original):
            def timed_await(engine, handle, kinds):
                start = time.perf_counter()
                try:
                    return original(engine, handle, kinds)
                finally:
                    self.barrier_wait_s += time.perf_counter() - start
            return timed_await

        self._patch(SupervisedEngine, "_await", make)

    # -- totals over the captured instances -------------------------------

    def tunes_applied(self) -> int:
        return sum(agent.tunes_applied for agent in self.agents)

    def channel_totals(self) -> tuple[int, int]:
        stats = [channel.stats() for channel in self.channels]
        return sum(s["sent"] for s in stats), sum(s["dropped"] for s in stats)

    def knob_actuations(self) -> int:
        return sum(
            s["tunes_applied"] + s["triggers_applied"] + s["reverts_applied"]
            for s in (registry.stats() for registry in self.registries)
        )


def layer_of(filename: str) -> str:
    """The self-time bucket owning code from ``filename``."""
    path = Path(filename)
    if path.is_relative_to(REPRO_DIR):
        parts = path.relative_to(REPRO_DIR).with_suffix("").parts
        package = parts[0]
        if package in SPLIT_MODULES and parts[-1] in SPLIT_MODULES[package]:
            return f"{package}.{parts[-1]}"
        return package if package in PACKAGES else "repro_other"
    if path.is_relative_to(BENCH_DIR):
        return "bench"
    return "other"


def self_seconds(profile) -> dict[str, float]:
    """Self (exclusive) seconds per layer from a ``cProfile.Profile``.
    Builtins and the standard library (generator ``send``, ``heapq``)
    land in ``other``; the benchmark's own wrappers in ``bench``."""
    profile.create_stats()
    totals = dict.fromkeys(LAYERS, 0.0)
    layers: dict[str, str] = {}
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in profile.stats.items():
        layer = layers.get(filename)
        if layer is None:
            layer = layers[filename] = layer_of(filename)
        totals[layer] += tottime
    return totals
