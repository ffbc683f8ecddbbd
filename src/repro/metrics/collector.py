"""Time-series collectors: CPU utilisation sampling, windowed counters and
the windowed trace-kind counters behind the actuation and channel
metrics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..platform.knobs import ACTUATION_TRACE_KINDS
from ..sim import NS_PER_S, PeriodicTask, Simulator, Tracer, seconds
from ..x86.vm import VirtualMachine

#: Trace kinds emitted by the reliable layer (source ``"reliable"``).
RELIABLE_TRACE_KINDS = (
    "frame-sent",
    "frame-retransmit",
    "frame-acked",
    "frame-dup-dropped",
    "frame-dead-letter",
    "frame-coalesced",
)

#: Trace kind emitted by the raw lossy mailbox (source ``"channel"``).
RAW_DROP_KIND = "msg-dropped"

#: Everything the channel-reliability collector subscribes to by default.
CHANNEL_TRACE_KINDS = RELIABLE_TRACE_KINDS + (RAW_DROP_KIND,)


@dataclass
class TimePoint:
    """One sample of a windowed time series."""

    time: int
    value: float


@dataclass
class UtilizationSample:
    """CPU utilisation of one VM over one sampling window (percent of one
    core, so a 2-VCPU domain can exceed 100)."""

    time: int
    total: float
    user: float
    sys: float
    iowait: float
    steal: float


class CpuUtilizationSampler:
    """Periodically samples per-VM CPU accounting deltas.

    Mirrors what ``xentop``/``sar`` produced for the paper's Figure 5 and
    Figure 7: utilisation percentages per domain per window.
    """

    def __init__(self, sim: Simulator, vms: list[VirtualMachine], window: int = seconds(1)):
        if window <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.vms = vms
        self.window = window
        self.samples: dict[str, list[UtilizationSample]] = {vm.name: [] for vm in vms}
        self._previous = {vm.name: vm.accounting.snapshot() for vm in vms}
        self._task = PeriodicTask(sim, window, self._sample_window, name="cpu-sampler")

    def _sample_window(self) -> None:
        for vm in self.vms:
            now_counters = vm.accounting.snapshot()
            prev = self._previous[vm.name]
            delta = {k: now_counters[k] - prev[k] for k in now_counters}
            self._previous[vm.name] = now_counters
            scale = 100.0 / self.window
            self.samples[vm.name].append(
                UtilizationSample(
                    time=self.sim.now,
                    total=(delta["user"] + delta["sys"]) * scale,
                    user=delta["user"] * scale,
                    sys=delta["sys"] * scale,
                    iowait=delta["iowait"] * scale,
                    steal=delta["steal"] * scale,
                )
            )

    def mean_total(self, vm_name: str, skip_first: int = 0) -> float:
        """Mean total utilisation of a VM across collected windows."""
        samples = self.samples[vm_name][skip_first:]
        if not samples:
            return 0.0
        return sum(s.total for s in samples) / len(samples)

    def series(self, vm_name: str) -> list[UtilizationSample]:
        """All windows sampled for ``vm_name``."""
        return list(self.samples[vm_name])


@dataclass
class WindowedCounter:
    """Counts events into fixed windows (throughput series)."""

    sim: Simulator
    window: int = seconds(1)
    total: int = 0
    _counts: dict[int, int] = field(default_factory=dict)

    def record(self, count: int = 1) -> None:
        """Count ``count`` events at the current time."""
        bucket = self.sim.now // self.window
        self._counts[bucket] = self._counts.get(bucket, 0) + count
        self.total += count

    def rate_per_second(self, start: Optional[int] = None, end: Optional[int] = None) -> float:
        """Mean event rate over ``[start, end)`` (defaults to full range).

        Counts are stored per window, so the range is clamped *outward* to
        window-aligned boundaries: a bucket straddling ``start`` or ``end``
        is counted in full and the clamped span is used as the divisor.
        (Attributing a whole straddling bucket to a shorter, unaligned span
        — the previous behaviour — over- or under-stated the rate by up to
        one bucket's worth of events.)
        """
        if not self._counts:
            return 0.0
        first_bucket = min(self._counts) if start is None else start // self.window
        last_bucket = max(self._counts) + 1 if end is None else -(-end // self.window)
        if last_bucket <= first_bucket:
            return 0.0
        counted = sum(
            c
            for bucket, c in self._counts.items()
            if first_bucket <= bucket < last_bucket
        )
        span = (last_bucket - first_bucket) * self.window
        return counted * NS_PER_S / span

    def series(self) -> list[TimePoint]:
        """Per-window counts, ascending by time."""
        return [
            TimePoint(time=bucket * self.window, value=float(count))
            for bucket, count in sorted(self._counts.items())
        ]


class TraceCounters:
    """One :class:`WindowedCounter` per subscribed trace kind.

    The sink that turns a component's trace records into windowed time
    series, so its behaviour can be read off a run like any other
    throughput metric. Requires a tracer with tracing *enabled* (the
    testbed's ``tracing`` config knob); with tracing off, no records
    arrive and every counter stays at zero.
    """

    def __init__(
        self, sim: Simulator, tracer: Tracer, kinds: Iterable[str], window: int = seconds(1)
    ):
        self.sim = sim
        self.counters: dict[str, WindowedCounter] = {
            kind: WindowedCounter(sim, window=window) for kind in kinds
        }
        tracer.subscribe(self._on_record, kinds=list(self.counters))

    def _on_record(self, record) -> None:
        self.counters[record.kind].record()

    def total(self, kind: str) -> int:
        """Cumulative count of one trace kind."""
        return self.counters[kind].total

    def totals(self) -> dict[str, int]:
        """Cumulative count per subscribed kind."""
        return {kind: counter.total for kind, counter in self.counters.items()}

    def rate_per_second(
        self, kind: str, start: Optional[int] = None, end: Optional[int] = None
    ) -> float:
        """Mean event rate of one kind over ``[start, end)``."""
        return self.counters[kind].rate_per_second(start=start, end=end)

    def series(self, kind: str) -> list[TimePoint]:
        """Per-window counts of one kind, ascending by time."""
        return self.counters[kind].series()


class ChannelReliabilityCollector(TraceCounters):
    """Counters over the reliable layer's and the raw mailbox's trace kinds
    (retransmission storms, dead-letter spikes, coalescing pressure)."""

    def __init__(
        self,
        sim: Simulator,
        tracer: Tracer,
        window: int = seconds(1),
        kinds: Iterable[str] = CHANNEL_TRACE_KINDS,
    ):
        super().__init__(sim, tracer, kinds, window)


class ActuationCollector(TraceCounters):
    """Counters over the knob registry's actuation trace kinds (tune
    storms, clamp rates, trigger churn), plus per-entity totals of applied
    Tunes and Triggers so experiments can answer "who actuated what, how
    often" and attribute every scheduler change to a coordination
    decision."""

    def __init__(
        self,
        sim: Simulator,
        tracer: Tracer,
        window: int = seconds(1),
        kinds: Iterable[str] = ACTUATION_TRACE_KINDS,
    ):
        #: entity -> count of applied tunes / triggers (attribution table).
        self.tunes_by_entity: Counter[str] = Counter()
        self.triggers_by_entity: Counter[str] = Counter()
        super().__init__(sim, tracer, kinds, window)

    def _on_record(self, record) -> None:
        self.counters[record.kind].record()
        entity = record.payload.get("entity")
        if entity is None:
            return
        if record.kind == "tune-applied":
            self.tunes_by_entity[entity] += 1
        elif record.kind == "trigger-applied":
            self.triggers_by_entity[entity] += 1

    def attribution(self) -> dict[str, dict[str, int]]:
        """Per-entity applied-actuation totals (tunes and triggers)."""
        entities = set(self.tunes_by_entity) | set(self.triggers_by_entity)
        return {
            entity: {
                "tunes": self.tunes_by_entity.get(entity, 0),
                "triggers": self.triggers_by_entity.get(entity, 0),
            }
            for entity in sorted(entities)
        }
