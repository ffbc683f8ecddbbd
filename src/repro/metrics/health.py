"""Health metrics: failure-detector and fault-injection trace sink.

The fault domain (``repro.faults``) publishes every heartbeat, peer-state
transition, epoch bump, injected fault and degraded-mode suppression as
trace records; this collector is the matching sink, turning a chaos run
into per-island state timelines and the robustness numbers the chaos
experiment reports (detection latency, fallback latency, time-to-recover).

Requires a tracer with tracing *enabled*. The chaos experiment itself runs
with tracing off for speed and reads ``FailureDetector.transitions``
directly; this collector is for interactive runs and trace tooling, where
the same timeline should appear alongside every other trace stream.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..faults.health import (
    HEALTH_TRACE_KINDS,
    PEER_DOWN,
    PEER_SUSPECT,
    PEER_UP,
    first_transition,
)
from ..faults.injector import FAULT_TRACE_KINDS
from ..sim import Simulator, Tracer


class HealthCollector:
    """Counters, event log, and per-island peer-state timelines."""

    def __init__(self, sim: Simulator, tracer: Tracer):
        self.sim = sim
        #: kind -> cumulative count across every island.
        self.counts: Counter[str] = Counter()
        #: (time, kind, payload) for every non-heartbeat health event.
        #: Heartbeats are counted but not logged (they dominate by volume).
        self.events: list[tuple[int, str, dict]] = []
        #: island -> [(time, state)] peer-state transitions, ascending.
        self.state_timeline: dict[str, list[tuple[int, str]]] = {}
        kinds = list(HEALTH_TRACE_KINDS) + list(FAULT_TRACE_KINDS)
        tracer.subscribe(self._on_record, kinds=kinds)

    def _on_record(self, record) -> None:
        self.counts[record.kind] += 1
        if record.kind in ("heartbeat-sent", "heartbeat-received"):
            return
        self.events.append((record.time, record.kind, dict(record.payload)))
        if record.kind in ("peer-up", "peer-suspect", "peer-down"):
            island = record.payload.get("island", record.source)
            state = record.kind.removeprefix("peer-")
            self.state_timeline.setdefault(island, []).append((record.time, state))

    # -- derived robustness numbers -------------------------------------------

    def transitions(self, island: str) -> list[tuple[int, str]]:
        """Peer-state transitions observed *at* ``island``."""
        return list(self.state_timeline.get(island, ()))

    def first_event(self, kind: str, after: int = 0) -> Optional[tuple[int, dict]]:
        """Earliest logged event of ``kind`` at or after ``after``, or None."""
        for time, event_kind, payload in self.events:
            if event_kind == kind and time >= after:
                return time, payload
        return None

    def detection_latency(self, island: str, fault_start: int) -> Optional[int]:
        """Time from ``fault_start`` until ``island`` left the UP state."""
        return self._since(island, fault_start, (PEER_SUSPECT, PEER_DOWN))

    def recovery_latency(self, island: str, fault_end: int) -> Optional[int]:
        """Time from ``fault_end`` until ``island`` saw its peer UP again."""
        return self._since(island, fault_end, (PEER_UP,))

    def _since(self, island: str, after: int, states) -> Optional[int]:
        when = first_transition(self.state_timeline.get(island, ()), after, states)
        return None if when is None else when - after

    def downtime(self, island: str, end: Optional[int] = None) -> int:
        """Total sim-time ``island``'s peer spent in the DOWN state."""
        horizon = self.sim.now if end is None else end
        total = 0
        down_since: Optional[int] = None
        for time, state in self.state_timeline.get(island, ()):
            if state == PEER_DOWN and down_since is None:
                down_since = time
            elif state != PEER_DOWN and down_since is not None:
                total += time - down_since
                down_since = None
        if down_since is not None:
            total += max(0, horizon - down_since)
        return total

    def totals(self) -> dict[str, int]:
        """Cumulative count per observed kind, sorted by kind."""
        return dict(sorted(self.counts.items()))
