"""Coordinated energy/QoS governor across DVFS, LLC ways and bandwidth.

The paper argues (§1, §5) that per-resource managers make conflicting
decisions: a DVFS governor sees a stalled, "busy" core and keeps the
frequency high, while the actual bottleneck is the cache partition or
the memory pipe — resources a frequency step cannot buy. This policy is
the coordinated alternative in executable form, following the CBP /
Nejat et al. line of work: each epoch it reads the platform's QoS
telemetry (windowed p95 response times) and the power meter, then
greedily searches the joint (dvfs-level × llc-ways × bw-share ×
prefetch-throttle) space:

* **QoS first** — while any VM's slack is negative, pick the single
  move with the best *predicted* stall reduction for the worst VM
  (way transfer from the slackest donor, bandwidth-share boost,
  prefetch re-aim), using the memory model's ``predict_stall``; only
  when no partition move is predicted to help does it spend frequency.
* **Then energy** — once every VM has comfortable slack, step the DVFS
  ladder down one level (the cubic-dynamic-power lever) and let the
  next window confirm; with thin slack it first tries partition moves
  that *create* the headroom a downward step needs. Memory stalls are
  frequency-invariant in wall time, so slack bought by partitioning is
  exactly what a frequency step can convert into energy.

Every actuation goes through the island's typed knob layer
(:meth:`~repro.platform.Island.apply_tune`), so the whole search is
visible in the actuation audit, span-stamped when the observatory is
armed. The policy never emits zero-delta Tunes: an epoch with nothing
to do leaves no audit footprint and burns no Dom0 cycles.

The two ablations the experiment compares against are the same loop
with one arm tied behind its back: ``dvfs-only`` may only move the
ladder (the classic per-resource governor), ``partition-only`` may only
move ways/bandwidth/prefetch and is pinned at nominal frequency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..obs import SpanMinter
from ..platform import EntityId
from ..sim import Simulator, Tracer, ms
from ..x86 import DVFS_LADDER, X86Island

#: Governor modes: the coordinated policy and its two ablations.
ENERGY_QOS_MODES = ("coordinated", "dvfs-only", "partition-only")

#: Predicted stall-factor reduction below which a partition move is not
#: worth its audit entry (the zero-benefit guard of the greedy search).
MIN_PREDICTED_GAIN = 0.01


@dataclass(frozen=True, slots=True)
class QosTarget:
    """One VM's service-level objective: windowed p95 under ``p95_ms``."""

    vm: str
    p95_ms: float

    def __post_init__(self) -> None:
        if self.p95_ms <= 0:
            raise ValueError(f"p95_ms must be positive, got {self.p95_ms}")


@dataclass(slots=True)
class _Move:
    """One candidate actuation of the greedy search."""

    kind: str  #: ``ways`` | ``bw`` | ``prefetch``
    gain: float  #: predicted stall-factor reduction for the focus VM
    tunes: list  #: [(EntityId, delta), ...] realising the move
    reason: str


class EnergyQosGovernor:
    """Epoch-driven joint DVFS + cache + bandwidth energy/QoS control."""

    def __init__(
        self,
        sim: Simulator,
        x86: X86Island,
        meter,
        qos_source,
        targets: list[QosTarget],
        mode: str = "coordinated",
        period: int = ms(500),
        headroom: float = 0.3,
        dvfs_guard: float = 0.12,
        dvfs_cooldown_epochs: int = 4,
        dvfs_confirm_epochs: int = 24,
        bw_step: int = 64,
        prefetch_step: int = 50,
        tracer: Optional[Tracer] = None,
    ):
        """``meter`` needs ``instantaneous()`` (a PowerMeter; duck-typed so
        the coordination layer stays import-free of :mod:`repro.power`);
        ``qos_source`` needs ``p95_ms(vm) -> float | None`` (a
        :class:`~repro.metrics.energyqos.WindowedQosSource`).

        ``headroom`` is the relative slack below which a VM is considered
        tight (partition moves are sought for it, and it refuses to donate
        LLC ways). A downward DVFS step is taken only when every VM's p95
        — averaged over the last ``dvfs_confirm_epochs`` epochs, so one
        optimistic window snapshot cannot trip it — scaled by the speed
        ratio of the step, would still clear its target by ``dvfs_guard``.
        ``dvfs_cooldown_epochs`` holds further DVFS steps until the QoS
        window has refilled with post-step samples — the hysteresis that
        stops the ladder thrashing around one level.
        """
        if mode not in ENERGY_QOS_MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {ENERGY_QOS_MODES}")
        if not targets:
            raise ValueError("at least one QosTarget is required")
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= headroom < 1.0:
            raise ValueError(f"headroom must be in [0,1), got {headroom}")
        self.sim = sim
        self.x86 = x86
        self.meter = meter
        self.qos_source = qos_source
        self.targets = list(targets)
        self.mode = mode
        self.period = period
        self.headroom = headroom
        self.dvfs_guard = dvfs_guard
        self.bw_step = bw_step
        self.prefetch_step = prefetch_step
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._minter = SpanMinter.shared(self.tracer)
        self.dvfs_entity = EntityId(x86.name, "dvfs")
        self._dvfs_hold_until = 0
        self._dvfs_cooldown = dvfs_cooldown_epochs * period
        #: Anti-flap latch: the lowest ladder index economizing may visit.
        #: A violation-driven step up burns the level it left — the linear
        #: p95 prediction under-estimates queueing blow-up near
        #: saturation, so a level that violated once is not retried.
        self._dvfs_floor = 0
        #: Per-VM epoch p95 history feeding the down-step confirmation.
        self._confirm_epochs = dvfs_confirm_epochs
        self._recent_p95: dict[str, deque] = {
            t.vm: deque(maxlen=dvfs_confirm_epochs) for t in self.targets
        }
        # Counters: the experiment's actuation scoreboard.
        self.epochs = 0
        self.violation_epochs = 0
        self.dvfs_steps_down = 0
        self.dvfs_steps_up = 0
        self.way_moves = 0
        self.bw_moves = 0
        self.prefetch_moves = 0
        #: DVFS steps withheld because another actor moved the ladder at
        #: the same instant (a cap governor sharing the meter's clock).
        self.dvfs_deferred = 0
        # Stays a generator loop (not a PeriodicTask): same-instant race
        # arbitration with other actors depends on the first epoch arming
        # at t=0 process startup, in spawn order — see TestRaceGuard.
        sim.spawn(self._loop(), name=f"energy-governor-{mode}")

    # -- plumbing -----------------------------------------------------------

    @property
    def _memory(self):
        return getattr(self.x86, "memory_system", None)

    @property
    def _partitions_enabled(self) -> bool:
        return self.mode != "dvfs-only" and self._memory is not None

    @property
    def _dvfs_enabled(self) -> bool:
        return self.mode != "partition-only"

    def _tune(self, entity: EntityId, delta: int, reason: str) -> None:
        """One audited, span-stamped actuation (never zero-delta)."""
        span = None
        if self._minter.active:
            span = self._minter.mint(
                "energy-policy", entity=str(entity), reason=reason, op="tune",
            )
        self.x86.apply_tune(entity, delta, span=span)

    def _read_p95s(self) -> dict[str, float]:
        """Each targeted VM's current windowed p95, feeding the epoch's
        slack view and the down-step confirmation history. VMs whose
        window is still empty are omitted — no data, no move."""
        out: dict[str, float] = {}
        for target in self.targets:
            p95 = self.qos_source.p95_ms(target.vm)
            if p95 is None:
                continue
            out[target.vm] = p95
            self._recent_p95[target.vm].append(p95)
        return out

    # -- the epoch ----------------------------------------------------------

    def _loop(self):
        while True:
            yield self.sim.timeout(self.period)
            self._epoch()

    def _epoch(self) -> None:
        self.epochs += 1
        p95s = self._read_p95s()
        if not p95s:
            return
        by_vm = {t.vm: t.p95_ms for t in self.targets}
        slacks = {vm: (by_vm[vm] - p95) / by_vm[vm] for vm, p95 in p95s.items()}
        worst_vm = min(slacks, key=lambda vm: slacks[vm])
        worst = slacks[worst_vm]
        if worst < 0.0:
            self.violation_epochs += 1
            self._recover(worst_vm, slacks)
        else:
            self._economize(worst_vm, worst, slacks)
        if self.tracer.wants("energy-govern"):
            self.tracer.emit(
                "energy-policy", "energy-govern", mode=self.mode,
                worst_vm=worst_vm, worst_slack=round(worst, 4),
                x86_w=round(self.meter.instantaneous().x86_w, 2),
                dvfs=self.x86.knobs.get(self.dvfs_entity).read(),
            )

    # -- QoS recovery -------------------------------------------------------

    def _recover(self, vm: str, slacks: dict[str, float]) -> None:
        """Fix the violating VM: best partition move first, then frequency."""
        move = self._best_move(vm, slacks) if self._partitions_enabled else None
        if move is not None:
            self._apply_move(move)
            return
        if self._dvfs_enabled:
            index = int(self.x86.knobs.get(self.dvfs_entity).read())
            if index < len(DVFS_LADDER) - 1:
                if self.x86.knobs.tuned_this_instant(self.dvfs_entity):
                    self.dvfs_deferred += 1
                    return
                self._tune(self.dvfs_entity, +1, reason=f"qos:{vm}")
                self.dvfs_steps_up += 1
                self._dvfs_floor = max(self._dvfs_floor, index + 1)
                self._after_dvfs_move()

    # -- energy economizing -------------------------------------------------

    def _after_dvfs_move(self) -> None:
        """Arm the cooldown and restart p95 confirmation from scratch:
        pre-move samples must not bias the next down-step decision."""
        self._dvfs_hold_until = self.sim.now + self._dvfs_cooldown
        for history in self._recent_p95.values():
            history.clear()

    def _downstep_safe(self) -> bool:
        """Whether one downward DVFS step is predicted to keep every
        target met: each VM's p95 — averaged over the confirmation
        history, so a single optimistic window cannot trip the check —
        scaled by the full speed ratio of the step (an over-estimate:
        memory stalls don't stretch), must still clear its target with
        ``dvfs_guard`` to spare. Thin history vetoes, as does the
        anti-flap floor."""
        index = int(self.x86.knobs.get(self.dvfs_entity).read())
        if index <= self._dvfs_floor:
            return False
        scale = DVFS_LADDER[index] / DVFS_LADDER[index - 1]
        for target in self.targets:
            history = self._recent_p95[target.vm]
            if len(history) < self._confirm_epochs:
                return False
            mean_p95 = sum(history) / len(history)
            if mean_p95 * scale > target.p95_ms * (1.0 - self.dvfs_guard):
                return False
        return True

    def _economize(self, worst_vm: str, worst: float, slacks: dict[str, float]) -> None:
        """All targets met: convert surplus slack into energy."""
        if (
            self._dvfs_enabled
            and self.sim.now >= self._dvfs_hold_until
            and self._downstep_safe()
        ):
            if self.x86.knobs.tuned_this_instant(self.dvfs_entity):
                self.dvfs_deferred += 1
                return
            self._tune(self.dvfs_entity, -1, reason="economize")
            self.dvfs_steps_down += 1
            self._after_dvfs_move()
            return
        if self._partitions_enabled and worst < self.headroom:
            # Thin slack: a partition move that de-stalls the tightest VM
            # is what creates the headroom the next downward step needs.
            move = self._best_move(worst_vm, slacks)
            if move is not None:
                self._apply_move(move)

    # -- the greedy move generator -----------------------------------------

    def _best_move(self, vm: str, slacks: dict[str, float]) -> Optional[_Move]:
        """The single best predicted move for ``vm``, or None.

        Candidates are scored by the memory model's hypothetical stall
        factor (``predict_stall``) — the model-guided part of the search;
        a move must beat :data:`MIN_PREDICTED_GAIN` to be worth emitting.
        """
        memory = self._memory
        if memory is None or vm not in memory.managed():
            return None
        current = memory.predict_stall(vm)
        candidates: list[_Move] = []

        # 1. One more LLC way — free, or taken from the slackest donor.
        ways = memory.ways(vm)
        if ways < memory.params.total_ways:
            gain = current - memory.predict_stall(vm, ways=ways + 1)
            if memory.free_ways > 0:
                candidates.append(_Move(
                    kind="ways", gain=gain,
                    tunes=[(EntityId(self.x86.name, f"llc:{vm}"), +1)],
                    reason=f"way:{vm}",
                ))
            else:
                donor = self._way_donor(vm, slacks)
                if donor is not None:
                    # The donor's way frees first so the grow is never
                    # clamped against a fully-allocated cache.
                    candidates.append(_Move(
                        kind="ways", gain=gain,
                        tunes=[
                            (EntityId(self.x86.name, f"llc:{donor}"), -1),
                            (EntityId(self.x86.name, f"llc:{vm}"), +1),
                        ],
                        reason=f"way:{donor}->{vm}",
                    ))

        # 2. A bigger bandwidth share (helps only when the pipe squeezes).
        share = memory.bw_share(vm)
        gain = current - memory.predict_stall(vm, bw_share=share + self.bw_step)
        candidates.append(_Move(
            kind="bw", gain=gain,
            tunes=[(EntityId(self.x86.name, f"bw:{vm}"), +self.bw_step)],
            reason=f"bw:{vm}",
        ))

        # 3. Re-aim the prefetcher: more aggressive when the pipe can feed
        # it, throttled when its own waste traffic is the squeeze.
        throttle = memory.prefetch_throttle(vm)
        for delta in (-self.prefetch_step, +self.prefetch_step):
            hypothetical = max(0, min(100, throttle + delta))
            if hypothetical == throttle:
                continue
            gain = current - memory.predict_stall(vm, prefetch_throttle=hypothetical)
            candidates.append(_Move(
                kind="prefetch", gain=gain,
                tunes=[(EntityId(self.x86.name, f"prefetch:{vm}"), delta)],
                reason=f"prefetch:{vm}",
            ))

        best = max(candidates, key=lambda move: move.gain, default=None)
        if best is None or best.gain < MIN_PREDICTED_GAIN:
            return None
        return best

    def _way_donor(self, vm: str, slacks: dict[str, float]) -> Optional[str]:
        """The managed VM best able to give up one LLC way.

        Donors must hold more than one way and not themselves be tight:
        either comfortably over the headroom threshold, or untargeted
        (best-effort domains donate unconditionally).
        """
        memory = self._memory
        best_name: Optional[str] = None
        best_slack = -1.0
        for name in memory.managed():
            if name == vm or memory.ways(name) <= 1:
                continue
            slack = slacks.get(name)
            if slack is None:
                slack = 1.0  # untargeted: free to shrink
            elif slack < self.headroom:
                continue
            if slack > best_slack:
                best_name, best_slack = name, slack
        return best_name

    def _apply_move(self, move: _Move) -> None:
        for entity, delta in move.tunes:
            self._tune(entity, delta, reason=move.reason)
        if move.kind == "ways":
            self.way_moves += 1
        elif move.kind == "bw":
            self.bw_moves += 1
        else:
            self.prefetch_moves += 1

    # -- reporting ----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Actuation counters (the experiment's per-mode scoreboard)."""
        return {
            "epochs": self.epochs,
            "violation_epochs": self.violation_epochs,
            "dvfs_steps_down": self.dvfs_steps_down,
            "dvfs_steps_up": self.dvfs_steps_up,
            "way_moves": self.way_moves,
            "bw_moves": self.bw_moves,
            "prefetch_moves": self.prefetch_moves,
            "dvfs_deferred": self.dvfs_deferred,
        }
