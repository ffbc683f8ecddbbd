"""Platform power-cap governors: uncoordinated vs coordinated.

The paper's §1 power use case in executable form. Both governors enforce
the *same platform cap* by DVFS-throttling the x86 cores; they differ in
what they know:

* :class:`LocalPowerCapGovernor` — per-island budgeting. The x86 island
  cannot observe the IXP's draw, so it must reserve the card's *rated*
  power out of the platform cap and live inside the remainder, throttling
  the application even while the card idles.
* :class:`CoordinatedPowerCapGovernor` — the IXP island reports its
  measured draw over the coordination channel (a
  :class:`PowerReportMessage`, carried by the same agents as Tune and
  Trigger); the x86 governor budgets against *actual* remote draw plus a
  guard band, reclaiming the slack for application performance at equal
  platform power compliance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..coordination import CoordinationAgent
from ..platform import EntityId
from ..sim import PeriodicTask, Simulator, Tracer, seconds
from ..x86 import X86Island
from .meter import PowerMeter


@dataclass(frozen=True, slots=True)
class PowerReportMessage:
    """IXP -> x86 power telemetry over the coordination channel."""

    watts: float

    def __repr__(self) -> str:
        return f"PowerReport({self.watts:.1f}W)"


class _DvfsActuator:
    """Shared DVFS stepping logic against a wattage allowance.

    Actuation goes through the x86 island's ``dvfs`` knob — the governor
    is a coordination client like any policy, so every frequency step it
    takes lands in the platform actuation audit.
    """

    def __init__(self, x86: X86Island, hysteresis_w: float):
        self.x86 = x86
        self.hysteresis_w = hysteresis_w
        self.dvfs_entity = EntityId(x86.name, "dvfs")
        self.steps_down = 0
        self.steps_up = 0
        #: Steps withheld because another actor moved the ladder at this
        #: same instant (two governors reacting to one meter sample).
        self.steps_deferred = 0

    @property
    def current_speed(self) -> float:
        """Speed of core 0 (all cores are stepped together)."""
        return self.x86.scheduler.cpus[0].speed

    def actuate(self, measured_w: float, allowance_w: float) -> None:
        if measured_w > allowance_w:
            delta = -1
        elif measured_w < allowance_w - self.hysteresis_w:
            delta = +1
        else:
            return
        if self.x86.knobs.tuned_this_instant(self.dvfs_entity):
            self.steps_deferred += 1
            return
        record = self.x86.apply_tune(self.dvfs_entity, delta)
        if record.applied_value != record.previous_value:
            if delta < 0:
                self.steps_down += 1
            else:
                self.steps_up += 1


class LocalPowerCapGovernor:
    """Uncoordinated enforcement: static split of the platform cap."""

    def __init__(
        self,
        sim: Simulator,
        meter: PowerMeter,
        x86: X86Island,
        platform_cap_w: float,
        remote_rated_w: float = 30.0,
        period: int = seconds(1),
        hysteresis_w: float = 4.0,
        tracer: Tracer | None = None,
    ):
        """``remote_rated_w`` is the IXP card's nameplate power — all the
        local governor can safely assume about the other island."""
        if platform_cap_w <= remote_rated_w:
            raise ValueError("cap leaves no budget for the x86 island")
        self.sim = sim
        self.meter = meter
        self.platform_cap_w = platform_cap_w
        self.x86_budget_w = platform_cap_w - remote_rated_w
        self.actuator = _DvfsActuator(x86, hysteresis_w)
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._task = PeriodicTask(sim, period, self._govern, name="power-governor-local")

    def _govern(self) -> None:
        sample = self.meter.instantaneous()
        self.actuator.actuate(sample.x86_w, self.x86_budget_w)
        self.tracer.emit(
            "power", "local-govern", x86_w=sample.x86_w,
            budget=self.x86_budget_w, speed=self.actuator.current_speed,
        )


class CoordinatedPowerCapGovernor:
    """Platform-level enforcement via cross-island power telemetry."""

    def __init__(
        self,
        sim: Simulator,
        meter: PowerMeter,
        x86: X86Island,
        x86_agent: CoordinationAgent,
        ixp_agent: CoordinationAgent,
        platform_cap_w: float,
        guard_w: float = 2.0,
        period: int = seconds(1),
        hysteresis_w: float = 4.0,
        tracer: Tracer | None = None,
    ):
        self.sim = sim
        self.meter = meter
        self.platform_cap_w = platform_cap_w
        self.guard_w = guard_w
        self.actuator = _DvfsActuator(x86, hysteresis_w)
        self.tracer = tracer or Tracer(sim, enabled=False)
        self.reports_received = 0
        self._last_remote_w = 30.0  # rated, until the first report lands
        x86_agent.register_message_handler(PowerReportMessage, self._on_report)
        self._ixp_agent = ixp_agent
        sim.spawn(self._report_loop(period), name="power-telemetry")
        sim.spawn(self._govern_loop(period), name="power-governor-coord")

    # -- IXP side: telemetry over the coordination channel -----------------

    def _report_loop(self, period):
        while True:
            yield self.sim.timeout(period)
            sample = self.meter.instantaneous()
            self._ixp_agent.endpoint.send(PowerReportMessage(watts=sample.ixp_w))

    def _on_report(self, message: PowerReportMessage) -> None:
        self.reports_received += 1
        self._last_remote_w = message.watts

    # -- x86 side: budget against actual remote draw -----------------------

    def _govern_loop(self, period):
        while True:
            yield self.sim.timeout(period)
            sample = self.meter.instantaneous()
            allowance = self.platform_cap_w - self._last_remote_w - self.guard_w
            self.actuator.actuate(sample.x86_w, allowance)
            self.tracer.emit(
                "power", "coord-govern", x86_w=sample.x86_w, remote_w=self._last_remote_w,
                allowance=allowance, speed=self.actuator.current_speed,
            )
