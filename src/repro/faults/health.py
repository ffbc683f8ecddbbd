"""Peer health: heartbeats, miss-threshold failure detection, epochs.

:class:`HeartbeatDetector` is the platform's one liveness state machine.
It is transport-free — it sends through a ``send(epoch)`` callable and is
told of arrivals by ``heard(epoch)`` — so shard boundary links use it
directly (:func:`~repro.shard.boundary_detector`). Each armed
:class:`~repro.coordination.CoordinationAgent` gets a
:class:`FailureDetector` built on it, watching its *peer* through two
independent signals:

* **Heartbeats** — periodic :class:`HeartbeatMessage` datagrams over the
  raw mailbox (never the reliable wrapper: a retransmitted stale
  heartbeat carries no information). Consecutive misses walk the peer
  UP -> SUSPECT -> DOWN.
* **Dead letters** — frames the local reliable endpoint gave up on,
  surfaced through ``on_dead_letter``. These catch the one-way partition
  a heartbeat receiver cannot see: our sends die while the peer's
  heartbeats keep arriving. ``dead_letter_down`` consecutive dead
  letters force DOWN even with fresh heartbeats.

State machine (the platform's ``PeerHealth``):

* ``UP -> SUSPECT`` on ``suspect_misses`` missed heartbeats or a single
  dead letter; SUSPECT changes nothing (policies keep sending) — it is
  the observable early warning.
* ``* -> DOWN`` on ``down_misses`` missed heartbeats or
  ``dead_letter_down`` consecutive dead letters. DOWN triggers
  degradation: the agent reverts its declared baselines and
  ``peer_available`` turns False, so policies stop emitting remote
  Tunes/Triggers.
* ``DOWN -> UP`` needs evidence the channel works again: a heartbeat
  (when dead-letter pressure is clear, or after a sustained resumed
  streak), or ack progress on the reliable endpoint. Recovery bumps the
  local agent's **epoch**; the first message carrying the new epoch makes
  the receiver discard stale older-epoch frames and revert to baselines
  before the sender replays its desired snapshot on top.

Everything is driven by simulation-time periodic tasks — deterministic
for a given seed and plan, and identical across simulator fast path
modes and shard counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim import PeriodicTask, Simulator, Tracer

#: PeerHealth states.
PEER_UP = "up"
PEER_SUSPECT = "suspect"
PEER_DOWN = "down"

#: Trace kinds emitted by the health layer (source = ``health``) and the
#: fault-armed agent (source = ``coord``). Subscribed by
#: :class:`~repro.metrics.HealthCollector`.
HEALTH_TRACE_KINDS = (
    "heartbeat-sent",
    "heartbeat-received",
    "peer-suspect",
    "peer-down",
    "peer-up",
    "epoch-bump",
    "dead-letter-signal",
    "stale-epoch-dropped",
    "degraded-suppressed",
    "agent-crashed",
    "agent-restarted",
    "agent-stalled",
    "agent-resumed",
)

_STATE_KIND = {PEER_UP: "peer-up", PEER_SUSPECT: "peer-suspect", PEER_DOWN: "peer-down"}


def first_transition(timeline, after: int, states) -> Optional[int]:
    """Time of the first ``(time, state, ...)`` entry of a peer-state
    timeline at or after ``after`` whose state is in ``states``, or None.

    The one reader of detector timelines: "left UP" is
    ``states=(PEER_SUSPECT, PEER_DOWN)``, "came back UP" is
    ``(PEER_UP,)`` and "went DOWN" is ``(PEER_DOWN,)``.
    """
    for entry in timeline:
        if entry[0] >= after and entry[1] in states:
            return entry[0]
    return None


@dataclass(frozen=True, slots=True)
class HeartbeatMessage:
    """Periodic liveness datagram between the two agents.

    Rides the *raw* mailbox (lossy, unacknowledged) even when the data
    path is reliable. ``epoch`` is the sender's current epoch, so a
    recovering peer's bump propagates with its first heartbeat.
    """

    sender: str
    epoch: int = 0
    seq: int = 0
    sent_at: int = -1

    def __repr__(self) -> str:
        return f"Heartbeat({self.sender}, epoch={self.epoch}, #{self.seq})"


class HeartbeatDetector:
    """Miss-threshold failure detector for one peer, transport-free.

    Every ``config.heartbeat_period`` (a :class:`~repro.faults.FaultConfig`;
    only its cadence and thresholds are read) it calls ``send(epoch)``,
    then counts the consecutive silent periods since the transport last
    called :meth:`heard`, walking the peer UP -> SUSPECT
    (``suspect_misses``) -> DOWN (``down_misses``). A heartbeat heard
    while the peer is not UP recovers it; recovery from DOWN bumps
    :attr:`epoch` — the signal for the owner to replay its state on top
    of whatever the peer missed.
    """

    #: Local incarnation; bumped on every DOWN -> UP recovery.
    epoch = 0

    def __init__(self, sim: Simulator, config, send: Callable[[int], Any], name: str):
        self.sim = sim
        self.config = config
        #: The local endpoint's name (this detector's identity).
        self.name = name
        self._send = send
        self.state = PEER_UP
        #: Highest epoch observed from the peer.
        self.peer_epoch = 0
        #: (time, state, reason) history — the deterministic health
        #: timeline the chaos experiments assert on.
        self.transitions: list[tuple[int, str, str]] = [(sim.now, PEER_UP, "init")]
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        self._last_heard = sim.now
        self._on_up: list = []
        period = config.heartbeat_period
        self._heartbeat_task = PeriodicTask(
            sim, period, self._beat, name=f"heartbeat-{name}"
        )
        self._check_task = PeriodicTask(
            sim, period, self._check, name=f"failure-detector-{name}"
        )

    # -- subscriptions ------------------------------------------------------

    @property
    def is_down(self) -> bool:
        return self.state == PEER_DOWN

    def on_up(self, callback) -> None:
        """Run ``callback()`` on recovery (DOWN -> UP), after the epoch
        bump — the hook where the owner replays its state to the peer."""
        self._on_up.append(callback)

    # -- periodic tasks -----------------------------------------------------

    def _beat(self) -> None:
        self.heartbeats_sent += 1
        self._send(self.epoch)

    def _check(self) -> None:
        misses = (self.sim.now - self._last_heard) // self.config.heartbeat_period
        if misses >= self.config.down_misses:
            self._transition(PEER_DOWN, f"missed {misses} heartbeats")
        elif misses >= self.config.suspect_misses:
            self._transition(PEER_SUSPECT, f"missed {misses} heartbeats")

    # -- evidence feeds -----------------------------------------------------

    def heard(self, epoch: int) -> None:
        """The transport delivered a peer heartbeat stamped ``epoch``."""
        self.heartbeats_received += 1
        self._last_heard = self.sim.now
        self.note_peer_epoch(epoch)
        if self.state != PEER_UP and self._may_recover():
            self._transition(PEER_UP, "heartbeat-resumed")

    def note_peer_epoch(self, epoch: int) -> None:
        """Adopt a higher peer epoch."""
        if epoch > self.peer_epoch:
            self.peer_epoch = epoch

    def _may_recover(self) -> bool:
        """Whether a heartbeat heard while the peer is not UP recovers it."""
        return True

    # -- state machine ------------------------------------------------------

    def _transition(self, new_state: str, reason: str) -> None:
        old = self.state
        if old == new_state:
            return
        if new_state == PEER_SUSPECT and old != PEER_UP:
            return  # SUSPECT never downgrades DOWN
        self.state = new_state
        self.transitions.append((self.sim.now, new_state, reason))
        recovered = new_state == PEER_UP and old == PEER_DOWN
        if recovered:
            self.epoch += 1
        self._entered(new_state, recovered, reason)
        if recovered:
            for callback in self._on_up:
                callback()

    def _entered(self, state: str, recovered: bool, reason: str) -> None:
        """Hook run on every transition, after the recovery epoch bump and
        before the ``on_up`` callbacks."""

    # -- introspection ------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Picklable snapshot: state, epochs, heartbeat counters and the
        transition timeline."""
        return {
            "state": self.state,
            "epoch": self.epoch,
            "peer_epoch": self.peer_epoch,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_received": self.heartbeats_received,
            "transitions": list(self.transitions),
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} peer={self.state} epoch={self.epoch}>"


class FailureDetector(HeartbeatDetector):
    """The heartbeat core watching one agent's peer over its raw mailbox,
    plus what only an agent has: crash/stall gating, the agent-owned
    epoch, dead-letter and ack-progress evidence, and baseline reverts."""

    def __init__(
        self,
        sim: Simulator,
        agent,
        config,
        tracer: Optional[Tracer] = None,
    ):
        """``agent`` is the local :class:`CoordinationAgent` whose peer is
        watched; ``config`` is a :class:`~repro.faults.FaultConfig`."""
        self.agent = agent
        self.tracer = tracer or Tracer(sim, enabled=False)
        super().__init__(sim, config, self._send_heartbeat, agent.endpoint.name)
        self.dead_letters_seen = 0
        self._consecutive_dead_letters = 0
        self._resume_streak = 0
        self._last_frames_acked = 0
        self._seq = 0
        # Heartbeats always ride the raw mailbox (datagram semantics).
        self._wire = getattr(agent.endpoint, "raw", agent.endpoint)
        agent.attach_detector(self)
        agent.register_message_handler(HeartbeatMessage, self._on_heartbeat)
        endpoint = agent.endpoint
        if hasattr(endpoint, "on_dead_letter"):
            previous = endpoint.on_dead_letter

            def chained(message, _previous=previous):
                if _previous is not None:
                    _previous(message)
                self._note_dead_letter(message)

            endpoint.on_dead_letter = chained

    @property
    def epoch(self) -> int:
        """The agent's epoch, stamped on everything it sends; bumped here
        on recovery and by the agent on restart."""
        return self.agent.epoch

    @epoch.setter
    def epoch(self, value: int) -> None:
        self.agent.epoch = value

    # -- periodic tasks -----------------------------------------------------

    def _beat(self) -> None:
        agent = self.agent
        if agent.crashed or agent.stalled:
            return  # a dead or stalled manager cannot heartbeat
        super()._beat()

    def _send_heartbeat(self, epoch: int) -> None:
        self._seq += 1
        if self.tracer.wants("heartbeat-sent"):
            self.tracer.emit(
                "health", "heartbeat-sent", island=self.name,
                seq=self._seq, epoch=epoch,
            )
        self._wire.send(HeartbeatMessage(
            sender=self.name, epoch=epoch, seq=self._seq, sent_at=self.sim.now,
        ))

    def _check(self) -> None:
        agent = self.agent
        if agent.crashed:
            # While dead we judge nothing; refresh the horizon so a
            # restart gets a full grace window before suspecting.
            self._last_heard = self.sim.now
            return
        acked = getattr(agent.endpoint, "frames_acked", 0)
        if acked > self._last_frames_acked:
            # Ack progress proves the forward path works: clear the
            # dead-letter pressure (and recover, if heartbeats agree).
            self._last_frames_acked = acked
            self._consecutive_dead_letters = 0
            if self.state != PEER_UP and self._heartbeat_fresh():
                self._transition(PEER_UP, "ack-progress")
        if not self._heartbeat_fresh():
            self._resume_streak = 0  # a missed heartbeat breaks the streak
        super()._check()

    def _heartbeat_fresh(self) -> bool:
        silent = self.sim.now - self._last_heard
        return silent < self.config.suspect_misses * self.config.heartbeat_period

    # -- evidence feeds -----------------------------------------------------

    def _on_heartbeat(self, message: HeartbeatMessage) -> None:
        if self.tracer.wants("heartbeat-received"):
            self.tracer.emit(
                "health", "heartbeat-received", island=self.name,
                frm=message.sender, seq=message.seq, epoch=message.epoch,
            )
        self._resume_streak += 1
        self.heard(message.epoch)

    def _may_recover(self) -> bool:
        # Heartbeats alone recover a SUSPECT or a silence-driven DOWN.
        # A dead-letter-driven DOWN additionally needs either ack
        # progress (see the check loop) or a sustained resumed streak,
        # so a one-way partition does not flap on every heartbeat.
        return (
            self.state == PEER_SUSPECT
            or self._consecutive_dead_letters < self.config.dead_letter_down
            or self._resume_streak >= self.config.down_misses
        )

    def _note_dead_letter(self, message: Any) -> None:
        self.dead_letters_seen += 1
        self._consecutive_dead_letters += 1
        self._resume_streak = 0
        if self.tracer.wants("dead-letter-signal"):
            self.tracer.emit(
                "health", "dead-letter-signal", island=self.name,
                consecutive=self._consecutive_dead_letters,
                message=repr(message),
            )
        if self.state == PEER_UP:
            self._transition(PEER_SUSPECT, "dead-letter")
        if (self._consecutive_dead_letters >= self.config.dead_letter_down
                and self.state != PEER_DOWN):
            self._transition(
                PEER_DOWN,
                f"{self._consecutive_dead_letters} consecutive dead letters",
            )

    def note_peer_epoch(self, epoch: int) -> None:
        """Adopt a higher peer epoch (called by the agent on any message
        carrying one). Crossing an epoch boundary reverts this side to its
        declared baselines *before* the new epoch's replay applies — so a
        replayed delta-from-baseline lands on a baseline, even if this
        side never detected the outage (one-way partition)."""
        if epoch <= self.peer_epoch:
            return
        self.peer_epoch = epoch
        self.agent.revert_to_baselines(f"epoch-{epoch}-boundary")

    # -- state machine ------------------------------------------------------

    def _entered(self, state: str, recovered: bool, reason: str) -> None:
        kind = _STATE_KIND[state]
        if self.tracer.wants(kind):
            self.tracer.emit("health", kind, island=self.name, reason=reason)
        if state == PEER_DOWN:
            self.agent.revert_to_baselines(f"peer-down:{reason}")
        elif recovered:
            self._consecutive_dead_letters = 0
            if self.tracer.wants("epoch-bump"):
                self.tracer.emit(
                    "health", "epoch-bump", island=self.name,
                    epoch=self.epoch, reason=reason,
                )

    # -- introspection ------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Snapshot for :meth:`CentralDirectory.health`: the shared keys
        plus ``dead_letters_seen``."""
        snapshot = super().health()
        snapshot["dead_letters_seen"] = self.dead_letters_seen
        snapshot["transitions"] = snapshot.pop("transitions")
        return snapshot
