"""Sharded fabric execution: conservative parallel discrete-event mode.

A :class:`~repro.platform.fabric.FabricTopology` already declares the
only facts a conservative PDES needs: clusters are coordination domains
(their islands share local state), and cross-cluster links carry a
declared one-way latency. :class:`ShardPlan` cuts the fabric at cluster
boundaries into shards; the minimum cross-cluster link latency is the
*lookahead* — a message sent during the window ``[T, T+W)`` (with ``W``
at most the lookahead) cannot be due before ``T+W``, so every shard may
advance its own :class:`~repro.sim.Simulator` through the whole window
without ever hearing from another shard's past.

The pieces:

* :class:`ShardPlan` — the deterministic cut: cluster groups, lookahead,
  window width. Depends only on topology + shard count, never on worker
  placement.
* :class:`ShardConfig` — the supervision knobs of a run (barrier
  deadline, heartbeat/probe intervals, respawn budget, journal bound),
  passed as ``run_sharded(config=...)``; the worker budget is
  ``run_sharded(workers=...)``.
* :class:`BoundaryRouter` / :class:`BoundaryMessage` — the *only* path
  cross-cluster control traffic takes, in every execution mode. Messages
  are stamped ``(deliver_at, dst, src, seq)`` and applied in exactly
  that order, so the receiving shard's trajectory is a function of the
  message set, not of which process produced it.
* :func:`boundary_detector` — the fault domain's
  :class:`~repro.faults.HeartbeatDetector` (UP/SUSPECT/DOWN with
  epoch-bump recovery) watching a peer across a boundary link.
* :class:`ShardHost` — one shard's simulator + router + world, advanced
  grant by grant.
* :class:`WindowJournal` — the bounded per-run journal of every
  half-window grant and routed inbound batch: the complete deterministic input of
  any shard, and therefore the recovery substrate.
* :class:`SupervisedEngine` / :class:`SupervisionLog` /
  :class:`FaultScript` — the self-healing process engine: barrier
  deadlines, heartbeat liveness probes, kill/respawn with backoff under
  a budget, fast-forward by journal replay, and whole-run degradation to
  the inline engine when recovery is out of moves.
* :func:`run_sharded` — the coordinator: grants each window as two
  pipelined halves (two grants in flight), journals them, barriers,
  routes boundary batches; runs shards inline (one process)
  or under supervised worker processes, with *bit-identical* results
  either way — even across worker crashes, hangs and degradations.
"""

from .config import ShardConfig
from .plan import ShardPlan
from .ports import BoundaryMessage, BoundaryRouter, BoundaryRoutingError, boundary_detector
from .host import ShardContext, ShardHost
from .journal import WindowJournal
from .supervisor import (
    FaultScript,
    ShardWorkerError,
    SupervisedEngine,
    SupervisionExhausted,
    SupervisionLog,
)
from .worker import BUILD_WINDOW, FINISH_WINDOW
from .runtime import (
    DegradationLog,
    ShardRunResult,
    run_sharded,
)

__all__ = [
    "BUILD_WINDOW",
    "BoundaryMessage",
    "BoundaryRouter",
    "BoundaryRoutingError",
    "DegradationLog",
    "FINISH_WINDOW",
    "FaultScript",
    "ShardConfig",
    "ShardContext",
    "ShardHost",
    "ShardPlan",
    "ShardRunResult",
    "ShardWorkerError",
    "SupervisedEngine",
    "SupervisionExhausted",
    "SupervisionLog",
    "WindowJournal",
    "boundary_detector",
    "run_sharded",
]
