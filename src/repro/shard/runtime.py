"""The shard coordinator: pipelined half-window grants, barriers, routing.

One run is a sequence of lockstep plan windows ``[T, T+W)`` (``W`` = the
plan's lookahead-bounded width, the last one cut short at ``duration``).
The coordinator grants each plan window as two *half-grants* and keeps
two of them outstanding, so a worker always finds its next grant waiting
in the pipe while the coordinator barriers on, routes and journals the
previous one:

* every grant is journaled (:class:`~repro.shard.journal.WindowJournal`,
  one entry per grant) before it is sent; the coordinator barriers on
  grant ``k``, routes the boundary messages it produced to the shard
  owning each destination island, and folds them into grant ``k+2`` —
  while grant ``k+1`` runs;
* this is safe because a message sent during grant ``k`` (which starts
  at ``S_k``) is due at least ``L`` (the lookahead) after ``S_k``, and
  any two consecutive half-grants span at most ``W <= L``, so the
  message cannot be due before grant ``k+2`` starts — the first grant
  it can be folded into;
* it cannot change any result, because a shard applies deliveries in
  ``(deliver_at, dst, src, seq)`` order at ``run_until(due)``
  (:class:`~repro.shard.host.ShardHost`): when a message was enqueued
  and where a grant edge falls never enter that order.

``ShardRunResult.windows`` counts plan windows; ``grants`` counts
half-grants (twice as many). The journal, the fault hook's
``window_index`` and the ``supervision.replayed_windows`` /
``supervision.journal_windows`` counters all count grants.

Two engines run the same ``grant``/``collect`` loop
(:class:`_GrantPipeline`):

* **inline** — every :class:`~repro.shard.host.ShardHost` lives in this
  process and runs each grant serially as it is issued (``shards=1``,
  serial degradation, and the reference arm of the bit-equality tests);
* **process** — one supervised worker process per shard
  (:class:`~repro.shard.supervisor.SupervisedEngine`) over seq-numbered
  framed pipes, with barrier deadlines, heartbeat liveness probes and
  crash/hang recovery by journal replay.

The engine choice follows the sweeps'
:func:`~repro.parallel.plan_execution` rules (``REPRO_*``
knobs, nested-in-worker, single CPU); any spawn failure — and any
mid-run :class:`~repro.shard.supervisor.SupervisionExhausted` (respawn
budget spent, journal truncated) — degrades to the inline engine, with
the cause recorded per run (:class:`DegradationLog`) and never with a
different simulation result: the inline engine is rebuilt from the
journal (or, when the journal is truncated, by deterministic
recomputation from scratch through the same loop), so degraded runs
stay bit-identical to undisturbed ones.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from ..parallel import plan_execution, warn_once
from .config import ShardConfig
from .host import ShardHost
from .journal import WindowJournal
from .plan import ShardPlan
from .ports import BoundaryMessage
from .supervisor import (
    ShardWorkerError,
    SupervisedEngine,
    SupervisionExhausted,
    SupervisionLog,
)

_log = logging.getLogger(__name__)


class DegradationLog:
    """Per-run record of why (if ever) the run left the process engine.

    Causes are state of the run they happened in, surfaced via
    ``ShardRunResult.supervision["degradations"]`` and the
    ``supervision.degraded_inline`` counter; the process-wide
    :func:`~repro.parallel.warn_once` cache only dedups the *warning*.
    """

    def __init__(self) -> None:
        self.causes: list[str] = []

    def note(self, cause: str) -> None:
        self.causes.append(cause)
        warn_once(_log, "shard workers unavailable (%s); running shards inline", cause)


@dataclass
class ShardRunResult:
    """What one sharded run produced, plus how it ran.

    ``results`` holds each shard's ``collect()`` payload in shard order —
    the *simulation* outcome, bit-identical across engines and shard
    layouts. The remaining fields describe the *execution* (wall clock,
    engine, window count, recovery events) and are the only parts
    allowed to differ.

    ``counters`` merges the deterministic router counters (``sent`` /
    ``dropped`` / ``delivered``), the journal accounting and the
    ``supervision.*`` recovery counters. The supervision keys are zero
    on undisturbed runs under every engine; bit-equality checks against
    a disturbed run should compare only the non-``supervision.`` keys.
    """

    results: list
    shards: int
    engine: str
    #: Plan windows run (``ceil(duration / window)``).
    windows: int
    #: Half-window grants issued to every shard (``2 * windows``).
    grants: int
    events: int
    wall_seconds: float
    #: Boundary messages still in flight when the run ended: the routed
    #: output of the final plan window (due at or after ``duration``;
    #: identical across engines).
    undelivered: int
    counters: dict = field(default_factory=dict)
    #: :meth:`~repro.shard.supervisor.SupervisionLog.summary` of the
    #: run's harness recovery events plus the per-run degradation causes
    #: — wall-clock data, never part of any bit-equality artefact.
    supervision: dict = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0


class _InlineEngine:
    """All shard hosts in this process; each grant runs, in shard order,
    as soon as it is issued, and its outbound waits for ``collect``."""

    name = "inline"

    def __init__(self, plan, build, build_args, fastpath):
        self.hosts = [
            ShardHost(plan, index, build, build_args=build_args, fastpath=fastpath)
            for index in range(plan.shards)
        ]
        self._outbound: deque[list] = deque()

    def grant(self, until: int, batches: list) -> None:
        outbound = []
        for host, batch in zip(self.hosts, batches):
            host.enqueue(batch)
            outbound.append(host.advance(until))
        self._outbound.append(outbound)

    def collect(self) -> list:
        return self._outbound.popleft()

    def finish(self) -> list:
        return [
            {
                "result": host.collect(),
                "events": host.events,
                "counters": host.router.counters(),
            }
            for host in self.hosts
        ]

    def close(self) -> None:
        pass


def _route(plan: ShardPlan, outbound: list) -> list[list[BoundaryMessage]]:
    """Route every drained message to the shard owning its destination."""
    batches: list[list[BoundaryMessage]] = [[] for _ in range(plan.shards)]
    for shard_out in outbound:
        for message in shard_out:
            batches[plan.shard_of(message.dst)].append(message)
    for batch in batches:
        batch.sort(key=BoundaryMessage.sort_key)
    return batches


def _half_grants(window: int, duration: int) -> list[int]:
    """The exclusive end of every half-grant: each plan window
    ``[T, T+W)`` (the last cut at ``duration``) split at its midpoint.
    A 1 ns window yields an empty first half, which runs nothing."""
    untils: list[int] = []
    now = 0
    while now < duration:
        end = min(now + window, duration)
        untils += (now + (end - now) // 2, end)
        now = end
    return untils


class _GrantPipeline:
    """The coordinator's one grant/collect loop, two half-grants deep.

    Grant ``k+2`` carries the routed output of grant ``k``; grants
    ``k+1`` and ``k+2`` are both outstanding while grant ``k+1`` is
    collected. ``degrade`` (when given) swaps a failed engine for a
    rebuilt inline one holding the same issued and collected grants.
    """

    def __init__(
        self,
        plan: ShardPlan,
        engine,
        untils: list[int],
        journal: Optional[WindowJournal] = None,
        degrade=None,
    ):
        self.plan = plan
        self.engine = engine
        self.untils = untils
        self.journal = journal
        self.degrade = degrade
        #: Grants sent to the engine / barriered and routed so far.
        self.issued = 0
        self.collected = 0
        #: Routed batches waiting for their grant; two empty ones feed
        #: grants 0 and 1, and the two left at the end are the routed
        #: output of the final plan window.
        self.routed: deque[list[list[BoundaryMessage]]] = deque(
            [[] for _ in range(plan.shards)] for _ in range(2)
        )

    def run(self, upto: int) -> None:
        """Collect until ``upto`` grants are barriered, issuing every
        grant whose inbound batches are routed."""
        while True:
            while self.routed and self.issued < len(self.untils):
                self._issue(self.routed.popleft())
            if self.collected == upto:
                return
            self.routed.append(self._collect())

    def _issue(self, batches: list) -> None:
        until = self.untils[self.issued]
        if self.journal is not None:
            self.journal.record(self.issued, until, batches)
        self.issued += 1
        try:
            self.engine.grant(until, batches)
        except SupervisionExhausted as exc:
            self.degrade(self, str(exc))  # the rebuilt engine holds this grant

    def _collect(self) -> list[list[BoundaryMessage]]:
        try:
            outbound = self.engine.collect()
        except SupervisionExhausted as exc:
            self.degrade(self, str(exc))
            outbound = self.engine.collect()
        self.collected += 1
        return _route(self.plan, outbound)


def _degrade_to_inline(
    pipeline: _GrantPipeline,
    cause: str,
    build,
    build_args: tuple,
    fastpath: bool,
    log: SupervisionLog,
    degradations: DegradationLog,
) -> None:
    """Swap the whole run onto a fresh inline engine holding the
    pipeline's issued and collected grants: from the journal when it is
    complete, otherwise by deterministic recomputation from scratch.
    Either way the inline hosts land bit-identical to a run that was
    never disturbed."""
    started = time.monotonic()
    degradations.note(cause)
    log.note("degraded-inline", cause=cause)
    pipeline.engine.close()
    plan, journal = pipeline.plan, pipeline.journal
    engine = _InlineEngine(plan, build, build_args, fastpath)
    if pipeline.issued:
        if journal.complete:
            for _index, until, batches in journal.replay(upto=pipeline.issued):
                engine.grant(until, batches)
            for _ in range(pipeline.collected):
                engine.collect()
            source = "journal"
        else:
            # The journal lost its oldest grants; recompute them through
            # the live loop itself, so the result is identical.
            _GrantPipeline(plan, engine, pipeline.untils[:pipeline.issued]).run(
                pipeline.collected
            )
            source = "recompute"
        log.note(
            "inline-replay", grants=pipeline.issued, source=source,
            wall_s=round(time.monotonic() - started, 6),
        )
    pipeline.engine = engine


def run_sharded(
    plan: ShardPlan,
    build,
    build_args: tuple = (),
    *,
    duration: int,
    fastpath: bool = True,
    workers: Optional[int] = None,
    config: Optional[ShardConfig] = None,
    fault_hook=None,
) -> ShardRunResult:
    """Run ``build``'s world over ``plan`` for ``duration`` ns.

    ``build(ctx, *build_args)`` is called once per shard (in a worker
    process when the engine is parallel), so it must be a module-level
    picklable callable; per-shard determinism must come from the plan
    and explicit seeds in ``build_args``, never from ambient state.

    ``config`` carries the supervision knobs (barrier deadline,
    heartbeat/probe intervals, respawn budget, journal bound); the plan
    fixes the shard count and window, and ``workers`` caps the worker
    processes (None defers to ``REPRO_WORKERS`` / the CPU count).
    ``fault_hook`` (picklable; see
    :mod:`repro.shard.worker`) is delivered to worker processes only —
    the inline engine never runs hooks, which is what makes a degraded
    run equal to an undisturbed one even under a chaos script.
    """
    config = config or ShardConfig()
    window = plan.window_for(duration)
    if window <= 0:
        raise ValueError(
            "cannot run windows of non-positive width; a zero-latency "
            "cross-cluster link offers no lookahead"
        )
    journal = WindowJournal(plan.shards, limit=config.journal_limit)
    log = SupervisionLog()
    degradations = DegradationLog()
    engine: Any = None
    if plan.shards >= 2:
        exec_plan = plan_execution(plan.shards, max_workers=workers)
        if exec_plan.parallel:
            try:
                engine = SupervisedEngine(
                    plan, build, build_args, fastpath,
                    config=config, journal=journal, log=log,
                    fault_hook=fault_hook,
                )
            except ShardWorkerError:
                raise  # the world itself failed to build; not a pool problem
            except SupervisionExhausted as exc:
                degradations.note(str(exc))
                log.note("degraded-inline", cause=str(exc))
            except Exception as exc:
                degradations.note(f"{type(exc).__name__}: {exc}")
        else:
            degradations.note(exec_plan.reason)
    if engine is None:
        engine = _InlineEngine(plan, build, build_args, fastpath)
    start = time.perf_counter()
    untils = _half_grants(window, duration)

    def degrade(pipeline: _GrantPipeline, cause: str) -> None:
        _degrade_to_inline(
            pipeline, cause, build, build_args, fastpath, log, degradations
        )

    pipeline = _GrantPipeline(plan, engine, untils, journal, degrade)
    try:
        pipeline.run(len(untils))
        try:
            shard_results = pipeline.engine.finish()
        except SupervisionExhausted as exc:
            degrade(pipeline, str(exc))
            shard_results = pipeline.engine.finish()
    finally:
        pipeline.engine.close()
    wall = time.perf_counter() - start
    counters: dict[str, int] = {}
    for entry in shard_results:
        for key, value in entry["counters"].items():
            counters[key] = counters.get(key, 0) + value
    counters.update(journal.counters())
    counters.update(log.counters())
    supervision = log.summary()
    supervision["degradations"] = list(degradations.causes)
    return ShardRunResult(
        results=[entry["result"] for entry in shard_results],
        shards=plan.shards,
        engine=pipeline.engine.name,
        windows=len(untils) // 2,
        grants=len(untils),
        events=sum(entry["events"] for entry in shard_results),
        wall_seconds=wall,
        undelivered=sum(
            len(batch) for batches in pipeline.routed for batch in batches
        ),
        counters=counters,
        supervision=supervision,
    )
