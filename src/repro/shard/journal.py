"""WindowJournal: the bounded record that makes recovery deterministic.

A shard's trajectory is a pure function of ``(topology, build,
build_args)`` plus the sequence of window grants and the routed inbound
boundary batches it received — that is the *entire* input surface of a
shard (the same argument that makes ``shards=N`` bit-identical to
``shards=1``). The coordinator therefore journals exactly that, window
by window: ``(window index, until, one routed batch per shard)``.

A journal "window" is one entry, whatever the coordinator grants:
:func:`~repro.shard.runtime.run_sharded` grants every plan window as two
half-window grants, so each entry — and every count here
(``windows_recorded``, the ``supervision.journal_windows`` counter, the
``limit``) — is one *grant*, twice the run's plan-window count.

When a worker crashes or hangs, the supervisor rebuilds its world from
``(build, build_args)`` and fast-forwards it by replaying the journal —
granting the dead shard's windows again with the very batches it was
fed the first time. The replayed shard lands bit-identical to a
never-crashed one, because nothing else ever influenced it.

The journal is bounded (``limit`` windows, evicting oldest). Once an
entry has been evicted the journal is *truncated*: per-shard replay
from birth is impossible, and recovery falls back to recomputing the
whole run inline from scratch — still deterministic, just without the
shortcut of skipping the routing step.

Entries hold references to the routed batch lists the coordinator
already built; nothing copies and nothing mutates them (hosts ``extend``
their inboxes from a batch, workers receive pickled copies), so
journaling a clean run costs one tuple per window.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from .ports import BoundaryMessage

#: One journal entry: (window index, exclusive end time, routed batches).
JournalEntry = tuple[int, int, list[list[BoundaryMessage]]]


class WindowJournal:
    """Bounded per-run journal of every window grant and routed batch."""

    def __init__(self, shards: int, limit: Optional[int] = None):
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1 windows, got {limit}")
        self.shards = shards
        self.limit = limit
        self._entries: deque[JournalEntry] = deque()
        #: Total windows ever recorded (monotone; unaffected by eviction).
        self.windows_recorded = 0
        #: Total boundary messages across every journaled batch.
        self.messages_recorded = 0
        #: Windows evicted to honour ``limit``.
        self.evicted = 0

    # -- recording ------------------------------------------------------------

    def record(
        self, index: int, until: int, batches: list[list[BoundaryMessage]]
    ) -> None:
        """Journal window ``index`` (its grant bound and per-shard routed
        inbound batches) before the window runs, so the journal always
        covers the window a failure interrupts."""
        if index != self.windows_recorded:
            raise ValueError(
                f"journal expected window {self.windows_recorded}, got {index}; "
                "windows must be recorded contiguously from 0"
            )
        if len(batches) != self.shards:
            raise ValueError(
                f"expected one batch per shard ({self.shards}), got {len(batches)}"
            )
        self._entries.append((index, until, batches))
        self.windows_recorded += 1
        self.messages_recorded += sum(len(batch) for batch in batches)
        if self.limit is not None and len(self._entries) > self.limit:
            self._entries.popleft()
            self.evicted += 1

    # -- inspection -----------------------------------------------------------

    @property
    def complete(self) -> bool:
        """Whether the journal still reaches back to window 0 (the
        precondition for replaying a reborn shard from birth)."""
        return self.evicted == 0

    @property
    def first_index(self) -> Optional[int]:
        """Oldest retained window index (None when empty)."""
        return self._entries[0][0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    # -- replay ---------------------------------------------------------------

    def replay(
        self, shard: Optional[int] = None, upto: Optional[int] = None
    ) -> Iterator[tuple[int, int, list]]:
        """Yield ``(index, until, batch)`` for journaled windows below
        ``upto`` (default: all), in order.

        With ``shard`` given, ``batch`` is that shard's routed inbound
        batch; with ``shard=None`` it is the full per-shard batch list
        (the inline-degradation replay). Raises :class:`ValueError` when
        the requested range reaches behind the retained window set — the
        caller must fall back to recomputing from scratch.
        """
        if upto is None:
            upto = self.windows_recorded
        if upto == 0:
            return
        if not self._entries or self._entries[0][0] != 0:
            raise ValueError(
                f"journal truncated (oldest retained window: {self.first_index}); "
                "cannot replay from window 0"
            )
        for index, until, batches in self._entries:
            if index >= upto:
                break
            yield index, until, batches if shard is None else batches[shard]

    def counters(self) -> dict[str, int]:
        """Deterministic journal accounting (engine-independent: the
        coordinator journals identically under every engine)."""
        return {
            "supervision.journal_windows": self.windows_recorded,
            "supervision.journal_messages": self.messages_recorded,
            "supervision.journal_evicted": self.evicted,
        }

    def __repr__(self) -> str:
        return (
            f"<WindowJournal windows={self.windows_recorded} "
            f"retained={len(self._entries)} evicted={self.evicted}>"
        )
