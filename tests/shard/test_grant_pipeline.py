"""Pipelined half-window grants: any window, duration and layout is safe.

``run_sharded`` grants each plan window as two halves and folds grant
``k``'s routed output into grant ``k+2``. That is only safe because two
consecutive halves never span more than the lookahead, and it only
leaves results alone because deliveries are ordered by
``(deliver_at, dst, src, seq)`` whatever the grant edges. A relay ring —
every receipt forwarded on at its own delivery instant, so sends land on
grant edges too — checks both for random durations (partial last
windows included), windows up to the lookahead and 1–4 shards.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.platform import FabricTopology
from repro.shard import BoundaryRoutingError, ShardPlan, run_sharded
from repro.shard.runtime import _half_grants
from repro.sim import PeriodicTask, ms

RING = 4
HOPS = 3
MAX_WINDOWS = 40


def ring_topology(latency):
    return FabricTopology.ring(
        tuple(f"node-{n}" for n in range(RING)), link_latency=latency
    )


class RelayWorld:
    """Each island pings its successor every ``period``; a receipt is
    forwarded on, at once, until its hop budget is spent."""

    def __init__(self, ctx, period):
        self.ctx = ctx
        names = ctx.plan.topology.islands
        self.successor = {
            name: names[(names.index(name) + 1) % len(names)] for name in names
        }
        self.received = {name: [] for name in ctx.islands}
        for name in ctx.islands:
            ctx.router.register(name, "ping", self._receive)
            PeriodicTask(
                ctx.sim, period,
                lambda name=name: self._send(name, HOPS),
                name=f"ping-{name}",
            )

    def _send(self, name, hops):
        self.ctx.router.send(
            name, self.successor[name], "ping", hops, self.ctx.sim.now
        )

    def _receive(self, message):
        self.received[message.dst].append((message.src, message.deliver_at))
        if message.payload > 0:
            self._send(message.dst, message.payload - 1)

    def collect(self):
        return {"received": self.received}


def build_relay_world(ctx, period):
    return RelayWorld(ctx, period)


def merged(run):
    """Simulation outcome only: every receipt, the router counters and
    the kernel event count (``supervision.*`` describes the harness)."""
    view = {}
    for result in run.results:
        view.update(result["received"])
    counters = {
        key: value
        for key, value in run.counters.items()
        if not key.startswith("supervision.")
    }
    return view, counters, run.events


def run_relay(latency, period, duration, shards, window_ns=None):
    plan = ShardPlan(ring_topology(latency), shards=shards, window_ns=window_ns)
    return run_sharded(
        plan, build_relay_world, (period,), duration=duration, workers=1
    )


class TestHalfGrants:
    def test_full_windows_split_at_their_midpoint(self):
        assert _half_grants(10, 30) == [5, 10, 15, 20, 25, 30]

    def test_partial_last_window_is_halved_too(self):
        assert _half_grants(10, 25) == [5, 10, 15, 20, 22, 25]

    def test_one_nanosecond_window_has_an_empty_first_half(self):
        assert _half_grants(10, 21)[-2:] == [20, 21]

    def test_no_duration_no_grants(self):
        assert _half_grants(10, 0) == []


@settings(max_examples=40, deadline=None)
@given(
    latency=st.integers(min_value=2, max_value=ms(3)),
    shards=st.integers(min_value=1, max_value=RING),
    data=st.data(),
)
def test_any_window_layout_matches_the_single_shard_reference(
    latency, shards, data
):
    # Everything scales with the lookahead, so a 2 ns ring is as busy as
    # a 3 ms one and no run exceeds MAX_WINDOWS windows.
    window = data.draw(
        st.integers(min_value=max(2, latency // 8), max_value=latency),
        label="window",
    )
    period = data.draw(
        st.integers(min_value=max(1, latency // 2), max_value=4 * latency),
        label="period",
    )
    duration = data.draw(
        st.integers(min_value=1, max_value=window * MAX_WINDOWS),
        label="duration",
    )
    reference = run_relay(latency, period, duration, shards=1)
    try:
        run = run_relay(latency, period, duration, shards, window_ns=window)
    except BoundaryRoutingError as exc:  # the host's causality check
        pytest.fail(f"pipelined grants delivered into a shard's past: {exc}")
    assert run.engine == "inline"
    assert merged(run) == merged(reference)
    assert run.windows == math.ceil(duration / window)
    assert run.grants == 2 * run.windows
