"""The sharded fabric experiment: bit-equal arms, fault story, sweep."""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments import (
    FabricShardedArmResult,
    run_fabric_sharded,
    run_fabric_sharded_arm,
    render_fabric_sharded,
    sharded_topology,
)
from repro.sim import ms, seconds

K = 16
FANOUT = 4
DURATION = seconds(2)
#: Result fields derived from the merged metrics. Like ``metrics`` they
#: must not depend on the shard layout, down to the last bit of a float.
DERIVED = tuple(
    field.name for field in dataclasses.fields(FabricShardedArmResult)
    if field.name not in {
        "shards", "metrics", "engine", "windows", "grants", "events", "wall_seconds",
    }
)
#: Digest of the reference arm's ``metrics``: pins the simulated outcome
#: itself, which a drift shared by every arm would leave equal across arms.
REFERENCE_DIGEST = "630c8b1fa2a880aa"


def digest(value) -> str:
    """First 16 hex digits of the sha256 of ``value``'s canonical JSON."""
    canonical = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def arm(shards, fastpath=True, blackout=True):
    return run_fabric_sharded_arm(
        K, shards=shards, duration=DURATION, seed=3,
        fastpath=fastpath, blackout=blackout, fanout=FANOUT,
    )


@pytest.fixture(scope="module")
def reference():
    return arm(shards=1)


class TestBitEquality:
    def test_reference_outcome_is_pinned(self, reference):
        assert digest(reference.metrics) == REFERENCE_DIGEST

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_metrics_match_single_process(self, reference, shards):
        sharded = arm(shards=shards)
        assert sharded.metrics == reference.metrics
        assert sharded.shards == shards
        assert {name: repr(getattr(sharded, name)) for name in DERIVED} == {
            name: repr(getattr(reference, name)) for name in DERIVED
        }

    def test_audit_path_matches_fast_path(self, reference):
        assert arm(shards=2, fastpath=False).metrics == reference.metrics

    def test_execution_side_reported_separately(self, reference):
        sharded = arm(shards=2)
        assert sharded.events == reference.events
        assert sharded.windows == reference.windows
        # Two pipelined half-window grants per plan window, either engine.
        assert sharded.grants == reference.grants == 2 * reference.windows
        assert sharded.wall_seconds > 0
        assert sharded.events_per_second > 0


class TestFaultStory:
    def test_partition_detected_at_both_uplink_endpoints(self, reference):
        target = f"cluster-{K // FANOUT - 1}"
        health = reference.metrics["clusters"][target]["health"]
        assert "down" in [state for _t, state, _r in health["transitions"]]
        downlinks = reference.metrics["root"]["downlinks"]
        target_agg = f"isle-{K - FANOUT}"
        root_states = [
            state for _t, state, _r in downlinks[target_agg]["transitions"]
        ]
        assert "down" in root_states
        assert reference.detect_ms == pytest.approx(200.0)

    def test_reports_suppressed_while_down(self, reference):
        target = f"cluster-{K // FANOUT - 1}"
        assert reference.metrics["clusters"][target]["reports_suppressed"] > 0

    def test_recovery_bumps_epoch_and_converges(self, reference):
        assert reference.recovery_epoch == 1
        assert reference.convergence_ms is not None
        # The spare registered mid-blackout; every cluster eventually saw it.
        for name, data in reference.metrics["clusters"].items():
            assert "spare" in data["seen_at"], name

    def test_blackout_dropped_boundary_messages(self, reference):
        assert reference.metrics["boundary"]["dropped"] > 0
        calm = arm(shards=1, blackout=False)
        assert calm.metrics["boundary"]["dropped"] == 0
        assert calm.convergence_ms is None
        assert calm.detect_ms is None


class TestSweep:
    def test_sweep_asserts_equality_and_renders(self):
        results = run_fabric_sharded(
            island_counts=(16,), shards=4, duration=seconds(1), seed=1
        )
        reference, sharded = results[16]
        assert reference.shards == 1
        assert sharded.shards == 2  # 16 islands / fanout 8 = 2 clusters
        table = render_fabric_sharded(results)
        assert "16" in table and "bit-identical" in table

    def test_single_cluster_topology_rejected(self):
        with pytest.raises(ValueError, match="single cluster"):
            sharded_topology(8, fanout=8)


class TestTopology:
    def test_ring_and_uplinks_give_expected_lookahead(self):
        topo = sharded_topology(32, fanout=8)
        assert topo.min_cross_cluster_latency() == ms(5)
        aggregators = topo.aggregators
        assert len(aggregators) == 4
        # Every aggregator reaches its ring successor over a declared link.
        declared = {
            frozenset((a, b)) for a, b, _l in topo.cross_cluster_links()
        }
        for i, agg in enumerate(aggregators):
            succ = aggregators[(i + 1) % len(aggregators)]
            assert frozenset((agg, succ)) in declared
