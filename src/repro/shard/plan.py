"""ShardPlan: the deterministic cut of a fabric into shards.

The plan is pure topology arithmetic — cluster groups from
:meth:`FabricTopology.partition`, the conservative lookahead from
:meth:`FabricTopology.min_cross_cluster_latency`, and the island/cluster
-> shard maps the router and coordinator consult. It depends only on
``(topology, shards, window_ns)``; worker counts, process placement and
wall-clock scheduling never influence it, which is half of the
determinism contract (the other half is the boundary-message ordering in
:mod:`repro.shard.ports`).
"""

from __future__ import annotations

from typing import Optional

from ..platform.fabric import FabricTopology


class ShardPlan:
    """Cluster groups, lookahead and window width for one sharded run."""

    def __init__(
        self,
        topology: FabricTopology,
        shards: int = 1,
        window_ns: Optional[int] = None,
    ):
        self.topology = topology
        #: Cluster-name groups, one per shard (cluster boundaries only).
        self.groups = topology.partition(shards)
        self.shards = len(self.groups)
        #: The conservative lookahead: min cross-cluster link latency.
        #: None when the fabric has no cross-cluster links (shards would
        #: be fully independent; any window is safe).
        self.lookahead = topology.min_cross_cluster_latency()
        if window_ns is not None:
            if window_ns < 2:
                raise ValueError(
                    f"window_ns={window_ns} is narrower than 2 ns: every "
                    "window is granted as two non-empty halves"
                )
            if self.lookahead is not None and window_ns > self.lookahead:
                raise ValueError(
                    f"window_ns={window_ns} exceeds the lookahead "
                    f"({self.lookahead} ns): a shard could run past a "
                    "message from its future"
                )
            self.window = window_ns
        else:
            self.window = self.lookahead
        if self.shards > 1 and self.window is None:
            raise ValueError(
                "multi-shard execution over a fabric with no cross-cluster "
                "links needs an explicit window_ns"
            )
        self._shard_of_cluster = {
            name: index for index, group in enumerate(self.groups) for name in group
        }
        self._shard_of_island = {
            island: self._shard_of_cluster[cluster.name]
            for cluster in topology.clusters
            for island in cluster.islands
        }

    # -- lookups ------------------------------------------------------------

    def shard_of(self, island: str) -> int:
        """The shard index owning ``island``; KeyError if unknown."""
        return self._shard_of_island[island]

    def clusters_of(self, shard: int) -> tuple[str, ...]:
        """The cluster names assigned to ``shard``."""
        return self.groups[shard]

    def islands_of(self, shard: int) -> tuple[str, ...]:
        """The islands of ``shard``, in cluster declaration order."""
        members = set(self.groups[shard])
        return tuple(
            island
            for cluster in self.topology.clusters
            if cluster.name in members
            for island in cluster.islands
        )

    def boundary_links(self) -> list[tuple[str, str, int]]:
        """Cross-cluster links whose endpoints land in different shards."""
        return [
            (a, b, latency)
            for a, b, latency in self.topology.cross_cluster_links()
            if self.shard_of(a) != self.shard_of(b)
        ]

    def window_for(self, duration: int) -> int:
        """The window width to run with: the plan's window, or one
        single window spanning the whole run when unbounded."""
        return self.window if self.window is not None else duration

    def __repr__(self) -> str:
        return (
            f"<ShardPlan shards={self.shards} window={self.window} "
            f"groups={[len(g) for g in self.groups]}>"
        )
