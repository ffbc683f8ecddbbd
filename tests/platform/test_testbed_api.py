"""The unified testbed entry point: one config, two platform shapes.

``TestbedConfig`` carries the fabric topology and directory flavour;
``build_testbed`` dispatches to the right testbed class, and
``FabricTestbed`` takes that one config.
"""

import warnings

import pytest

from repro import (
    FabricTestbed,
    ShardConfig,
    Testbed,
    TestbedConfig,
    build_testbed,
)
from repro.platform import FabricTopology
from repro.sim import ms

NAMES = ("isle-0", "isle-1", "isle-2", "isle-3")


def topo():
    return FabricTopology.clustered(NAMES, fanout=2, link_latency=ms(5))


class TestBuildTestbed:
    def test_default_config_builds_the_prototype(self):
        built = build_testbed()
        assert isinstance(built, Testbed)

    def test_topology_config_builds_a_fabric(self):
        built = build_testbed(TestbedConfig(topology=topo(), directory="gossip"))
        assert isinstance(built, FabricTestbed)
        assert built.directory_kind == "gossip"
        assert set(built.islands) == set(NAMES)

    def test_prototype_testbed_rejects_fabric_configs(self):
        with pytest.raises(ValueError, match="build_testbed"):
            Testbed(TestbedConfig(topology=topo()))


class TestFabricTestbedSignatures:
    def test_config_form_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FabricTestbed(config=TestbedConfig(topology=topo()))

    def test_config_without_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            FabricTestbed(config=TestbedConfig())


class TestShardConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(barrier_timeout_s=0), dict(max_respawns=-1), dict(journal_limit=0)],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)
