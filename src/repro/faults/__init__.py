"""Fault domains: scripted failure injection, heartbeat failure
detection, degraded-mode fallback, and epoch-based recovery.

The paper argues independently-managed islands must coordinate; this
package makes the platform survive the moment coordination *stops*.
Armed via ``TestbedConfig(faults=FaultConfig(...))``; with the default
``faults=None`` nothing here is constructed and the platform behaves
bit-identically to an unarmed build.
"""

from .health import (
    HEALTH_TRACE_KINDS,
    PEER_DOWN,
    PEER_SUSPECT,
    PEER_UP,
    FailureDetector,
    HeartbeatDetector,
    HeartbeatMessage,
    first_transition,
)
from .injector import FAULT_TRACE_KINDS, FaultInjector
from .plan import (
    BLACKOUT_DIRECTIONS,
    ActuationFault,
    AgentCrash,
    ChannelBlackout,
    FaultConfig,
    FaultEvent,
    FaultPlan,
    ManagerStall,
)

__all__ = [
    "ActuationFault",
    "AgentCrash",
    "BLACKOUT_DIRECTIONS",
    "ChannelBlackout",
    "FAULT_TRACE_KINDS",
    "FailureDetector",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HEALTH_TRACE_KINDS",
    "HeartbeatDetector",
    "HeartbeatMessage",
    "ManagerStall",
    "PEER_DOWN",
    "PEER_SUSPECT",
    "PEER_UP",
    "first_transition",
]
