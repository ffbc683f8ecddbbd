"""Measurement: summary statistics, CPU sampling, response-time recording
and the paper's platform-efficiency metric."""

from .breakdown import RX_PATH_STAGES, LatencyBreakdown, StageStats
from .collector import (
    CHANNEL_TRACE_KINDS,
    RAW_DROP_KIND,
    RELIABLE_TRACE_KINDS,
    ActuationCollector,
    ChannelReliabilityCollector,
    CpuUtilizationSampler,
    TimePoint,
    TraceCounters,
    UtilizationSample,
    WindowedCounter,
)
from .efficiency import platform_efficiency
from .energyqos import (
    ENERGY_QOS_KNOB_KINDS,
    EnergyQosCollector,
    QosCheck,
    WindowedQosSource,
)
from .health import HealthCollector
from .response import ResponseTimeRecorder
from .timeline import RunInterval, SchedulingTimeline
from .stats import OnlineStats, Summary, percentile, summarize

__all__ = [
    "ActuationCollector",
    "CHANNEL_TRACE_KINDS",
    "ChannelReliabilityCollector",
    "CpuUtilizationSampler",
    "ENERGY_QOS_KNOB_KINDS",
    "EnergyQosCollector",
    "QosCheck",
    "RAW_DROP_KIND",
    "WindowedQosSource",
    "RELIABLE_TRACE_KINDS",
    "HealthCollector",
    "LatencyBreakdown",
    "RX_PATH_STAGES",
    "StageStats",
    "OnlineStats",
    "ResponseTimeRecorder",
    "RunInterval",
    "SchedulingTimeline",
    "Summary",
    "TimePoint",
    "TraceCounters",
    "UtilizationSample",
    "WindowedCounter",
    "percentile",
    "platform_efficiency",
    "summarize",
]
