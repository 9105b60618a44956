"""Packet-level data plane over the routed DAG.

The control plane (link reversal) keeps a destination-oriented DAG alive
under churn; this package moves *payload* over it: structure-of-arrays
ring buffers per directed link, slotted capacity, FIFO queues, tail drops,
TTL expiry and transient-loop accounting, with next-hop tables patched
incrementally as reversals rewrite the DAG underneath.
"""

from repro.dataplane.packets import PacketSimulator
from repro.dataplane.run import DataPlaneRun, SLOT_DT
from repro.dataplane.traffic import (
    TRAFFIC_MODEL_NAMES,
    TRAFFIC_MODELS,
    TrafficModel,
    resolve_traffic,
)

__all__ = [
    "DataPlaneRun",
    "PacketSimulator",
    "SLOT_DT",
    "TRAFFIC_MODELS",
    "TRAFFIC_MODEL_NAMES",
    "TrafficModel",
    "resolve_traffic",
]
