"""Destination-oriented routing on top of link reversal (the TORA use case).

Link reversal exists to keep a network's links oriented so that every node has
a path to a destination; packets are then forwarded along any outgoing link.
This subpackage provides that application layer:

* :mod:`repro.routing.dag_routing` — next-hop tables and route extraction from
  an orientation, plus route-quality metrics (stretch against the undirected
  shortest path);
* :mod:`repro.routing.maintenance` — route maintenance under link failures and
  mobility: failures are injected into an asynchronous link-reversal network,
  and the time/messages/reversals needed to restore destination orientation
  are measured (experiment E15).
"""

from repro.routing.dag_routing import RoutingTable, route_stretch, extract_route
from repro.routing.maintenance import (
    FailureEvent,
    MaintenanceResult,
    RouteMaintenanceSimulation,
)

__all__ = [
    "FailureEvent",
    "MaintenanceResult",
    "RouteMaintenanceSimulation",
    "RoutingTable",
    "extract_route",
    "route_stretch",
]
