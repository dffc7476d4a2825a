"""leocp: constellation-aware control-plane toolkit.

Places ground control nodes to minimize worst-case satellite-to-
controller latency, predicts per-satellite handover schedules, and
simulates seamless vs. drain-and-rejoin controller handovers.
"""

__version__ = "0.1.0"

from .orbits import Constellation, GroundStation, WalkerShell, generate_constellation
from .topology import DistanceFields, TopologySnapshot, build_snapshot, shortest_distances
from .placement import PlacementProblem, PlacementSolution, cnpa
from .assignment import AssignmentParams, HandoverSchedule, HandoverSchedules, predict_handovers
from .protocol import DelayProfile, HandoverRecord, Protocol, Simulation
from .scenario import ScenarioSpec, run_scenario

__all__ = [
    "AssignmentParams",
    "Constellation",
    "DelayProfile",
    "DistanceFields",
    "GroundStation",
    "HandoverRecord",
    "HandoverSchedule",
    "HandoverSchedules",
    "PlacementProblem",
    "PlacementSolution",
    "Protocol",
    "ScenarioSpec",
    "Simulation",
    "TopologySnapshot",
    "WalkerShell",
    "build_snapshot",
    "cnpa",
    "generate_constellation",
    "predict_handovers",
    "run_scenario",
    "shortest_distances",
]
