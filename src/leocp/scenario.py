"""End-to-end scenario execution.

Builds the snapshot series, predicts every satellite's handover schedule
against the selected controllers (distances sampled and scanned in blocks
of a fixed number of satellite-samples, one ``predict_handovers`` call
each), then replays every predicted handover in one bulk batch
(``Simulation.start_handovers``) and derives the periodic status reports
in bulk after it.
Everything downstream of the inputs is deterministic.
"""
from dataclasses import dataclass, field, replace

import numpy as np

# ``sample_distances`` is not called here; it stays importable under this
# name because ``perfbench/tracer.py`` patches it on this module.
from .assignment import (  # noqa: F401
    AssignmentParams,
    DistanceSampler,
    predict_handovers,
    sample_distances,
)
from .kernels import decision_ticks
from .orbits import WalkerShell, generate_constellation, station_positions
from .protocol import (
    DEFAULT_REPORT_INTERVAL_S,
    DEFAULT_TERRESTRIAL_FACTOR,
    DelayProfile,
    Protocol,
    Simulation,
    SnapshotLatency,
)
from .topology import (
    DEFAULT_MIN_ELEVATION_DEG,
    DistanceFields,
    build_snapshot,
    group_size,
    shortest_distances,
)

# Satellite-samples per block: a block holds this many divided by the
# sample count of satellites, so the 15-minute Starlink fleet (16 samples)
# is one block and its full day (1,441 samples) 36 blocks of 44. Enough to
# amortise the lockstep scan's per-step numpy calls, few enough that a
# full-day block's samples, propagation temporaries and interval flags stay
# within about 10 MiB. On a 2-core host the full day took 1.05-1.3 s at
# 32,000 and 46,000, 1.0 s at 64,000, and no less at 100,000, whose blocks
# peak at 14 MiB.
BLOCK_SAMPLES = 64_000


@dataclass
class ScenarioSpec:
    """One scenario: the constellation, the stations, and the settings of
    every pipeline stage. ``leocp.config.parse_config`` builds it from a
    JSON config; the defaults here are the config's defaults.

    ``latency_model`` replaces the snapshot-based latencies. Like every
    ``Simulation`` latency it implements both ``__call__`` (one leg) and
    ``sat_gs_ms`` (a block of legs), as ``ConstantLatency`` does.
    """

    shell: WalkerShell
    stations: list
    controllers: list  # station indices acting as control nodes
    duration_s: float
    snapshot_dt_s: float = 60.0
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG
    isl_mode: str = "fixed_grid"
    gsl_limit: int | None = None
    assignment: AssignmentParams = field(default_factory=AssignmentParams)
    metric: str = "geometric"
    protocol: Protocol = Protocol.SEAMLESS
    delays: DelayProfile = field(default_factory=DelayProfile)
    report_interval_s: float = DEFAULT_REPORT_INTERVAL_S
    grace_s: float | None = None
    terrestrial_factor: float = DEFAULT_TERRESTRIAL_FACTOR
    pods_per_sat: int = 1
    record_trace: bool = False
    latency_model: object = None  # override; defaults to snapshot-based lookups
    # placement settings, used by the CLI to select ``controllers``
    seed: int = 0
    k: int = 1
    clusters: int = 1
    method: str = "cnpa"
    eval_on_full: bool = False
    raw: dict = field(default_factory=dict, repr=False)  # the config it was parsed from


@dataclass
class ScenarioResult:
    records: list  # ``sim.records``: in (t_start, satellite) order
    report_latencies: dict  # sat -> float64 array of ms
    schedules: dict  # sat -> HandoverSchedule
    sim: Simulation


def build_fields(spec: ScenarioSpec):
    """The (``Constellation``, snapshots, ``DistanceFields``) series over
    the scenario duration.

    The constellation is generated and the stations placed once for the
    series. The snapshots are built and solved a group at a time
    (``topology.group_size`` of them, from the graph's size): one
    ``build_snapshot`` and one ``shortest_distances`` call per group, whose
    distances are copied into the group's rows of one preallocated
    ``DistanceFields`` array, so no Dijkstra result outlives its copy.
    """
    elements = generate_constellation(spec.shell)
    gs_pos = station_positions(spec.stations)
    times = decision_ticks(spec.snapshot_dt_s, spec.duration_s).tolist()
    d = np.empty((len(times), len(elements), len(spec.stations)))
    size = group_size(len(elements), len(spec.stations))
    snapshots = []
    for lo in range(0, len(times), size):
        group = build_snapshot(
            spec.shell,
            elements,
            gs_pos,
            times[lo:lo + size],
            min_elevation_deg=spec.min_elevation_deg,
            isl_mode=spec.isl_mode,
            gsl_limit=spec.gsl_limit,
        )
        d[lo:lo + len(group)] = shortest_distances(group)
        snapshots += group
    return elements, snapshots, DistanceFields(times, d)


def predict_schedules(spec: ScenarioSpec, elements, fields):
    """CNAA schedule per satellite against the scenario's controllers.

    Satellites go ``BLOCK_SAMPLES`` satellite-samples at a time: each
    block's distances are one ``DistanceSamples``, scanned by one
    ``predict_handovers`` call.
    """
    params = replace(
        spec.assignment,
        horizon_s=spec.duration_s,
        sample_dt_s=min(spec.assignment.sample_dt_s, spec.duration_s),
    )
    controllers = {g: spec.stations[g] for g in spec.controllers}
    sampler = DistanceSampler(controllers, params, spec.metric, elements, fields)
    step = max(1, BLOCK_SAMPLES // len(sampler.times))
    schedules = {}
    for lo in range(0, len(elements), step):
        block = sampler(range(lo, min(lo + step, len(elements))))
        schedules.update(enumerate(predict_handovers(block, params), lo))
    return schedules


def run_scenario(spec: ScenarioSpec, built=None, schedules=None) -> ScenarioResult:
    """Replay every predicted handover, then derive the status reports.

    ``built`` is the (constellation, snapshots, fields) triple of
    ``build_fields(spec)`` and ``schedules`` the output of
    ``predict_schedules``; each is computed here when not given.
    """
    elements, _, fields = built if built is not None else build_fields(spec)
    if schedules is None:
        schedules = predict_schedules(spec, elements, fields)

    latency = spec.latency_model or SnapshotLatency(
        fields, spec.stations, terrestrial_factor=spec.terrestrial_factor
    )
    sim = Simulation(
        controllers=sorted(spec.controllers),
        satellites=list(range(len(elements))),
        latency=latency,
        delays=spec.delays,
        report_interval=spec.report_interval_s,
        grace=spec.grace_s,
        pods_per_sat=spec.pods_per_sat,
        record_trace=spec.record_trace,
    )
    sim.bind_all({sat: schedules[sat].initial for sat in range(len(elements))}, t=0.0)
    sim.start_reporting(spec.duration_s)
    sim.start_handovers(spec.protocol, {sat: s.events for sat, s in schedules.items()})
    sim.run()

    return ScenarioResult(
        records=sim.records,
        report_latencies=sim.report_latencies,
        schedules=schedules,
        sim=sim,
    )
