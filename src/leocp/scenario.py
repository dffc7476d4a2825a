"""End-to-end scenario execution.

Builds the snapshot series, predicts every satellite's handover schedule
against the selected controllers (distances sampled in fixed-size
blocks of satellites, each satellite then scanned on its own), then
replays every predicted handover through the event engine, which
derives the periodic status reports in bulk once its queue drains.
Everything downstream of the inputs is deterministic.
"""
import functools
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
from .orbits import WalkerShell, generate_constellation, pack_elements, station_positions
from .protocol import (
    DelayProfile,
    Protocol,
    Simulation,
    SnapshotLatency,
    start_legacy,
    start_seamless,
)
from .topology import build_snapshot, shortest_distances

# Satellites sampled per call: enough to amortise the per-call numpy work,
# few enough that at a full day's horizon a block's samples and
# propagation temporaries stay within about 2 MiB.
_BLOCK_SATS = 16


@dataclass
class ScenarioSpec:
    """One scenario: the constellation, the stations, and the settings of
    every pipeline stage. ``leocp.config.parse_config`` builds it from a
    JSON config; the defaults here are the config's defaults.

    ``latency_model`` replaces the snapshot-based latencies. Like every
    ``Simulation`` latency it implements both ``__call__`` (one leg) and
    ``sat_gs_ms`` (a block of report legs), as ``ConstantLatency`` does.
    """

    shell: WalkerShell
    stations: list
    controllers: list  # station indices acting as control nodes
    duration_s: float
    snapshot_dt_s: float = 60.0
    min_elevation_deg: float = 25.0
    isl_mode: str = "fixed_grid"
    gsl_limit: int | None = None
    assignment: AssignmentParams = field(default_factory=AssignmentParams)
    metric: str = "geometric"
    protocol: Protocol = Protocol.SEAMLESS
    delays: DelayProfile = field(default_factory=DelayProfile)
    report_interval_s: float = 10.0
    grace_s: float | None = None
    terrestrial_factor: float = 2.0
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
    records: list
    report_latencies: dict  # sat -> float64 array of ms
    schedules: dict  # sat -> HandoverSchedule
    sim: Simulation


def build_fields(spec: ScenarioSpec):
    """Snapshot + distance-field series over the scenario duration.

    The elements are packed and the stations placed once for the series.
    """
    elements = generate_constellation(spec.shell)
    packed = pack_elements(elements)
    gs_pos = station_positions(spec.stations)
    times = np.arange(0.0, spec.duration_s + spec.snapshot_dt_s * 0.5, spec.snapshot_dt_s)
    times = times[times <= spec.duration_s]
    snapshots = [
        build_snapshot(
            spec.shell,
            packed,
            gs_pos,
            float(t),
            min_elevation_deg=spec.min_elevation_deg,
            isl_mode=spec.isl_mode,
            gsl_limit=spec.gsl_limit,
        )
        for t in times
    ]
    fields = [shortest_distances(s) for s in snapshots]
    return elements, snapshots, fields


def predict_schedules(spec: ScenarioSpec, elements, fields):
    """CNAA schedule per satellite against the scenario's controllers.

    Distances are sampled ``_BLOCK_SATS`` satellites at a time; each
    satellite's schedule is its own ``predict_handovers`` call.
    """
    params = replace(
        spec.assignment,
        horizon_s=spec.duration_s,
        sample_dt_s=min(spec.assignment.sample_dt_s, spec.duration_s),
    )
    controllers = {g: spec.stations[g] for g in sorted(spec.controllers)}
    sampler = DistanceSampler(controllers, params, spec.metric, elements, fields)
    schedules = {}
    for lo in range(0, len(elements), _BLOCK_SATS):
        block = sampler(range(lo, min(lo + _BLOCK_SATS, len(elements))))
        for row, km in enumerate(block, lo):
            schedules[row] = predict_handovers(sampler.series(km), params)
    return schedules


def run_scenario(spec: ScenarioSpec, built=None, schedules=None) -> ScenarioResult:
    """Replay every predicted handover, then derive the status reports.

    ``built`` is the (elements, snapshots, fields) triple of
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
    for sat in range(len(elements)):
        sim.bind_initial(sat, schedules[sat].initial, t=0.0)
    sim.start_reporting(spec.duration_s)

    starter = start_seamless if spec.protocol is Protocol.SEAMLESS else start_legacy
    for sat in sorted(schedules):
        for t, target in schedules[sat].events:
            sim.schedule(t, functools.partial(starter, sim, sat, target))
    sim.run()

    return ScenarioResult(
        records=sorted(sim.records, key=lambda r: (r.t_start, r.sat_id)),
        report_latencies=sim.report_latencies,
        schedules=schedules,
        sim=sim,
    )
