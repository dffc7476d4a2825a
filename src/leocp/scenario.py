"""End-to-end scenario execution.

Builds the snapshot series, predicts per-satellite handover schedules
against the selected controllers, then replays every predicted
handover plus periodic status reporting through the event engine.
Everything downstream of the inputs is deterministic.
"""
from dataclasses import dataclass, field, replace

import numpy as np

from .assignment import AssignmentParams, predict_handovers, sample_distances
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


@dataclass
class ScenarioSpec:
    """One scenario: the constellation, the stations, and the settings of
    every pipeline stage. ``leocp.config.parse_config`` builds it from a
    JSON config; the defaults here are the config's defaults."""

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
    report_latencies: dict  # sat -> [ms]
    schedules: dict  # sat -> HandoverSchedule
    fields: list
    snapshots: list
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
    """CNAA schedule per satellite against the scenario's controllers."""
    params = replace(
        spec.assignment,
        horizon_s=spec.duration_s,
        sample_dt_s=min(spec.assignment.sample_dt_s, spec.duration_s),
    )
    controllers = {g: spec.stations[g] for g in sorted(spec.controllers)}
    schedules = {}
    for row, elem in enumerate(elements):
        if spec.metric == "network":
            series = sample_distances(row, controllers, params, metric="network", fields=fields)
        else:
            series = sample_distances(elem, controllers, params, metric="geometric")
        schedules[row] = predict_handovers(series, params)
    return schedules


def run_scenario(spec: ScenarioSpec, built=None, schedules=None) -> ScenarioResult:
    """Replay every predicted handover plus status reporting.

    ``built`` is the (elements, snapshots, fields) triple of
    ``build_fields(spec)`` and ``schedules`` the output of
    ``predict_schedules``; each is computed here when not given.
    """
    elements, snapshots, fields = built if built is not None else build_fields(spec)
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
            sim.schedule(t, _make_starter(sim, starter, sat, target))
    sim.run()

    return ScenarioResult(
        records=sorted(sim.records, key=lambda r: (r.t_start, r.sat_id)),
        report_latencies=sim.report_latencies,
        schedules=schedules,
        fields=fields,
        snapshots=snapshots,
        sim=sim,
    )


def _make_starter(sim, starter, sat, target):
    def fire(t):
        starter(sim, sat, target, t)

    return fire
