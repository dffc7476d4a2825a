"""Per-satellite controller handover prediction.

Distances from one satellite to every controller are sampled on a
coarse grid over the horizon (geometric: one ``propagate`` call over
all sample times; network: each sample time looked up once in the
nearest distance field), interpolated piecewise-linearly, and scanned
at a fine decision interval. A handover fires only when some
controller is strictly closer than ``delta`` times the current one's
distance, which suppresses chatter from near-ties.
"""
import bisect
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import OutOfHorizon
from .orbits import SatelliteElement, propagate, station_position
from .topology import nearest_field_index


@dataclass(frozen=True)
class AssignmentParams:
    horizon_s: float = 43200.0  # 12 h window
    sample_dt_s: float = 60.0
    decide_dt_s: float = 1.0
    delta: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if not self.decide_dt_s > 0.0:
            raise ValueError("decide_dt_s must be positive")
        if not self.decide_dt_s <= self.sample_dt_s <= self.horizon_s:
            raise ValueError("need decide_dt <= sample_dt <= horizon")


@dataclass(frozen=True)
class DistanceSeries:
    """Sampled satellite-to-controller distances over [0, horizon]."""

    gs_id: int
    times: np.ndarray
    km: np.ndarray
    horizon_s: float

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        if self.times[0] > 0.0 or self.times[-1] < self.horizon_s:
            raise ValueError("samples must cover [0, horizon]")


@dataclass(frozen=True)
class HandoverSchedule:
    """Predicted (time, target controller) events for one satellite."""

    initial: int
    events: tuple  # ((t, gs_id), ...) strictly increasing in t

    @property
    def count(self) -> int:
        return len(self.events)

    def controller_at(self, t: float) -> int:
        """Controller assigned at time ``t`` under this schedule."""
        times = [ev[0] for ev in self.events]
        i = bisect.bisect_right(times, t)
        return self.initial if i == 0 else self.events[i - 1][1]


def sample_times(params: AssignmentParams) -> np.ndarray:
    n = int(round(params.horizon_s / params.sample_dt_s))
    ts = np.arange(n + 1) * params.sample_dt_s
    if ts[-1] < params.horizon_s:
        ts = np.append(ts, params.horizon_s)
    return ts


def sample_distances(
    sat: SatelliteElement | int,
    controllers,
    params: AssignmentParams,
    metric: str = "geometric",
    fields=None,
) -> list[DistanceSeries]:
    """Sample the distance from satellite ``sat`` to every controller.

    ``controllers`` maps controller ids to GroundStation records (a
    dict or list of (gs_id, station) pairs). The default geometric
    metric is the straight-line range from the element ``sat``; the
    "network" metric reads shortest-path distances out of precomputed
    ``fields`` (in time order; nearest snapshot in time), for which
    ``sat`` is the satellite's flat row index in the fields.
    """
    items = list(controllers.items()) if isinstance(controllers, dict) else list(controllers)
    ts = sample_times(params)
    out = []
    if metric == "geometric":
        sat_pos = propagate(sat, ts)
        for gid, st in items:
            km = np.linalg.norm(sat_pos - station_position(st)[None, :], axis=1)
            out.append(DistanceSeries(gs_id=gid, times=ts, km=km, horizon_s=params.horizon_s))
    elif metric == "network":
        if fields is None:
            raise ValueError("network metric needs precomputed distance fields")
        if not isinstance(sat, (int, np.integer)):
            raise ValueError("network metric needs a flat satellite row index")
        field_times = [f.t for f in fields]
        rows = np.stack([fields[nearest_field_index(field_times, t)].d[sat] for t in ts.tolist()])
        for gid, _ in items:
            out.append(
                DistanceSeries(gs_id=gid, times=ts, km=rows[:, gid], horizon_s=params.horizon_s)
            )
    else:
        raise ValueError(f"unknown metric: {metric!r}")
    return out


def interpolate(series: DistanceSeries, t: float) -> float:
    """Piecewise-linear distance estimate at ``t``; exact at samples."""
    if t < series.times[0] or t > series.times[-1]:
        raise OutOfHorizon(f"t={t} outside [{series.times[0]}, {series.times[-1]}]")
    return float(np.interp(t, series.times, series.km))


def predict_handovers(
    series_set: list[DistanceSeries], params: AssignmentParams
) -> HandoverSchedule:
    """Scan the horizon and emit threshold-gated handover events.

    The initial assignment is the nearest controller at t=0. At every
    decision tick the nearest controller (ties to the lowest id) takes
    over only if its interpolated distance is strictly below ``delta``
    times the current controller's.
    """
    ordered = sorted(series_set, key=lambda s: s.gs_id)
    ids = [s.gs_id for s in ordered]
    sample_t = ordered[0].times
    sample_d = np.stack([s.km for s in ordered])
    initial_idx, events = kernels.handover_scan(
        sample_t, sample_d, params.decide_dt_s, params.horizon_s, params.delta
    )
    return HandoverSchedule(
        initial=ids[initial_idx],
        events=tuple((float(t), ids[int(g)]) for t, g in events),
    )


def assigned_distance_trace(
    series_set: list[DistanceSeries], schedule: HandoverSchedule, params: AssignmentParams
) -> np.ndarray:
    """Distance to the assigned controller at every decision tick."""
    by_id = {s.gs_id: s for s in series_set}
    ticks = np.arange(0.0, params.horizon_s + params.decide_dt_s * 0.5, params.decide_dt_s)
    ticks = ticks[ticks <= params.horizon_s]
    out = np.empty(ticks.shape[0])
    for i, t in enumerate(ticks):
        s = by_id[schedule.controller_at(float(t))]
        out[i] = np.interp(t, s.times, s.km)
    return out
