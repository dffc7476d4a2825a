"""Controller handover prediction (CNAA).

Distances from satellites to every controller are sampled on a coarse
grid over the horizon, interpolated piecewise-linearly, and scanned at
a fine decision interval. A handover fires only when some controller
is strictly closer than ``delta`` times the current one's distance,
which suppresses chatter from near-ties.

``DistanceSampler`` samples a block of satellites at once and does the
per-run work once: geometric sampling is one ``propagate`` call per
block over all sample times, and the network metric looks each sample
time up once in the nearest distance field and slices the block's rows
out of it. ``predict_handovers`` scans one satellite with the
interval-pruned ``kernels.handover_scan``. ``sample_distances`` is the
per-satellite sampler, a block of one.
"""
import bisect
import operator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import OutOfHorizon
from .orbits import SatelliteElement, pack_elements, propagate, station_positions
from .topology import nearest_field_index

_event_time = operator.itemgetter(0)  # time of a (t, gs_id) schedule event


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


def check_sample_times(times: np.ndarray, horizon_s: float) -> None:
    """Sample times must increase strictly and cover [0, horizon]."""
    if (times[1:] <= times[:-1]).any():
        raise ValueError("sample times must be strictly increasing")
    if times[0] > 0.0 or times[-1] < horizon_s:
        raise ValueError("samples must cover [0, horizon]")


@dataclass(frozen=True)
class DistanceSeries:
    """Sampled satellite-to-controller distances over [0, horizon]."""

    gs_id: int
    times: np.ndarray
    km: np.ndarray
    horizon_s: float

    def __post_init__(self):
        check_sample_times(self.times, self.horizon_s)


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
        i = bisect.bisect_right(self.events, t, key=_event_time)
        return self.initial if i == 0 else self.events[i - 1][1]


def sample_times(params: AssignmentParams) -> np.ndarray:
    n = int(round(params.horizon_s / params.sample_dt_s))
    ts = np.arange(n + 1) * params.sample_dt_s
    if ts[-1] < params.horizon_s:
        ts = np.append(ts, params.horizon_s)
    return ts


class DistanceSampler:
    """Distances from a fleet's satellites to fixed controllers, sampled a
    block of satellites at a time.

    ``controllers`` maps controller ids to GroundStation records (a dict
    or a list of (gs_id, station) pairs). The geometric metric is the
    straight-line range from ``elements``; the "network" metric reads
    shortest-path distances out of precomputed ``fields`` (in time order;
    the snapshot nearest in time). Either metric ignores the other's
    argument. The sample times and their check, the station positions
    and the nearest-field lookups are done once, here.
    """

    def __init__(self, controllers, params: AssignmentParams, metric: str, elements, fields):
        items = list(controllers.items()) if isinstance(controllers, dict) else list(controllers)
        self.ids = [gid for gid, _ in items]
        self.times = sample_times(params)
        check_sample_times(self.times, params.horizon_s)
        self.horizon_s = params.horizon_s
        self.metric = metric
        if metric == "geometric":
            self._elements = elements
            self._stations = station_positions([st for _, st in items])
        elif metric == "network":
            if fields is None:
                raise ValueError("network metric needs precomputed distance fields")
            field_times = [f.t for f in fields]
            self._fields = [fields[nearest_field_index(field_times, t)].d for t in self.times.tolist()]
        else:
            raise ValueError(f"unknown metric: {metric!r}")

    def __call__(self, rows) -> np.ndarray:
        """Distances of the satellites at flat indices ``rows``, shaped
        ``(len(rows), len(ids), len(times))``."""
        if self.metric == "geometric":
            elements = pack_elements([self._elements[i] for i in rows])
            pos = propagate(elements, self.times[:, None])
            km = np.empty(pos.shape[:2] + (len(self.ids),))
            for g, station in enumerate(self._stations):
                diff = pos - station
                diff *= diff
                km[:, :, g] = np.sqrt(diff.sum(axis=-1))  # np.linalg.norm, in place
        else:
            block = np.ix_(np.asarray(rows, dtype=np.intp), self.ids)
            km = np.stack([d[block] for d in self._fields])
        return np.ascontiguousarray(km.transpose(1, 2, 0))

    def series(self, km) -> list[DistanceSeries]:
        """One satellite's ``(len(ids), len(times))`` distances as series."""
        return [
            DistanceSeries(gs_id=gid, times=self.times, km=row, horizon_s=self.horizon_s)
            for gid, row in zip(self.ids, km)
        ]


def sample_distances(
    sat: SatelliteElement | int,
    controllers,
    params: AssignmentParams,
    metric: str = "geometric",
    fields=None,
) -> list[DistanceSeries]:
    """Sample the distance from satellite ``sat`` to every controller,
    one series per controller in the order of ``controllers``.

    ``sat`` is the element for the geometric metric and the satellite's
    flat row index in ``fields`` for the network metric (see
    ``DistanceSampler``).
    """
    network = metric == "network"
    sampler = DistanceSampler(controllers, params, metric, None if network else [sat], fields)
    if network and not isinstance(sat, (int, np.integer)):
        raise ValueError("network metric needs a flat satellite row index")
    return sampler.series(sampler([sat if network else 0])[0])


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
    sample_d = np.stack([s.km for s in ordered])
    initial, events = kernels.handover_scan(
        ordered[0].times, sample_d, params.decide_dt_s, params.horizon_s, params.delta
    )
    return HandoverSchedule(initial=ids[initial], events=tuple((t, ids[g]) for t, g in events))


def assigned_distance_trace(
    series_set: list[DistanceSeries], schedule: HandoverSchedule, params: AssignmentParams
) -> np.ndarray:
    """Distance to the assigned controller at every decision tick."""
    by_id = {s.gs_id: s for s in series_set}
    ticks = kernels.decision_ticks(params.decide_dt_s, params.horizon_s)
    # the controller in charge after the last event at or before each tick
    owners = np.array([schedule.initial] + [g for _, g in schedule.events])
    event_times = np.array([t for t, _ in schedule.events], dtype=np.float64)
    owner = owners[np.searchsorted(event_times, ticks, side="right")]
    out = np.empty(ticks.shape[0])
    for gid in np.unique(owner).tolist():
        at = owner == gid
        s = by_id[gid]
        out[at] = np.interp(ticks[at], s.times, s.km)
    return out
