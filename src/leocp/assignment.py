"""Controller handover prediction (CNAA).

Distances from satellites to every controller are sampled on a coarse
grid over the horizon, interpolated piecewise-linearly, and scanned at
a fine decision interval. A handover fires only when some controller
is strictly closer than ``delta`` times the current one's distance,
which suppresses chatter from near-ties.

A block of satellites' samples is one ``DistanceSamples``: a
``(satellites, controllers, times)`` array of distances, controllers in id
order, over shared sample times. ``DistanceSampler`` samples a block at
once and does the per-run work once: geometric sampling is one
``propagate`` call per block (the block's rows of the ``Constellation``)
over all sample times, and the network metric looks each sample time's
nearest snapshot up once and gathers the block's rows out of the
``DistanceFields`` array in one index.
``predict_handovers`` scans a whole block with one call of the
interval-pruned ``kernels.handover_scan`` and returns the block's
schedules as one column table, ``HandoverSchedules``.
``sample_distances`` samples a single satellite, as a one-satellite block.
Satellites are flat indices (``plane * sats_per_plane + slot``) under
either metric.
"""
import bisect
import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EmptySelection, OutOfHorizon
from .orbits import propagate, station_positions
from .topology import nearest_field_indices

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


@dataclass(frozen=True)
class DistanceSamples:
    """A block of satellites' sampled distances over [0, horizon]:
    ``km[s, i, j]`` is the distance from the block's satellite ``s`` to
    controller ``gs_ids[i]`` at ``times[j]``."""

    gs_ids: tuple  # strictly increasing
    times: np.ndarray  # strictly increasing, covering [0, horizon]
    km: np.ndarray  # (satellites, len(gs_ids), len(times))
    horizon_s: float

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.gs_ids, self.gs_ids[1:])):
            raise ValueError("controller ids must be strictly increasing")
        if self.km.ndim != 3 or self.km.shape[1:] != (len(self.gs_ids), len(self.times)):
            raise ValueError("km must be shaped (satellites, controllers, sample times)")
        if (self.times[1:] <= self.times[:-1]).any():
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
        i = bisect.bisect_right(self.events, t, key=_event_time)
        return self.initial if i == 0 else self.events[i - 1][1]


class HandoverSchedules(Mapping):
    """Satellites ``0 .. n - 1``'s schedules as columns: ``initial[s]``, and ``sat``,
    ``t``, ``target`` of the ``count`` switches in (satellite, time) order, ``s``'s in
    rows ``bounds[s]:bounds[s + 1]``. A read-only mapping to each satellite's
    ``HandoverSchedule``, built when read."""

    def __init__(self, initial, sat, t, target):
        self.initial = np.asarray(initial, dtype=np.int64)
        self.sat = np.asarray(sat, dtype=np.int64)
        self.t = np.asarray(t, dtype=np.float64)
        self.target = np.asarray(target, dtype=np.int64)
        self.bounds = np.searchsorted(self.sat, np.arange(len(self.initial) + 1))
        self.count = len(self.sat)

    def __len__(self):
        return len(self.initial)

    def __iter__(self):
        return iter(range(len(self.initial)))

    def __getitem__(self, sat):
        if sat not in range(len(self.initial)):
            raise KeyError(sat)
        sat = int(sat)  # a key equal to an index, as a dict takes it: 1.0, True, np.int64(1)
        a, b = self.bounds[sat : sat + 2].tolist()
        events = zip(self.t[a:b].tolist(), self.target[a:b].tolist())
        return HandoverSchedule(self.initial[sat].item(), tuple(events))


def sample_times(params: AssignmentParams) -> np.ndarray:
    n = int(round(params.horizon_s / params.sample_dt_s))
    ts = np.arange(n + 1) * params.sample_dt_s
    if ts[-1] < params.horizon_s:
        ts = np.append(ts, params.horizon_s)
    return ts


class DistanceSampler:
    """Distances from a fleet's satellites to fixed controllers, sampled a
    block of satellites at a time.

    ``controllers`` maps controller ids to GroundStation records; they are
    sampled in id order. The geometric metric is the straight-line range
    from the satellites of the ``Constellation`` ``elements``; the "network"
    metric reads shortest-path distances out of the precomputed
    ``DistanceFields`` ``fields``, at the snapshot nearest in time. Either
    metric ignores the other's argument. The sample times, the station
    positions and the nearest-snapshot lookups are done once, here.
    """

    def __init__(self, controllers: dict, params: AssignmentParams, metric: str, elements, fields):
        if not controllers:
            raise EmptySelection("controller set is empty: no distances to sample")
        self.ids = tuple(sorted(controllers))
        self.times = sample_times(params)
        self.horizon_s = params.horizon_s
        self.metric = metric
        if metric == "geometric":
            if elements is None:
                raise ValueError("geometric metric needs the constellation")
            self._elements = elements
            self._stations = station_positions([controllers[g] for g in self.ids])
        elif metric == "network":
            if fields is None:
                raise ValueError("network metric needs precomputed distance fields")
            self._d = fields.d
            self._nearest = nearest_field_indices(fields.times, self.times)
        else:
            raise ValueError(f"unknown metric: {metric!r}")

    def __call__(self, rows):
        """The ``DistanceSamples`` of the satellites at the flat indices
        ``rows``, in order."""
        rows = np.asarray(rows, dtype=np.intp)
        if self.metric == "geometric":
            pos = propagate(self._elements[rows], self.times[:, None])
            km = np.empty((len(rows), len(self.ids), len(self.times)))
            for g, station in enumerate(self._stations):
                diff = pos - station
                diff *= diff
                km[:, g] = np.sqrt(diff.sum(axis=-1)).T  # np.linalg.norm, in place
        else:
            km = np.ascontiguousarray(
                self._d[np.ix_(self._nearest, rows, self.ids)].transpose(1, 2, 0)
            )
        return DistanceSamples(self.ids, self.times, km, self.horizon_s)


def sample_distances(
    sat: int,
    controllers: dict,
    params: AssignmentParams,
    metric: str = "geometric",
    elements=None,
    fields=None,
) -> DistanceSamples:
    """Sample the distance from the satellite at flat index ``sat`` to
    every controller, out of the ``Constellation`` ``elements`` or the
    ``DistanceFields`` ``fields`` (see ``DistanceSampler``), as a
    one-satellite block."""
    return DistanceSampler(controllers, params, metric, elements, fields)([sat])


def interpolate(samples: DistanceSamples, t: float) -> np.ndarray:
    """Piecewise-linear distance from each satellite to each controller at
    ``t``, shaped ``(satellites, controllers)``; exact at samples."""
    if t < samples.times[0] or t > samples.times[-1]:
        raise OutOfHorizon(f"t={t} outside [{samples.times[0]}, {samples.times[-1]}]")
    return np.array([[np.interp(t, samples.times, km) for km in sat] for sat in samples.km])


def _require_horizon(samples: DistanceSamples, params: AssignmentParams):
    """Interpolating past the last sample would hold it flat, so samples
    must cover the whole decision horizon."""
    if samples.horizon_s < params.horizon_s:
        raise OutOfHorizon(
            f"samples cover [0, {samples.horizon_s}] s, short of the "
            f"{params.horizon_s} s horizon"
        )


def predict_handovers(samples: DistanceSamples, params: AssignmentParams) -> HandoverSchedules:
    """Scan the horizon and emit threshold-gated handover events for every
    satellite of the block, as the block's ``HandoverSchedules``.

    A satellite's initial assignment is the nearest controller at t=0. At
    every decision tick (``kernels.decision_ticks``) the nearest controller
    (ties to the lowest id) takes over only if its interpolated distance
    is strictly below ``delta`` times the current controller's. Samples
    that stop short of ``params.horizon_s`` raise ``OutOfHorizon``.
    """
    _require_horizon(samples, params)
    ids = np.array(samples.gs_ids, dtype=np.int64)
    initial, sat, t, target = kernels.handover_scan(
        samples.times, samples.km, params.decide_dt_s, params.horizon_s, params.delta
    )
    return HandoverSchedules(ids[initial], sat, t, ids[target])


def assigned_distance_trace(
    samples: DistanceSamples, schedules: HandoverSchedules, params: AssignmentParams
) -> np.ndarray:
    """Distance from each satellite of the block to its assigned controller
    at every decision tick, shaped ``(satellites, ticks)``."""
    _require_horizon(samples, params)
    if len(schedules) != samples.km.shape[0]:
        raise ValueError("need one schedule per satellite of the block")
    ticks = kernels.decision_ticks(params.decide_dt_s, params.horizon_s)
    out = np.empty((len(schedules), ticks.shape[0]))
    bounds = schedules.bounds.tolist()
    for sat, (sat_km, sat_out, a, b) in enumerate(zip(samples.km, out, bounds, bounds[1:])):
        # the controller in charge after the last event at or before each tick
        owners = np.append(schedules.initial[sat], schedules.target[a:b])
        owner = owners[np.searchsorted(schedules.t[a:b], ticks, side="right")]
        for gid in np.unique(owner).tolist():
            at = owner == gid
            sat_out[at] = np.interp(ticks[at], samples.times, sat_km[samples.gs_ids.index(gid)])
    return out
