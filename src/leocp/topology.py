"""Time-indexed satellite-ground graph construction and shortest paths.

A snapshot at time ``t`` holds satellite/station ECEF positions, the
+Grid inter-satellite links weighted by Euclidean distance, and one
ground-satellite link per mutually visible pair. Shortest-path
distances from every station to every satellite are one
``(satellites, stations)`` array per snapshot; unreachable pairs are
``inf`` rather than raised. A series of them is one ``DistanceFields``:
the snapshot times and one ``(snapshots, satellites, stations)`` array
that every consumer reads in place. ``nearest_field_index`` is the one
lookup of the snapshot nearest in time, shared by the simulation's
latency model and network-metric sampling; ``nearest_field_indices`` is
its array form.

The writers stream one snapshot at a time and give the bytes of the
standard library's encoders: ``write_json_array`` those of ``json.dump``
of the whole list (each item goes through the C encoder of
``json.dumps``), ``write_fields_json`` the same with each snapshot's
rows encoded a block of satellites at a time, ``write_fields_csv`` those
of ``csv.writer``, each block of a snapshot's rows formatted by one
``%`` over a row template built once per series.
"""
import bisect
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constants import LIGHT_SPEED_KM_MS
from .orbits import Constellation, WalkerShell, propagate

DEFAULT_MIN_ELEVATION_DEG = 25.0


@dataclass(frozen=True)
class TopologySnapshot:
    """Graph of the constellation at one instant.

    Edge arrays hold each undirected pair exactly once. Satellite
    indices are flat (plane * sats_per_plane + slot); station indices
    follow the ground-station list order.
    """

    t: float
    sat_positions: np.ndarray  # (n_sats, 3) km
    station_positions: np.ndarray  # (n_stations, 3) km
    isl_pairs: np.ndarray  # (n_isl, 2) int
    isl_km: np.ndarray  # (n_isl,)
    gsl_pairs: np.ndarray  # (n_gsl, 2) int: (sat, station)
    gsl_km: np.ndarray  # (n_gsl,)

    @property
    def n_sats(self) -> int:
        return self.sat_positions.shape[0]

    @property
    def n_stations(self) -> int:
        return self.station_positions.shape[0]


@dataclass(frozen=True)
class DistanceFields:
    """Shortest-path length from every satellite to every station at each
    snapshot time: ``d[i, sat, gs]`` is the distance at ``times[i]``."""

    times: list  # strictly increasing floats
    d: np.ndarray  # (n_snapshots, n_sats, n_stations) km, inf where unreachable

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("snapshot times must be strictly increasing")
        if self.d.ndim != 3 or self.d.shape[0] != len(self.times):
            raise ValueError("d must be shaped (snapshots, satellites, stations)")


def _intra_plane_ring(shell: WalkerShell) -> list[tuple[int, int]]:
    """Slot s to slot s + 1 in every plane; the ring closes only when a
    plane holds more than two slots."""
    planes, slots = shell.planes, shell.sats_per_plane
    last = slots if slots > 2 else slots - 1
    return [
        (p * slots + s, p * slots + (s + 1) % slots) for p in range(planes) for s in range(last)
    ]


def _adjacent_planes(shell: WalkerShell) -> list[tuple[int, int]]:
    """(p, p + 1) plane pairs; the last plane wraps to the first only for a
    delta pattern (360 degree RAAN span) of more than two planes."""
    planes = shell.planes
    last = planes if planes > 2 and shell.raan_span_deg >= 360.0 else planes - 1
    return [(p, (p + 1) % planes) for p in range(last)]


@functools.lru_cache(maxsize=16)
def build_isl_grid(shell: WalkerShell) -> np.ndarray:
    """+Grid pairing over flat satellite indices, as a read-only
    ``(n_isl, 2)`` array built once per shell: it does not change over time.

    Each satellite links to slot +-1 in its own plane (wrapping) and to
    the same slot in plane +-1. Plane adjacency wraps for delta
    patterns (360 degree RAAN span) but not across the seam of a star
    pattern (180 degrees). Degenerate shells with fewer than three
    planes or slots simply omit the impossible links.
    """
    slots = shell.sats_per_plane
    pairs = _intra_plane_ring(shell) + [
        (p * slots + s, q * slots + s) for p, q in _adjacent_planes(shell) for s in range(slots)
    ]
    arr = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    arr.setflags(write=False)
    return arr


def _visibility_matrix(sat_pos, gs_pos, min_elevation_deg):
    """Boolean (n_sats, n_stations) visibility and the range matrix."""
    diff = sat_pos[:, None, :] - gs_pos[None, :, :]  # (N, M, 3)
    rng = np.linalg.norm(diff, axis=2)
    gs_norm = np.linalg.norm(gs_pos, axis=1)
    radial = np.einsum("nmk,mk->nm", diff, gs_pos)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_elev = radial / (rng * gs_norm[None, :])
    vis = sin_elev >= math.sin(math.radians(min_elevation_deg)) - 1e-12
    vis &= rng > 0.0
    return vis, rng


def _nearest_interplane_pairs(shell, sat_pos):
    """Per-snapshot variant: link each satellite to its nearest satellite
    in each neighboring plane instead of the fixed same-slot index."""
    slots = shell.sats_per_plane
    pos = sat_pos.reshape(shell.planes, slots, 3)
    pairs = set()
    for p, q in _adjacent_planes(shell):
        diff = pos[p][:, None, :] - pos[q][None, :, :]
        nearest = np.argmin(np.linalg.norm(diff, axis=2), axis=1)
        for s in range(slots):
            pairs.add((p * slots + s, q * slots + int(nearest[s])))
    return sorted(pairs)


def build_snapshot(
    shell: WalkerShell,
    constellation: Constellation,
    gs_pos: np.ndarray,
    t: float,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
    isl_mode: str = "fixed_grid",
    gsl_limit: int | None = None,
) -> TopologySnapshot:
    """Positions plus ISL/GSL edge lists at time ``t``.

    ``constellation`` is the shell's ``generate_constellation`` and
    ``gs_pos`` the stations' ECEF positions (``station_positions``), both
    made once for a whole series. ``isl_mode`` is "fixed_grid"
    (``build_isl_grid``: index-based, stable over time) or
    "nearest" (recompute the inter-plane neighbor each snapshot).
    ``gsl_limit`` (at least 1) caps links per satellite to the nearest
    visible stations; default unlimited.
    """
    if gsl_limit is not None and gsl_limit < 1:
        raise ValueError(f"gsl_limit must be at least 1, got {gsl_limit}")
    sat_pos = propagate(constellation, t)

    if isl_mode == "fixed_grid":
        isl_pairs = build_isl_grid(shell)
    elif isl_mode == "nearest":
        pairs = _intra_plane_ring(shell) + _nearest_interplane_pairs(shell, sat_pos)
        isl_pairs = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    else:
        raise ValueError(f"unknown isl_mode: {isl_mode!r}")

    isl_km = np.linalg.norm(sat_pos[isl_pairs[:, 0]] - sat_pos[isl_pairs[:, 1]], axis=1)

    vis, rng = _visibility_matrix(sat_pos, gs_pos, min_elevation_deg)
    if gsl_limit is not None:
        # keep a visible link iff it is among the satellite's first
        # ``gsl_limit`` visible stations in stable range order
        order = np.argsort(rng, axis=1, kind="stable")
        in_order = np.take_along_axis(vis, order, axis=1)
        in_order &= np.cumsum(in_order, axis=1) <= gsl_limit
        np.put_along_axis(vis, order, in_order, axis=1)
    sat_idx, gs_idx = np.nonzero(vis)
    gsl_pairs = np.stack([sat_idx, gs_idx], axis=1) if sat_idx.size else np.empty((0, 2), dtype=np.int64)
    gsl_km = rng[sat_idx, gs_idx] if sat_idx.size else np.empty(0)

    return TopologySnapshot(
        t=t,
        sat_positions=sat_pos,
        station_positions=gs_pos,
        isl_pairs=isl_pairs,
        isl_km=isl_km,
        gsl_pairs=gsl_pairs.astype(np.int64),
        gsl_km=gsl_km,
    )


def _to_csr(snapshot: TopologySnapshot):
    """Symmetric CSR adjacency over nodes [sats..., stations...]."""
    n = snapshot.n_sats + snapshot.n_stations
    src = np.concatenate(
        [
            snapshot.isl_pairs[:, 0],
            snapshot.isl_pairs[:, 1],
            snapshot.gsl_pairs[:, 0],
            snapshot.gsl_pairs[:, 1] + snapshot.n_sats,
        ]
    )
    dst = np.concatenate(
        [
            snapshot.isl_pairs[:, 1],
            snapshot.isl_pairs[:, 0],
            snapshot.gsl_pairs[:, 1] + snapshot.n_sats,
            snapshot.gsl_pairs[:, 0],
        ]
    )
    w = np.concatenate([snapshot.isl_km, snapshot.isl_km, snapshot.gsl_km, snapshot.gsl_km])
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    return indptr, dst.astype(np.int64), w.astype(np.float64), n


def shortest_distances(snapshot: TopologySnapshot) -> np.ndarray:
    """Dijkstra from every ground station over the ISL+GSL union graph:
    the (n_sats, n_stations) km array, inf where unreachable."""
    n_sats, n_stations = snapshot.n_sats, snapshot.n_stations
    if snapshot.isl_km.size + snapshot.gsl_km.size == 0:
        return np.full((n_sats, n_stations), np.inf)
    indptr, indices, weights, n = _to_csr(snapshot)
    sources = np.arange(n_sats, n_sats + n_stations)
    dist = kernels.dijkstra_from_sources(indptr, indices, weights, n, sources)
    return dist[:, :n_sats].T


def nearest_field_index(times, t) -> int:
    """Index of the entry of ``times`` (an ascending list) nearest to ``t``.

    The rule of ``argmin(|times - t|)``: on an exact tie the earlier
    entry wins, and ``t`` outside the range clamps to an end.
    """
    i = bisect.bisect_left(times, t)
    if i == 0:
        return 0
    if i == len(times):
        return i - 1
    return i - 1 if t - times[i - 1] <= times[i] - t else i


def nearest_field_indices(times, ts) -> np.ndarray:
    """``nearest_field_index(times, t)`` for every ``t`` of the array ``ts``
    (finite or infinite), as an index array shaped like ``ts``."""
    times, ts = np.asarray(times, dtype=float), np.asarray(ts, dtype=float)
    i = np.searchsorted(times, ts)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i, len(times) - 1)
    return np.where(ts - times[lo] <= times[hi] - ts, lo, hi)


def distance_to_latency(km) -> float:
    """One-way propagation delay in milliseconds for a path length in km."""
    return km / LIGHT_SPEED_KM_MS


# ---------------------------------------------------------------------------
# serialization


def snapshot_to_dict(snapshot: TopologySnapshot) -> dict:
    """Plain lists for JSON; each edge is a ``(a, b, km)`` tuple, which
    encodes as a JSON array."""
    return {
        "t": snapshot.t,
        "sat_positions": snapshot.sat_positions.tolist(),
        "station_positions": snapshot.station_positions.tolist(),
        "isl_edges": list(zip(*snapshot.isl_pairs.T.tolist(), snapshot.isl_km.tolist())),
        "gsl_edges": list(zip(*snapshot.gsl_pairs.T.tolist(), snapshot.gsl_km.tolist())),
    }


def field_to_dict(t, d: np.ndarray) -> dict:
    """One snapshot's row ``d`` of a ``DistanceFields`` at time ``t``."""
    reachable = np.isfinite(d)
    return {
        "t": t,
        "d_km": np.where(reachable, d, -1.0).tolist(),
        "reachable": reachable.astype(int).tolist(),
    }


def write_json_array(items, path):
    """The bytes of ``json.dump(list(items), fh)`` plus a newline, written
    one item at a time.

    ``json.dump`` encodes in pure Python; ``json.dumps`` of one item takes
    the C encoder, and ``", "`` is the default item separator.
    """
    with open(path, "w") as fh:
        fh.write("[")
        sep = ""
        for item in items:
            fh.write(sep)
            fh.write(json.dumps(item))
            sep = ", "
        fh.write("]\n")


# satellites per encoding call in ``write_fields_json`` and ``write_fields_csv``
FIELD_ROWS = 256


def write_fields_json(fields: DistanceFields, path):
    """The bytes of ``write_json_array`` of each snapshot's ``field_to_dict``.

    Each snapshot's ``d_km`` and ``reachable`` rows go through
    ``json.dumps`` ``FIELD_ROWS`` satellites at a time, so no whole
    snapshot's lists of Python numbers are held at once.
    """
    with open(path, "w") as fh:
        fh.write("[")
        sep = ""
        for t, d in zip(fields.times, fields.d):
            reachable = np.isfinite(d)
            fh.write(f'{sep}{{"t": {json.dumps(t)}, "d_km": ')
            _write_json_rows(fh, np.where(reachable, d, -1.0))
            fh.write(', "reachable": ')
            _write_json_rows(fh, reachable.astype(int))
            fh.write("}")
            sep = ", "
        fh.write("]\n")


def _write_json_rows(fh, rows: np.ndarray):
    """The bytes of ``json.dumps(rows.tolist())``, ``FIELD_ROWS`` rows per call."""
    fh.write("[")
    sep = ""
    for i in range(0, len(rows), FIELD_ROWS):
        fh.write(sep)
        # the block's list without its brackets
        fh.write(json.dumps(rows[i:i + FIELD_ROWS].tolist())[1:-1])
        sep = ", "
    fh.write("]")


def write_fields_csv(fields: DistanceFields, path):
    """One row per (t, sat, station, km); unreachable pairs get km=-1.

    Each snapshot's rows are formatted as ``csv.writer`` would write them:
    CRLF line ends, ``repr`` of ``t`` as a float and ``km`` to six
    decimals. One ``%`` template per block of ``FIELD_ROWS`` satellites
    holds the block's ``sat,station``, built once per series; each
    snapshot puts its ``t`` in with ``str.replace`` and a block's
    distances in with one ``%``.
    """
    _, n_sats, n_stations = fields.d.shape
    starts = range(0, n_sats, FIELD_ROWS)
    templates = [
        "".join(
            f"\0,{s},{g},%.6f\r\n"
            for s in range(lo, min(lo + FIELD_ROWS, n_sats))
            for g in range(n_stations)
        )
        for lo in starts
    ]
    with open(path, "w", newline="") as fh:
        fh.write("t_s,sat,station,km\r\n")
        for t, d in zip(fields.times, fields.d):
            km = np.where(np.isfinite(d), d, -1.0)
            t_repr = repr(float(t))
            for lo, template in zip(starts, templates):
                block = km[lo:lo + FIELD_ROWS].ravel().tolist()
                fh.write(template.replace("\0", t_repr) % tuple(block))


def write_snapshots_json(snapshots, path):
    write_json_array((snapshot_to_dict(s) for s in snapshots), path)
