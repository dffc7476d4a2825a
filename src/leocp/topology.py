"""Time-indexed satellite-ground graph construction and shortest paths.

A snapshot at time ``t`` holds satellite/station ECEF positions, the
+Grid inter-satellite links weighted by Euclidean distance, and one
ground-satellite link per mutually visible pair. A series is built and
solved a group of snapshots at a time (``group_size``, from the graph's
size): ``build_snapshot`` propagates and tests the whole group at once,
and ``shortest_distances`` runs one Dijkstra over the group's
block-diagonal graph, giving the shortest-path distances from every
station to every satellite as one ``(snapshots, satellites, stations)``
array; unreachable pairs are ``inf`` rather than raised. A whole series
is one ``DistanceFields``: the snapshot times and one such array that
every consumer reads in place. ``nearest_field_indices`` is the one
lookup of the snapshot nearest in time, shared by the simulation's
latency model and network-metric sampling.

The writers stream the series and give the bytes of the standard
library's encoders. ``write_snapshots_json`` and ``write_fields_json``
give those of ``json.dump`` of the whole list: the numbers of a run of
snapshots go through ``numtext.json_tables``, a block of numbers per
call. ``write_fields_csv`` gives those of ``csv.writer``, each block of
a snapshot's rows formatted by one ``%`` over a row template built once
per series.
"""
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, numtext
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


def _length(d):
    """Euclidean length of coordinate-first vectors ``(3, ...)``: x, y and z
    squared and summed in that order, the sum ``np.linalg.norm`` makes of
    a row, with each numpy loop running over every vector at once."""
    return np.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])


def _visibility_matrix(sat_pos, gs_pos, min_elevation_deg):
    """Boolean ``(..., n_sats, n_stations)`` visibility and the range matrix
    of ``(..., n_sats, 3)`` satellite positions.

    The work runs station-major, ``(n_stations, ..., n_sats)``, so each loop
    spans all satellites; both results are views in satellite-station order.
    """
    per_station = (-1,) + (1,) * (sat_pos.ndim - 1)  # (M, 1, ..., 1)
    xyz = np.ascontiguousarray(np.moveaxis(sat_pos, -1, 0))  # (3, ..., N)
    diff = xyz[:, None] - gs_pos.T.reshape((3,) + per_station)  # (3, M, ..., N)
    rng = _length(diff)
    gs_norm = np.linalg.norm(gs_pos, axis=1)
    radial = np.einsum("km...,mk->m...", diff, gs_pos)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_elev = radial / (rng * gs_norm.reshape(per_station))
    vis = sin_elev >= math.sin(math.radians(min_elevation_deg)) - 1e-12
    vis &= rng > 0.0
    return np.moveaxis(vis, 0, -1), np.moveaxis(rng, 0, -1)


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


# Entries one group's Dijkstra output may hold (512 KiB of float64): a
# group of G snapshots gives a ``(G * stations, G * (sats + stations))`` array
GROUP_ENTRIES = 1 << 16


def group_size(n_sats: int, n_stations: int) -> int:
    """Snapshots built and solved together: the most whose block-diagonal
    Dijkstra output fits ``GROUP_ENTRIES``, and at least one. It also bounds
    the group's geometry temporaries, a few ``(3, stations, snapshots,
    sats)`` arrays."""
    per_snapshot = max(1, n_stations * (n_sats + n_stations))
    return max(1, math.isqrt(GROUP_ENTRIES // per_snapshot))


def build_snapshot(
    shell: WalkerShell,
    constellation: Constellation,
    gs_pos: np.ndarray,
    times,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
    isl_mode: str = "fixed_grid",
    gsl_limit: int | None = None,
) -> list[TopologySnapshot]:
    """Positions plus ISL/GSL edge lists at each of a group of ``times``:
    one ``TopologySnapshot`` per time, in order.

    ``constellation`` is the shell's ``generate_constellation`` and
    ``gs_pos`` the stations' ECEF positions (``station_positions``), both
    made once for a whole series. The group is propagated, its ISLs
    measured and its visibility tested in one pass each, so the snapshots
    hold views of the group's arrays. ``isl_mode`` is "fixed_grid"
    (``build_isl_grid``: index-based, stable over time) or "nearest"
    (recompute the inter-plane neighbor each snapshot).
    ``min_elevation_deg`` is in [-90, 90]. ``gsl_limit`` (at least 1) caps
    links per satellite to the nearest visible stations; default unlimited.
    """
    if gsl_limit is not None and gsl_limit < 1:
        raise ValueError(f"gsl_limit must be at least 1, got {gsl_limit}")
    # visibility compares sines, so an angle past +-90 would alias to another
    if not -90.0 <= min_elevation_deg <= 90.0:
        raise ValueError(f"min_elevation_deg must be in [-90, 90], got {min_elevation_deg}")
    if isl_mode not in ("fixed_grid", "nearest"):
        raise ValueError(f"unknown isl_mode: {isl_mode!r}")
    sat_pos = propagate(constellation, np.asarray(times, dtype=float)[:, None])  # (G, N, 3)
    xyz = np.moveaxis(sat_pos, -1, 0)  # (3, G, N)

    if isl_mode == "fixed_grid":
        grid = build_isl_grid(shell)
        isl_pairs = [grid] * len(sat_pos)
        isl_km = _length(xyz[:, :, grid[:, 0]] - xyz[:, :, grid[:, 1]])
    else:
        isl_pairs, isl_km = [], []
        for j, pos in enumerate(sat_pos):
            pairs = _intra_plane_ring(shell) + _nearest_interplane_pairs(shell, pos)
            pairs = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
            isl_pairs.append(pairs)
            isl_km.append(_length(xyz[:, j, pairs[:, 0]] - xyz[:, j, pairs[:, 1]]))

    vis, rng = _visibility_matrix(sat_pos, gs_pos, min_elevation_deg)
    if gsl_limit is not None:
        # keep a visible link iff it is among the satellite's first
        # ``gsl_limit`` visible stations in stable range order
        order = np.argsort(rng, axis=-1, kind="stable")
        in_order = np.take_along_axis(vis, order, axis=-1)
        in_order &= np.cumsum(in_order, axis=-1) <= gsl_limit
        np.put_along_axis(vis, order, in_order, axis=-1)
    snap_idx, sat_idx, gs_idx = np.nonzero(vis)  # snapshot-major, as each one's own
    gsl_pairs = np.stack([sat_idx, gs_idx], axis=1).astype(np.int64, copy=False)
    gsl_km = rng[snap_idx, sat_idx, gs_idx]
    bounds = np.searchsorted(snap_idx, np.arange(len(sat_pos) + 1)).tolist()

    return [
        TopologySnapshot(
            t=t,
            sat_positions=sat_pos[j],
            station_positions=gs_pos,
            isl_pairs=isl_pairs[j],
            isl_km=isl_km[j],
            gsl_pairs=gsl_pairs[bounds[j]:bounds[j + 1]],
            gsl_km=gsl_km[bounds[j]:bounds[j + 1]],
        )
        for j, t in enumerate(times)
    ]


def shortest_distances(snapshots) -> np.ndarray:
    """Dijkstra from every ground station over each snapshot's ISL+GSL
    union graph: the ``(snapshots, n_sats, n_stations)`` km array, inf
    where unreachable.

    The snapshots share one shape. Together they are one block-diagonal
    graph over nodes [sats..., stations...] per snapshot, snapshot j's
    offset by ``j * (n_sats + n_stations)``, solved by one Dijkstra call
    from every station node of the group. No path crosses blocks, so each
    block's distances are those of its snapshot alone.
    """
    n_sats, n_stations = snapshots[0].n_sats, snapshots[0].n_stations
    if any((s.n_sats, s.n_stations) != (n_sats, n_stations) for s in snapshots):
        raise ValueError("a group's snapshots must share one shape")
    n, g = n_sats + n_stations, len(snapshots)
    offsets = np.arange(g) * n  # of each snapshot's first node
    isl = np.concatenate([s.isl_pairs for s in snapshots])
    isl = isl + np.repeat(offsets, [len(s.isl_pairs) for s in snapshots])[:, None]
    gsl = np.concatenate([s.gsl_pairs for s in snapshots]) + [0, n_sats]
    gsl = gsl + np.repeat(offsets, [len(s.gsl_pairs) for s in snapshots])[:, None]
    isl_km = np.concatenate([s.isl_km for s in snapshots])
    gsl_km = np.concatenate([s.gsl_km for s in snapshots])
    src = np.concatenate([isl[:, 0], isl[:, 1], gsl[:, 0], gsl[:, 1]])
    dst = np.concatenate([isl[:, 1], isl[:, 0], gsl[:, 1], gsl[:, 0]])
    w = np.concatenate([isl_km, isl_km, gsl_km, gsl_km])
    # by (src, dst), stable: one sort on a combined key
    order = np.argsort(src * (g * n) + dst, kind="stable")
    indptr = np.zeros(g * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=g * n), out=indptr[1:])
    sources = (np.arange(g)[:, None] * n + np.arange(n_sats, n)).ravel()
    dist = kernels.dijkstra_from_sources(indptr, dst[order], w[order], g * n, sources)
    # the diagonal blocks: snapshot j's station rows and satellite columns
    blocks = np.arange(g)
    return dist.reshape(g, n_stations, g, n)[blocks, :, blocks, :n_sats].transpose(0, 2, 1)


def nearest_field_indices(times, ts) -> np.ndarray:
    """Index of the entry of ``times`` (ascending) nearest to each ``t``
    of ``ts`` (a scalar or an array, finite or infinite), as an index
    array shaped like ``ts``. The rule of ``argmin(|times - t|)``: on an
    exact tie the earlier entry wins, and ``t`` outside the range clamps
    to an end."""
    times, ts = np.asarray(times, dtype=float), np.asarray(ts, dtype=float)
    i = np.searchsorted(times, ts)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i, len(times) - 1)
    return np.where(ts - times[lo] <= times[hi] - ts, lo, hi)


def distance_to_latency(km) -> float:
    """One-way propagation delay in milliseconds for a path length in km."""
    return km / LIGHT_SPEED_KM_MS


# ---------------------------------------------------------------------------
# serialization


def _groups(snapshots):
    """Runs of consecutive snapshots whose positions or whose edges hold at
    least ``numtext.BLOCK`` numbers (the last run may hold fewer), so small
    snapshots share blocks."""
    group, numbers = [], 0
    for s in snapshots:
        group.append(s)
        numbers += 3 * max(s.n_sats + s.n_stations, len(s.isl_km) + len(s.gsl_km))
        if numbers >= numtext.BLOCK:
            yield group
            group, numbers = [], 0
    if group:
        yield group


def write_snapshots_json(snapshots, path):
    """The bytes of ``json.dump`` of the snapshots' plain-list form (``t``,
    the positions, and each edge as ``[a, b, km]``) plus a newline.

    The positions of a run of snapshots (``_groups``) are encoded by one
    ``numtext.json_tables`` call, and so are their edges.
    """
    with open(path, "wb") as fh:
        fh.write(b"[")
        sep = b""
        for group in _groups(snapshots):
            xyz = [p for s in group for p in (s.sat_positions, s.station_positions)]
            positions = numtext.json_tables([(np.concatenate(xyz), "r")], [len(p) for p in xyz])
            pairs = [p for s in group for p in (s.isl_pairs, s.gsl_pairs)]
            km = [k for s in group for k in (s.isl_km, s.gsl_km)]
            edges = numtext.json_tables(
                [(np.concatenate(pairs), "d"), (np.concatenate(km)[:, None], "r")],
                [len(k) for k in km],
            )
            for i, s in enumerate(group):
                fh.write(
                    b'%s{"t": %s, "sat_positions": %s, "station_positions": %s, '
                    b'"isl_edges": %s, "gsl_edges": %s}'
                    % (sep, json.dumps(s.t).encode(), *positions[2 * i:2 * i + 2],
                       *edges[2 * i:2 * i + 2])
                )
                sep = b", "
        fh.write(b"]\n")


# satellites per ``%`` in ``write_fields_csv``
FIELD_ROWS = 256


def write_fields_json(fields: DistanceFields, path):
    """The bytes of ``json.dump`` of each snapshot's ``{"t", "d_km",
    "reachable"}`` plus a newline: ``d_km`` is the snapshot's row of
    ``fields.d`` with -1.0 where unreachable, ``reachable`` its 0/1 mask.

    A run of snapshots of about ``numtext.BLOCK`` distances is encoded by
    one ``numtext.json_tables`` call per list.
    """
    _, n_sats, n_stations = fields.d.shape
    run = max(1, numtext.BLOCK // max(1, n_sats * n_stations))
    with open(path, "wb") as fh:
        fh.write(b"[")
        sep = b""
        for lo in range(0, len(fields.times), run):
            d = fields.d[lo:lo + run]
            reachable = np.isfinite(d)
            counts = [n_sats] * len(d)
            km = numtext.json_tables(
                [(np.where(reachable, d, -1.0).reshape(-1, n_stations), "r")], counts
            )
            flags = numtext.json_tables([(reachable.reshape(-1, n_stations), "d")], counts)
            for t, *lists in zip(fields.times[lo:lo + run], km, flags):
                fh.write(
                    b'%s{"t": %s, "d_km": %s, "reachable": %s}'
                    % (sep, json.dumps(t).encode(), *lists)
                )
                sep = b", "
        fh.write(b"]\n")


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
