"""Time-indexed satellite-ground graph construction and shortest paths.

A snapshot at time ``t`` holds satellite/station ECEF positions, the
+Grid inter-satellite links weighted by Euclidean distance, and one
ground-satellite link per mutually visible pair. Shortest-path
distances from every station to every satellite become a
``DistanceField``; unreachable pairs are flagged rather than raised.
``nearest_field_index`` is the one lookup of the field nearest in time,
shared by the simulation's latency model and network-metric sampling.

The writers stream one snapshot or field at a time and give the bytes of
the standard library's encoders: ``write_json_array`` those of
``json.dump`` of the whole list (each item goes through the C encoder of
``json.dumps``), ``write_fields_csv`` those of ``csv.writer``.
"""
import bisect
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .constants import LIGHT_SPEED_KM_MS
from .orbits import ElementArrays, WalkerShell, pack_elements, propagate, station_positions

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
class DistanceField:
    """Shortest-path length from every satellite to every station at ``t``."""

    t: float
    d: np.ndarray  # (n_sats, n_stations) km, inf where unreachable
    reachable: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.reachable is None:
            object.__setattr__(self, "reachable", np.isfinite(self.d))


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


def build_isl_grid(shell: WalkerShell) -> list[tuple[int, int]]:
    """+Grid pairing over flat satellite indices.

    Each satellite links to slot +-1 in its own plane (wrapping) and to
    the same slot in plane +-1. Plane adjacency wraps for delta
    patterns (360 degree RAAN span) but not across the seam of a star
    pattern (180 degrees). Degenerate shells with fewer than three
    planes or slots simply omit the impossible links.
    """
    slots = shell.sats_per_plane
    return _intra_plane_ring(shell) + [
        (p * slots + s, q * slots + s) for p, q in _adjacent_planes(shell) for s in range(slots)
    ]


@functools.lru_cache(maxsize=16)
def _isl_grid_pairs(shell: WalkerShell) -> np.ndarray:
    """``build_isl_grid`` as a read-only (n_isl, 2) array, built once per
    shell: the pairing does not change over time."""
    pairs = build_isl_grid(shell)
    arr = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    arr.setflags(write=False)
    return arr


def visible(sat_pos: np.ndarray, gs_pos: np.ndarray, min_elevation_deg: float) -> bool:
    """True iff the satellite sits above the station's local horizon mask."""
    los = sat_pos - gs_pos
    rng = np.linalg.norm(los)
    if rng == 0.0:
        return True
    sin_elev = float(np.dot(gs_pos, los)) / (float(np.linalg.norm(gs_pos)) * rng)
    # tolerance keeps the exact-overhead case visible at a 90 degree mask
    return bool(sin_elev >= math.sin(math.radians(min_elevation_deg)) - 1e-12)


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
    elements,
    stations,
    t: float,
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
    isl_mode: str = "fixed_grid",
    gsl_limit: int | None = None,
) -> TopologySnapshot:
    """Positions plus ISL/GSL edge lists at time ``t``.

    ``elements`` is a list of ``SatelliteElement`` or, to pack them once
    for a whole series, their ``ElementArrays``; ``stations`` is a list
    of ``GroundStation`` or their ECEF positions. ``isl_mode`` is
    "fixed_grid" (index-based pairing, stable over time, built once per
    shell) or "nearest" (recompute the inter-plane neighbor each
    snapshot). ``gsl_limit`` (at least 1) caps links per satellite to the
    nearest visible stations; default unlimited.
    """
    if gsl_limit is not None and gsl_limit < 1:
        raise ValueError(f"gsl_limit must be at least 1, got {gsl_limit}")
    packed = elements if isinstance(elements, ElementArrays) else pack_elements(elements)
    sat_pos = propagate(packed, t)
    gs_pos = station_positions(stations) if isinstance(stations, list) else stations

    if isl_mode == "fixed_grid":
        isl_pairs = _isl_grid_pairs(shell)
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


def shortest_distances(snapshot: TopologySnapshot) -> DistanceField:
    """Dijkstra from every ground station over the ISL+GSL union graph."""
    n_sats, n_stations = snapshot.n_sats, snapshot.n_stations
    if snapshot.isl_km.size + snapshot.gsl_km.size == 0:
        d = np.full((n_sats, n_stations), np.inf)
        return DistanceField(t=snapshot.t, d=d)
    indptr, indices, weights, n = _to_csr(snapshot)
    sources = np.arange(n_sats, n_sats + n_stations)
    dist = kernels.dijkstra_from_sources(indptr, indices, weights, n, sources)
    d = dist[:, :n_sats].T.copy()  # (n_sats, n_stations)
    return DistanceField(t=snapshot.t, d=d)


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


def field_to_dict(f: DistanceField) -> dict:
    d = np.where(f.reachable, f.d, -1.0)
    return {
        "t": f.t,
        "d_km": d.tolist(),
        "reachable": f.reachable.astype(int).tolist(),
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


def write_fields_csv(fields, path):
    """One row per (t, sat, station, km); unreachable pairs get km=-1.

    Each field's rows are formatted as ``csv.writer`` would write them:
    CRLF line ends, ``repr`` of ``t`` as a float and ``km`` to six
    decimals.
    """
    with open(path, "w", newline="") as fh:
        fh.write("t_s,sat,station,km\r\n")
        for f in fields:
            t = repr(float(f.t))
            km = np.where(f.reachable, f.d, -1.0).tolist()
            fh.writelines(
                f"{t},{s},{g},{v:.6f}\r\n" for s, row in enumerate(km) for g, v in enumerate(row)
            )


def write_snapshots_json(snapshots, path):
    write_json_array((snapshot_to_dict(s) for s in snapshots), path)
