"""Reference implementations the fast paths are checked against, and the
helpers that build their inputs."""
import functools
import json
import math

import numpy as np

from leocp import kernels
from leocp.assignment import DistanceSamples
from leocp.orbits import propagate
from leocp.protocol import Protocol, start_legacy, start_seamless
from leocp.topology import (
    DEFAULT_MIN_ELEVATION_DEG,
    TopologySnapshot,
    _intra_plane_ring,
    _nearest_interplane_pairs,
    build_isl_grid,
)


def samples_from(times, rows, horizon):
    """Distances to controllers 0, 1, ..., one row each, as a one-satellite
    block; a ``(satellites, controllers, times)`` nesting of rows is taken
    as it is."""
    km = np.array(rows, float)
    km = km.reshape((-1,) + km.shape[-2:])
    return DistanceSamples(
        gs_ids=tuple(range(km.shape[1])), times=np.asarray(times, float), km=km, horizon_s=horizon
    )


def tick_oracle(samples, params):
    """The threshold rule applied one decision tick and one controller at
    a time to a one-satellite block: (initial id, [(t, target id), ...])."""
    (km,) = samples.km
    n_ctl = len(samples.gs_ids)

    def dist(g, t):
        return float(np.interp(t, samples.times, km[g]))

    def nearest(d):
        return min(range(len(d)), key=lambda g: (d[g], g))  # ties to the lowest id

    current = nearest([dist(g, 0.0) for g in range(n_ctl)])
    initial = samples.gs_ids[current]
    events = []
    for i in range(int(params.horizon_s / params.decide_dt_s) + 1):
        t = i * params.decide_dt_s
        d = [dist(g, t) for g in range(n_ctl)]
        best = nearest(d)
        if best != current and d[best] < params.delta * d[current]:
            events.append((t, samples.gs_ids[best]))
            current = best
    return initial, events


def queue_handovers(sim, protocol, schedules):
    """``sim.start_handovers(protocol, schedules)`` as one queued start
    event per switch, satellite by satellite, for the event engine to
    run step by step."""
    starter = start_seamless if protocol is Protocol.SEAMLESS else start_legacy
    for sat in sorted(schedules):
        for t, target in schedules[sat]:
            sim.schedule(t, functools.partial(starter, sim, sat, target))


# ---------------------------------------------------------------------------
# graphs: an all-pairs oracle, and the one-snapshot-at-a-time build and
# Dijkstra that the grouped ones must match bit for bit


def floyd_warshall(n, edges):
    """Independent all-pairs oracle."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b, w in edges:
        dist[a, b] = min(dist[a, b], w)
        dist[b, a] = min(dist[b, a], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i, k] + dist[k, j]
                if via < dist[i, j]:
                    dist[i, j] = via
    return dist


def random_snapshot(rng, n_sats, n_stations):
    """Random graph wrapped as a snapshot; integer weights keep float
    sums exact in both algorithms."""
    isl, gsl = [], []
    for i in range(n_sats):
        for j in range(i + 1, n_sats):
            if rng.random() < 0.4:
                isl.append((i, j, float(rng.integers(1, 1000))))
    for i in range(n_sats):
        for g in range(n_stations):
            if rng.random() < 0.3:
                gsl.append((i, g, float(rng.integers(1, 1000))))
    isl_pairs = np.array([(a, b) for a, b, _ in isl], dtype=np.int64).reshape(len(isl), 2)
    gsl_pairs = np.array([(a, b) for a, b, _ in gsl], dtype=np.int64).reshape(len(gsl), 2)
    return TopologySnapshot(
        t=0.0,
        sat_positions=np.zeros((n_sats, 3)),
        station_positions=np.zeros((n_stations, 3)),
        isl_pairs=isl_pairs,
        isl_km=np.array([w for _, _, w in isl]),
        gsl_pairs=gsl_pairs,
        gsl_km=np.array([w for _, _, w in gsl]),
    )


def oracle_field(snapshot):
    n = snapshot.n_sats + snapshot.n_stations
    edges = [
        (int(a), int(b), float(w))
        for (a, b), w in zip(snapshot.isl_pairs, snapshot.isl_km)
    ] + [
        (int(s), int(g) + snapshot.n_sats, float(w))
        for (s, g), w in zip(snapshot.gsl_pairs, snapshot.gsl_km)
    ]
    dist = floyd_warshall(n, edges)
    return dist[: snapshot.n_sats, snapshot.n_sats :]


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


def per_time_snapshot(
    shell,
    constellation,
    gs_pos,
    t,
    min_elevation_deg=DEFAULT_MIN_ELEVATION_DEG,
    isl_mode="fixed_grid",
    gsl_limit=None,
):
    """Positions plus ISL/GSL edge lists at time ``t``: one snapshot at a
    time, with its own 2-D visibility test."""
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


def _to_csr(snapshot):
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


def per_snapshot_distances(snapshot):
    """Dijkstra from every ground station over one snapshot's ISL+GSL union
    graph: the (n_sats, n_stations) km array, inf where unreachable."""
    n_sats, n_stations = snapshot.n_sats, snapshot.n_stations
    if snapshot.isl_km.size + snapshot.gsl_km.size == 0:
        return np.full((n_sats, n_stations), np.inf)
    indptr, indices, weights, n = _to_csr(snapshot)
    sources = np.arange(n_sats, n_sats + n_stations)
    dist = kernels.dijkstra_from_sources(indptr, indices, weights, n, sources)
    return dist[:, :n_sats].T


# ---------------------------------------------------------------------------
# the snapshot-stage JSON files through the standard library's C encoder


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
