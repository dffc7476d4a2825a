import csv
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leocp import topology
from leocp.orbits import (
    GroundStation,
    WalkerShell,
    generate_constellation,
    station_position,
    station_positions,
)
from leocp.topology import (
    DistanceFields,
    TopologySnapshot,
    _visibility_matrix,
    build_isl_grid,
    build_snapshot,
    distance_to_latency,
    group_size,
    nearest_field_indices,
    shortest_distances,
    write_fields_csv,
    write_fields_json,
    write_snapshots_json,
)
from oracles import (
    field_to_dict,
    oracle_field,
    per_snapshot_distances,
    per_time_snapshot,
    random_snapshot,
)


def snapshot_at(shell, stations, t, **kwargs):
    """``build_snapshot`` of the shell's constellation and the stations'
    positions."""
    c = generate_constellation(shell)
    (snap,) = build_snapshot(shell, c, station_positions(stations), [t], **kwargs)
    return snap


def visible(sat_pos, gs_pos, min_elevation_deg):
    """One satellite-station entry of the rule ``build_snapshot`` runs."""
    vis, _ = _visibility_matrix(sat_pos[None, :], gs_pos[None, :], min_elevation_deg)
    return bool(vis[0, 0])


def degrees_of(pairs):
    deg = Counter()
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    return deg


def test_grid_3x4_every_degree_four():
    pairs = build_isl_grid(WalkerShell(3, 4, 53.0, 550.0))
    assert len(pairs) == 24  # 4 * 12 / 2 by enumeration
    assert set(degrees_of(pairs).values()) == {4}


def test_grid_single_plane_degree_two():
    pairs = build_isl_grid(WalkerShell(1, 4, 53.0, 550.0))
    assert len(pairs) == 4
    assert set(degrees_of(pairs).values()) == {2}


def test_grid_starlink_edge_count():
    pairs = build_isl_grid(WalkerShell(72, 22, 53.0, 550.0, phasing_factor=1))
    assert len(pairs) == 3168  # 4 * 1584 / 2


def test_grid_star_pattern_has_seam():
    delta = build_isl_grid(WalkerShell(6, 4, 87.9, 1200.0, raan_span_deg=360.0))
    star = build_isl_grid(WalkerShell(6, 4, 87.9, 1200.0, raan_span_deg=180.0))
    assert len(delta) - len(star) == 4  # no wrap between first and last plane


def test_grid_each_pair_once():
    pairs = build_isl_grid(WalkerShell(5, 6, 53.0, 550.0))
    normalized = [tuple(sorted(p)) for p in pairs]
    assert len(normalized) == len(set(normalized))


def test_visible_overhead_and_antipode():
    gs = station_position(GroundStation(0, "x", 10.0, 20.0))
    overhead = gs * (6921.0 / np.linalg.norm(gs))
    assert visible(overhead, gs, 90.0)
    assert visible(overhead, gs, 25.0)
    assert not visible(-overhead, gs, 0.0)
    assert not visible(gs, gs, 0.0)  # no link to a satellite at range 0


def test_visibility_threshold_range_oracle():
    # solve the spherical elevation geometry independently via the law of
    # sines: at threshold e, the Earth-central angle is
    # 90 - e - asin(R/r * cos e); ground range is R * psi
    R, h, elev = 6371.0, 550.0, 25.0
    r = R + h
    psi = math.radians(90.0 - elev) - math.asin(R / r * math.cos(math.radians(elev)))
    ground_range = R * psi
    assert ground_range == pytest.approx(940.3, abs=0.5)

    gs = station_position(GroundStation(0, "x", 0.0, 0.0))
    for margin, expect in [(0.999, True), (1.001, False)]:
        ang = psi * margin
        sat = r * np.array([math.cos(ang), math.sin(ang), 0.0])
        assert visible(sat, gs, elev) is expect


def test_snapshot_isl_set_time_invariant():
    shell = WalkerShell(3, 4, 53.0, 550.0)
    stations = [GroundStation(0, "x", 0.0, 0.0)]
    period = shell.period_s
    s0 = snapshot_at(shell, stations, 0.0)
    s1 = snapshot_at(shell, stations, period)
    assert np.array_equal(s0.isl_pairs, s1.isl_pairs)


def test_snapshot_radial_gsl_weight_is_altitude():
    shell = WalkerShell(1, 1, 0.0, 550.0)
    snap = snapshot_at(shell, [GroundStation(0, "x", 0.0, 0.0)], 0.0)
    assert snap.gsl_pairs.shape[0] == 1
    assert snap.gsl_km[0] == pytest.approx(550.0, abs=1e-9)


def test_snapshot_counts():
    shell = WalkerShell(3, 4, 53.0, 550.0)
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 30.0, 100.0)]
    snap = snapshot_at(shell, stations, 0.0)
    assert snap.isl_pairs.shape[0] == 24
    assert snap.gsl_pairs.shape[0] >= 0
    assert np.all(snap.isl_km > 0)
    assert np.all(snap.gsl_km > 0)


def test_gsl_limit_caps_links():
    shell = WalkerShell(6, 8, 53.0, 1200.0, phasing_factor=1)
    stations = [
        GroundStation(0, "a", 0.0, 0.0),
        GroundStation(1, "b", 5.0, 5.0),
        GroundStation(2, "c", -5.0, -5.0),
    ]
    unlimited = snapshot_at(shell, stations, 0.0, min_elevation_deg=5.0)
    limited = snapshot_at(shell, stations, 0.0, min_elevation_deg=5.0, gsl_limit=1)
    per_sat = Counter(limited.gsl_pairs[:, 0].tolist())
    assert max(per_sat.values()) <= 1
    assert limited.gsl_pairs.shape[0] <= unlimited.gsl_pairs.shape[0]


def per_satellite_gsl_cap(vis, rng, limit):
    """The GSL cap as a loop over satellites and stations in range order."""
    order = np.argsort(rng, axis=1, kind="stable")
    keep = np.zeros_like(vis)
    for s in range(vis.shape[0]):
        kept = 0
        for g in order[s]:
            if vis[s, g]:
                keep[s, g] = True
                kept += 1
                if kept >= limit:
                    break
    return keep


def test_gsl_limit_matches_per_satellite_loop(monkeypatch):
    # whole-number ranges make ties, which the stable order breaks by station
    shell = WalkerShell(3, 4, 53.0, 1200.0, phasing_factor=1)
    c = generate_constellation(shell)
    gen = np.random.default_rng(11)
    for _ in range(150):
        m = int(gen.integers(1, 7))
        vis = gen.random((12, m)) < 0.6
        rng = gen.integers(1, 4, size=(12, m)).astype(float)
        monkeypatch.setattr(topology, "_visibility_matrix", lambda *_: (vis[None].copy(), rng[None]))
        for limit in range(1, m + 2):
            (snap,) = build_snapshot(shell, c, np.zeros((m, 3)), [0.0], gsl_limit=limit)
            expected = np.argwhere(per_satellite_gsl_cap(vis, rng, limit))
            assert snap.gsl_pairs.tolist() == expected.tolist()
            assert snap.gsl_km.tolist() == rng[expected[:, 0], expected[:, 1]].tolist()


@pytest.mark.parametrize("limit", [0, -1])
def test_gsl_limit_below_one_rejected(limit):
    shell = WalkerShell(2, 3, 53.0, 1200.0)
    stations = [GroundStation(0, "a", 0.0, 0.0)]
    with pytest.raises(ValueError, match="gsl_limit"):
        snapshot_at(shell, stations, 0.0, gsl_limit=limit)


def test_nearest_isl_mode_keeps_degree():
    shell = WalkerShell(4, 5, 53.0, 550.0, phasing_factor=1)
    snap = snapshot_at(shell, [GroundStation(0, "x", 0.0, 0.0)], 0.0, isl_mode="nearest")
    assert snap.isl_pairs.shape[0] >= 4 * 5  # intra-plane ring plus inter-plane links


# ---------------------------------------------------------------------------
# shortest paths


def test_shortest_distances_direct_edge():
    snap = random_snapshot(np.random.default_rng(0), 1, 1)
    snap = TopologySnapshot(
        t=0.0,
        sat_positions=np.zeros((1, 3)),
        station_positions=np.zeros((1, 3)),
        isl_pairs=np.empty((0, 2), dtype=np.int64),
        isl_km=np.empty(0),
        gsl_pairs=np.array([[0, 0]], dtype=np.int64),
        gsl_km=np.array([123.0]),
    )
    (d,) = shortest_distances([snap])
    assert d[0, 0] == 123.0


def test_shortest_distances_two_hop():
    snap = TopologySnapshot(
        t=0.0,
        sat_positions=np.zeros((2, 3)),
        station_positions=np.zeros((1, 3)),
        isl_pairs=np.array([[0, 1]], dtype=np.int64),
        isl_km=np.array([70.0]),
        gsl_pairs=np.array([[1, 0]], dtype=np.int64),
        gsl_km=np.array([40.0]),
    )
    (d,) = shortest_distances([snap])
    assert d[0, 0] == 110.0
    assert d[1, 0] == 40.0


def test_shortest_distances_match_floyd_warshall():
    rng = np.random.default_rng(42)
    for _ in range(50):
        snap = random_snapshot(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
        (d,) = shortest_distances([snap])
        expected = oracle_field(snap)
        assert d.shape == (snap.n_sats, snap.n_stations)
        assert np.array_equal(d, expected)


def test_distance_lower_bounded_by_euclidean():
    shell = WalkerShell(4, 6, 53.0, 1200.0, phasing_factor=1)
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 40.0, 120.0)]
    snap = snapshot_at(shell, stations, 500.0, min_elevation_deg=10.0)
    (d,) = shortest_distances([snap])
    straight = np.linalg.norm(
        snap.sat_positions[:, None, :] - snap.station_positions[None, :, :], axis=2
    )
    reachable = np.isfinite(d)
    assert np.all(d[reachable] >= straight[reachable] - 1e-9)


def test_adding_gsl_edge_never_increases_distance():
    rng = np.random.default_rng(11)
    snap = random_snapshot(rng, 8, 2)
    (base,) = shortest_distances([snap])
    extra_pair = np.array([[0, 0]], dtype=np.int64)
    richer = TopologySnapshot(
        t=0.0,
        sat_positions=snap.sat_positions,
        station_positions=snap.station_positions,
        isl_pairs=snap.isl_pairs,
        isl_km=snap.isl_km,
        gsl_pairs=np.concatenate([snap.gsl_pairs, extra_pair]),
        gsl_km=np.concatenate([snap.gsl_km, [5.0]]),
    )
    (after,) = shortest_distances([richer])
    assert np.all(after <= base + 1e-12)


def test_unreachable_flagged_not_raised():
    snap = TopologySnapshot(
        t=0.0,
        sat_positions=np.zeros((2, 3)),
        station_positions=np.zeros((1, 3)),
        isl_pairs=np.empty((0, 2), dtype=np.int64),
        isl_km=np.empty(0),
        gsl_pairs=np.array([[0, 0]], dtype=np.int64),
        gsl_km=np.array([10.0]),
    )
    (d,) = shortest_distances([snap])
    assert np.isfinite(d[0, 0])
    assert np.isinf(d[1, 0])


# ---------------------------------------------------------------------------
# groups of snapshots: one build and one block-diagonal Dijkstra per group


@st.composite
def snapshot_series(draw):
    """A shell of up to 8 x 8, one to five stations, a series of one or
    more snapshot times and the build settings."""
    planes = draw(st.integers(1, 8))
    shell = WalkerShell(
        planes,
        draw(st.integers(1, 8)),
        draw(st.floats(0.0, 180.0)),
        draw(st.floats(300.0, 2000.0)),
        phasing_factor=draw(st.integers(0, planes - 1)),
        raan_span_deg=draw(st.sampled_from([180.0, 360.0])),
    )
    stations = [
        GroundStation(i, f"gs{i}", draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0)))
        for i in range(draw(st.integers(1, 5)))
    ]
    times = sorted(draw(st.lists(st.floats(0.0, 86400.0), min_size=1, max_size=8, unique=True)))
    build = {
        "min_elevation_deg": draw(st.one_of(st.sampled_from([-90.0, 0.0, 90.0]),
                                            st.floats(-90.0, 90.0))),
        "isl_mode": draw(st.sampled_from(["fixed_grid", "nearest"])),
        "gsl_limit": draw(st.sampled_from([None, 1, 2])),
    }
    return shell, stations, times, build


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(snapshot_series(), st.data())
def test_grouped_build_matches_the_per_time_reference(case, data):
    shell, stations, times, kwargs = case
    c, gs_pos = generate_constellation(shell), station_positions(stations)
    reference = [per_time_snapshot(shell, c, gs_pos, t, **kwargs) for t in times]
    expected = np.array([per_snapshot_distances(s) for s in reference])
    cuts = data.draw(st.sets(st.integers(1, len(times) - 1)) if len(times) > 1 else st.just(set()))
    for bounds in ([0, len(times)], [0, *sorted(cuts), len(times)]):  # one group, any split
        built, d = [], []
        for lo, hi in zip(bounds, bounds[1:]):
            group = build_snapshot(shell, c, gs_pos, times[lo:hi], **kwargs)
            assert len(group) == hi - lo
            built += group
            d.append(shortest_distances(group))
        for got, ref in zip(built, reference):
            assert got.t == ref.t
            for name in ("sat_positions", "station_positions", "isl_pairs", "isl_km",
                         "gsl_pairs", "gsl_km"):
                assert _same_bits(getattr(got, name), getattr(ref, name)), name
        assert _same_bits(np.concatenate(d), expected)


def _edgeless(n_sats, n_stations):
    return TopologySnapshot(
        t=0.0,
        sat_positions=np.zeros((n_sats, 3)),
        station_positions=np.zeros((n_stations, 3)),
        isl_pairs=np.empty((0, 2), dtype=np.int64),
        isl_km=np.empty(0),
        gsl_pairs=np.empty((0, 2), dtype=np.int64),
        gsl_km=np.empty(0),
    )


def test_each_block_of_a_group_matches_floyd_warshall():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n_sats, n_stations = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        group = [random_snapshot(rng, n_sats, n_stations) for _ in range(int(rng.integers(1, 6)))]
        group.insert(int(rng.integers(0, len(group) + 1)), _edgeless(n_sats, n_stations))
        d = shortest_distances(group)
        assert d.shape == (len(group), n_sats, n_stations)
        for block, snap in zip(d, group):
            assert np.array_equal(block, oracle_field(snap))
    assert np.isinf(shortest_distances([_edgeless(3, 2)])).all()


def test_a_group_of_mixed_shapes_is_rejected():
    with pytest.raises(ValueError, match="one shape"):
        shortest_distances([_edgeless(3, 2), _edgeless(3, 1)])


@pytest.mark.parametrize(
    "n_sats,n_stations,size",
    [(48, 4, 17), (1296, 8, 2), (1584, 2, 4), (1, 1, 181), (100_000, 50, 1)],
)
def test_group_size_is_the_most_snapshots_whose_output_fits(n_sats, n_stations, size):
    # desk, walker, starlink: a group's Dijkstra output is
    # (G * stations) x (G * (sats + stations)) float64 entries
    assert group_size(n_sats, n_stations) == size
    entries = n_stations * (n_sats + n_stations)
    assert size == 1 or size ** 2 * entries <= topology.GROUP_ENTRIES
    assert (size + 1) ** 2 * entries > topology.GROUP_ENTRIES


@pytest.mark.parametrize("elevation", [90.5, -90.5, 170.0, -190.0, math.nan])
def test_elevation_outside_a_quarter_turn_is_rejected(elevation):
    shell = WalkerShell(2, 3, 53.0, 1200.0)
    with pytest.raises(ValueError, match="min_elevation_deg"):
        snapshot_at(shell, [GroundStation(0, "a", 0.0, 0.0)], 0.0, min_elevation_deg=elevation)


@pytest.mark.parametrize(
    "km,ms",
    [(0.0, 0.0), (299.792458, 1.0), (18000.0, 60.0416)],
)
def test_distance_to_latency(km, ms):
    assert distance_to_latency(km) == pytest.approx(ms, abs=5e-4)


# ---------------------------------------------------------------------------
# nearest-snapshot lookup


def test_nearest_field_index_tie_goes_to_earlier():
    times = [0.0, 60.0, 120.0]
    assert nearest_field_indices(times, 30.0) == 0
    assert nearest_field_indices(times, 90.0) == 1
    assert nearest_field_indices(times, 30.000001) == 1
    assert nearest_field_indices(times, 60.0) == 1


@pytest.mark.parametrize(
    "times,t,expected",
    [
        ([0.0, 60.0, 120.0], -1e9, 0),
        ([0.0, 60.0, 120.0], -0.5, 0),
        ([0.0, 60.0, 120.0], 120.5, 2),
        ([0.0, 60.0, 120.0], 1e9, 2),
        ([42.0], -1.0, 0),
        ([42.0], 1e6, 0),
    ],
)
def test_nearest_field_index_clamps_to_the_ends(times, t, expected):
    assert nearest_field_indices(times, t) == expected


def test_nearest_field_index_matches_argmin_oracle():
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.uniform(0.5, 90.0, 40))
    mids = (times[:-1] + times[1:]) / 2.0
    probes = np.concatenate([rng.uniform(-50.0, times[-1] + 50.0, 2000), times, mids])
    as_list = times.tolist()
    for t in probes.tolist():
        assert nearest_field_indices(as_list, t) == int(np.argmin(np.abs(times - t)))


@st.composite
def series_and_probes(draw):
    """Snapshot times (one or more, strictly increasing, on a coarse grid
    so midpoints are exact) and probe times: midpoints, the snapshot
    times themselves, times beyond both ends, repeats."""
    steps = draw(st.lists(st.integers(1, 8), min_size=0, max_size=6))
    times = np.cumsum([draw(st.integers(-20, 20))] + steps).astype(float) * 7.5
    mids = ((times[:-1] + times[1:]) / 2.0).tolist()
    edges = [times[0] - 1.0, times[-1] + 1.0, -math.inf, math.inf, -1e12, 1e12]
    pool = mids + times.tolist() + edges + [float(x) for x in range(-200, 200, 3)]
    probes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return times.tolist(), probes + probes[: draw(st.integers(0, len(probes)))]


@given(series_and_probes(), st.booleans())
def test_nearest_field_indices_match_the_scalar_lookup(case, as_grid):
    times, probes = case
    ts = np.array(probes)
    if as_grid:  # a block of tick times, or one time per row
        ts = ts.reshape(-1, 1)
    got = nearest_field_indices(times, ts)
    assert got.shape == ts.shape
    assert got.ravel().tolist() == [nearest_field_indices(times, t).item() for t in probes]
    # argmin(|times - t|) with t clamped to the series first, so +inf takes the last
    clamped = np.clip(probes, times[0], times[-1])[:, None]
    assert got.ravel().tolist() == np.argmin(np.abs(np.array(times) - clamped), axis=1).tolist()


def test_snapshot_latency_and_network_sampler_use_the_lookup():
    from leocp.assignment import AssignmentParams, sample_distances
    from leocp.protocol import SnapshotLatency

    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 0.0, 90.0)]
    times = [0.0, 50.0, 110.0, 180.0]
    fields = DistanceFields(times, np.array([[[100.0 + i, 200.0 + i]] for i in range(4)]))
    latency = SnapshotLatency(fields, stations)
    for t in (-5.0, 0.0, 25.0, 80.0, 80.1, 145.0, 179.0, 300.0):
        i = nearest_field_indices(times, t)
        for gs in (0, 1):
            assert latency(("sat", 0), ("gs", gs), t) == distance_to_latency(fields.d[i, 0, gs])
    params = AssignmentParams(horizon_s=180.0, sample_dt_s=20.0, decide_dt_s=1.0, delta=1.0)
    samples = sample_distances(0, {0: stations[0], 1: stations[1]}, params, "network", fields=fields)
    for gs_id, km in zip(samples.gs_ids, samples.km[0]):
        expected = [fields.d[nearest_field_indices(times, t), 0, gs_id] for t in samples.times]
        assert km.tolist() == expected


# ---------------------------------------------------------------------------
# per-shell invariants


def test_fixed_grid_pairing_built_once_per_shell():
    build_isl_grid.cache_clear()
    shells = [WalkerShell(3, 4, 53.0, 550.0), WalkerShell(3, 4, 53.0, 550.0, raan_span_deg=180.0)]
    stations = [GroundStation(0, "x", 0.0, 0.0)]
    for shell in shells:
        snaps = [snapshot_at(shell, stations, t) for t in (0.0, 60.0, 120.0)]
        assert all(s.isl_pairs is snaps[0].isl_pairs for s in snaps)
        assert snaps[0].isl_pairs is build_isl_grid(shell)
        assert not snaps[0].isl_pairs.flags.writeable
        assert snaps[0].isl_pairs.dtype == np.int64
    info = build_isl_grid.cache_info()
    assert (info.misses, info.hits) == (2, 6)
    build_isl_grid.cache_clear()


# ---------------------------------------------------------------------------
# writers: byte-identical to the standard library encoders


def _reference_snapshots_json(snapshots, path):
    with open(path, "w") as fh:
        json.dump(
            [
                {
                    "t": s.t,
                    "sat_positions": s.sat_positions.tolist(),
                    "station_positions": s.station_positions.tolist(),
                    "isl_edges": [
                        [int(a), int(b), float(w)]
                        for (a, b), w in zip(s.isl_pairs.tolist(), s.isl_km.tolist())
                    ],
                    "gsl_edges": [
                        [int(a), int(b), float(w)]
                        for (a, b), w in zip(s.gsl_pairs.tolist(), s.gsl_km.tolist())
                    ],
                }
                for s in snapshots
            ],
            fh,
        )
        fh.write("\n")


def _reference_fields_json(fields, path):
    with open(path, "w") as fh:
        json.dump([field_to_dict(t, d) for t, d in zip(fields.times, fields.d)], fh)
        fh.write("\n")


def _reference_fields_csv(fields, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "sat", "station", "km"])
        for t, d in zip(fields.times, fields.d):
            for s in range(d.shape[0]):
                for g in range(d.shape[1]):
                    km = d[s, g] if np.isfinite(d[s, g]) else -1.0
                    writer.writerow([t, s, g, f"{km:.6f}"])


def _fields_of(snapshots):
    """The ``DistanceFields`` of a snapshot series, as ``build_fields`` fills it."""
    d = shortest_distances(snapshots) if snapshots else np.empty((0, 0, 0))
    return DistanceFields([s.t for s in snapshots], d)


def _writer_snapshots(case):
    """A snapshot series covering one of the writers' edge cases."""
    if case == "empty":
        return []
    delta = WalkerShell(3, 4, 53.0, 550.0, phasing_factor=1)
    if case == "no_gsl":
        # a 90 degree mask off the sub-satellite points leaves no GSL edge
        station = GroundStation(0, "x", 12.3, 45.6)
        snap = snapshot_at(delta, [station], 7.0, min_elevation_deg=90.0)
        assert snap.gsl_pairs.shape == (0, 2)
        return [snap]
    shell = delta if case == "delta" else WalkerShell(4, 3, 86.4, 780.0, raan_span_deg=180.0)
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 30.0, 100.0)]
    # np.float64 and non-round times: both encoders must print repr(float(t))
    times = [0.0, np.float64(1.0 / 3.0), np.float64(60.0), 1234.5678901234]
    return [snapshot_at(shell, stations, t, min_elevation_deg=5.0) for t in times]


@pytest.mark.parametrize("case", ["empty", "delta", "star", "no_gsl"])
def test_writers_match_stdlib_encoders(tmp_path, case):
    snapshots = _writer_snapshots(case)
    fields = _fields_of(snapshots)
    if case == "no_gsl":
        assert not np.isfinite(fields.d).any()
    if case == "star":
        assert np.isfinite(fields.d).any()
    for write, reference, items in (
        (write_snapshots_json, _reference_snapshots_json, snapshots),
        (write_fields_json, _reference_fields_json, fields),
        (write_fields_csv, _reference_fields_csv, fields),
    ):
        write(items, tmp_path / "new")
        reference(items, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes(), reference
    if case == "empty":
        assert (tmp_path / "new").read_bytes() == b"t_s,sat,station,km\r\n"
        write_snapshots_json([], tmp_path / "snap")
        assert (tmp_path / "snap").read_bytes() == b"[]\n"


def test_fields_csv_matches_csv_writer_on_odd_times_and_ties(tmp_path):
    # times with long reprs, .6f ties and unreachable pairs on a
    # walker-sized series
    rng = np.random.default_rng(41)
    times = [1e-7, 0.1 + 0.2, 1.0 / 3.0, np.float64(2.0), 1234.5678901234, 1e22]
    d = rng.uniform(0.0, 20000.0, size=(len(times), 1296, 8))
    d[rng.random(d.shape) < 0.1] = np.inf
    d[:, 0, :3] = [3 / 128, 0.0, 5 / 128]  # .6f ties
    fields = DistanceFields(times, d)
    write_fields_csv(fields, tmp_path / "new")
    _reference_fields_csv(fields, tmp_path / "ref")
    text = (tmp_path / "new").read_bytes()
    assert text == (tmp_path / "ref").read_bytes()
    assert text.count(b"\r\n") == 1 + 6 * 1296 * 8
    assert b"\r\n0.3333333333333333,0,0,0.023438\r\n" in text
    assert b"\r\n0.30000000000000004,0,2,0.039062\r\n" in text
    assert b"\r\n1e+22,0,0," in text and b"\r\n1e-07,0,1,0.000000\r\n" in text
    assert b"\r\n2.0,1295,7," in text
    assert b",-1.000000\r\n" in text


@pytest.mark.parametrize("n_sats", [1, 255, 256, 257, 1296])
def test_field_writers_match_stdlib_encoders_across_row_blocks(tmp_path, n_sats):
    # both field writers encode 256 satellites per call
    rng = np.random.default_rng(n_sats)
    d = rng.uniform(0.0, 20000.0, size=(3, n_sats, 2))
    d[rng.random(d.shape) < 0.1] = np.inf
    fields = DistanceFields([0.0, np.float64(1.0 / 3.0), 1e22], d)
    for write, reference in ((write_fields_json, _reference_fields_json),
                             (write_fields_csv, _reference_fields_csv)):
        write(fields, tmp_path / "new")
        reference(fields, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes(), reference


@pytest.mark.parametrize(
    "times,shape",
    [([0.0, 0.0], (2, 1, 1)), ([1.0, 0.5], (2, 1, 1)), ([0.0, 1.0], (3, 1, 1)),
     ([0.0], (1, 2))],
)
def test_distance_fields_reject_unordered_times_and_mismatched_shapes(times, shape):
    with pytest.raises(ValueError):
        DistanceFields(times, np.zeros(shape))


def test_fields_csv_marks_partly_unreachable_pairs(tmp_path):
    d = np.array([[12.25, np.inf], [np.inf, 1.0 / 3.0], [7.0, 8.0]])
    fields = DistanceFields([np.float64(90.0), 150.25], np.array([d, d * 2.0]))
    write_fields_csv(fields, tmp_path / "new")
    _reference_fields_csv(fields, tmp_path / "ref")
    text = (tmp_path / "new").read_bytes()
    assert text == (tmp_path / "ref").read_bytes()
    assert b"90.0,0,1,-1.000000\r\n" in text
    assert b"150.25,1,1,0.666667\r\n" in text
    write_fields_json(fields, tmp_path / "new")
    _reference_fields_json(fields, tmp_path / "ref")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
