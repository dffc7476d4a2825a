import csv
import json
import math
from collections import Counter

import numpy as np
import pytest

from leocp import topology
from leocp.orbits import (
    GroundStation,
    WalkerShell,
    generate_constellation,
    pack_elements,
    station_position,
    station_positions,
)
from leocp.topology import (
    DistanceField,
    TopologySnapshot,
    build_isl_grid,
    build_snapshot,
    distance_to_latency,
    field_to_dict,
    nearest_field_index,
    shortest_distances,
    visible,
    write_fields_csv,
    write_json_array,
    write_snapshots_json,
)


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
    elements = generate_constellation(shell)
    stations = [GroundStation(0, "x", 0.0, 0.0)]
    period = elements[0].period_s
    s0 = build_snapshot(shell, elements, stations, 0.0)
    s1 = build_snapshot(shell, elements, stations, period)
    assert np.array_equal(s0.isl_pairs, s1.isl_pairs)


def test_snapshot_radial_gsl_weight_is_altitude():
    shell = WalkerShell(1, 1, 0.0, 550.0)
    elements = generate_constellation(shell)
    stations = [GroundStation(0, "x", 0.0, 0.0)]
    snap = build_snapshot(shell, elements, stations, 0.0)
    assert snap.gsl_pairs.shape[0] == 1
    assert snap.gsl_km[0] == pytest.approx(550.0, abs=1e-9)


def test_snapshot_counts():
    shell = WalkerShell(3, 4, 53.0, 550.0)
    elements = generate_constellation(shell)
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 30.0, 100.0)]
    snap = build_snapshot(shell, elements, stations, 0.0)
    assert snap.isl_pairs.shape[0] == 24
    assert snap.gsl_pairs.shape[0] >= 0
    assert np.all(snap.isl_km > 0)
    assert np.all(snap.gsl_km > 0)


def test_gsl_limit_caps_links():
    shell = WalkerShell(6, 8, 53.0, 1200.0, phasing_factor=1)
    elements = generate_constellation(shell)
    stations = [
        GroundStation(0, "a", 0.0, 0.0),
        GroundStation(1, "b", 5.0, 5.0),
        GroundStation(2, "c", -5.0, -5.0),
    ]
    unlimited = build_snapshot(shell, elements, stations, 0.0, min_elevation_deg=5.0)
    limited = build_snapshot(shell, elements, stations, 0.0, min_elevation_deg=5.0, gsl_limit=1)
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
    packed = pack_elements(generate_constellation(shell))
    gen = np.random.default_rng(11)
    for _ in range(150):
        m = int(gen.integers(1, 7))
        vis = gen.random((12, m)) < 0.6
        rng = gen.integers(1, 4, size=(12, m)).astype(float)
        monkeypatch.setattr(topology, "_visibility_matrix", lambda *_: (vis.copy(), rng))
        for limit in range(1, m + 2):
            snap = build_snapshot(shell, packed, np.zeros((m, 3)), 0.0, gsl_limit=limit)
            expected = np.argwhere(per_satellite_gsl_cap(vis, rng, limit))
            assert snap.gsl_pairs.tolist() == expected.tolist()
            assert snap.gsl_km.tolist() == rng[expected[:, 0], expected[:, 1]].tolist()


@pytest.mark.parametrize("limit", [0, -1])
def test_gsl_limit_below_one_rejected(limit):
    shell = WalkerShell(2, 3, 53.0, 1200.0)
    stations = [GroundStation(0, "a", 0.0, 0.0)]
    with pytest.raises(ValueError, match="gsl_limit"):
        build_snapshot(shell, generate_constellation(shell), stations, 0.0, gsl_limit=limit)


def test_nearest_isl_mode_keeps_degree():
    shell = WalkerShell(4, 5, 53.0, 550.0, phasing_factor=1)
    elements = generate_constellation(shell)
    snap = build_snapshot(shell, elements, [GroundStation(0, "x", 0.0, 0.0)], 0.0, isl_mode="nearest")
    assert snap.isl_pairs.shape[0] >= 4 * 5  # intra-plane ring plus inter-plane links


# ---------------------------------------------------------------------------
# shortest paths


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
    f = shortest_distances(snap)
    assert f.d[0, 0] == 123.0


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
    f = shortest_distances(snap)
    assert f.d[0, 0] == 110.0
    assert f.d[1, 0] == 40.0


def test_shortest_distances_match_floyd_warshall():
    rng = np.random.default_rng(42)
    for _ in range(50):
        snap = random_snapshot(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
        f = shortest_distances(snap)
        expected = oracle_field(snap)
        got = np.where(f.reachable, f.d, np.inf)
        assert np.array_equal(got, expected)


def test_distance_lower_bounded_by_euclidean():
    shell = WalkerShell(4, 6, 53.0, 1200.0, phasing_factor=1)
    elements = generate_constellation(shell)
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 40.0, 120.0)]
    snap = build_snapshot(shell, elements, stations, 500.0, min_elevation_deg=10.0)
    f = shortest_distances(snap)
    straight = np.linalg.norm(
        snap.sat_positions[:, None, :] - snap.station_positions[None, :, :], axis=2
    )
    assert np.all(f.d[f.reachable] >= straight[f.reachable] - 1e-9)


def test_adding_gsl_edge_never_increases_distance():
    rng = np.random.default_rng(11)
    snap = random_snapshot(rng, 8, 2)
    base = shortest_distances(snap)
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
    after = shortest_distances(richer)
    assert np.all(after.d <= base.d + 1e-12)


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
    f = shortest_distances(snap)
    assert f.reachable[0, 0]
    assert not f.reachable[1, 0]
    assert np.isinf(f.d[1, 0])


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
    assert nearest_field_index(times, 30.0) == 0
    assert nearest_field_index(times, 90.0) == 1
    assert nearest_field_index(times, 30.000001) == 1
    assert nearest_field_index(times, 60.0) == 1


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
    assert nearest_field_index(times, t) == expected


def test_nearest_field_index_matches_argmin_oracle():
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.uniform(0.5, 90.0, 40))
    mids = (times[:-1] + times[1:]) / 2.0
    probes = np.concatenate([rng.uniform(-50.0, times[-1] + 50.0, 2000), times, mids])
    as_list = times.tolist()
    for t in probes.tolist():
        assert nearest_field_index(as_list, t) == int(np.argmin(np.abs(times - t)))


def test_snapshot_latency_and_network_sampler_use_the_lookup():
    from leocp.assignment import AssignmentParams, sample_distances
    from leocp.protocol import SnapshotLatency

    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 0.0, 90.0)]
    times = [0.0, 50.0, 110.0, 180.0]
    fields = [
        DistanceField(t=t, d=np.array([[100.0 + i, 200.0 + i]])) for i, t in enumerate(times)
    ]
    latency = SnapshotLatency(fields, stations)
    for t in (-5.0, 0.0, 25.0, 80.0, 80.1, 145.0, 179.0, 300.0):
        i = nearest_field_index(times, t)
        for gs in (0, 1):
            assert latency(("sat", 0), ("gs", gs), t) == distance_to_latency(fields[i].d[0, gs])
    params = AssignmentParams(horizon_s=180.0, sample_dt_s=20.0, decide_dt_s=1.0, delta=1.0)
    series = sample_distances(0, {0: stations[0], 1: stations[1]}, params, "network", fields)
    for s in series:
        expected = [fields[nearest_field_index(times, t)].d[0, s.gs_id] for t in s.times]
        assert s.km.tolist() == expected


# ---------------------------------------------------------------------------
# per-shell invariants


def test_packed_elements_and_station_positions_give_the_same_snapshot():
    shell = WalkerShell(4, 5, 53.0, 550.0, phasing_factor=1)
    elements = generate_constellation(shell)
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 30.0, 100.0)]
    for isl_mode in ("fixed_grid", "nearest"):
        a = build_snapshot(shell, elements, stations, 321.5, isl_mode=isl_mode, min_elevation_deg=5.0)
        b = build_snapshot(
            shell, pack_elements(elements), station_positions(stations), 321.5,
            isl_mode=isl_mode, min_elevation_deg=5.0,
        )
        for name in ("sat_positions", "station_positions", "isl_pairs", "isl_km", "gsl_pairs",
                     "gsl_km"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (isl_mode, name)


def test_fixed_grid_pairing_built_once_per_shell(monkeypatch):
    calls = Counter()
    real = topology.build_isl_grid

    def counting(shell):
        calls[shell] += 1
        return real(shell)

    monkeypatch.setattr(topology, "build_isl_grid", counting)
    topology._isl_grid_pairs.cache_clear()
    shells = [WalkerShell(3, 4, 53.0, 550.0), WalkerShell(3, 4, 53.0, 550.0, raan_span_deg=180.0)]
    stations = [GroundStation(0, "x", 0.0, 0.0)]
    for shell in shells:
        elements = generate_constellation(shell)
        snaps = [build_snapshot(shell, elements, stations, t) for t in (0.0, 60.0, 120.0)]
        assert all(s.isl_pairs is snaps[0].isl_pairs for s in snaps)
        assert not snaps[0].isl_pairs.flags.writeable
        assert snaps[0].isl_pairs.tolist() == [list(p) for p in real(shell)]
    assert calls == {shells[0]: 1, shells[1]: 1}
    topology._isl_grid_pairs.cache_clear()


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
        json.dump([field_to_dict(f) for f in fields], fh)
        fh.write("\n")


def _reference_fields_csv(fields, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "sat", "station", "km"])
        for f in fields:
            for s in range(f.d.shape[0]):
                for g in range(f.d.shape[1]):
                    km = f.d[s, g] if f.reachable[s, g] else -1.0
                    writer.writerow([f.t, s, g, f"{km:.6f}"])


def _writer_snapshots(case):
    """A snapshot series covering one of the writers' edge cases."""
    if case == "empty":
        return []
    delta = WalkerShell(3, 4, 53.0, 550.0, phasing_factor=1)
    if case == "no_gsl":
        # a 90 degree mask off the sub-satellite points leaves no GSL edge
        station = GroundStation(0, "x", 12.3, 45.6)
        snap = build_snapshot(delta, generate_constellation(delta), [station], 7.0,
                              min_elevation_deg=90.0)
        assert snap.gsl_pairs.shape == (0, 2)
        return [snap]
    shell = delta if case == "delta" else WalkerShell(4, 3, 86.4, 780.0, raan_span_deg=180.0)
    elements = generate_constellation(shell)
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 30.0, 100.0)]
    # np.float64 and non-round times: both encoders must print repr(float(t))
    times = [0.0, np.float64(1.0 / 3.0), np.float64(60.0), 1234.5678901234]
    return [build_snapshot(shell, elements, stations, t, min_elevation_deg=5.0) for t in times]


@pytest.mark.parametrize("case", ["empty", "delta", "star", "no_gsl"])
def test_writers_match_stdlib_encoders(tmp_path, case):
    snapshots = _writer_snapshots(case)
    fields = [shortest_distances(s) for s in snapshots]
    if case == "no_gsl":
        assert not fields[0].reachable.any()
    if case == "star":
        assert fields[0].reachable.any()
    for write, reference, items in (
        (write_snapshots_json, _reference_snapshots_json, snapshots),
        (lambda fs, p: write_json_array((field_to_dict(f) for f in fs), p), _reference_fields_json,
         fields),
        (write_fields_csv, _reference_fields_csv, fields),
    ):
        write(items, tmp_path / "new")
        reference(items, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes(), reference
    if case == "empty":
        assert (tmp_path / "new").read_bytes() == b"t_s,sat,station,km\r\n"
        write_snapshots_json([], tmp_path / "snap")
        assert (tmp_path / "snap").read_bytes() == b"[]\n"


def test_fields_csv_marks_partly_unreachable_pairs(tmp_path):
    d = np.array([[12.25, np.inf], [np.inf, 1.0 / 3.0], [7.0, 8.0]])
    fields = [DistanceField(t=np.float64(90.0), d=d), DistanceField(t=150.25, d=d * 2.0)]
    write_fields_csv(fields, tmp_path / "new")
    _reference_fields_csv(fields, tmp_path / "ref")
    text = (tmp_path / "new").read_bytes()
    assert text == (tmp_path / "ref").read_bytes()
    assert b"90.0,0,1,-1.000000\r\n" in text
    assert b"150.25,1,1,0.666667\r\n" in text
    write_json_array((field_to_dict(f) for f in fields), tmp_path / "new")
    _reference_fields_json(fields, tmp_path / "ref")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
