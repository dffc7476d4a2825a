import math

import numpy as np
import pytest

from leocp.assignment import (
    AssignmentParams,
    DistanceSeries,
    HandoverSchedule,
    assigned_distance_trace,
    interpolate,
    predict_handovers,
    sample_distances,
    sample_times,
)
from leocp.errors import OutOfHorizon
from leocp.orbits import GroundStation, WalkerShell, generate_constellation, propagate, station_position

GEO_ALTITUDE_KM = 35786.0  # geostationary: fixed in the rotating frame


def series_from(gs_id, times, km, horizon):
    return DistanceSeries(
        gs_id=gs_id, times=np.asarray(times, float), km=np.asarray(km, float), horizon_s=horizon
    )


def test_sample_count_forced():
    params = AssignmentParams(horizon_s=120.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    assert sample_times(params).tolist() == [0.0, 60.0, 120.0]


def test_geostationary_satellite_constant_series():
    shell = WalkerShell(1, 1, 0.0, GEO_ALTITUDE_KM)
    elem = generate_constellation(shell)[0]
    # the orbital rate differs from Earth's rotation by well under 0.1%,
    # so the rotating-frame distance is constant to within a few km
    stations = {0: GroundStation(0, "s", 0.0, 30.0)}
    params = AssignmentParams(horizon_s=3600.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    series = sample_distances(elem, stations, params)[0]
    assert series.km.max() - series.km.min() < 20.0


def test_equatorial_min_distance_is_altitude():
    shell = WalkerShell(1, 1, 0.0, 550.0)
    elem = generate_constellation(shell)[0]
    station = GroundStation(0, "s", 0.0, 0.0)
    T = elem.period_s
    params = AssignmentParams(horizon_s=T, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    series = sample_distances(elem, {0: station}, params)[0]
    # dense-grid oracle at 1 s resolution
    gs = station_position(station)
    dense = np.array(
        [np.linalg.norm(propagate(elem, t) - gs) for t in np.arange(0.0, T, 1.0)]
    )
    assert dense.min() == pytest.approx(550.0, abs=0.1)
    interp_min = min(
        interpolate(series, t) for t in np.arange(0.0, T, 1.0)
    )
    assert interp_min == pytest.approx(dense.min(), abs=25.0)


def test_network_metric_reads_fields():
    from leocp.topology import DistanceField

    fields = [
        DistanceField(t=0.0, d=np.array([[100.0, 300.0]])),
        DistanceField(t=60.0, d=np.array([[200.0, 250.0]])),
    ]
    stations = {
        0: GroundStation(0, "a", 0.0, 0.0),
        1: GroundStation(1, "b", 0.0, 90.0),
    }
    params = AssignmentParams(horizon_s=60.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    series = sample_distances(0, stations, params, metric="network", fields=fields)
    assert series[0].km.tolist() == [100.0, 200.0]
    assert series[1].km.tolist() == [300.0, 250.0]


def test_interpolate_exact_and_midpoint():
    s = series_from(0, [0.0, 60.0], [100.0, 200.0], 60.0)
    assert interpolate(s, 0.0) == 100.0
    assert interpolate(s, 60.0) == 200.0
    assert interpolate(s, 30.0) == 150.0


def test_interpolate_out_of_horizon():
    s = series_from(0, [0.0, 60.0], [100.0, 200.0], 60.0)
    with pytest.raises(OutOfHorizon):
        interpolate(s, -1.0)
    with pytest.raises(OutOfHorizon):
        interpolate(s, 61.0)


def test_interpolation_error_bound_on_distant_pass():
    # polar orbit with the station 90 degrees away in longitude: the range
    # stays far from closest approach, where 60 s linear interpolation is
    # accurate to well under 5 km (measured max error ~0.88 km)
    shell = WalkerShell(1, 1, 90.0, 550.0)
    elem = generate_constellation(shell)[0]
    station = GroundStation(0, "s", 0.0, 90.0)
    T = elem.period_s
    params = AssignmentParams(horizon_s=T, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    series = sample_distances(elem, {0: station}, params)[0]
    gs = station_position(station)
    ts = np.arange(0.0, T, 1.0)
    true_d = np.array([np.linalg.norm(propagate(elem, t) - gs) for t in ts])
    interp_d = np.interp(ts, series.times, series.km)
    err = float(np.abs(interp_d - true_d).max())
    assert err < 5.0
    assert err == pytest.approx(0.875, abs=0.05)


def test_single_controller_empty_schedule():
    s = series_from(0, [0.0, 60.0, 120.0], [100.0, 150.0, 90.0], 120.0)
    params = AssignmentParams(horizon_s=120.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    sched = predict_handovers([s], params)
    assert sched.initial == 0
    assert sched.events == ()


def test_single_crossing_fires_first_tick_after():
    # f0 = 100 + t, f1 = 200 - t cross at t = 50; with delta = 1 the switch
    # lands on the first decision tick where f1 is strictly smaller
    ts = [0.0, 60.0, 120.0]
    s0 = series_from(0, ts, [100.0, 160.0, 220.0], 120.0)
    s1 = series_from(1, ts, [200.0, 140.0, 80.0], 120.0)
    params = AssignmentParams(horizon_s=120.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    sched = predict_handovers([s0, s1], params)
    assert sched.initial == 0
    assert sched.events == ((51.0, 1),)


def test_delta_one_matches_nearest_scan_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_ctl = int(rng.integers(2, 5))
        ts = np.arange(0.0, 601.0, 60.0)
        series = [
            series_from(g, ts, rng.uniform(100.0, 2000.0, ts.shape[0]), 600.0)
            for g in range(n_ctl)
        ]
        params = AssignmentParams(horizon_s=600.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
        sched = predict_handovers(series, params)
        # oracle: direct argmin scan over the decision grid
        grid = np.arange(0.0, 601.0, 1.0)
        interp = np.stack([np.interp(grid, s.times, s.km) for s in series])
        assigned = np.argmin(interp, axis=0)
        events = [
            (float(grid[i]), int(assigned[i]))
            for i in range(1, grid.shape[0])
            if assigned[i] != assigned[i - 1]
        ]
        assert sched.initial == int(assigned[0])
        assert list(sched.events) == events


def test_hysteresis_band_never_violated():
    rng = np.random.default_rng(9)
    for delta in (1.0, 0.9, 0.8):
        ts = np.arange(0.0, 1201.0, 60.0)
        series = [
            series_from(g, ts, rng.uniform(100.0, 2000.0, ts.shape[0]), 1200.0)
            for g in range(3)
        ]
        params = AssignmentParams(horizon_s=1200.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=delta)
        sched = predict_handovers(series, params)
        grid = np.arange(0.0, 1201.0, 1.0)
        interp = np.stack([np.interp(grid, s.times, s.km) for s in series])
        nearest = interp.min(axis=0)
        current = np.array([sched.controller_at(float(t)) for t in grid])
        f_curr = interp[current, np.arange(grid.shape[0])]
        assert np.all(delta * f_curr <= nearest + 1e-9)


def test_sweep_monotonicity_small():
    shell = WalkerShell(1, 1, 53.0, 550.0)
    elem = generate_constellation(shell)[0]
    stations = {0: GroundStation(0, "a", 0.0, 0.0), 1: GroundStation(1, "b", 25.0, 15.0)}
    T = 3 * elem.period_s
    counts, means = [], []
    for delta in (1.0, 0.9, 0.8, 0.7):
        params = AssignmentParams(horizon_s=T, sample_dt_s=60.0, decide_dt_s=1.0, delta=delta)
        series = sample_distances(elem, stations, params)
        sched = predict_handovers(series, params)
        counts.append(sched.count)
        means.append(float(assigned_distance_trace(series, sched, params).mean()))
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))


def tick_oracle(series, params):
    """The threshold rule applied one decision tick and one controller at
    a time: (initial id, [(t, target id), ...])."""
    def dist(g, t):
        return float(np.interp(t, series[g].times, series[g].km))

    def nearest(d):
        return min(range(len(d)), key=lambda g: (d[g], g))  # ties to the lowest id

    current = nearest([dist(g, 0.0) for g in range(len(series))])
    initial = series[current].gs_id
    events = []
    for i in range(int(params.horizon_s / params.decide_dt_s) + 1):
        t = i * params.decide_dt_s
        d = [dist(g, t) for g in range(len(series))]
        best = nearest(d)
        if best != current and d[best] < params.delta * d[current]:
            events.append((t, series[best].gs_id))
            current = best
    return initial, events


def test_schedule_matches_tick_oracle_below_one():
    rng = np.random.default_rng(21)
    ts = np.arange(0.0, 1801.0, 60.0)
    series = [
        series_from(g, ts, rng.uniform(100.0, 2000.0, ts.shape[0]), 1800.0) for g in range(4)
    ]
    for delta in (0.95, 0.9, 0.8):
        params = AssignmentParams(
            horizon_s=1800.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=delta
        )
        sched = predict_handovers(series, params)
        initial, events = tick_oracle(series, params)
        assert events, delta  # the case must exercise switches
        assert sched.initial == initial
        assert list(sched.events) == events
        assert predict_handovers(series, params) == sched


def test_schedule_event_times_increase_and_targets_differ():
    rng = np.random.default_rng(33)
    ts = np.arange(0.0, 3601.0, 60.0)
    series = [
        series_from(g, ts, rng.uniform(100.0, 2000.0, ts.shape[0]), 3600.0) for g in range(3)
    ]
    params = AssignmentParams(horizon_s=3600.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=0.95)
    sched = predict_handovers(series, params)
    times = [t for t, _ in sched.events]
    assert times == sorted(times)
    assert len(set(times)) == len(times)
    chain = [sched.initial] + [g for _, g in sched.events]
    assert all(a != b for a, b in zip(chain, chain[1:]))


def test_params_invariants():
    with pytest.raises(ValueError):
        AssignmentParams(delta=0.0)
    with pytest.raises(ValueError):
        AssignmentParams(delta=1.5)
    with pytest.raises(ValueError):
        AssignmentParams(horizon_s=10.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=0.9)
    for decide_dt in (0.0, -1.0):
        with pytest.raises(ValueError, match="decide_dt_s"):
            AssignmentParams(decide_dt_s=decide_dt)


def test_series_invariants():
    with pytest.raises(ValueError):
        series_from(0, [0.0, 0.0], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        series_from(0, [0.0, 30.0], [1.0, 2.0], 60.0)  # does not cover horizon
