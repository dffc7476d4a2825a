import json
import math
import os
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leocp import kernels, scenario
from leocp.assignment import (
    AssignmentParams,
    DistanceSamples,
    HandoverSchedule,
    HandoverSchedules,
    assigned_distance_trace,
    interpolate,
    predict_handovers,
    sample_distances,
    sample_times,
)
from leocp.config import load_config, parse_config
from leocp.errors import BudgetExceeded, EmptySelection, OutOfHorizon
from leocp.orbits import GroundStation, WalkerShell, generate_constellation, propagate, station_position
from oracles import per_satellite, samples_from, switch_columns, switch_intervals_by_sort, tick_oracle

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

GEO_ALTITUDE_KM = 35786.0  # geostationary: fixed in the rotating frame


def test_sample_count_forced():
    params = AssignmentParams(horizon_s=120.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    assert sample_times(params).tolist() == [0.0, 60.0, 120.0]


def test_geostationary_satellite_constant_series():
    shell = WalkerShell(1, 1, 0.0, GEO_ALTITUDE_KM)
    c = generate_constellation(shell)
    # the orbital rate differs from Earth's rotation by well under 0.1%,
    # so the rotating-frame distance is constant to within a few km
    stations = {0: GroundStation(0, "s", 0.0, 30.0)}
    params = AssignmentParams(horizon_s=3600.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    samples = sample_distances(0, stations, params, elements=c)
    assert samples.km[0, 0].max() - samples.km[0, 0].min() < 20.0


def test_equatorial_min_distance_is_altitude():
    shell = WalkerShell(1, 1, 0.0, 550.0)
    c = generate_constellation(shell)
    elem = c[0]
    station = GroundStation(0, "s", 0.0, 0.0)
    T = shell.period_s
    params = AssignmentParams(horizon_s=T, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    samples = sample_distances(0, {0: station}, params, elements=c)
    # dense-grid oracle at 1 s resolution
    gs = station_position(station)
    dense = np.array(
        [np.linalg.norm(propagate(elem, t) - gs) for t in np.arange(0.0, T, 1.0)]
    )
    assert dense.min() == pytest.approx(550.0, abs=0.1)
    interp_min = min(
        interpolate(samples, t)[0, 0] for t in np.arange(0.0, T, 1.0)
    )
    assert interp_min == pytest.approx(dense.min(), abs=25.0)


def test_network_metric_reads_fields():
    from leocp.topology import DistanceFields

    fields = DistanceFields([0.0, 60.0], np.array([[[100.0, 300.0]], [[200.0, 250.0]]]))
    stations = {
        0: GroundStation(0, "a", 0.0, 0.0),
        1: GroundStation(1, "b", 0.0, 90.0),
    }
    params = AssignmentParams(horizon_s=60.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    samples = sample_distances(0, stations, params, metric="network", fields=fields)
    assert samples.gs_ids == (0, 1)
    assert samples.km.shape == (1, 2, 2)  # one satellite, two controllers, two times
    assert samples.km[0, 0].tolist() == [100.0, 200.0]
    assert samples.km[0, 1].tolist() == [300.0, 250.0]


def test_interpolate_exact_and_midpoint():
    s = samples_from([0.0, 60.0], [[100.0, 200.0]], 60.0)
    assert interpolate(s, 0.0).tolist() == [[100.0]]
    assert interpolate(s, 60.0).tolist() == [[200.0]]
    assert interpolate(s, 30.0).tolist() == [[150.0]]


def test_interpolate_out_of_horizon():
    s = samples_from([0.0, 60.0], [[100.0, 200.0]], 60.0)
    with pytest.raises(OutOfHorizon):
        interpolate(s, -1.0)
    with pytest.raises(OutOfHorizon):
        interpolate(s, 61.0)


def test_samples_short_of_the_horizon_are_out_of_horizon():
    # np.interp would hold the t=60 s samples flat over the 540 s left
    s = samples_from([0.0, 60.0], [[100.0, 200.0], [300.0, 50.0]], 60.0)
    params = AssignmentParams(horizon_s=600.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    with pytest.raises(OutOfHorizon):
        predict_handovers(s, params)
    with pytest.raises(OutOfHorizon):
        assigned_distance_trace(
            s, HandoverSchedules([0], [], [], []), params
        )
    schedule = predict_handovers(s, replace(params, horizon_s=60.0))[0]
    assert schedule.initial == 0 and schedule.count == 1


def test_interpolation_error_bound_on_distant_pass():
    # polar orbit with the station 90 degrees away in longitude: the range
    # stays far from closest approach, where 60 s linear interpolation is
    # accurate to well under 5 km (measured max error ~0.88 km)
    shell = WalkerShell(1, 1, 90.0, 550.0)
    c = generate_constellation(shell)
    elem = c[0]
    station = GroundStation(0, "s", 0.0, 90.0)
    T = shell.period_s
    params = AssignmentParams(horizon_s=T, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    samples = sample_distances(0, {0: station}, params, elements=c)
    gs = station_position(station)
    ts = np.arange(0.0, T, 1.0)
    true_d = np.array([np.linalg.norm(propagate(elem, t) - gs) for t in ts])
    interp_d = np.interp(ts, samples.times, samples.km[0, 0])
    err = float(np.abs(interp_d - true_d).max())
    assert err < 5.0
    assert err == pytest.approx(0.875, abs=0.05)


def test_single_controller_empty_schedule():
    s = samples_from([0.0, 60.0, 120.0], [[100.0, 150.0, 90.0]], 120.0)
    params = AssignmentParams(horizon_s=120.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    sched = predict_handovers(s, params)[0]
    assert sched.initial == 0
    assert sched.events == ()


def test_single_crossing_fires_first_tick_after():
    # f0 = 100 + t, f1 = 200 - t cross at t = 50; with delta = 1 the switch
    # lands on the first decision tick where f1 is strictly smaller
    ts = [0.0, 60.0, 120.0]
    s = samples_from(ts, [[100.0, 160.0, 220.0], [200.0, 140.0, 80.0]], 120.0)
    params = AssignmentParams(horizon_s=120.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    sched = predict_handovers(s, params)[0]
    assert sched.initial == 0
    assert sched.events == ((51.0, 1),)


def test_delta_one_matches_nearest_scan_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_ctl = int(rng.integers(2, 5))
        ts = np.arange(0.0, 601.0, 60.0)
        samples = samples_from(
            ts, [rng.uniform(100.0, 2000.0, ts.shape[0]) for _ in range(n_ctl)], 600.0
        )
        params = AssignmentParams(horizon_s=600.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
        sched = predict_handovers(samples, params)[0]
        # oracle: direct argmin scan over the decision grid
        grid = np.arange(0.0, 601.0, 1.0)
        interp = np.stack([np.interp(grid, samples.times, km) for km in samples.km[0]])
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
        samples = samples_from(
            ts, [rng.uniform(100.0, 2000.0, ts.shape[0]) for _ in range(3)], 1200.0
        )
        params = AssignmentParams(horizon_s=1200.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=delta)
        sched = predict_handovers(samples, params)[0]
        grid = np.arange(0.0, 1201.0, 1.0)
        interp = np.stack([np.interp(grid, samples.times, km) for km in samples.km[0]])
        nearest = interp.min(axis=0)
        current = np.array([sched.controller_at(float(t)) for t in grid])
        f_curr = interp[current, np.arange(grid.shape[0])]
        assert np.all(delta * f_curr <= nearest + 1e-9)


def test_sweep_monotonicity_small():
    shell = WalkerShell(1, 1, 53.0, 550.0)
    c = generate_constellation(shell)
    stations = {0: GroundStation(0, "a", 0.0, 0.0), 1: GroundStation(1, "b", 25.0, 15.0)}
    T = 3 * shell.period_s
    counts, means = [], []
    for delta in (1.0, 0.9, 0.8, 0.7):
        params = AssignmentParams(horizon_s=T, sample_dt_s=60.0, decide_dt_s=1.0, delta=delta)
        samples = sample_distances(0, stations, params, elements=c)
        sched = predict_handovers(samples, params)
        counts.append(sched.count)
        means.append(float(assigned_distance_trace(samples, sched, params)[0].mean()))
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))


def test_schedule_matches_tick_oracle_below_one():
    rng = np.random.default_rng(21)
    ts = np.arange(0.0, 1801.0, 60.0)
    samples = samples_from(
        ts, [rng.uniform(100.0, 2000.0, ts.shape[0]) for _ in range(4)], 1800.0
    )
    for delta in (0.95, 0.9, 0.8):
        params = AssignmentParams(
            horizon_s=1800.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=delta
        )
        sched = predict_handovers(samples, params)[0]
        initial, events = tick_oracle(samples, params)
        assert events, delta  # the case must exercise switches
        assert sched.initial == initial
        assert list(sched.events) == events
        assert predict_handovers(samples, params) == {0: sched}


def test_schedule_table_reads_as_a_mapping_of_views():
    # satellites 0 and 2 switch, satellite 1 keeps its initial controller
    table = HandoverSchedules([3, 1, 0], *switch_columns({0: [(5.0, 1), (9.5, 3)], 2: [(2.0, 1)]}))
    assert table.count == 3 and len(table) == 3 and list(table) == [0, 1, 2]
    assert table == {
        0: HandoverSchedule(3, ((5.0, 1), (9.5, 3))),
        1: HandoverSchedule(1, ()),
        2: HandoverSchedule(0, ((2.0, 1),)),
    }
    view = table[0]
    assert type(view.initial) is int and all(type(t) is float and type(g) is int for t, g in view.events)
    assert (view.controller_at(5.0), view.controller_at(9.0), view.controller_at(10.0)) == (1, 1, 3)
    assert 3 not in table and -1 not in table and "0" not in table and table.get(3) is None
    assert table[1.0] == table[True] == table[np.int64(1)] == HandoverSchedule(1, ())
    with pytest.raises(KeyError):
        table[3]


@st.composite
def scan_params(draw):
    """Scan settings whose sample spacing is not a multiple of the decision
    interval, and whose horizon is not a multiple of the sample spacing."""
    delta = draw(st.sampled_from([1.0, 0.95, 0.9, 0.5]))
    decide_dt = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    sample_dt = draw(st.sampled_from([7.25, 13.0, 25.5, 60.0]))
    horizon = sample_dt * draw(st.integers(1, 4)) + draw(st.sampled_from([0.0, 3.0, 4.75]))
    return AssignmentParams(
        horizon_s=horizon, sample_dt_s=sample_dt, decide_dt_s=decide_dt, delta=delta
    )


@st.composite
def scan_rows(draw, ts, n_ctl, delta):
    """One satellite's sampled distances to ``n_ctl`` controllers at ``ts``.

    Samples come from a small set of values, so exact ties at samples and
    identical curves are common; a row may copy an earlier one, or be
    ``delta`` times an earlier one at some samples, which puts the switch
    threshold exactly on the samples; some entries are ``np.inf``.
    """
    value = st.one_of(
        st.sampled_from([100.0, 200.0, 300.0, 400.0]),
        st.floats(50.0, 1000.0),
        st.just(np.inf),
    )
    rows = []
    for _ in range(n_ctl):
        kind = draw(st.sampled_from(["free", "copy", "scaled", "threshold"])) if rows else "free"
        free = [draw(value) for _ in ts]
        if kind == "free":
            rows.append(free)
            continue
        src = rows[draw(st.integers(0, len(rows) - 1))]
        factor = 1.0 if kind == "copy" else delta
        if kind == "threshold":  # on the threshold after t=0, where ``src`` may be nearest
            keep = [False] + [True] * (len(ts) - 1)
        else:
            keep = [draw(st.booleans()) for _ in ts]
        rows.append([factor * a if k else b for a, b, k in zip(src, free, keep)])
    return rows


@st.composite
def scan_cases(draw):
    """One satellite's ``scan_rows`` to 1-5 controllers under ``scan_params``."""
    n_ctl = draw(st.integers(1, 5))
    params = draw(scan_params())
    ts = sample_times(params)
    return params, ts, np.array(draw(scan_rows(ts, n_ctl, params.delta)))


@st.composite
def scan_blocks(draw):
    """A block of 1-64 satellites over shared sample times and the same 1-5
    controllers. About one satellite in five is unreachable throughout
    (every entry ``np.inf``), and one in five has one controller far
    nearest throughout, so neither ever switches; the others are
    ``scan_rows``, or rows that swap the nearest controller at every
    sample."""
    n_ctl = draw(st.integers(1, 5))
    params = draw(scan_params())
    ts = sample_times(params)
    n = len(ts)
    block = []
    for _ in range(draw(st.integers(1, 64))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            block.append([[np.inf] * n] * n_ctl)
        elif kind == 1:
            near = draw(st.integers(0, n_ctl - 1))
            block.append([[10.0 if g == near else 5000.0] * n for g in range(n_ctl)])
        elif kind == 2:
            block.append([[100.0 + 800.0 * ((i + g) % 2) for i in range(n)] for g in range(n_ctl)])
        else:
            block.append(draw(scan_rows(ts, n_ctl, params.delta)))
    return params, ts, np.array(block)


# an interval whose ends both sit exactly on the threshold of controller 0:
# interpolation rounding puts controller 1 strictly below it at inner ticks
@example(
    (
        AssignmentParams(horizon_s=120.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=0.9),
        np.array([0.0, 60.0, 120.0]),
        np.array([[1000.0, 612.0, 684.0], [5000.0, 0.9 * 612.0, 0.9 * 684.0]]),
    )
)
@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_pruned_scan_matches_tick_oracle(case):
    params, ts, rows = case
    [(initial, events)] = per_satellite(kernels.handover_scan(
        ts, rows[None], params.decide_dt_s, params.horizon_s, params.delta
    ))
    samples = samples_from(ts, rows, params.horizon_s)
    assert (initial, events) == tick_oracle(samples, params)
    sched = predict_handovers(samples, params)[0]
    assert (sched.initial, list(sched.events)) == (initial, events)


@settings(max_examples=100, deadline=None)
@given(scan_blocks())
def test_block_scan_matches_tick_oracle_per_satellite(case):
    params, ts, block = case
    scans = per_satellite(kernels.handover_scan(
        ts, block, params.decide_dt_s, params.horizon_s, params.delta
    ))
    assert len(scans) == len(block)
    for rows, scan in zip(block, scans):
        assert scan == tick_oracle(samples_from(ts, rows, params.horizon_s), params)
    # windows of one tick per satellite and controller give the same events
    with mock.patch.object(kernels, "SLAB_CELLS", 1):
        assert per_satellite(kernels.handover_scan(
            ts, block, params.decide_dt_s, params.horizon_s, params.delta
        )) == scans
    schedules = predict_handovers(samples_from(ts, block, params.horizon_s), params)
    assert per_satellite(schedules) == scans
    assert [(s.initial, list(s.events)) for s in schedules.values()] == scans
    assert schedules.count == sum(len(events) for _, events in scans)
    if block.shape[1] > 1:  # each satellite's flags, slack included, as if scanned alone
        flags = kernels._switch_intervals(block, params.delta)
        for rows, sat_flags in zip(block, flags):
            assert np.array_equal(sat_flags, kernels._switch_intervals(rows, params.delta))


def _same_bits(a, b):
    """Equal values, signs of zero included; any NaN matches any NaN."""
    nan = np.isnan(a)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a[~nan]), np.signbit(b[~nan])
    )


@st.composite
def interp_cases(draw):
    """Strictly increasing sample times, 1-4 rows of samples over them and
    query points for ``np.interp``. Samples repeat a few values, so equal
    neighbours are common, and some are +-inf; queries hit samples exactly,
    sit on both ends, and fall before the first and past the last."""
    gaps = draw(st.lists(st.sampled_from([0.5, 1.0, 7.25, 60.0]) | st.floats(0.01, 100.0),
                         min_size=1, max_size=6))
    xp = np.cumsum([draw(st.floats(-100.0, 100.0))] + gaps)
    value = st.sampled_from([0.0, 100.0, 200.0, np.inf, -np.inf]) | st.floats(-1e3, 1e3)
    fp = np.array([[draw(value) for _ in xp] for _ in range(draw(st.integers(1, 4)))])
    query = st.sampled_from(xp.tolist()) | st.floats(xp[0] - 10.0, xp[-1] + 10.0)
    x = np.array([xp[0], xp[-1]] + draw(st.lists(query, max_size=30)))
    return x, xp, fp


# an exact hit on a sample whose next one is infinite: the slope from the
# hit is inf * 0, and only the hit rule gives the sample
@example((np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0]), np.array([[100.0, np.inf]])))
# infinite next to finite, equal infinities and opposite ones: the NaN
# fallbacks
@example(
    (
        np.array([0.5, 1.5, 2.5, 3.5]),
        np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
        np.array([[np.inf, 100.0, 100.0, np.inf, np.inf], [np.inf, -np.inf, 5.0, 5.0, -np.inf]]),
    )
)
@settings(max_examples=300, deadline=None)
@given(interp_cases())
def test_lerp_matches_np_interp_bit_for_bit(case):
    x, xp, fp = case
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
    got = kernels._lerp(x, xp[j], xp[j + 1], fp[:, j], fp[:, j + 1])
    assert _same_bits(got, np.array([np.interp(x, xp, row) for row in fp]))


def test_scan_slab_stays_bounded_at_60000_ticks_per_interval():
    # 64 satellites, two controllers, samples a minute apart, a decision
    # every millisecond: an uncut slab of every moving satellite's interval
    # would take tens of MiB
    rng = np.random.default_rng(7)
    ts = np.array([0.0, 60.0, 120.0])
    d = rng.uniform(100.0, 2000.0, (64, 2, 3))
    kernels.decision_ticks(0.001, 120.0)  # the grid, cached before tracing
    tracemalloc.start()
    try:
        scan = kernels.handover_scan(ts, d, 0.001, 120.0, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    scans = per_satellite(scan)
    assert sum(len(events) for _, events in scans) > 20
    # one satellite's interval is one window: the cut windows give its events
    for row, scan in zip(d, scans):
        assert per_satellite(kernels.handover_scan(ts, row[None], 0.001, 120.0, 0.9)) == [scan]
    kernels.decision_ticks.cache_clear()


def _desk_spec(shell=None, **assignment):
    with open(os.path.join(CONFIGS, "desk.json")) as fh:
        raw = json.load(fh)
    raw["assignment"].update(assignment)
    raw["shell"].update(shell or {})
    spec = parse_config(raw)
    return replace(spec, controllers=[0, 1, 3])


@pytest.mark.parametrize("metric,delta", [("geometric", 1.0), ("network", 0.9)])
def test_block_prediction_matches_per_satellite_path(metric, delta, monkeypatch):
    # blocks of 16 satellites: desk's 6 x 8 is three whole blocks; 5 x 7 = 35
    # ends on a short block of 3
    blocks = []

    def predict(samples, params):
        blocks.append(samples.km.shape[0])
        return predict_handovers(samples, params)

    monkeypatch.setattr(scenario, "predict_handovers", predict)
    for shell, sizes in ((None, [16, 16, 16]), ({"planes": 5, "sats_per_plane": 7}, [16, 16, 3])):
        spec = _desk_spec(shell, metric=metric, delta=delta)
        elements, _, fields = scenario.build_fields(spec)
        params = replace(spec.assignment, horizon_s=spec.duration_s)
        monkeypatch.setattr(scenario, "BLOCK_SAMPLES", 16 * len(sample_times(params)))
        blocks.clear()
        schedules = scenario.predict_schedules(spec, elements, fields)
        assert blocks == sizes
        controllers = {g: spec.stations[g] for g in spec.controllers}
        expected = []
        for row in range(len(elements)):
            samples = sample_distances(row, controllers, params, metric, elements, fields)
            expected += per_satellite(predict_handovers(samples, params))
        assert per_satellite(schedules) == expected
        assert sum(s.count for s in schedules.values()) > 0


def test_controllers_are_sampled_in_id_order():
    spec = _desk_spec()
    elements = generate_constellation(spec.shell)
    params = replace(spec.assignment, horizon_s=spec.duration_s)
    a, b = spec.stations[0], spec.stations[3]
    samples = sample_distances(0, {3: b, 0: a}, params, elements=elements)
    assert samples.gs_ids == (0, 3)
    in_order = sample_distances(0, {0: a, 3: b}, params, elements=elements)
    assert np.array_equal(samples.km, in_order.km)
    shuffled = replace(spec, controllers=[3, 0, 1])
    assert scenario.predict_schedules(shuffled, elements, None) == scenario.predict_schedules(
        spec, elements, None
    )


def test_scan_flags_only_intervals_where_a_switch_can_fire():
    # controller 0 is nearest at the first two samples, controller 1 at the last
    d = np.array([[100.0, 100.0, 300.0], [200.0, 150.0, 150.0]])
    flags = kernels._switch_intervals(d, 1.0)
    # with 0 current, only the second interval ends below its distance; with
    # 1 current, both intervals have an end where 0 is nearer
    assert flags.tolist() == [[False, True], [True, True]]
    assert kernels._switch_intervals(d, 0.5).tolist() == [[False, True], [True, False]]


@st.composite
def switch_blocks(draw):
    """Distances shaped (satellites, controllers, samples) drawn from a few
    values, so exact ties between controllers are common; ``inf`` and NaN
    among them."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(2, 5)))
    values = st.sampled_from([0.0, -0.0, 1.0, 2.0, 2.5, 1000.0, math.inf, math.nan])
    return np.array(draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(switch_blocks(), st.sampled_from([0.5, 0.9, 1.0, 1.5]))
def test_switch_intervals_match_the_sort_form(d, delta):
    flags = kernels._switch_intervals(d, delta)
    by_sort = switch_intervals_by_sort(d, delta)
    assert flags.shape == d[..., :-1].shape
    if d.shape[1] == 1:  # no other controller to switch to
        assert not flags.any() and by_sort.size == 0
    else:
        assert np.array_equal(flags, by_sort)
    assert np.array_equal(kernels._switch_intervals(d[0], delta), flags[0])


def test_assigned_distance_trace_matches_tick_loop():
    rng = np.random.default_rng(14)
    ts = np.arange(0.0, 1201.0, 60.0)
    samples = samples_from(
        ts, [rng.uniform(100.0, 2000.0, ts.shape[0]) for _ in range(3)], 1200.0
    )
    params = AssignmentParams(horizon_s=1200.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=0.9)
    sched = predict_handovers(samples, params)[0]
    assert sched.events
    ticks = np.arange(0.0, 1200.5, 1.0)
    for schedule in (sched, HandoverSchedule(initial=2, events=())):
        loop = np.empty(ticks.shape[0])
        for i, t in enumerate(ticks):
            km = samples.km[0, samples.gs_ids.index(schedule.controller_at(float(t)))]
            loop[i] = np.interp(t, samples.times, km)
        table = HandoverSchedules([schedule.initial], *switch_columns({0: schedule.events}))
        trace = assigned_distance_trace(samples, table, params)
        assert np.array_equal(trace, loop[None])


def test_schedule_event_times_increase_and_targets_differ():
    rng = np.random.default_rng(33)
    ts = np.arange(0.0, 3601.0, 60.0)
    samples = samples_from(
        ts, [rng.uniform(100.0, 2000.0, ts.shape[0]) for _ in range(3)], 3600.0
    )
    params = AssignmentParams(horizon_s=3600.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=0.95)
    sched = predict_handovers(samples, params)[0]
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
        samples_from([0.0, 0.0], [[1.0, 2.0]], 0.0)
    with pytest.raises(ValueError):
        samples_from([0.0, 30.0], [[1.0, 2.0]], 60.0)  # does not cover horizon
    times, km = np.array([0.0, 60.0]), np.ones((1, 2, 2))
    for gs_ids in ((1, 0), (0, 0)):
        with pytest.raises(ValueError, match="controller ids"):
            DistanceSamples(gs_ids=gs_ids, times=times, km=km, horizon_s=60.0)
    with pytest.raises(ValueError, match="shaped"):
        DistanceSamples(gs_ids=(0, 1, 2), times=times, km=km, horizon_s=60.0)
    with pytest.raises(ValueError, match="shaped"):  # one satellite's rows, not a block
        DistanceSamples(gs_ids=(0, 1), times=times, km=km[0], horizon_s=60.0)


def test_prediction_without_controllers_is_a_named_error():
    # a parsed config has no controllers until placement picks them
    spec = load_config(os.path.join(CONFIGS, "desk.json"))
    assert spec.controllers == []
    elements = generate_constellation(spec.shell)
    with pytest.raises(EmptySelection, match="controller"):
        scenario.predict_schedules(spec, elements, None)
    with pytest.raises(EmptySelection, match="controller"):
        sample_distances(0, {}, spec.assignment, elements=elements)


def test_decision_grid_built_once_per_interval_and_horizon():
    kernels.decision_ticks.cache_clear()
    grid = kernels.decision_ticks(1.5, 100.0)
    assert kernels.decision_ticks(1.5, 100.0) is grid
    assert not grid.flags.writeable
    assert grid.tolist() == [1.5 * i for i in range(67)]
    assert kernels.decision_ticks(2.0, 100.0) is not grid
    kernels.decision_ticks.cache_clear()


def test_decision_grid_over_the_tick_budget_is_refused(monkeypatch):
    kernels.decision_ticks.cache_clear()
    monkeypatch.setattr(kernels, "TICK_BUDGET", 100)
    assert kernels.decision_ticks(1.0, 99.0).shape == (100,)
    with pytest.raises(BudgetExceeded, match="every 1.0 s over a 100.0 s horizon has 101 ticks"):
        kernels.decision_ticks(1.0, 100.0)  # 101 ticks
    kernels.decision_ticks.cache_clear()
