"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers (run with ``pytest -s`` to see them
on success)."""
import json
import os
import statistics
import time

import numpy as np
import pytest

from conftest import random_distance_fields
from leocp.assignment import (
    AssignmentParams,
    assigned_distance_trace,
    predict_handovers,
    sample_distances,
)
from leocp.cli import main as cli_main
from leocp.orbits import GroundStation, WalkerShell, generate_constellation, propagate, station_position
from leocp.placement import (
    PlacementProblem,
    best_single,
    cnpa,
    evaluate,
    exhaustive_optimal,
    local_search,
    random_select,
)
from leocp.protocol import (
    ConstantLatency,
    DelayProfile,
    Protocol,
    RequestStatus,
    Simulation,
    node_visible,
    run_legacy_handover,
)
from leocp.scenario import ScenarioSpec, build_fields, run_scenario
from leocp.topology import shortest_distances
from oracles import oracle_field, random_snapshot

DESK_SHELL = WalkerShell(6, 8, 53.0, 1200.0, phasing_factor=1)
DESK_STATIONS = [
    GroundStation(0, "quito", -0.2, -78.5),
    GroundStation(1, "nairobi", -1.3, 36.8),
    GroundStation(2, "singapore", 1.35, 103.8),
    GroundStation(3, "honolulu", 21.3, -157.9),
]
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def desk_spec(duration_s, protocol=Protocol.SEAMLESS, min_elevation_deg=10.0):
    return ScenarioSpec(
        shell=DESK_SHELL,
        stations=DESK_STATIONS,
        controllers=[0, 2],
        duration_s=duration_s,
        snapshot_dt_s=60.0,
        min_elevation_deg=min_elevation_deg,
        assignment=AssignmentParams(
            horizon_s=duration_s, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0
        ),
        protocol=protocol,
    )


def test_criterion_1_seamless_safety():
    t0 = time.time()
    result = run_scenario(desk_spec(7200.0))
    assert len(result.records) > 0
    assert all(r.invisibility == 0.0 for r in result.records)
    assert all(r.pod_unavailability == 0.0 for r in result.records)
    samples = 0
    for rec in result.records:
        for t in np.arange(rec.t_start, rec.t_end + 0.01, 0.01):
            assert node_visible(result.sim, rec.sat_id, float(t))
            samples += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS seamless safety: {len(result.records)} handovers, "
        f"invisibility=0, {samples} visibility samples at 10 ms, {elapsed:.1f}s"
    )


def test_criterion_2_legacy_calibration():
    t0 = time.time()
    durations, invis, unavail = [], [], []
    for trial in range(5):
        sim = Simulation(
            controllers=[0, 1],
            satellites=[0],
            latency=ConstantLatency(0.4),  # all RTT < 1 ms
            delays=DelayProfile(),
            pods_per_sat=1,
        )
        sim.bind_initial(0, 0, t=0.0)
        rec = run_legacy_handover(sim, 0, 1, float(trial * 100))
        durations.append(rec.duration)
        invis.append(rec.invisibility)
        unavail.append(rec.pod_unavailability)
    mean_d = statistics.mean(durations)
    mean_i = statistics.mean(invis)
    mean_u = statistics.mean(unavail)
    assert mean_d == pytest.approx(8.35, rel=0.10)
    assert mean_i == pytest.approx(4.5, rel=0.10)
    assert mean_u == pytest.approx(9.7, rel=0.10)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 2 PASS legacy calibration: duration {mean_d:.2f}s (8.35±10%), "
        f"invisibility {mean_i:.2f}s (4.5±10%), recovery {mean_u:.2f}s (9.7±10%), {elapsed:.1f}s"
    )


def test_criterion_3_ordering_invariant():
    result = run_scenario(desk_spec(43200.0, min_elevation_deg=5.0))
    assert len(result.records) >= 500
    sim = result.sim
    from leocp.protocol import BindingState

    for req in sim.requests:
        order = [
            RequestStatus.CREATED,
            RequestStatus.PROCESSING,
            RequestStatus.FINISHED,
            RequestStatus.COMPLETED,
        ]
        ts = [req.timestamps[s.value] for s in order]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        # target reaches Bound strictly before the source commits Released
        t_bound = next(
            t
            for t, s in sim.state_log[(req.target_gs, req.node_id)]
            if s is BindingState.BOUND
        )
        released = [
            t
            for t, s in sim.state_log[(req.source_gs, req.node_id)]
            if s is BindingState.RELEASED and t >= ts[0]
        ]
        assert t_bound < min(released)
    print(
        f"\nACCEPTANCE 3 PASS ordering: {len(sim.requests)} handovers, "
        "Bound < Released and statuses strictly monotone in every trace"
    )


def test_criterion_4_placement_oracle_equivalence():
    t0 = time.time()
    ratios = []
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        m = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, m) + 1))
        n_sats = int(rng.integers(2, 21))
        tau = int(rng.integers(1, 11))
        fields = random_distance_fields(rng, tau, n_sats, m)
        problem = PlacementProblem(
            fields=fields, candidates=list(range(m)), k=k, clusters=tau, seed=seed
        )
        sol = cnpa(problem)
        opt = exhaustive_optimal(fields, range(m), k)
        assert sol.objective_km >= opt.objective_km - 1e-9
        ratios.append(sol.objective_km / opt.objective_km)
        # local search refuses to make any start worse
        start = sorted(rng.choice(m, size=k, replace=False).tolist())
        assert evaluate(local_search(start, fields), fields) <= evaluate(start, fields)
    within = sum(r <= 1.3 for r in ratios)
    assert within >= 95
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 4 PASS placement oracle: cnpa >= optimum on 100/100, "
        f"within 1.3x on {within}/100 (max ratio {max(ratios):.3f}), {elapsed:.1f}s"
    )


def test_criterion_5_baseline_dominance():
    spec = desk_spec(7200.0)
    fields = build_fields(spec)[2].d
    candidates = list(range(len(DESK_STATIONS)))
    problem = PlacementProblem(fields=fields, candidates=candidates, k=2, clusters=5, seed=42)
    sol = cnpa(problem)
    rand_mean = statistics.mean(
        random_select(fields, candidates, 2, seed=s).objective_km for s in range(100)
    )
    single = best_single(fields, candidates)
    assert sol.objective_km <= rand_mean
    assert sol.objective_km <= single.objective_km
    print(
        f"\nACCEPTANCE 5 PASS baseline dominance: cnpa {sol.objective_km:.0f} km <= "
        f"random mean {rand_mean:.0f} km and <= best single {single.objective_km:.0f} km"
    )


def test_criterion_6_cnaa_hysteresis():
    t0 = time.time()
    shell = WalkerShell(1, 1, 53.0, 550.0)
    c = generate_constellation(shell)
    stations = {0: GroundStation(0, "a", 0.0, 0.0), 1: GroundStation(1, "b", 25.0, 15.0)}
    horizon = 6 * shell.period_s
    deltas = [1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7]
    counts, means = [], []
    for delta in deltas:
        params = AssignmentParams(
            horizon_s=horizon, sample_dt_s=60.0, decide_dt_s=1.0, delta=delta
        )
        samples = sample_distances(0, stations, params, elements=c)
        sched = predict_handovers(samples, params)
        counts.append(sched.count)
        means.append(float(assigned_distance_trace(samples, sched, params)[0].mean()))
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))
    # delta = 1 reduces to the brute-force nearest-controller scan
    params = AssignmentParams(horizon_s=horizon, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    samples = sample_distances(0, stations, params, elements=c)
    sched = predict_handovers(samples, params)[0]
    grid = np.arange(0.0, horizon + 0.5, 1.0)
    grid = grid[grid <= horizon]
    interp = np.stack([np.interp(grid, samples.times, km) for km in samples.km[0]])
    assigned = np.argmin(interp, axis=0)
    oracle_events = [
        (float(grid[i]), int(assigned[i]))
        for i in range(1, len(grid))
        if assigned[i] != assigned[i - 1]
    ]
    assert sched.initial == int(assigned[0])
    assert list(sched.events) == oracle_events
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 6 PASS hysteresis: counts {counts} non-increasing, mean assigned "
        f"distance non-decreasing over delta 1.0->0.7, delta=1 matches scan, {elapsed:.1f}s"
    )


def test_criterion_7_geometric_handover_count():
    shell = WalkerShell(1, 1, 0.0, 550.0)
    c = generate_constellation(shell)
    elem = c[0]
    stations = {
        0: GroundStation(0, "meridian", 0.0, 0.0),
        1: GroundStation(1, "antimeridian", 0.0, 180.0),
    }
    period = shell.period_s
    params = AssignmentParams(horizon_s=period, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0)
    samples = sample_distances(0, stations, params, elements=c)
    sched = predict_handovers(samples, params)[0]
    assert sched.count == 2
    # independent oracle: sign changes of the distance difference on a 1 s grid
    gs0 = station_position(stations[0])
    gs1 = station_position(stations[1])
    ts = np.arange(0.0, period, 1.0)
    diff = np.array(
        [
            np.linalg.norm(propagate(elem, t) - gs0) - np.linalg.norm(propagate(elem, t) - gs1)
            for t in ts
        ]
    )
    sign_changes = int(np.sum(np.diff(np.sign(diff)) != 0))
    assert sign_changes == 2
    print(
        f"\nACCEPTANCE 7 PASS geometric count: 2 handovers at "
        f"{[t for t, _ in sched.events]}, oracle sign changes = 2"
    )


def test_criterion_8_graph_oracle():
    rng = np.random.default_rng(1234)
    for i in range(200):
        n_sats = int(rng.integers(2, 10))
        n_stations = int(rng.integers(1, min(4, 13 - n_sats)))
        snap = random_snapshot(rng, n_sats, n_stations)
        (got,) = shortest_distances([snap])
        expected = oracle_field(snap)
        assert np.array_equal(got, expected), i
    print("\nACCEPTANCE 8 PASS graph oracle: 200/200 random graphs match Floyd-Warshall exactly")


def test_criterion_9_pipeline_determinism(tmp_path):
    config = os.path.join(CONFIGS, "desk.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["all", "--config", config, "--out", str(out)]) == 0
        tree = {}
        for fname in sorted(os.listdir(out)):
            with open(out / fname, "rb") as fh:
                tree[fname] = fh.read()
        outs.append(tree)
    assert outs[0].keys() == outs[1].keys()
    for fname in outs[0]:
        assert outs[0][fname] == outs[1][fname], fname
    print(
        f"\nACCEPTANCE 9 PASS determinism: two `all` runs byte-identical "
        f"across {len(outs[0])} output files"
    )
