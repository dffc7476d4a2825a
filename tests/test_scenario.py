import numpy as np
import pytest

from leocp.assignment import AssignmentParams, HandoverSchedules
from leocp.errors import ConcurrentHandover, Unreachable
from leocp.orbits import GroundStation, WalkerShell
from leocp.protocol import ConstantLatency, DelayProfile, Protocol
from leocp.scenario import ScenarioSpec, run_scenario
from leocp.topology import DistanceFields
from oracles import switch_columns


def equatorial_flip_spec(protocol=Protocol.SEAMLESS, **kw):
    """One equatorial satellite against two antipodal equatorial stations;
    the nearest station flips twice per revolution."""
    shell = WalkerShell(1, 1, 0.0, 550.0)
    period = 5730.13
    stations = [
        GroundStation(0, "meridian", 0.0, 0.0),
        GroundStation(1, "antimeridian", 0.0, 180.0),
    ]
    return ScenarioSpec(
        shell=shell,
        stations=stations,
        controllers=[0, 1],
        duration_s=period,
        snapshot_dt_s=60.0,
        assignment=AssignmentParams(
            horizon_s=period, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0
        ),
        metric="geometric",
        protocol=protocol,
        latency_model=ConstantLatency(5.0),
        **kw,
    )


def test_one_revolution_two_handovers():
    result = run_scenario(equatorial_flip_spec())
    assert len(result.records) == 2
    assert [r.target_gs for r in result.records] == [1, 0]


def test_scenario_deterministic():
    a = run_scenario(equatorial_flip_spec())
    b = run_scenario(equatorial_flip_spec())
    assert a.records == b.records
    assert a.report_latencies.keys() == b.report_latencies.keys()
    for sat, lats in a.report_latencies.items():
        assert lats.dtype == np.float64
        assert lats.tobytes() == b.report_latencies[sat].tobytes()


def test_scenario_legacy_records_measure_downtime():
    result = run_scenario(equatorial_flip_spec(protocol=Protocol.LEGACY))
    assert len(result.records) == 2
    for r in result.records:
        assert r.protocol is Protocol.LEGACY
        assert r.invisibility > 0
        assert r.pod_unavailability > 0


def test_scenario_seamless_records_clean():
    result = run_scenario(equatorial_flip_spec())
    for r in result.records:
        assert r.protocol is Protocol.SEAMLESS
        assert r.invisibility == 0.0
        assert r.pod_unavailability == 0.0


def test_legacy_reports_queue_during_invisibility():
    # reports that fall inside the invisibility window wait for the rejoin,
    # so their recorded latency is far above the transmit latency
    result = run_scenario(equatorial_flip_spec(protocol=Protocol.LEGACY))
    lats = result.report_latencies[0]
    assert max(lats) > 100.0  # at least one queued report waited for the rejoin
    assert min(lats) == pytest.approx(5.0)


def test_seamless_reports_never_queue():
    result = run_scenario(equatorial_flip_spec())
    lats = result.report_latencies[0]
    assert max(lats) == pytest.approx(5.0)


def test_network_metric_schedules(desk_shell, desk_stations):
    spec = ScenarioSpec(
        shell=desk_shell,
        stations=desk_stations,
        controllers=[0, 2],
        duration_s=3600.0,
        snapshot_dt_s=60.0,
        min_elevation_deg=10.0,
        assignment=AssignmentParams(
            horizon_s=3600.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0
        ),
        metric="network",
    )
    result = run_scenario(spec)
    assert set(result.schedules) == set(range(48))
    for sched in result.schedules.values():
        assert sched.initial in (0, 2)


# ---------------------------------------------------------------------------
# the first error of a run that stops on two satellites


def two_failures(overlap_sat, unreachable_sat, switch_t, at_start):
    """Seamless, every delay 1 s and every leg 0 ms, so each step lands on
    a whole second and a handover started at t0 ends at t0 + 6.
    ``overlap_sat`` hands over at t=5 and again at ``switch_t``, in flight
    until t=11. ``unreachable_sat`` loses its path to one station from
    t=7.5 on: with ``at_start``, to its source, needed by the first leg of
    its handover at t=9; otherwise to its target, needed by the step-12
    leg that its handover at t=5 computes at t=9."""
    stations = [GroundStation(g, f"gs{g}", 0.0, 0.0) for g in range(3)]
    d = np.zeros((21, 2, 3))
    d[8:, unreachable_sat, 0 if at_start else 1] = np.inf
    spec = ScenarioSpec(
        shell=WalkerShell(1, 2, 0.0, 550.0),
        stations=stations,
        controllers=[0, 1, 2],
        duration_s=20.0,
        delays=DelayProfile(
            controller_process=1.0, persist=1.0, client_init=1.0, status_report_process=1.0
        ),
        report_interval_s=100.0,  # one tick, at t=0
    )
    schedules = HandoverSchedules([0, 0], *switch_columns({
        overlap_sat: [(5.0, 1), (switch_t, 2)],
        unreachable_sat: [(9.0 if at_start else 5.0, 1)],
    }))
    fields = DistanceFields([float(t) for t in range(21)], d)
    with pytest.raises((ConcurrentHandover, Unreachable)) as err:
        run_scenario(spec, built=(range(2), None, fields), schedules=schedules)
    return err.value


@pytest.mark.parametrize("overlap_sat,unreachable_sat", [(0, 1), (1, 0)])
@pytest.mark.parametrize("at_start", [False, True], ids=["mid-chain", "at-start"])
@pytest.mark.parametrize("switch_t", [8.0, 9.0, 10.0])
def test_first_error_in_queue_order_across_satellites(
    overlap_sat, unreachable_sat, switch_t, at_start
):
    # At a tie (t=9) every start event was queued before the run, so it
    # fires before any step the run queued, and two start events fire in
    # satellite order.
    error = two_failures(overlap_sat, unreachable_sat, switch_t, at_start)
    overlap_first = switch_t < 9.0 or (
        switch_t == 9.0 and (not at_start or overlap_sat < unreachable_sat)
    )
    if overlap_first:
        assert type(error) is ConcurrentHandover
        assert str(error) == f"handover already in flight for node {overlap_sat}"
    else:
        gs = 0 if at_start else 1
        assert type(error) is Unreachable
        assert str(error) == f"no path between ('sat', {unreachable_sat}) and ('gs', {gs}) at t=9.0"
