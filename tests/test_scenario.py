import numpy as np
import pytest

from leocp.assignment import AssignmentParams
from leocp.orbits import GroundStation, WalkerShell
from leocp.protocol import ConstantLatency, DelayProfile, Protocol
from leocp.scenario import ScenarioSpec, run_scenario


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
