import bisect
import gc
import json
import math
import os

import numpy as np
import pytest

from leocp.errors import ConcurrentHandover, ProtocolViolation, Unreachable
from leocp.orbits import GroundStation
from leocp.protocol import (
    VISIBLE_STATES,
    BindingState,
    ConstantLatency,
    DelayProfile,
    Protocol,
    RequestStatus,
    Simulation,
    SnapshotLatency,
    node_visible,
    run_legacy_handover,
    run_seamless_handover,
    start_legacy,
    start_seamless,
)
from leocp.topology import DistanceFields

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def make_sim(one_way_ms=0.4, delays=None, sats=(0,), controllers=(0, 1), **kw):
    sim = Simulation(
        controllers=list(controllers),
        satellites=list(sats),
        latency=ConstantLatency(one_way_ms),
        delays=delays or DelayProfile(),
        **kw,
    )
    for s in sats:
        sim.bind_initial(s, controllers[0], t=0.0)
    return sim


# ---------------------------------------------------------------------------
# seamless


def test_seamless_zero_everything_zero_duration():
    sim = make_sim(one_way_ms=0.0, delays=DelayProfile.zero())
    rec = run_seamless_handover(sim, 0, 1, 0.0)
    assert rec.duration == 0.0
    assert rec.invisibility == 0.0
    assert rec.pod_unavailability == 0.0


def test_seamless_trace_matches_committed_fixture():
    with open(os.path.join(FIXTURES, "seamless_trace.json")) as fh:
        fixture = json.load(fh)
    sim = make_sim(
        one_way_ms=fixture["one_way_ms"], delays=DelayProfile.zero(), record_trace=True
    )
    rec = run_seamless_handover(sim, 0, 1, 0.0)
    assert rec.duration == pytest.approx(fixture["expected_duration_s"], abs=1e-12)
    got = [(ev["t"], ev["event"]) for ev in sim.trace]
    expected = [(ev["t"], ev["event"]) for ev in fixture["events"]]
    assert [e for _, e in got] == [e for _, e in expected]
    for (t_got, name), (t_exp, _) in zip(got, expected):
        assert t_got == pytest.approx(t_exp, abs=1e-12), name


def test_seamless_target_bound_before_source_released():
    sim = make_sim(one_way_ms=7.0)
    run_seamless_handover(sim, 0, 1, 5.0)
    source_log = sim.state_log[(0, 0)]
    target_log = sim.state_log[(1, 0)]
    t_bound = next(t for t, s in target_log if s is BindingState.BOUND)
    t_released = next(t for t, s in source_log if s is BindingState.RELEASED)
    assert t_bound < t_released


def test_seamless_request_status_monotone():
    sim = make_sim(one_way_ms=3.0)
    run_seamless_handover(sim, 0, 1, 0.0)
    req = sim.requests[0]
    ts = [req.timestamps[s.value] for s in
          (RequestStatus.CREATED, RequestStatus.PROCESSING, RequestStatus.FINISHED,
           RequestStatus.COMPLETED)]
    assert all(a < b for a, b in zip(ts, ts[1:]))
    assert req.status is RequestStatus.COMPLETED


def test_seamless_never_two_bound():
    sim = make_sim(one_way_ms=5.0)
    run_seamless_handover(sim, 0, 1, 0.0)
    # replay both state logs and check the Bound intervals never overlap
    events = []
    for gs in (0, 1):
        for t, state in sim.state_log.get((gs, 0), []):
            events.append((t, gs, state))
    events.sort(key=lambda e: e[0])
    bound = {0: False, 1: False}
    for t, gs, state in events:
        bound[gs] = state is BindingState.BOUND
        assert sum(bound.values()) <= 1 or not all(bound.values())
    # stronger: intervals from the logs
    def bound_intervals(gs):
        log = sim.state_log[(gs, 0)]
        spans, start = [], None
        for t, state in log:
            if state is BindingState.BOUND and start is None:
                start = t
            elif state is not BindingState.BOUND and start is not None:
                spans.append((start, t))
                start = None
        if start is not None:
            spans.append((start, math.inf))
        return spans

    for s0, e0 in bound_intervals(0):
        for s1, e1 in bound_intervals(1):
            assert e0 <= s1 or e1 <= s0


def test_seamless_pods_never_stop():
    sim = make_sim(one_way_ms=2.0, pods_per_sat=3, record_trace=True)
    run_seamless_handover(sim, 0, 1, 0.0)
    events = {row["event"] for row in sim.trace}
    assert "binding_bound" in events and "pod_stopping" not in events
    rec = sim.records[0]
    assert rec.pod_unavailability == 0.0


def test_seamless_duration_with_defaults():
    # processing delays plus seven 10 ms legs
    sim = make_sim(one_way_ms=10.0)
    rec = run_seamless_handover(sim, 0, 1, 0.0)
    d = DelayProfile()
    expected = (
        0.07
        + d.persist  # request creation commit
        + d.controller_process
        + d.persist  # sync persist at target
        + d.client_init
        + d.status_report_process
        + d.persist  # released commit
    )
    assert rec.duration == pytest.approx(expected, abs=1e-9)


def test_handover_to_self_rejected():
    sim = make_sim()
    with pytest.raises(ProtocolViolation):
        run_seamless_handover(sim, 0, 0, 0.0)


@pytest.mark.parametrize(
    "misuse,message",
    [
        (lambda sim: sim.bind_initial(0, 7), "gs 7 is not a controller"),
        (lambda sim: sim.bind_initial(9, 1), "node 9 is not a satellite"),
        (lambda sim: start_seamless(sim, 0, 7, 0.0), "gs 7 is not a controller"),
        (lambda sim: start_legacy(sim, 0, 7, 0.0), "gs 7 is not a controller"),
        (lambda sim: start_seamless(sim, 9, 1, 0.0), "node 9 is not a satellite"),
        (lambda sim: start_legacy(sim, 9, 1, 0.0), "node 9 is not a satellite"),
    ],
    ids=["bind-gs", "bind-sat", "seamless-gs", "legacy-gs", "seamless-sat", "legacy-sat"],
)
def test_unknown_ids_are_rejected_by_name(misuse, message):
    # controllers 0 and 1, satellite 0: each misuse is refused before it
    # logs anything or queues a step
    sim = make_sim()
    logs = (sim.state_log, sim._controller_log)
    before = [{key: list(entries) for key, entries in log.items()} for log in logs]
    with pytest.raises(ProtocolViolation, match=message):
        misuse(sim)
    assert list(logs) == before
    assert sim._queue == [] and sim._in_flight == set()


def test_concurrent_handover_rejected():
    sim = make_sim(one_way_ms=50.0, controllers=(0, 1, 2))
    start_seamless(sim, 0, 1, 0.0)
    with pytest.raises(ConcurrentHandover):
        start_seamless(sim, 0, 2, 0.0)


@pytest.mark.parametrize("start,at", [(start_seamless, 0.2), (start_legacy, 3.0)])
def test_overlapping_handover_is_concurrent_not_unbound(start, at):
    # mid-handover the source entry is no longer Bound (seamless: Releasing;
    # legacy: removed), so the in-flight check must come first
    sim = make_sim(controllers=(0, 1, 2))
    start(sim, 0, 1, 0.0)
    seen = []

    def second(t):
        seen.append(sim.binding(0, 0))
        start(sim, 0, 2, t)

    sim.schedule(at, second)
    with pytest.raises(ConcurrentHandover):
        sim.run()
    assert seen and seen[0] is not BindingState.BOUND


def test_illegal_transition_rejected():
    sim = make_sim()
    with pytest.raises(ProtocolViolation):
        sim._transition(0, 0, BindingState.BINDING, 0.0)  # Bound -> Binding


# ---------------------------------------------------------------------------
# legacy


def test_legacy_calibration_near_zero_rtt():
    sim = make_sim(one_way_ms=0.4)
    rec = run_legacy_handover(sim, 0, 1, 0.0)
    assert rec.duration == pytest.approx(8.35, rel=0.10)
    assert rec.invisibility == pytest.approx(4.5, rel=0.10)
    assert rec.pod_unavailability == pytest.approx(9.7, rel=0.10)


def test_legacy_zero_everything_zero_metrics():
    sim = make_sim(one_way_ms=0.0, delays=DelayProfile.zero())
    rec = run_legacy_handover(sim, 0, 1, 0.0)
    assert rec.duration == 0.0
    assert rec.invisibility == 0.0
    assert rec.pod_unavailability == 0.0


def test_legacy_metrics_positive_with_positive_delays():
    sim = make_sim(one_way_ms=0.1)
    rec = run_legacy_handover(sim, 0, 1, 0.0)
    assert rec.invisibility > 0.0
    assert rec.pod_unavailability > 0.0
    assert rec.duration >= rec.invisibility


def test_legacy_multi_pod_serial_drain():
    one = make_sim(one_way_ms=0.1, pods_per_sat=1)
    three = make_sim(one_way_ms=0.1, pods_per_sat=3)
    r1 = run_legacy_handover(one, 0, 1, 0.0)
    r3 = run_legacy_handover(three, 0, 1, 0.0)
    d = DelayProfile()
    extra = 2 * (d.drain_per_pod + d.pod_stop)
    assert r3.pod_unavailability == pytest.approx(
        r1.pod_unavailability + extra, abs=0.01
    )


def test_legacy_invisibility_window_matches_logs():
    sim = make_sim(one_way_ms=0.4)
    rec = run_legacy_handover(sim, 0, 1, 0.0)
    removed = next(t for t, s in sim.state_log[(0, 0)] if s is None)
    accepted = sim.report_log[(1, 0)][0]
    assert rec.invisibility == pytest.approx(accepted - removed, abs=1e-12)


# ---------------------------------------------------------------------------
# visibility


def test_node_visible_steady_state():
    sim = make_sim()
    sim.run()
    assert node_visible(sim, 0, 0.0)
    assert node_visible(sim, 0, sim.report_interval)  # within interval + grace


def test_node_visible_false_mid_legacy():
    sim = make_sim(one_way_ms=0.4)
    rec = run_legacy_handover(sim, 0, 1, 0.0)
    removed = next(t for t, s in sim.state_log[(0, 0)] if s is None)
    accepted = sim.report_log[(1, 0)][0]
    assert not node_visible(sim, 0, (removed + accepted) / 2.0)
    assert node_visible(sim, 0, accepted + 0.001)


def test_node_visible_throughout_seamless_at_10ms():
    sim = make_sim(one_way_ms=12.0)
    rec = run_seamless_handover(sim, 0, 1, 0.0)
    for t in np.arange(rec.t_start, rec.t_end + 0.01, 0.01):
        assert node_visible(sim, 0, float(t))


def visible_oracle(sim, sat, t):
    """``node_visible`` with the state log's times listed on every call."""
    window = sim.report_interval + sim.grace
    for gs in sim.controllers:
        log = sim.state_log.get((gs, sat))
        if not log:
            continue
        i = bisect.bisect_right([entry[0] for entry in log], t) - 1
        if i < 0 or log[i][1] not in VISIBLE_STATES:
            continue
        reports = sim.report_log.get((gs, sat), [])
        j = bisect.bisect_right(reports, t) - 1
        if j >= 0 and t - reports[j] <= window:
            return True
    return False


def test_node_visible_matches_time_list_oracle():
    sim = make_sim(one_way_ms=0.4, sats=(0, 1))
    sim.start_reporting(120.0)
    sim.schedule(30.0, lambda t: start_legacy(sim, 0, 1, t))
    sim.schedule(50.0, lambda t: start_seamless(sim, 1, 1, t))
    sim.run()
    logged = [t for log in sim.state_log.values() for t, _ in log]
    probes = sorted(set(np.arange(-1.0, 125.0, 0.05).tolist() + logged))
    for sat in (0, 1):
        answers = [node_visible(sim, sat, t) for t in probes]
        assert answers == [visible_oracle(sim, sat, t) for t in probes]
        assert not all(answers) and any(answers)


def test_runs_leave_no_reference_cycles():
    """A run with reports frees everything by reference counting alone,
    so when the cycle collector runs cannot move the peak memory."""

    def run_and_drop(start):
        sim = make_sim(sats=(0, 1), pods_per_sat=2)
        sim.start_reporting(120.0)
        for sat in (0, 1):
            sim.schedule(20.0 + sat, lambda t, sat=sat: start(sim, sat, 1, t))
        sim.run()
        assert all(len(lats) for lats in sim.report_latencies.values())

    run_and_drop(start_legacy)  # first calls into numpy may leave garbage of their own
    gc.collect()
    gc.disable()
    try:
        for start in (start_seamless, start_legacy):
            run_and_drop(start)
            assert gc.collect() == 0, start.__name__
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# latency models


def test_constant_latency_self_is_zero():
    lat = ConstantLatency(25.0)
    assert lat(("sat", 1), ("sat", 1), 0.0) == 0.0
    assert lat(("sat", 1), ("gs", 0), 0.0) == 25.0


def test_snapshot_latency_gsl_one_ms():
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 0.0, 180.0)]
    lat = SnapshotLatency(DistanceFields([0.0], np.array([[[299.792458, 1000.0]]])), stations)
    assert lat(("sat", 0), ("gs", 0), 0.0) == pytest.approx(1.0)


def test_snapshot_latency_antipodal_stations():
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 0.0, 180.0)]
    f = DistanceFields([0.0], np.array([[[1.0, 1.0]]]))
    lat = SnapshotLatency(f, stations, terrestrial_factor=2.0)
    # 2 * pi * R / c computed independently: 2 * 20015.09 km / 299.79 km/ms
    expected = 2.0 * math.pi * 6371.0 / 299.792458
    assert lat(("gs", 0), ("gs", 1), 0.0) == pytest.approx(expected, abs=0.01)
    assert expected == pytest.approx(133.5, abs=0.1)


def test_snapshot_latency_unreachable_is_inf():
    stations = [GroundStation(0, "a", 0.0, 0.0), GroundStation(1, "b", 0.0, 180.0)]
    lat = SnapshotLatency(DistanceFields([0.0], np.array([[[np.inf, 5.0]]])), stations)
    assert math.isinf(lat(("sat", 0), ("gs", 0), 0.0))
    sim = Simulation([0, 1], [0], latency=lat)
    sim.bind_initial(0, 0)
    with pytest.raises(Unreachable):
        run_seamless_handover(sim, 0, 1, 0.0)


def test_snapshot_latency_picks_nearest_in_time():
    stations = [GroundStation(0, "a", 0.0, 0.0)]
    fields = DistanceFields([0.0, 100.0], np.array([[[299.792458]], [[2.0 * 299.792458]]]))
    lat = SnapshotLatency(fields, stations)
    assert lat(("sat", 0), ("gs", 0), 10.0) == pytest.approx(1.0)
    assert lat(("sat", 0), ("gs", 0), 90.0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# determinism


def test_repeat_run_identical_records():
    def one_run():
        sim = make_sim(one_way_ms=6.0, controllers=(0, 1, 2), sats=(0, 1))
        sim.start_reporting(30.0)
        start_seamless(sim, 0, 1, 1.0)
        start_seamless(sim, 1, 2, 2.0)
        sim.run()
        return sim.records

    a, b = one_run(), one_run()
    assert a == b
