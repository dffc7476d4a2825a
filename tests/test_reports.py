"""Bulk status reports against the per-event engine they replace.

``PerEventSimulation`` puts every report back on the queue as the send,
arrive and accept events the engine used to run: each tick schedules
the next, a tick while the node holds no controller waits for the
legacy rejoin, and an accept finds the binding state of that moment.
The bulk derivation must give the same latencies (same order, same
bits), the same accepted report times, the same records and the same
error.
"""
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leocp.config import load_config
from leocp.errors import BudgetExceeded, ConcurrentHandover, Unreachable
from leocp.orbits import GroundStation
from leocp.protocol import (
    REPORT_BUDGET,
    BindingState,
    ConstantLatency,
    DelayProfile,
    Simulation,
    SnapshotLatency,
    _tick_grid,
    node_visible,
    start_legacy,
    start_seamless,
)
from leocp.scenario import run_scenario
from leocp.topology import DistanceFields

DESK_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "desk.json")


class PerEventSimulation(Simulation):
    """The engine with status reports as queued events."""

    def start_reporting(self, duration):
        self.report_latencies = {sat: [] for sat in self.satellites}
        self.waiting = {sat: [] for sat in self.satellites}
        for sat in sorted(self.satellites):
            self.schedule(0.0, self._sender(sat, duration))

    def _sender(self, sat, duration):
        def send(t):
            if t + self.report_interval <= duration:
                self.schedule(t + self.report_interval, send)
            gs = self.controller(sat)
            if gs is None:
                self.waiting[sat].append(t)
                return
            leg = self._leg_s(("sat", sat), ("gs", gs), t)
            self.report_latencies[sat].append(leg * 1000.0)

            def arrive(t2):
                self.schedule(
                    t2 + self.delays.status_report_process,
                    lambda t3: self._accept_report(gs, sat, t3),
                )

            self.schedule(t + leg, arrive)

        return send

    def _set_controller(self, sat, gs, t, flush=False):
        super()._set_controller(sat, gs, t, flush)
        if flush:
            for tick in self.waiting[sat]:
                self.report_latencies[sat].append((t - tick) * 1000.0)
            self.waiting[sat].clear()


def replay(cls, case):
    """Run ``case`` on engine class ``cls``: the outcome, or the error."""
    sim = cls(
        controllers=[0, 1, 2],
        satellites=list(range(len(case["initial"]))),
        latency=case["latency"](),
        delays=case["delays"],
        report_interval=case["interval"],
        pods_per_sat=case["pods"],
    )
    for sat, gs in enumerate(case["initial"]):
        sim.bind_initial(sat, gs)
    if case["report_first"]:
        sim.start_reporting(case["duration"])
    start = start_legacy if case["legacy"] else start_seamless
    for sat, handovers in enumerate(case["handovers"]):
        for t, target in handovers:
            sim.schedule(t, lambda t, sat=sat, target=target: start(sim, sat, target, t))
    if not case["report_first"]:
        sim.start_reporting(case["duration"])
    try:
        sim.run()
    except (Unreachable, ConcurrentHandover) as exc:
        return {"error": (type(exc), str(exc))}
    return {
        "latencies": {s: np.asarray(v, dtype=float).tobytes() for s, v in sim.report_latencies.items()},
        "report_log": {k: np.asarray(v, dtype=float).tobytes() for k, v in sim.report_log.items()},
        "state_log": sim.state_log,
        "records": sim.records,
    }


def snapshot_latency(seed):
    """Fields every 4 s with whole-kilometre distances; some pairs are
    unreachable in some snapshots."""

    def build():
        rng = np.random.default_rng(seed)
        stations = [GroundStation(g, f"gs{g}", 0.0, 60.0 * g) for g in range(3)]
        d = []
        for _ in range(16):
            d.append(rng.integers(0, 3000, size=(3, 3)).astype(float))
            d[-1][rng.random((3, 3)) < 0.03] = np.inf
        return SnapshotLatency(DistanceFields([4.0 * i for i in range(16)], np.array(d)), stations)

    return build


INTEGER_DELAYS = st.builds(
    DelayProfile,
    **{
        name: st.sampled_from([0.0, 1.0, 2.0])
        for name in (
            "controller_process", "persist", "client_init", "status_report_process",
            "pod_stop", "pod_start", "drain_per_pod", "register", "legacy_cleanup",
        )
    },
    auth_roundtrips=st.integers(0, 2),
)


@st.composite
def cases(draw):
    n_sats = draw(st.integers(1, 3))
    duration = float(draw(st.integers(5, 60)))
    initial = [draw(st.integers(0, 2)) for _ in range(n_sats)]
    handovers = []
    for gs in initial:
        events, t = [], draw(st.integers(0, 10))
        while t <= duration and len(events) < 4:
            gs = draw(st.sampled_from([g for g in range(3) if g != gs]))
            events.append((float(t), gs))
            t += draw(st.integers(1, 25))
        handovers.append(events)
    ms = draw(st.sampled_from([0.0, 1.0, 25.0, 500.0, 1000.0]))
    latency = draw(
        st.one_of(
            st.just(lambda: ConstantLatency(ms)),
            st.integers(0, 2**16).map(snapshot_latency),
        )
    )
    return {
        "initial": initial,
        "handovers": handovers,
        "duration": duration,
        "interval": draw(st.sampled_from([0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 10.0])),
        "latency": latency,
        "delays": draw(st.one_of(st.just(DelayProfile.zero()), st.just(DelayProfile()), INTEGER_DELAYS)),
        "pods": draw(st.integers(1, 3)),
        "legacy": draw(st.booleans()),
        "report_first": draw(st.booleans()),
    }


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_bulk_reports_match_per_event_engine(case):
    assert replay(Simulation, case) == replay(PerEventSimulation, case)


def test_exact_ties_follow_push_order():
    # zero delays and latencies put accepts, ticks and every handover step
    # at whole seconds; the handover at t=2 (pushed after the first ticks)
    # must see the tick at t=2 first, as the queue would
    case = {
        "initial": [0, 1], "handovers": [[(2.0, 1)], [(2.0, 0), (4.0, 2)]], "duration": 6.0,
        "interval": 1.0, "latency": lambda: ConstantLatency(0.0), "delays": DelayProfile.zero(),
        "pods": 2, "legacy": True, "report_first": True,
    }
    got = replay(Simulation, case)
    assert "error" not in got
    assert got == replay(PerEventSimulation, case)


def test_step_queued_an_interval_early_fires_before_the_tick():
    # Legacy, zero latency, 1 s ticks. The pod stops at t=3 and is stopped
    # at t=5, queued before the tick at t=5 was; so the removal, queued in
    # turn, commits at t=6 before the t=5 report (accepted at 6) and the
    # report is refused.
    delays = DelayProfile(
        controller_process=0.0, persist=1.0, client_init=0.0, status_report_process=1.0,
        pod_stop=2.0, pod_start=0.0, drain_per_pod=0.0, register=0.0, legacy_cleanup=0.0,
        auth_roundtrips=0,
    )
    case = {
        "initial": [0], "handovers": [[(3.0, 1)]], "duration": 10.0, "interval": 1.0,
        "latency": lambda: ConstantLatency(0.0), "delays": delays, "pods": 1,
        "legacy": True, "report_first": True,
    }
    got = replay(Simulation, case)
    assert got == replay(PerEventSimulation, case)
    accepted = np.frombuffer(got["report_log"][(0, 0)]).tolist()
    assert accepted == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]  # bind at 0, then ticks 0-4


@pytest.mark.parametrize("report_first", [True, False])
def test_root_events_order_against_the_first_ticks(report_first):
    # a node bound by an event at t=0 misses the first tick iff that event
    # was queued after reporting started (a bind flushes no waiting report)
    def run(cls):
        sim = cls([0, 1], [0, 1], latency=ConstantLatency(5.0), report_interval=10.0)
        sim.bind_initial(0, 0)
        if report_first:
            sim.start_reporting(30.0)
        sim.schedule(0.0, lambda t: sim.bind_initial(1, 1, t))
        if not report_first:
            sim.start_reporting(30.0)
        sim.run()
        return {s: np.asarray(v, dtype=float).tolist() for s, v in sim.report_latencies.items()}

    got = run(Simulation)
    assert got == run(PerEventSimulation)
    assert len(got[1]) == (3 if report_first else 4)


def mid_run_bind(cls, bind_t, handover_t, interval, delays):
    """Sat 1 holds no controller until a ``bind_initial`` queued at
    ``bind_t`` (after reporting started), then rejoins gs 1 by a legacy
    handover at ``handover_t``."""
    sim = cls([0, 1], [0, 1], latency=ConstantLatency(5.0), delays=delays, report_interval=interval)
    sim.bind_initial(0, 0)
    sim.start_reporting(30.0)
    sim.schedule(bind_t, lambda t: sim.bind_initial(1, 0, t))
    sim.schedule(handover_t, lambda t: start_legacy(sim, 1, 1, t))
    sim.run()
    return {
        "latencies": {s: np.asarray(v, dtype=float).tolist() for s, v in sim.report_latencies.items()},
        "report_log": {k: np.asarray(v, dtype=float).tolist() for k, v in sim.report_log.items()},
        "records": sim.records,
    }


@pytest.mark.parametrize("delays", [DelayProfile.zero(), DelayProfile()], ids=["zero", "default"])
@pytest.mark.parametrize("interval", [1.0, 2.5])
@pytest.mark.parametrize("handover_t", [12.0, 20.0])
@pytest.mark.parametrize("bind_t", [0.0, 3.0, 7.5])
def test_ticks_before_a_mid_run_bind_wait_for_the_legacy_flush(bind_t, handover_t, interval, delays):
    # the bind flushes nothing: the ticks before it are recorded at the
    # rejoin's flush, after every tick reported while bound
    got = mid_run_bind(Simulation, bind_t, handover_t, interval, delays)
    assert got == mid_run_bind(PerEventSimulation, bind_t, handover_t, interval, delays)
    (rec,) = got["records"]
    reported = got["latencies"][1]
    assert reported[0] == 5.0  # tick 0 waited, so a bound tick comes first
    assert max(reported) > rec.t_start * 1000.0  # tick 0, recorded after the removal


@pytest.mark.parametrize(
    "pods,delays",
    [(0, {}), (1, {"pod_start": 0.0, "status_report_process": 5.0})],
    ids=["no-pods", "report-after-resync"],
)
def test_legacy_report_leg_ending_last_records_the_handover(pods, delays):
    # with no pods there is no resync; with instant pod starts and a slow
    # report accept, the resync ends first
    case = {
        "initial": [0], "handovers": [[(10.0, 1)]], "duration": 40.0, "interval": 10.0,
        "latency": lambda: ConstantLatency(0.4), "delays": DelayProfile(**delays), "pods": pods,
        "legacy": True, "report_first": True,
    }
    got = replay(Simulation, case)
    assert got == replay(PerEventSimulation, case)
    (rec,) = got["records"]
    accepted = np.frombuffer(got["report_log"][(1, 0)]).tolist()
    assert rec.t_end == accepted[0] == rec.t_start + rec.invisibility
    assert (rec.pod_unavailability > 0.0) == (pods > 0)


def unreachable_case(handover):
    """Sat 0 loses its path to gs 0 from the snapshot at t=30; with
    ``handover``, it first hands over to gs 1, unreachable from t=10."""
    stations = [GroundStation(g, f"gs{g}", 0.0, 90.0 * g) for g in range(3)]

    def build():
        d = np.full((7, 1, 3), 900.0)
        d[3:, 0, 0] = np.inf
        d[1:, 0, 1] = np.inf
        return SnapshotLatency(DistanceFields([10.0 * i for i in range(7)], d), stations)

    return {
        "initial": [0], "handovers": [[(12.0, 1)] if handover else []], "duration": 60.0,
        "interval": 10.0, "latency": build, "delays": DelayProfile(), "pods": 1,
        "legacy": False, "report_first": True,
    }


def test_unreachable_report_leg_raises_at_its_tick():
    # the snapshot at t=30 is nearest from t=25 on, so the tick at t=30 fails
    got = replay(Simulation, unreachable_case(handover=False))
    assert got == {"error": (Unreachable, "no path between ('sat', 0) and ('gs', 0) at t=30.0")}
    assert got == replay(PerEventSimulation, unreachable_case(handover=False))


def test_earlier_unreachable_handover_leg_wins():
    # the seamless handover's first leg to gs 1 (step 12) fails near t=12.5
    got = replay(Simulation, unreachable_case(handover=True))
    kind, message = got["error"]
    assert kind is Unreachable
    assert message.startswith("no path between ('sat', 0) and ('gs', 1) at t=12.")
    assert got == replay(PerEventSimulation, unreachable_case(handover=True))


def test_unreachable_report_before_a_failing_handover_wins():
    case = unreachable_case(handover=False)
    case["handovers"] = [[(40.0, 1)]]
    got = replay(Simulation, case)
    assert got == {"error": (Unreachable, "no path between ('sat', 0) and ('gs', 0) at t=30.0")}
    assert got == replay(PerEventSimulation, case)


# ---------------------------------------------------------------------------
# satellites that keep one controller, and the accepts that edge them


@pytest.mark.parametrize("legacy", [False, True], ids=["seamless", "legacy"])
def test_zero_latency_accept_on_the_entry_time_stays_general(legacy):
    # zero latency and delays put tick 0's accept at t=0, the time of every
    # bind entry: the push order ranks that tie
    case = {
        "initial": [0, 1], "handovers": [[(2.0, 1)], []], "duration": 6.0, "interval": 1.0,
        "latency": lambda: ConstantLatency(0.0), "delays": DelayProfile.zero(), "pods": 1,
        "legacy": legacy, "report_first": True,
    }
    got = replay(Simulation, case)
    assert got == replay(PerEventSimulation, case)
    assert np.frombuffer(got["report_log"][(1, 1)]).tolist() == [0.0] * 2 + [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def late_bind(cls, bind_t, delays):
    """Sat 1 holds no controller until a ``bind_initial`` queued at
    ``bind_t``, after reporting started, and keeps gs 1 from then on."""
    sim = cls([0, 1], [0, 1], latency=ConstantLatency(5.0), delays=delays, report_interval=2.5)
    sim.bind_initial(0, 0)
    sim.start_reporting(30.0)
    sim.schedule(bind_t, lambda t: sim.bind_initial(1, 1, t))
    sim.run()
    return {
        "latencies": {s: np.asarray(v, dtype=float).tolist() for s, v in sim.report_latencies.items()},
        "report_log": {k: np.asarray(v, dtype=float).tolist() for k, v in sim.report_log.items()},
        "state_log": sim.state_log,
    }


@pytest.mark.parametrize("delays", [DelayProfile.zero(), DelayProfile()], ids=["zero", "default"])
@pytest.mark.parametrize("bind_t,reported", [(0.0, 12), (3.0, 11), (10.0, 9)])
def test_single_entry_logged_after_the_first_tick(bind_t, reported, delays):
    # sat 1's one state entry comes after tick 0 (of 13), and the ticks
    # before it wait for a flush that never comes; sat 0 keeps gs 0 from
    # before the first tick
    got = late_bind(Simulation, bind_t, delays)
    assert got == late_bind(PerEventSimulation, bind_t, delays)
    assert got["state_log"][(1, 1)] == [(bind_t, BindingState.BOUND)]
    assert got["latencies"][1] == [5.0] * reported


@pytest.mark.parametrize("pods", [1, 3])
def test_satellite_keeping_its_controller_in_a_legacy_run(pods):
    # sat 1 never hands over while sats 0 and 2 drain and rejoin around it
    case = {
        "initial": [0, 1, 2], "handovers": [[(5.0, 1)], [], [(12.0, 0), (31.0, 1)]],
        "duration": 60.0, "interval": 10.0, "latency": lambda: ConstantLatency(25.0),
        "delays": DelayProfile(), "pods": pods, "legacy": True, "report_first": True,
    }
    got = replay(Simulation, case)
    assert got == replay(PerEventSimulation, case)
    assert np.frombuffer(got["latencies"][1]).tolist() == [25.0] * 7
    assert np.frombuffer(got["report_log"][(1, 1)]).tolist() == [0.0] + [
        10.0 * k + 0.025 + 1.1 for k in range(7)
    ]


def test_satellite_rebound_mid_run_stays_general():
    # a second bind_initial moves sat 0 to gs 1 without a handover: two
    # spans, and one state entry at each controller
    def run(cls):
        sim = cls([0, 1], [0], latency=ConstantLatency(5.0), report_interval=10.0)
        sim.bind_initial(0, 0)
        sim.start_reporting(60.0)
        sim.schedule(25.0, lambda t: sim.bind_initial(0, 1, t))
        sim.run()
        return {k: np.asarray(v, dtype=float).tolist() for k, v in sim.report_log.items()}

    got = run(Simulation)
    assert got == run(PerEventSimulation)
    assert got[(0, 0)] == [0.0] + [tick + 0.005 + 1.1 for tick in (0.0, 10.0, 20.0)]
    assert got[(1, 0)] == [25.0] + [tick + 0.005 + 1.1 for tick in (30.0, 40.0, 50.0, 60.0)]


def test_held_by_an_unmanaged_entry_stays_general():
    # sat 0's one entry at its controller is Released, so no report is
    # accepted; the protocols never log such an entry first
    def run(cls):
        sim = cls([0], [0], latency=ConstantLatency(5.0), report_interval=10.0)
        sim._log_state(0, 0, BindingState.RELEASED, 0.0)
        sim._set_controller(0, 0, 0.0)
        sim.start_reporting(30.0)
        sim.run()
        return sim.report_latencies, sim.report_log

    (latencies, report_log), (per_event, per_event_log) = run(Simulation), run(PerEventSimulation)
    assert latencies[0].tolist() == per_event[0] == [5.0] * 4
    assert report_log == per_event_log == {}


def test_accepts_out_of_tick_order_stay_general():
    # 2 ms ticks; the report leg drops from 10 ms to 1 ms at t=0.5, so the
    # tick after it is accepted before the tick at it
    stations = [GroundStation(g, f"gs{g}", 0.0, 60.0 * g) for g in range(3)]
    fields = DistanceFields([0.0, 1.0], np.array([np.full((1, 3), 3000.0), np.full((1, 3), 300.0)]))
    case = {
        "initial": [0], "handovers": [[]], "duration": 1.0, "interval": 0.002,
        "latency": lambda: SnapshotLatency(fields, stations), "delays": DelayProfile.zero(),
        "pods": 1, "legacy": False, "report_first": True,
    }
    got = replay(Simulation, case)
    assert got == replay(PerEventSimulation, case)
    ticks = _tick_grid(1.0, 0.002)
    legs_ms = SnapshotLatency(fields, stations).sat_gs_ms([0], np.zeros((1, len(ticks)), int), ticks)
    accepts = ticks + legs_ms[0] / 1000.0
    assert (np.diff(accepts) < 0).any()
    accepted = np.frombuffer(got["report_log"][(0, 0)])
    assert (np.diff(accepted) >= 0).all() and len(accepted) == len(ticks) + 1


def test_source_released_before_the_last_accept_stays_general():
    # A seamless handover starts after the last tick (t=20), so gs 0 holds
    # every tick; the tick's 100 ms report leg lands after the 1 km legs of
    # the handover have released gs 0, and its accept is refused.
    stations = [GroundStation(g, f"gs{g}", 0.0, 1.0 * g) for g in range(3)]
    d = np.full((4, 1, 3), 30000.0)
    d[3] = 1.0
    fields = DistanceFields([0.0, 10.0, 20.0, 20.02], d)
    case = {
        "initial": [0], "handovers": [[(20.015, 1)]], "duration": 20.0, "interval": 10.0,
        "latency": lambda: SnapshotLatency(fields, stations), "delays": DelayProfile.zero(),
        "pods": 1, "legacy": False, "report_first": True,
    }
    got = replay(Simulation, case)
    assert got == replay(PerEventSimulation, case)
    states = [state for _, state in got["state_log"][(0, 0)]]
    assert states[0] is BindingState.BOUND and states[-1] is BindingState.RELEASED
    accepted = np.frombuffer(got["report_log"][(0, 0)]).tolist()
    assert len(accepted) == 3 and accepted[-1] < 20.0  # bind, ticks 0 and 10


# ---------------------------------------------------------------------------
# accepts derived when the report log is first read


@pytest.mark.parametrize("read_between", [False, True])
@pytest.mark.parametrize("second", [start_seamless, start_legacy], ids=["seamless", "legacy"])
@pytest.mark.parametrize("second_t", [45.0, 100.0])
def test_run_after_a_reporting_run_appends_to_the_report_log(second_t, second, read_between):
    # Every report of the first run came before the second run, even where
    # the second handover starts before the first run's last tick: its
    # release of gs 1 after t=45 must not refuse the accepts of ticks 50, 60.
    def run(cls):
        sim = cls([0, 1], [0], latency=ConstantLatency(5.0), report_interval=10.0)
        sim.bind_initial(0, 0)
        sim.start_reporting(60.0)
        start_seamless(sim, 0, 1, 20.0)
        sim.run()
        if read_between:
            assert len(sim.report_log[(0, 0)]) == 4  # bind, then ticks 0-20
        second(sim, 0, 0, second_t)
        sim.run()
        return {
            "latencies": {s: np.asarray(v, dtype=float).tolist() for s, v in sim.report_latencies.items()},
            "report_log": {k: np.asarray(v, dtype=float).tolist() for k, v in sim.report_log.items()},
            "records": sim.records,
        }

    got = run(Simulation)
    assert got == run(PerEventSimulation)
    assert got["report_log"][(1, 0)][-2:] == [tick + 0.005 + 1.1 for tick in (50.0, 60.0)]
    assert got["report_log"][(0, 0)][-1] > second_t


def test_controller_change_after_a_reporting_run_keeps_its_accepts():
    # the change comes after every report of the run, though its rank is 0
    def run(cls):
        sim = cls([0, 1], [0], latency=ConstantLatency(5.0), report_interval=10.0)
        sim.bind_initial(0, 0)
        sim.start_reporting(30.0)
        sim.run()
        sim._set_controller(0, None, 5.0)
        return {k: np.asarray(v, dtype=float).tolist() for k, v in sim.report_log.items()}

    got = run(Simulation)
    assert got == run(PerEventSimulation)
    assert len(got[(0, 0)]) == 1 + 4


def test_a_second_reporting_run_keeps_the_first_runs_accepts():
    # nothing is logged between the runs; the log keeps each pair's times
    # in time order, where the per-event engine appends the second run's after
    def run(cls):
        sim = cls([0, 1], [0], latency=ConstantLatency(5.0), report_interval=10.0)
        sim.bind_initial(0, 0)
        for duration in (30.0, 20.0):
            sim.start_reporting(duration)
            sim.run()
        return sim.report_log

    got = run(Simulation)
    assert got == {k: sorted(v) for k, v in run(PerEventSimulation).items()}
    assert all(a <= b for v in got.values() for a, b in zip(v, v[1:]))
    assert len(got[(0, 0)]) == 1 + 4 + 3


def test_report_log_stays_in_time_order_across_runs():
    # the second handover's accepts come after every report of the first
    # run; the third's report at about 9.5 s comes before them
    def run(cls):
        sim = cls([0, 1], [0], latency=ConstantLatency(5.0), report_interval=10.0)
        sim.bind_initial(0, 0)
        sim.start_reporting(30.0)
        sim.run()
        for target, t in ((1, 5.0), (0, 8.0)):
            start_seamless(sim, 0, target, t)
            sim.run()
        return sim

    sim = run(Simulation)
    log = sim.report_log[(0, 0)]
    assert log == sorted(log) and len(log) == 6
    assert log == run(PerEventSimulation).report_log[(0, 0)]
    assert node_visible(sim, 0, 35.0)


def test_accepts_wait_for_the_first_read_of_the_report_log(monkeypatch):
    calls = []
    accepted = Simulation._accepted

    def spy(self, gs, sat, *args):
        calls.append((gs, sat))
        return accepted(self, gs, sat, *args)

    monkeypatch.setattr(Simulation, "_accepted", spy)
    result = run_scenario(replace(load_config(DESK_CONFIG), controllers=[0, 2]))
    assert calls == []
    assert sum(len(v) for v in result.report_latencies.values()) == 48 * 721

    def legacy(cls):
        sim = cls([0, 1, 2], [0, 1], latency=ConstantLatency(25.0), report_interval=10.0)
        sim.bind_initial(0, 0)
        sim.bind_initial(1, 1)
        sim.start_reporting(60.0)
        start_legacy(sim, 0, 2, 12.0)
        sim.run()
        return sim

    sim, per_event = legacy(Simulation), legacy(PerEventSimulation)
    assert calls == []
    assert sim.report_log == per_event.report_log
    assert sorted(calls) == [(0, 0), (1, 1), (2, 0)]
    assert {s: v.tolist() for s, v in sim.report_latencies.items()} == per_event.report_latencies


@pytest.mark.parametrize("interval", [0.1, 0.7, 1.0 / 3.0, 2.5, 10.0])
@pytest.mark.parametrize("duration", [0.0, 0.65, 59.9, 60.0, 7200.0])
def test_tick_grid_is_repeated_addition(interval, duration):
    expected, t = [0.0], 0.0
    while t + interval <= duration:
        t += interval
        expected.append(t)
    assert _tick_grid(duration, interval).tolist() == expected


def test_vector_snapshot_latency_matches_scalar_lookup():
    rng = np.random.default_rng(29)
    stations = [GroundStation(g, f"gs{g}", 10.0 * g, 40.0 * g) for g in range(4)]
    d = []
    for _ in range(9):
        d.append(rng.uniform(500.0, 20000.0, size=(6, 4)))
        d[-1][rng.random((6, 4)) < 0.1] = np.inf
    lat = SnapshotLatency(DistanceFields([60.0 * i for i in range(9)], np.array(d)), stations)
    times = np.concatenate([[-5.0, 0.0, 30.0, 29.999, 90.0], np.arange(0.0, 600.0, 7.5), [481.0, 900.0]])
    sats = [5, 0, 3]
    gs = rng.integers(0, 4, size=(len(sats), len(times)))
    got = lat.sat_gs_ms(sats, gs, times)
    expected = [
        [lat(("sat", s), ("gs", int(g)), t) for g, t in zip(row, times.tolist())]
        for s, row in zip(sats, gs)
    ]
    assert got.tobytes() == np.array(expected).tobytes()
    assert np.isinf(got).any()


def test_report_budget_refuses_before_any_work():
    sats = REPORT_BUDGET // 1000
    sim = Simulation([0], range(sats), latency=ConstantLatency(1.0), report_interval=1.0)
    with pytest.raises(BudgetExceeded, match="protocol.report_interval_s"):
        sim.start_reporting(1000.0)  # 1001 ticks each
    assert sim._ticks is None
    sim.start_reporting(999.0)  # exactly the budget
    assert len(sim._ticks) * sats == REPORT_BUDGET
