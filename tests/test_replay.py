"""The bulk handover replay against the queue oracle.

``queue_handovers`` (tests/oracles.py) queues one start event per
switch, and the queue runs each handover as a generator, step by step.
``start_handovers`` followed by ``run`` must leave the same logs, ranks
included, the same records, requests, trace rows and report latencies,
or raise the same first error, without queueing a single event.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leocp.errors import BudgetExceeded, LeocpError, ProtocolViolation, Unreachable
from leocp.orbits import GroundStation
from leocp.protocol import (
    ConstantLatency,
    DelayProfile,
    Protocol,
    Simulation,
    SnapshotLatency,
    start_legacy,
)
from leocp.topology import DistanceFields

from oracles import QueueSimulation, queue_handovers


class CountingSimulation(Simulation):
    """Counts the events pushed through ``schedule``."""

    events = 0

    def schedule(self, t, fn):
        self.events += 1
        super().schedule(t, fn)


def snapshot_latency(seed, n_sats):
    """Fields every 4 s with whole-kilometre distances; rarely a pair is
    unreachable in a snapshot."""

    def build():
        rng = np.random.default_rng(seed)
        stations = [GroundStation(g, f"gs{g}", 0.0, 60.0 * g) for g in range(3)]
        d = rng.integers(0, 3000, size=(16, n_sats, 3)).astype(float)
        d[rng.random(d.shape) < 0.005] = np.inf
        return SnapshotLatency(DistanceFields([4.0 * i for i in range(16)], d), stations)

    return build


WHOLE_SECOND_DELAYS = st.builds(
    DelayProfile,
    **{
        name: st.sampled_from([0.0, 1.0, 2.0])
        for name in (
            "controller_process", "persist", "client_init", "status_report_process",
            "pod_stop", "pod_start", "drain_per_pod", "register", "legacy_cleanup",
        )
    },
    auth_roundtrips=st.integers(0, 3),
)


@st.composite
def batches(draw):
    n_sats = draw(st.integers(1, 4))
    initial = [draw(st.integers(0, 2)) for _ in range(n_sats)]
    schedules = {}
    for sat, gs in enumerate(initial):
        events, t = [], draw(st.integers(0, 10))
        for _ in range(draw(st.integers(0, 4))):
            gs = draw(st.sampled_from([g for g in range(3) if g != gs]))  # back to an earlier one too
            events.append((float(t), gs))
            t += draw(st.one_of(st.integers(0, 12), st.integers(12, 40)))
        schedules[sat] = events
    # one start_handovers call, or one per switch, each under its own protocol
    if draw(st.booleans()):
        calls = [(draw(st.sampled_from(Protocol)), schedules)]
    else:
        calls = [(draw(st.sampled_from(Protocol)), {sat: [(t, gs)]})
                 for sat in sorted(schedules) for t, gs in schedules[sat]]
    ms = draw(st.sampled_from([0.0, 25.0, 500.0, 1000.0]))
    delays = draw(st.one_of(st.just(DelayProfile.zero()), st.just(DelayProfile()), WHOLE_SECOND_DELAYS))
    return {
        "initial": initial,
        "calls": calls,
        "latency": draw(
            st.one_of(
                st.just(lambda: ConstantLatency(ms)),
                st.integers(0, 2**16).map(lambda seed: snapshot_latency(seed, n_sats)),
            )
        ),
        "delays": delays,
        # pods are named in string order: pod-0-10 drains before pod-0-2
        "pods": draw(st.sampled_from([0, 1, 2, 3, 11])),
        "duration": float(draw(st.integers(5, 80))),
        # whole-second steps tie with ticks on these grids
        "interval": draw(st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 10.0])),
        # reporting starts after this many calls, so the calls' contexts differ
        "calls_before_reports": draw(st.integers(0, len(calls))),
        "record_trace": draw(st.booleans()),
    }


def replay(case, bulk):
    """Run ``case`` through the bulk replay or the queue oracle: the
    outcome, or the error, and how many events went through the queue."""
    sim = (CountingSimulation if bulk else QueueSimulation)(
        controllers=[0, 1, 2],
        satellites=list(range(len(case["initial"]))),
        latency=case["latency"](),
        delays=case["delays"],
        report_interval=case["interval"],
        pods_per_sat=case["pods"],
        record_trace=case["record_trace"],
    )
    if bulk:
        sim.bind_all(dict(enumerate(case["initial"])))
    else:
        for sat, gs in enumerate(case["initial"]):
            sim.bind_initial(sat, gs)
    for k, (protocol, schedules) in enumerate(case["calls"]):
        if k == case["calls_before_reports"]:
            sim.start_reporting(case["duration"])
        if bulk:
            sim.start_handovers(protocol, schedules)
        else:
            queue_handovers(sim, protocol, schedules)
    if len(case["calls"]) == case["calls_before_reports"]:
        sim.start_reporting(case["duration"])
    try:
        sim.run()
    except LeocpError as exc:
        return {"error": (type(exc), str(exc))}, getattr(sim, "events", 0)
    return {
        "records": sorted(sim.records, key=lambda r: (r.t_start, r.sat_id)),
        "requests": [vars(r) for r in sim.requests],  # the oracle's requests are a subclass
        "trace": sim.trace,
        "latencies": {s: np.asarray(v).tobytes() for s, v in sim.report_latencies.items()},
        "report_log": {k: np.asarray(v).tobytes() for k, v in sim.report_log.items()},
        "state_log": sim.state_log,
        "state_pushed": sim._state_pushed,
        "controller_log": sim._controller_log,
    }, getattr(sim, "events", 0)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches())
def test_bulk_replay_matches_the_event_engine(case):
    got, queued = replay(case, bulk=True)
    expected, _ = replay(case, bulk=False)
    assert got == expected
    assert queued == 0  # every step was replayed in bulk, a failing batch's too


def test_step_budget_refuses_before_any_work(monkeypatch):
    monkeypatch.setattr("leocp.protocol.STEP_BUDGET", 63)
    sim = Simulation([0, 1], [0, 1], latency=ConstantLatency(1.0), pods_per_sat=2)
    sim.bind_all({0: 0, 1: 1})
    # legacy: 10 + 2 auth round trips + 5 + 4 per pod = 25 steps a handover
    with pytest.raises(BudgetExceeded, match="3 handovers x 25 steps = 75 handover steps, over the budget of 63"):
        sim.start_handovers(Protocol.LEGACY, {0: [(1.0, 1), (30.0, 0)], 1: [(2.0, 0)]})
    assert sim._batch is None and sim._queue == []
    sim.start_handovers(Protocol.SEAMLESS, {0: [(1.0, 1)], 1: [(2.0, 0), (30.0, 1)]})  # 48
    # the budget bounds the whole pending batch
    with pytest.raises(BudgetExceeded, match="3 handovers x 16 steps [+] 1 handovers x 25 steps = 73 "):
        sim.start_handovers(Protocol.LEGACY, {0: [(60.0, 0)]})
    sim.run()
    assert len(sim.records) == 3


def test_batch_beside_queued_events_is_refused():
    # the bulk replay cannot interleave its steps with other queued events
    sim = Simulation([0, 1], [0, 1], latency=ConstantLatency(5.0))
    sim.bind_all({0: 0, 1: 0})
    sim.start_handovers(Protocol.LEGACY, {0: [(10.0, 1)]})
    sim.schedule(10.0, lambda t: sim.bind_initial(1, 1, t))
    with pytest.raises(ProtocolViolation, match="cannot run beside events queued through schedule"):
        sim.run()
    assert sim.records == [] and (1, 1) not in sim.state_log


def test_negative_leg_is_refused_at_its_event():
    # the chains cannot follow a step that runs back in time; the first
    # leg, read when the first eviction is sent at t=5.5, is refused
    sim = Simulation([0, 1], [0], latency=ConstantLatency(-1.0))
    sim.bind_initial(0, 0)
    start_legacy(sim, 0, 1, 5.0)
    with pytest.raises(ProtocolViolation, match=r"negative latency -1.0 ms between \('gs', 0\) and \('sat', 0\) at t=5.5"):
        sim.run()


@pytest.mark.parametrize("protocol", Protocol)
def test_step_past_the_largest_float_is_unreachable(protocol):
    # a step whose time overflows stops the run as the queue's push did
    case = {
        "initial": [0], "calls": [(protocol, {0: [(1e308, 1)]})], "latency": lambda: ConstantLatency(5.0),
        "delays": DelayProfile(persist=1e308), "pods": 1, "duration": 20.0, "interval": 10.0,
        "calls_before_reports": 0, "record_trace": False,
    }
    got, queued = replay(case, bulk=True)
    assert got == {"error": (Unreachable, "event scheduled over an unreachable link")}
    assert got == replay(case, bulk=False)[0] and queued == 0
