"""The bulk handover replay against the event engine it stands in for.

``queue_handovers`` (tests/oracles.py) queues one start event per
switch, as scenarios did before the bulk replay; the engine then runs
each handover step by step. ``start_handovers`` followed by ``run`` must
leave the same logs, ranks included, the same records, requests and
report latencies, or raise the same first error.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leocp.errors import BudgetExceeded, LeocpError
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

from oracles import queue_handovers


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
    ms = draw(st.sampled_from([0.0, 25.0, 500.0, 1000.0]))
    delays = draw(st.one_of(st.just(DelayProfile.zero()), st.just(DelayProfile()), WHOLE_SECOND_DELAYS))
    return {
        "initial": initial,
        "schedules": schedules,
        "protocol": draw(st.sampled_from(Protocol)),
        "latency": draw(
            st.one_of(
                st.just(lambda: ConstantLatency(ms)),
                st.integers(0, 2**16).map(lambda seed: snapshot_latency(seed, n_sats)),
            )
        ),
        "delays": delays,
        "pods": draw(st.integers(0, 3)),
        "duration": float(draw(st.integers(5, 80))),
        # whole-second steps tie with ticks on these grids
        "interval": draw(st.sampled_from([0.5, 1.0, 2.0, 2.5, 3.0, 10.0])),
        "report_first": draw(st.booleans()),
    }


def replay(case, bulk):
    """Run ``case`` through the bulk replay or the queue: the outcome, or
    the error, and how many events went through the queue."""
    sim = CountingSimulation(
        controllers=[0, 1, 2],
        satellites=list(range(len(case["initial"]))),
        latency=case["latency"](),
        delays=case["delays"],
        report_interval=case["interval"],
        pods_per_sat=case["pods"],
    )
    if bulk:
        sim.bind_all(dict(enumerate(case["initial"])))
    else:
        for sat, gs in enumerate(case["initial"]):
            sim.bind_initial(sat, gs)
    if case["report_first"]:
        sim.start_reporting(case["duration"])
    if bulk:
        sim.start_handovers(case["protocol"], case["schedules"])
    else:
        queue_handovers(sim, case["protocol"], case["schedules"])
    if not case["report_first"]:
        sim.start_reporting(case["duration"])
    try:
        sim.run()
    except LeocpError as exc:
        return {"error": (type(exc), str(exc))}, sim.events
    return {
        "records": sorted(sim.records, key=lambda r: (r.t_start, r.sat_id)),
        "requests": sim.requests,
        "latencies": {s: np.asarray(v).tobytes() for s, v in sim.report_latencies.items()},
        "report_log": {k: np.asarray(v).tobytes() for k, v in sim.report_log.items()},
        "state_log": sim.state_log,
        "state_pushed": sim._state_pushed,
        "controller_log": sim._controller_log,
    }, sim.events


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches())
def test_bulk_replay_matches_the_event_engine(case):
    got, queued = replay(case, bulk=True)
    expected, _ = replay(case, bulk=False)
    assert got == expected
    if "error" not in got:
        assert queued == 0  # every step was replayed in bulk


def test_step_budget_refuses_before_any_work(monkeypatch):
    monkeypatch.setattr("leocp.protocol.STEP_BUDGET", 63)
    sim = Simulation([0, 1], [0, 1], latency=ConstantLatency(1.0), pods_per_sat=2)
    sim.bind_all({0: 0, 1: 1})
    # legacy: 10 + 2 auth round trips + 5 + 4 per pod = 25 steps a handover
    with pytest.raises(BudgetExceeded, match="3 handovers x 25 steps = 75 handover steps, over the budget of 63"):
        sim.start_handovers(Protocol.LEGACY, {0: [(1.0, 1), (30.0, 0)], 1: [(2.0, 0)]})
    assert sim._batch is None and sim._queue == []
    sim.start_handovers(Protocol.SEAMLESS, {0: [(1.0, 1)], 1: [(2.0, 0), (30.0, 1)]})  # 48
    sim.run()
    assert len(sim.records) == 3


def test_batch_queued_behind_other_events_keeps_its_place():
    # an event scheduled after the batch fires after it on a time tie
    def run(bulk):
        sim = Simulation([0, 1], [0, 1], latency=ConstantLatency(5.0))
        sim.bind_all({0: 0, 1: 0})
        sim.start_reporting(30.0)
        schedules = {0: [(10.0, 1)]}
        if bulk:
            sim.start_handovers(Protocol.LEGACY, schedules)
        else:
            queue_handovers(sim, Protocol.LEGACY, schedules)
        sim.schedule(10.0, lambda t: start_legacy(sim, 1, 1, t))
        sim.run()
        return sim.records, sim.state_log, sim._controller_log, sim.report_log

    assert run(bulk=True) == run(bulk=False)
