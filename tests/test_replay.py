"""The bulk handover replay against the queue oracle.

``queue_handovers`` (tests/oracles.py) queues one start event per
switch, and the queue runs each handover as a generator, step by step.
A case holds its switches per satellite; ``switch_columns`` turns them
into the columns both take.
``start_handovers`` followed by ``run`` must leave the same logs, ranks
included, the same records, requests, trace rows and report latencies,
or raise the same first error, without queueing a single event.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from leocp.assignment import AssignmentParams
from leocp.errors import BudgetExceeded, LeocpError, ProtocolViolation, Unreachable
from leocp.orbits import GroundStation
from leocp.protocol import (
    BindingState,
    ConstantLatency,
    DelayProfile,
    Protocol,
    Simulation,
    SnapshotLatency,
    _Event,
    _Lockstep,
    start_legacy,
)
from leocp.scenario import ScenarioSpec, run_scenario
from leocp.topology import DistanceFields

from oracles import QueueSimulation, queue_handovers, switch_columns


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
    outcome, or the error, and the simulation."""
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
        sim.bind_all(range(len(case["initial"])), case["initial"])
    else:
        for sat, gs in enumerate(case["initial"]):
            sim.bind_initial(sat, gs)
    for k, (protocol, schedules) in enumerate(case["calls"]):
        if k == case["calls_before_reports"]:
            sim.start_reporting(case["duration"])
        if bulk:
            sim.start_handovers(protocol, *switch_columns(schedules))
        else:
            queue_handovers(sim, protocol, *switch_columns(schedules))
    if len(case["calls"]) == case["calls_before_reports"]:
        sim.start_reporting(case["duration"])
    try:
        sim.run()
    except LeocpError as exc:
        return {"error": (type(exc), str(exc))}, sim
    return {
        "records": sorted(sim.records, key=lambda r: (r.t_start, r.sat_id)),
        "requests": [vars(r) for r in sim.requests],  # the oracle's requests are a subclass
        "trace": sim.trace,
        "latencies": {s: np.asarray(v).tobytes() for s, v in sim.report_latencies.items()},
        "report_log": {k: np.asarray(v).tobytes() for k, v in sim.report_log.items()},
        "state_log": sim.state_log,
        "state_pushed": sim._state_pushed,
        "controller_log": sim._controller_log,
    }, sim


def views(sim):
    """The simulation's dict-of-lists views of its logs."""
    return {
        "state_log": sim.state_log, "state_pushed": sim._state_pushed,
        "controller_log": sim._controller_log, "report_log": sim.report_log,
    }


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches())
def test_bulk_replay_matches_the_event_engine(case):
    got, bulk = replay(case, bulk=True)
    expected, oracle = replay(case, bulk=False)
    assert got == expected
    assert bulk.events == 0  # every step was replayed in bulk, a failing batch's too
    # the oracle logged the same rows into the columns and into plain dicts
    assert views(oracle) == oracle.plain


LOG_ROWS = st.lists(st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 3),
                              st.sampled_from([None, *BindingState])), max_size=12)


# (1, 0)'s and (0, 1)'s entries would share a key if pairs were numbered by the query's length
@example([(False, 1, 0, BindingState.BOUND), (True, 1, 0, None), (False, 0, 1, BindingState.RELEASED)], [0])
@settings(max_examples=300, deadline=None)
@given(LOG_ROWS, st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_held_controllers_read_from_the_columns_match_the_views(rows, query):
    # the start check of a batch reads the columns; binding and controller read the views
    sim = Simulation([0, 1, 2], [0, 1, 2, 3], latency=ConstantLatency(1.0))
    for change, gs, sat, state in rows:
        if change:
            sim._log(sim._changes, sat, 0, 0.0, gs if state else -1, False)
        else:
            sim._log(sim._states, gs, sat, 0.0, state, 0.0, 0)
    held, bound = sim._holding(np.array(query))
    expected = [sim.controller(sat) for sat in query]
    assert held.tolist() == [-1 if gs is None else gs for gs in expected]
    assert bound.tolist() == [
        gs is not None and sim.binding(gs, sat) is BindingState.BOUND for sat, gs in zip(query, expected)
    ]


def test_step_budget_refuses_before_any_work(monkeypatch):
    monkeypatch.setattr("leocp.protocol.STEP_BUDGET", 63)
    sim = Simulation([0, 1], [0, 1], latency=ConstantLatency(1.0), pods_per_sat=2)
    sim.bind_all([0, 1], [0, 1])
    # legacy: 10 + 2 auth round trips + 5 + 4 per pod = 25 steps a handover
    with pytest.raises(BudgetExceeded, match="3 handovers x 25 steps = 75 handover steps, over the budget of 63"):
        sim.start_handovers(Protocol.LEGACY, *switch_columns({0: [(1.0, 1), (30.0, 0)], 1: [(2.0, 0)]}))
    assert sim._batch is None and sim._queue == []
    sim.start_handovers(Protocol.SEAMLESS, *switch_columns({0: [(1.0, 1)], 1: [(2.0, 0), (30.0, 1)]}))  # 48
    # the budget bounds the whole pending batch
    with pytest.raises(BudgetExceeded, match="3 handovers x 16 steps [+] 1 handovers x 25 steps = 73 "):
        sim.start_handovers(Protocol.LEGACY, [0], [60.0], [0])
    sim.run()
    assert len(sim.records) == 3


def test_batch_beside_queued_events_is_refused():
    # the bulk replay cannot interleave its steps with other queued events
    sim = Simulation([0, 1], [0, 1], latency=ConstantLatency(5.0))
    sim.bind_all([0, 1], [0, 0])
    sim.start_handovers(Protocol.LEGACY, [0], [10.0], [1])
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
    got, bulk = replay(case, bulk=True)
    assert got == {"error": (Unreachable, "event scheduled over an unreachable link")}
    assert got == replay(case, bulk=False)[0] and bulk.events == 0


def start_then_satellite(records):
    return [(r.t_start, r.sat_id) for r in records]


@pytest.mark.parametrize(
    "protocols", [(Protocol.SEAMLESS,) * 2, (Protocol.LEGACY, Protocol.SEAMLESS)], ids=["seamless", "mixed"]
)
def test_records_are_in_start_then_satellite_order(protocols):
    # two calls whose start times interleave, against the satellite order;
    # a legacy record starts at its node's removal, after its switch time
    sim = Simulation([0, 1], range(5), latency=ConstantLatency(5.0))
    sim.bind_all(range(5), [0] * 5)
    sim.start_handovers(protocols[0], [0, 3, 4], [40.0, 10.0, 25.0], [1, 1, 1])
    sim.start_handovers(protocols[1], [1, 2], [30.0, 10.0], [1, 1])
    sim.run()
    got = start_then_satellite(sim.records)
    assert got == sorted(got) and len(got) == 5
    assert [sat for _, sat in got] != sorted(sat for _, sat in got)
    assert {r.protocol for r in sim.records} == set(protocols)


def test_scenario_records_are_the_simulations(desk_shell, desk_stations):
    spec = ScenarioSpec(
        shell=desk_shell, stations=desk_stations, controllers=[0, 1, 2, 3], duration_s=1200.0,
        snapshot_dt_s=60.0, metric="geometric", protocol=Protocol.LEGACY,
        assignment=AssignmentParams(horizon_s=1200.0, sample_dt_s=60.0, decide_dt_s=1.0, delta=1.0),
        latency_model=ConstantLatency(5.0),
    )
    result = run_scenario(spec)
    assert result.records is result.sim.records
    got = start_then_satellite(result.records)
    assert got == sorted(got) and [sat for _, sat in got] != sorted(sat for _, sat in got)


# (pusher's time, pusher's rank, event time, ranks with ticks at 0, 10, 20, 30
# and with reporting off)
RANK_CASES = [
    (5.0, 1, 20.0, 2, 0),  # at a tick the pusher fired before: the tick fires after
    (15.0, 2, 20.0, 3, 0),  # at a tick the pusher fired after: the tick fires first
    (-3.0, 0, -1.0, 0, 0),  # before the first tick
    (0.0, 0, 0.0, 1, 0),  # at the first tick, pushed after reporting started
    (0.0, -1, 0.0, 0, 0),  # at the first tick, pushed before reporting started
    (25.0, 2, 30.0, 3, 0),  # at the last tick, before it
    (30.0, 4, 30.0, 4, 0),  # at the last tick, after it
    (30.0, 4, 35.5, 4, 0),  # past the last tick
]


@pytest.mark.parametrize("reporting", [True, False], ids=["ticks", "off"])
def test_queue_and_bulk_rank_events_by_one_rule(reporting):
    pushers, ranks, times, with_ticks, off = zip(*RANK_CASES)
    expected = list(with_ticks if reporting else off)

    def simulation():
        sim = Simulation([0], [0], latency=ConstantLatency(5.0), report_interval=10.0)
        if reporting:
            sim.start_reporting(30.0)
        return sim

    sim, seen = simulation(), {}
    for i, (pusher, rank, t) in enumerate(zip(pushers, ranks, times)):
        sim._ctx = (pusher, rank, 0)  # as if pushed by an event of that time and rank
        sim.schedule(t, lambda t, i=i: seen.setdefault(i, sim._ctx[1]))
    sim.run()
    assert [seen[i] for i in range(len(RANK_CASES))] == expected
    assert all(type(rank) is int for rank in seen.values())

    n = len(RANK_CASES)
    ids = np.zeros(n, dtype=int)
    steps = _Lockstep(simulation(), Protocol.SEAMLESS, ids, ids, ids, ids, np.zeros(n), np.arange(n), False)
    pusher = _Event(np.array(pushers), np.array(ranks), (None, None, None), None, None, [])
    assert steps.at(pusher, np.array(times)).rank.tolist() == expected


def test_a_start_time_that_is_not_finite_is_refused_before_an_unknown_id():
    sim = Simulation([0, 1], [0, 1], latency=ConstantLatency(5.0))
    sim.bind_all([0, 1], [0, 0])
    with pytest.raises(Unreachable, match="event scheduled over an unreachable link"):
        sim.start_handovers(Protocol.SEAMLESS, [9, 1], [1.0, np.nan], [1, 1])
    assert sim._batch is None


@pytest.mark.parametrize(
    "sats,targets,message",
    [
        ([0, 9, 1], [1, 0, 7], "node 9 is not a satellite"),
        ([0, 1, 9], [1, 7, 0], "gs 7 is not a controller"),
        ([1, 9, 0], [1, 7, 1], "gs 7 is not a controller"),  # one switch with both: its controller
    ],
    ids=["sat-first", "gs-first", "both"],
)
def test_the_first_switch_in_column_order_with_an_unknown_id_is_named(sats, targets, message):
    sim = Simulation([0, 1], [0, 1], latency=ConstantLatency(5.0))
    sim.bind_all([0, 1], [0, 0])
    with pytest.raises(ProtocolViolation, match=message):
        sim.start_handovers(Protocol.LEGACY, sats, [1.0, 2.0, 3.0], targets)
    with pytest.raises(ProtocolViolation, match=message):
        Simulation([0, 1], [0, 1], latency=ConstantLatency(5.0)).bind_all(sats, targets)
    assert sim._batch is None


def logged(sim):
    """Every log's columns, values and dtypes."""
    return [(c.tolist(), c.dtype) for log in (sim._changes, sim._states, sim._accepts)
            for c in log.columns]


@pytest.mark.parametrize("empty", [[], np.array([])], ids=["list", "float-array"])
def test_an_empty_batch_is_a_no_op(empty):
    sim = Simulation([0, 1], [0, 1], latency=ConstantLatency(5.0))
    sim.bind_all([0, 1], [0, 0])
    before = logged(sim)
    sim.start_handovers(Protocol.LEGACY, empty, empty, empty)
    sim.run()
    assert logged(sim) == before and sim.records == [] and sim.requests == []

    # beside a switch, an empty float batch leaves the ids integers
    def run(*calls):
        sim = Simulation([0, 1], [0, 1], latency=ConstantLatency(5.0), record_trace=True)
        sim.bind_all([0, 1], [0, 0])
        sim.start_reporting(60.0)
        for protocol, *columns in calls:
            sim.start_handovers(protocol, *columns)
        sim.run()
        return logged(sim), sim.records, [vars(r) for r in sim.requests], sim.trace, sim.report_log

    switch = (Protocol.SEAMLESS, [1], [5.0], [1])
    alone = run(switch)
    assert run((Protocol.LEGACY, empty, empty, empty), switch) == alone
    assert run(switch, (Protocol.LEGACY, empty, empty, empty)) == alone
    assert all(type(r.sat_id) is int and type(r.target_gs) is int for r in alone[1])


class PairLatency(ConstantLatency):
    """One constant on satellite legs; station legs that differ by pair,
    each read logged."""

    def __init__(self):
        super().__init__(5.0)
        self.station_reads = []

    def __call__(self, a, b, t):
        if a[0] == b[0] == "gs":
            self.station_reads.append((a, b, t))
            return 100.0 * a[1] + 10.0 * b[1] + 0.5
        return super().__call__(a, b, t)


@pytest.mark.parametrize("kind,pods", [(Protocol.SEAMLESS, 1), (Protocol.LEGACY, 2)])
def test_station_legs_are_read_once_per_distinct_pair_per_step(kind, pods):
    # seamless reads source -> target at step 7 and back at step 8; legacy
    # with pods reads target -> source and back for the pod records
    initial, targets = [0, 1, 0, 2, 0, 1, 2], [1, 0, 1, 0, 2, 2, 0]
    sats = range(len(initial))
    latency = PairLatency()
    bulk = Simulation([0, 1, 2], sats, latency=latency, pods_per_sat=pods)
    bulk.bind_all(sats, initial)
    bulk.start_handovers(kind, sats, [1.0] * len(initial), targets)
    bulk.run()
    pairs = sorted(set(zip(initial, targets)))  # 5 distinct of 7
    reads = [(a[1], b[1]) for a, b, _ in latency.station_reads]
    assert sorted(reads) == sorted(pairs + [(b, a) for a, b in pairs])
    assert all(type(a[1]) is int and type(b[1]) is int and t == 0.0 for a, b, t in latency.station_reads)
    # the legs are those of one read per handover
    oracle = QueueSimulation([0, 1, 2], sats, latency=PairLatency(), pods_per_sat=pods)
    for sat, gs in zip(sats, initial):
        oracle.bind_initial(sat, gs)
    queue_handovers(oracle, kind, sats, [1.0] * len(initial), targets)
    oracle.run()
    assert bulk.records == sorted(oracle.records, key=lambda r: (r.t_start, r.sat_id))
