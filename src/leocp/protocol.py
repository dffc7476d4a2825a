"""Discrete-event simulation of controller handovers.

Two protocols are modeled. The seamless protocol walks a handover
request through creation, source-side release, record sync to the
target, client re-initialization, target binding, and final release
commit; the satellite stays registered with at least one controller
throughout and pods never stop. The legacy protocol drains the node,
removes it, and rejoins it at the target, which opens measurable
windows of node invisibility and pod downtime. A node runs one handover
at a time: a switch that starts while the node's handover is in flight
raises ``ConcurrentHandover``.

Each protocol is written once, as a fixed chain of steps
(``_seamless_chain``, ``_legacy_chain``) over which ``run`` replays a
``start_handovers`` batch in bulk: each step is ``t + delay`` or
``t + leg(t)``, one numpy operation over every handover of the batch
with the engine's float association, and each step is an event with
the time and rank the queue would give it and the event that pushed
it. Only when a batch records a trace or would stop on an error does
one ordering pass put those events in the queue's firing order, by
(time, push order), to emit the trace rows or to find the first error.

The engine is logically single-threaded: one priority queue ordered by
(time, sequence number), so identical inputs replay identical traces.
Periodic status reports never enter it: they depend on nothing but the
controller a satellite holds at each tick and the binding state at each
accept, so they are derived in bulk from each satellite's controller
log and the binding-state log. Once the handovers are done, the
latencies replay the queue's waiting list: a tick under a controller
records its latency at once, a tick while the node holds none waits,
and the legacy rejoin's flush records every waiting tick. The accepted
report times are derived only when ``report_log`` is first read, or
before anything else is logged. Every logged change carries enough of
its event's ancestry to place it against the report events the queue
would have held, so exact time ties resolve in the queue's push order.
"""
import bisect
import collections
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field as dc_field
from enum import Enum

import numpy as np

from .constants import EARTH_RADIUS_KM
from .errors import BudgetExceeded, ConcurrentHandover, LeocpError, ProtocolViolation, Unreachable
from .topology import distance_to_latency, nearest_field_index, nearest_field_indices

DEFAULT_REPORT_INTERVAL_S = 10.0
DEFAULT_TERRESTRIAL_FACTOR = 2.0

# Status reports one run may derive. Full-day Starlink needs 2,282,544;
# at the budget the report arrays and their aggregation stay within a
# few hundred MiB.
REPORT_BUDGET = 5_000_000
# Satellites whose reports are derived together: bounds the per-tick
# work arrays while sharing each snapshot lookup across the block.
_REPORT_BLOCK_SATS = 64
# Handover steps one batch may replay (queue events: a start, every
# step, seamless's two acks). Full-day legacy Starlink makes 936,306.
STEP_BUDGET = 10_000_000


class BindingState(Enum):
    BOUND = "Bound"
    BINDING = "Binding"
    RELEASING = "Releasing"
    RELEASED = "Released"


# states in which a controller manages the node and accepts its reports
VISIBLE_STATES = frozenset({BindingState.BOUND, BindingState.RELEASING, BindingState.BINDING})

_entry_time = operator.itemgetter(0)  # time of a (t, state) state-log entry


class RequestStatus(Enum):
    CREATED = "Created"
    PROCESSING = "Processing"
    FINISHED = "Finished"
    COMPLETED = "Completed"


@dataclass
class HandoverRequest:
    request_id: int
    node_id: int
    source_gs: int
    target_gs: int
    status: RequestStatus | None = None
    timestamps: dict = dc_field(default_factory=dict)


@dataclass
class DelayProfile:
    """Local processing delays, seconds. Defaults are calibrated so the
    legacy flow lands on the measured drain/rejoin overheads when all
    round trips stay under a millisecond."""

    controller_process: float = 0.1
    persist: float = 0.05
    client_init: float = 0.2
    status_report_process: float = 1.1
    pod_stop: float = 2.0
    pod_start: float = 4.0
    drain_per_pod: float = 0.5
    register: float = 1.2
    legacy_cleanup: float = 2.0
    auth_roundtrips: int = 2

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0 for v in vars(self).values()):
            raise ValueError("delays must be finite and non-negative")

    @classmethod
    def zero(cls):
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)


class Protocol(Enum):
    SEAMLESS = "seamless"
    LEGACY = "legacy"


@dataclass(frozen=True)
class HandoverRecord:
    sat_id: int
    source_gs: int
    target_gs: int
    t_start: float
    t_end: float
    duration: float
    invisibility: float
    pod_unavailability: float
    protocol: Protocol


# ---------------------------------------------------------------------------
# latency models


class ConstantLatency:
    """Uniform one-way latency between distinct endpoints, milliseconds."""

    def __init__(self, one_way_ms: float):
        self.one_way_ms = one_way_ms

    def __call__(self, a, b, t) -> float:
        return 0.0 if a == b else self.one_way_ms

    def sat_gs_ms(self, sats, gs, times):
        """``self(("sat", sats[i]), ("gs", gs[i, k]), t[i, k])`` as an
        array shaped like ``gs``, where ``t`` is ``times`` broadcast to
        that shape; entries where ``gs`` is negative are not defined."""
        return np.full(gs.shape, float(self.one_way_ms))


class SnapshotLatency:
    """Latency from the nearest-in-time snapshot of a ``DistanceFields``.

    Satellite-station legs read the shortest-path distance at the
    closest snapshot, in place in ``fields.d``; station-station legs use
    great-circle distance scaled by a terrestrial routing factor.
    """

    def __init__(self, fields, stations, terrestrial_factor=DEFAULT_TERRESTRIAL_FACTOR):
        self.fields = fields
        self._times = np.asarray(fields.times, dtype=float)
        self.factor = terrestrial_factor
        self._station_unit = {}
        for st in stations:
            lat = math.radians(st.latitude_deg)
            lon = math.radians(st.longitude_deg)
            self._station_unit[st.gs_id] = np.array(
                [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
            )

    def __call__(self, a, b, t) -> float:
        if a == b:
            return 0.0
        kind_a, id_a = a
        kind_b, id_b = b
        if kind_a == "gs" and kind_b == "gs":
            cosang = float(np.clip(np.dot(self._station_unit[id_a], self._station_unit[id_b]), -1.0, 1.0))
            km = EARTH_RADIUS_KM * math.acos(cosang) * self.factor
            return distance_to_latency(km)
        if kind_a == "sat" and kind_b == "sat":
            raise ValueError("satellite-to-satellite control traffic is not modeled")
        sat = id_a if kind_a == "sat" else id_b
        gs = id_b if kind_b == "gs" else id_a
        d = self.fields.d[nearest_field_index(self.fields.times, t), sat, gs]
        return distance_to_latency(d) if np.isfinite(d) else math.inf

    def sat_gs_ms(self, sats, gs, times):
        """``self(("sat", sats[i]), ("gs", gs[i, k]), t[i, k])`` as an
        array shaped like ``gs``, where ``t`` is ``times`` broadcast to
        that shape; entries where ``gs`` is negative are not defined. One
        gather reads every leg at its time's nearest snapshot."""
        nearest = nearest_field_indices(self._times, times)
        km = self.fields.d[nearest, np.asarray(sats)[:, None], gs]
        ms = distance_to_latency(km)
        ms[~np.isfinite(km)] = math.inf
        return ms


# ---------------------------------------------------------------------------
# simulation engine


def _no_path(a, b, t):
    return Unreachable(f"no path between {a} and {b} at t={t}")


def _tick_grid(duration, interval):
    """Report tick times: 0, then one ``interval`` added at a time while
    the sum stays within ``duration``, as each tick scheduled the next."""
    steps = np.full(max(math.floor(duration / interval), 0) + 2, float(interval))
    steps[0] = 0.0
    ticks = np.cumsum(steps)
    while ticks[-1] <= duration:  # rounding fit more ticks than the estimate
        ticks = np.append(ticks, ticks[-1] + interval)
    return ticks[: max(1, int(np.searchsorted(ticks, duration, side="right")))]


class Simulation:
    """Event engine whose per-node state is its logs: a node's binding
    state at a controller is the last entry of ``state_log`` (``binding``),
    and the controller it holds the last of its controller log (``controller``).

    ``latency`` has two methods, both giving one-way milliseconds
    (``math.inf`` where no path exists): ``latency(a, b, t)``, one leg,
    and ``sat_gs_ms(sats, gs, times)``, a block of satellite-station
    legs; ``ConstantLatency`` and ``SnapshotLatency`` do both. The bulk
    replay reads every satellite-station leg of a step through
    ``sat_gs_ms`` and every station-station leg at t = 0, so a
    model must give the same leg both ways and station legs that do not
    change with time.

    ``start_handovers`` starts a batch of handovers whose steps never
    enter the queue: ``run`` replays them in bulk, each with the time,
    rank and firing order the queue would give it, and leaves
    ``records`` in (t_start, satellite) order, not in the order the
    handovers end. ``schedule`` queues any other event; a batch does not
    run beside them.

    ``start_reporting`` turns on periodic status reports. They never
    enter the queue, but are derived in bulk exactly as per-event send,
    arrive and accept steps would have left them. When ``run`` drains
    the queue, ``report_latencies`` gets each satellite's latencies (ms)
    as a float64 array, in the order they were recorded. ``report_log``
    holds each (controller, satellite) pair's accepted report times, as
    a list in time order; the reports' accepts are merged into it on
    its first read after the run, or before the next change is logged.
    """

    def __init__(
        self,
        controllers,
        satellites,
        latency,
        delays: DelayProfile | None = None,
        report_interval: float = DEFAULT_REPORT_INTERVAL_S,
        grace: float | None = None,
        pods_per_sat: int = 1,
        record_trace: bool = False,
    ):
        self.delays = delays or DelayProfile()
        self.latency = latency
        self.report_interval = report_interval
        self.grace = report_interval if grace is None else grace
        self.controllers = frozenset(controllers)
        self.satellites = frozenset(satellites)
        self.pods_per_sat = pods_per_sat
        self._queue = []
        self._seq = itertools.count()
        self.records = []
        self.report_latencies = dict.fromkeys(satellites, np.empty(0))
        self._request_ids = itertools.count(1)
        self.requests = []
        self.trace = [] if record_trace else None
        # visibility bookkeeping: per (gs, sat) state transitions, in
        # event order, and accepted report times, in time order
        self.state_log = {}
        self._report_log = {}
        # report bookkeeping, in event order: per satellite its controller
        # changes as (rank, t, gs, flush); per (gs, sat) state-log entry
        # its pusher's time and the pusher's own pusher's rank
        self._controller_log = {}
        self._state_pushed = {}
        self._ticks = None  # report tick times, while reports are pending
        self._tick_list = []
        self._unaccepted = None  # tick times of a drained run, until its accepts are merged
        self._batch = None  # the calls of ``start_handovers``, until ``run``
        self._root = self._ctx = self._parent = (-math.inf, -1, -1)

    # -- engine ------------------------------------------------------------
    #
    # Every queued event carries the context (time, rank, pusher's rank)
    # of the event that pushed it. An event's rank is how many report
    # ticks of a satellite fire before it; all satellites tick on one
    # grid, so it is the same count for each. On a time tie the queue
    # fires first the event pushed first, which is the one whose pusher
    # fired first, so a rank follows from an event's time and its
    # pusher's rank. An event pushed from outside ``run`` has the root
    # context: it comes before every event pushed in a run, and before
    # the first ticks unless ``start_reporting`` came first.

    def schedule(self, t, fn):
        self._push(t, next(self._seq), fn, self._ctx)

    def _push(self, t, seq, fn, ctx):
        if not math.isfinite(t):
            raise Unreachable("event scheduled over an unreachable link")
        heapq.heappush(self._queue, (t, seq, fn, ctx))

    def start_handovers(self, protocol, schedules):
        """Start every switch of ``schedules`` (satellite -> its ``(t,
        target)`` switches) under ``protocol``: one start event per
        switch, satellite by satellite, pushed now, for ``run`` to replay.

        A second call before ``run`` extends the pending batch; each call
        keeps its own context and push order. Raises before any work:
        ``Unreachable`` for a start time that is not finite,
        ``ProtocolViolation`` for an unknown id, ``BudgetExceeded`` past
        ``STEP_BUDGET`` steps in the batch.
        """
        flat = [(sat, t, target) for sat in sorted(schedules) for t, target in schedules[sat]]
        if not all(math.isfinite(t) for _, t, _ in flat):
            raise Unreachable("event scheduled over an unreachable link")
        for sat, _, target in flat:
            self._check_ids(sat, target)
        parts = (self._batch or []) + [(protocol, flat)]
        steps_of = functools.partial(_steps_per_handover, pods=self.pods_per_sat,
                                     auth_roundtrips=self.delays.auth_roundtrips)
        terms = [(len(f), steps_of(p)) for p, f, *_ in parts]
        steps = sum(n * per for n, per in terms)
        if steps > STEP_BUDGET:
            counts = " + ".join(f"{n} handovers x {per} steps" for n, per in terms)
            raise BudgetExceeded(
                f"{counts} = {steps:,} handover steps, "
                f"over the budget of {STEP_BUDGET:,}; lower protocol.delays.auth_roundtrips "
                f"(now {self.delays.auth_roundtrips}) or protocol.pods_per_sat "
                f"(now {self.pods_per_sat})"
            )
        first = next(self._seq)  # the batch's events take the next sequence numbers
        self._seq = itertools.count(first + len(flat))
        self._batch = parts[:-1] + [(protocol, flat, first, self._ctx)]

    def run(self):
        """Replay the pending ``start_handovers`` batch in bulk, or fire
        every queued event, then derive the report latencies, if
        reporting is on; the accepts wait for ``report_log``.

        Raises the error the queue would stop on first, unless a report
        sent before the failing event went over an unreachable link. A
        batch beside events queued through ``schedule`` raises
        ``ProtocolViolation`` before any work.
        """
        batch, self._batch = self._batch, None
        queue = self._queue
        if batch is not None and queue:
            raise ProtocolViolation(
                "a start_handovers batch cannot run beside events queued through schedule"
            )
        try:
            if batch is not None:
                _replay(self, batch)
            while queue:
                t, _, fn, parent = heapq.heappop(queue)
                self._parent = parent
                self._ctx = (t, self._rank(t, parent[1]), parent[1])
                fn(t)
        except LeocpError:
            # a report over an unreachable link that fired before the
            # failing event would have stopped the run first
            first = None if self._ticks is None else self._derive_reports(limit=self._ctx[1])
            if first is not None:
                raise first from None
            raise
        finally:
            self._ctx = self._parent = self._root
        if self._ticks is not None:
            first = self._derive_reports()
            self._settle_accepts()  # an earlier run's, before this run's
            ticks, self._ticks, self._tick_list = self._ticks, None, []
            if first is not None:
                raise first
            self._unaccepted = ticks

    def _rank(self, t, pusher_rank):
        """Report ticks before an event at ``t`` pushed by an event of
        rank ``pusher_rank``: every earlier tick, and a tick at ``t``
        itself iff the tick before it fired before the pusher."""
        ticks = self._tick_list
        k = bisect.bisect_left(ticks, t)
        if k < len(ticks) and ticks[k] == t and pusher_rank >= k:
            k += 1
        return k

    # -- logs --------------------------------------------------------------

    @property
    def report_log(self):
        """(controller, satellite) -> accepted report times, in time order."""
        self._settle_accepts()
        return self._report_log

    def binding(self, gs, sat):
        """``sat``'s binding state at ``gs``: the last one logged, or None
        if ``gs`` holds no entry for it."""
        log = self.state_log.get((gs, sat))
        return log[-1][1] if log else None

    def controller(self, sat):
        """The controller ``sat`` holds now, or None."""
        log = self._controller_log.get(sat)
        return log[-1][2] if log else None

    def bind_initial(self, sat, gs, t=0.0):
        """Bootstrap registration: entry is Bound with a synchronous
        initial status, as if the node joined before the scenario."""
        self.bind_all({sat: gs}, t)

    def bind_all(self, initial, t=0.0):
        """``bind_initial(sat, gs, t)`` for each ``sat: gs`` of ``initial``,
        in order."""
        self._settle_accepts()
        entry, pushed = (t, BindingState.BOUND), (self._parent[0], self._parent[2])
        rank = self._ctx[1]
        for sat, gs in initial.items():
            self._check_ids(sat, gs)
            self.state_log.setdefault((gs, sat), []).append(entry)
            self._state_pushed.setdefault((gs, sat), []).append(pushed)
            self._controller_log.setdefault(sat, []).append((rank, t, gs, False))
            bisect.insort(self._report_log.setdefault((gs, sat), []), t)

    def _check_ids(self, sat, gs):
        if gs not in self.controllers:
            raise ProtocolViolation(f"gs {gs} is not a controller of this simulation")
        if sat not in self.satellites:
            raise ProtocolViolation(f"node {sat} is not a satellite of this simulation")

    # -- periodic status reports --------------------------------------------

    def start_reporting(self, duration):
        """Turn on status reports: every satellite reports at t = 0, then
        each ``report_interval`` (added tick by tick) up to ``duration``.

        A report goes to the controller the node holds at its tick and
        is accepted ``status_report_process`` after it arrives if that
        controller still manages the node; a tick while the node holds
        none waits for the legacy rejoin. Raises ``BudgetExceeded``,
        before any work, past ``REPORT_BUDGET`` reports.
        """
        per_sat = max(math.floor(duration / self.report_interval), 0) + 1
        reports = len(self.satellites) * per_sat
        if reports > REPORT_BUDGET:
            raise BudgetExceeded(
                f"{len(self.satellites)} satellites x {per_sat} ticks = {reports} status "
                f"reports, over the budget of {REPORT_BUDGET}; raise "
                f"protocol.report_interval_s (now {self.report_interval})"
            )
        self._ticks = _tick_grid(duration, self.report_interval)
        self._tick_list = self._ticks.tolist()
        # the first ticks count as pushed now, after every event so far
        self._root = self._ctx = self._parent = (-math.inf, 0, 0)

    def _blocks(self, ticks):
        """Per block of satellites: the first one's position, the block,
        each satellite's spans over ``ticks``, the controller it holds at
        each tick (-1: none) and the report legs to it (ms)."""
        sats = sorted(self.satellites)
        for lo in range(0, len(sats), _REPORT_BLOCK_SATS):
            block = sats[lo : lo + _REPORT_BLOCK_SATS]
            spans = [_spans(self._controller_log.get(s, ()), len(ticks)) for s in block]
            held = np.full((len(block), len(ticks)), -1)
            for row, sat_spans in zip(held, spans):
                for gs, a, b, _ in sat_spans:
                    if gs is not None:
                        row[a:b] = gs
            yield lo, block, spans, held, self.latency.sat_gs_ms(block, held, ticks)

    def _derive_reports(self, limit=None):
        """Record every satellite's report latencies, then return the
        ``Unreachable`` error of the first report (by tick, then
        satellite) sent over an unreachable link, or None. With
        ``limit``, only look for that error among the first ``limit``
        ticks."""
        ticks = self._ticks[:limit]
        first = None  # (tick, satellite position, error)
        for lo, block, spans, held, ms in self._blocks(ticks):
            bad = (held >= 0) & ~np.isfinite(ms)
            if bad.any():
                k, i = np.argwhere(bad.T)[0].tolist()
                if first is None or (k, lo + i) < first[:2]:
                    gs = int(held[i, k])
                    first = (k, lo + i, _no_path(("sat", block[i]), ("gs", gs), ticks[k].item()))
            elif limit is None:
                for sat, sat_spans, row in zip(block, spans, ms):
                    self.report_latencies[sat] = _recorded(sat_spans, row, ticks)
        return None if first is None else first[2]

    def _settle_accepts(self):
        """Merge the accepts of the drained reporting run, if any are
        pending, into the report log: a report is accepted if its
        controller's entry for the node is managed at its accept."""
        ticks, self._unaccepted = self._unaccepted, None
        if ticks is None:
            return
        accepted = {}
        for _, block, spans, _, ms in self._blocks(ticks):
            arrive = ticks + ms / 1000.0
            accept = arrive + self.delays.status_report_process
            for i, sat in enumerate(block):
                for gs, lo, hi, _ in spans[i]:
                    if gs is not None:
                        times = self._accepted(gs, sat, lo, arrive[i, lo:hi], accept[i, lo:hi])
                        accepted.setdefault((gs, sat), []).append(times)
        for key, times in accepted.items():
            merged = np.sort(np.concatenate([self._report_log.get(key, [])] + times))
            if merged.size:
                self._report_log[key] = merged.tolist()

    def _accepted(self, gs, sat, k0, arrive, accept):
        """The accept times (of ticks k0, k0 + 1, ...) that find ``sat``'s
        entry at ``gs`` in a managed state."""
        log = self.state_log.get((gs, sat), ())
        state_t = np.array([t for t, _ in log])
        managed = np.array([state in VISIBLE_STATES for _, state in log] + [False])
        lo = np.searchsorted(state_t, accept, side="left")
        hi = np.searchsorted(state_t, accept, side="right")
        at = lo - 1
        pushed = self._state_pushed.get((gs, sat), ())
        for p in np.flatnonzero(hi > lo).tolist():
            # an entry logged at the accept's own time came first iff it
            # was pushed first: its pusher fired before the report's
            # arrive, or with it, while its own pusher fired before the tick
            v, k = arrive[p], k0 + p
            at[p] += sum(tp < v or (tp == v and gpp <= k) for tp, gpp in pushed[lo[p] : hi[p]])
        return accept[managed[at]]


def _recorded(spans, ms, ticks):
    """A satellite's report latencies, replaying the queue's waiting list
    span by span: a held span records its legs ``ms`` at once, and a
    flush records every tick left waiting by the unheld spans before it."""
    recorded, waiting = [], []
    for gs, lo, hi, flush in spans:
        if gs is None:
            waiting.append(ticks[lo:hi])
        else:
            recorded.append(ms[lo:hi] / 1000.0 * 1000.0)
        if flush is not None:
            recorded += [(flush - w) * 1000.0 for w in waiting]
            waiting = []
    return recorded[0] if len(recorded) == 1 else np.concatenate([np.empty(0)] + recorded)


def _spans(log, n):
    """Split ticks ``0..n-1`` along a satellite's controller log into
    (gs, lo, hi, flush) spans: ticks ``lo..hi-1`` held by ``gs`` (None:
    no controller), then the time of the flush that closes the span, or
    None. An entry of rank r governs the ticks from r on; an empty span
    is kept only if it flushes."""
    spans, gs, lo = [], None, 0
    for rank, t, held, flush in log:
        start = min(max(rank, 0), n)
        if lo < start or flush:
            spans.append((gs, lo, max(lo, start), t if flush else None))
        gs, lo = held, max(lo, start)
    if lo < n:
        spans.append((gs, lo, n, None))
    return spans


def node_visible(sim: Simulation, sat: int, t: float) -> bool:
    """True iff some controller currently holds the node in a managed
    state with a sufficiently recent accepted status report."""
    window = sim.report_interval + sim.grace
    for gs in sim.controllers:
        log = sim.state_log.get((gs, sat))
        if not log:
            continue
        i = bisect.bisect_right(log, t, key=_entry_time) - 1
        if i < 0 or log[i][1] not in VISIBLE_STATES:
            continue
        reports = sim.report_log.get((gs, sat), [])
        j = bisect.bisect_right(reports, t) - 1
        if j >= 0 and t - reports[j] <= window:
            return True
    return False


# ---------------------------------------------------------------------------
# handover protocols, one handover at a time


def start_seamless(sim: Simulation, sat: int, target_gs: int, t0: float):
    """Start a seamless handover of ``sat`` to ``target_gs`` at ``t0``: a
    one-handover ``start_handovers`` batch."""
    sim.start_handovers(Protocol.SEAMLESS, {sat: [(t0, target_gs)]})


def start_legacy(sim: Simulation, sat: int, target_gs: int, t0: float):
    """Start a drain-and-rejoin handover of ``sat`` to ``target_gs`` at
    ``t0``: a one-handover ``start_handovers`` batch."""
    sim.start_handovers(Protocol.LEGACY, {sat: [(t0, target_gs)]})


def run_seamless_handover(sim: Simulation, sat: int, target_gs: int, t0: float) -> HandoverRecord:
    """Execute one seamless handover to completion and return its record."""
    start_seamless(sim, sat, target_gs, t0)
    sim.run()
    return sim.records[-1]


def run_legacy_handover(sim: Simulation, sat: int, target_gs: int, t0: float) -> HandoverRecord:
    """Execute one drain-and-rejoin handover and return its record."""
    start_legacy(sim, sat, target_gs, t0)
    sim.run()
    return sim.records[-1]


# ---------------------------------------------------------------------------
# bulk replay: a batch's handovers stepped together, one numpy operation
# over every handover per protocol step


def _steps_per_handover(protocol, pods, auth_roundtrips):
    """Queue events of one handover: its start, every step, and seamless's
    two acks."""
    if protocol is Protocol.SEAMLESS:
        return 16
    return 10 + auth_roundtrips + (5 + 4 * pods if pods > 0 else 0)


# an event of every handover: its times, ranks (None: it pushes nothing),
# the context of the event that pushed it, (time, rank, its pusher's rank)
# as ``Simulation._parent``, its id (its position in ``_Lockstep.events``
# when kept), its pusher's, and the trace rows it emits when it fires
_Event = collections.namedtuple("_Event", "t rank parent id pusher rows")
# what a protocol's chain logs: binding entries (gs, event, state), controller
# changes (event, gs, flush), accept times at the target, the record's
# (t_start, t_end, invisibility, pod_unavailability), the request statuses
_Outcome = collections.namedtuple("_Outcome", "states changes accepts record statuses")


class _Lockstep:
    """Steps over a batch's handovers of protocol ``kind`` (``index``:
    their positions in the batch). Each event gets the rank the queue
    would give it, and with ``keep`` is kept in ``events`` for the
    firing order. ``fails`` collects what would stop the queue, in the
    order each event meets it, as (id of the event, handovers, error of
    handover h)."""

    def __init__(self, sim, kind, index, sats, src, tgt, t0, seq, keep):
        self.sim, self.kind, self.index = sim, kind, index
        self.sats, self.src, self.tgt, self.t0, self.seq = sats, src, tgt, t0, seq
        self.ticks = np.empty(0) if sim._ticks is None else sim._ticks
        self._tick_at = np.append(self.ticks, math.inf)
        self.events, self.fails, self._ids = [] if keep else None, [], itertools.count()

    def at(self, ev, t, *rows):
        """The events at times ``t`` that ``ev`` pushes (``Simulation._rank``)."""
        k = np.searchsorted(self.ticks, t)
        return self._push(ev, t, k + ((self._tick_at[k] == t) & (ev.rank >= k)), rows)

    def leaf(self, ev, t, *rows):
        """The events at times ``t`` that ``ev`` pushes and that push none."""
        return self._push(ev, t, None, rows)

    def _push(self, ev, t, rank, rows):
        bad = ~np.isfinite(t)
        if bad.any():
            error = Unreachable("event scheduled over an unreachable link")
            self.fails.append((ev.id, bad, lambda h: error))
        e = _Event(t, rank, (ev.t, ev.rank, ev.parent[1]), next(self._ids), ev.id, list(rows))
        if self.events is not None:
            self.events.append(e)
        return e

    def sat_s(self, ev, gs, up):
        """Seconds of each satellite's leg up to (``up``) or down from its
        station ``gs``, read when ``ev`` fires."""
        ms = self.sim.latency.sat_gs_ms(self.sats, gs[:, None], ev.t[:, None])[:, 0]
        ends = [("sat", self.sats), ("gs", gs)]
        return self._checked(ev, ms, *(ends if up else ends[::-1]))

    def gs_s(self, ev, a, b):
        """Seconds from station ``a`` to ``b``; station legs do not depend on time."""
        pairs = list(zip(a.tolist(), b.tolist()))
        ms = {p: self.sim.latency(("gs", p[0]), ("gs", p[1]), 0.0) for p in set(pairs)}
        ms = np.array([ms[p] for p in pairs], dtype=float)
        return self._checked(ev, ms, ("gs", a), ("gs", b))

    def _checked(self, ev, ms, a, b):
        bad = ~(np.isfinite(ms) & (ms >= 0.0))
        if bad.any():
            self.fails.append((ev.id, bad, functools.partial(_leg_error, a, b, ev.t, ms)))
        return ms / 1000.0


def _leg_error(a, b, t, ms, h):
    """The error of handover ``h``'s leg from endpoint ``a`` to ``b`` (a
    kind and ids) read at ``t``: no path, or a negative latency."""
    a, b, t, ms = (a[0], a[1][h].item()), (b[0], b[1][h].item()), t[h].item(), ms[h].item()
    if math.isfinite(ms):
        return ProtocolViolation(f"negative latency {ms} ms between {a} and {b} at t={t}")
    return _no_path(a, b, t)


def _seamless_chain(steps, d, e, _pods):
    src, tgt = steps.src, steps.tgt
    e = steps.at(e, steps.t0, "daemon_submit")
    e = steps.at(e, e.t + steps.sat_s(e, src, up=True))  # steps 1-4
    e = created = steps.at(e, e.t + d.persist, "request_created@src")
    steps.leaf(e, e.t + steps.sat_s(e, src, up=False), "create_ack")
    e = releasing = steps.at(
        e, e.t + d.controller_process, "hr_processing@src", "binding_releasing@src"
    )  # steps 5-6
    e = steps.at(e, e.t + steps.gs_s(e, src, tgt), "sync_arrived@tgt")  # step 7
    e = synced = steps.at(e, e.t + d.persist, "sync_persisted@tgt")
    e = finished = steps.at(e, e.t + steps.gs_s(e, tgt, src), "status_finished@src")  # step 8
    e = steps.at(e, e.t + steps.sat_s(e, src, up=False), "watch_finished")  # step 9
    e = steps.at(e, e.t + d.client_init, "client_ready")  # steps 10-11
    e = steps.at(e, e.t + steps.sat_s(e, tgt, up=True), "report_arrived@tgt")  # step 12
    e = bound = steps.at(
        e, e.t + d.status_report_process, "binding_binding@tgt", "binding_bound@tgt"
    )  # step 13
    e = switched = steps.at(e, e.t + steps.sat_s(e, tgt, up=False), "bound_ack")  # step 14
    e = steps.at(e, e.t + steps.sat_s(e, src, up=True), "released_arrived@src")  # step 15
    done = steps.at(e, e.t + d.persist, "released_commit@src", "status_completed@src")  # 16-17
    steps.leaf(done, done.t + steps.sat_s(done, src, up=False), "released_ack")
    lag = bound.t - done.t
    return _Outcome(
        [(src, releasing, BindingState.RELEASING), (tgt, synced, BindingState.RELEASED),
         (tgt, bound, BindingState.BINDING), (tgt, bound, BindingState.BOUND),
         (src, done, BindingState.RELEASED)],
        [(switched, tgt, False)],
        bound.t,
        (steps.t0, done.t, np.where(lag > 0.0, lag, 0.0), np.zeros_like(steps.t0)),
        [(RequestStatus.CREATED, created.t), (RequestStatus.PROCESSING, releasing.t),
         (RequestStatus.FINISHED, finished.t), (RequestStatus.COMPLETED, done.t)],
    )


def _legacy_chain(steps, d, e, pods):
    src, tgt, stopped = steps.src, steps.tgt, None
    e = steps.at(e, steps.t0, "drain_begin@src")
    for i in sorted(range(pods), key=str):  # drain: evict the pods one at a time, by name
        e = steps.at(e, e.t + d.drain_per_pod)
        e = steps.at(e, e.t + steps.sat_s(e, src, up=False), f"pod_stopping#{i}")
        stopped = e.t if stopped is None else stopped
        e = steps.at(e, e.t + d.pod_stop, f"pod_stopped#{i}")
        e = steps.at(e, e.t + steps.sat_s(e, src, up=True))
    e = removed = steps.at(e, e.t + d.persist, "node_removed@src")
    e = steps.at(e, e.t + steps.sat_s(e, src, up=False))
    e = steps.at(e, e.t + d.legacy_cleanup, "cleanup_done")
    for _ in range(d.auth_roundtrips):
        leg = steps.sat_s(e, tgt, up=True)  # both ways
        e = steps.at(e, e.t + (leg + leg))
    e.rows.append("auth_done")
    e = steps.at(e, e.t + d.client_init, "client_ready")
    e = steps.at(e, e.t + steps.sat_s(e, tgt, up=True), "register_arrived@tgt")
    registered = steps.at(e, e.t + d.register, "node_registered@tgt")
    # the ack and first report, beside the pod resync
    leg = steps.sat_s(registered, tgt, up=False)
    e = acked = steps.at(registered, registered.t + leg, "register_acked")
    e = steps.at(e, e.t + steps.sat_s(e, tgt, up=True), "report_arrived@tgt")
    accepted = steps.leaf(e, e.t + d.status_report_process, "report_accepted@tgt").t
    end, unavailable = accepted, np.zeros_like(accepted)
    if pods:
        rtt = steps.gs_s(registered, tgt, src) + steps.gs_s(registered, src, tgt)
        e = steps.at(registered, registered.t + rtt + d.persist, "pods_persisted@tgt")
        e = steps.at(e, e.t + d.controller_process + d.persist, "pods_scheduled@tgt")
        e = steps.at(e, e.t + steps.sat_s(e, tgt, up=False), "pod_push")
        e = steps.at(e, e.t + d.client_init)
        resynced = steps.leaf(e, e.t + d.pod_start, "pods_started").t
        end, unavailable = np.maximum(accepted, resynced), resynced - stopped
    return _Outcome(
        [(src, removed, None), (tgt, registered, BindingState.BOUND)],
        [(removed, None, False), (acked, tgt, True)],
        accepted,
        (removed.t, end, accepted - removed.t, unavailable),
        [],
    )


_CHAINS = {Protocol.SEAMLESS: _seamless_chain, Protocol.LEGACY: _legacy_chain}


def _replay(sim, parts, keep=False):
    """Replay the batch ``parts`` (the ``start_handovers`` calls) in bulk,
    leaving the logs, records, requests and trace rows the queue would;
    ``sim.records`` gets them in (t_start, satellite) order. The events
    are kept (``keep``) only for a trace or a failing batch, which is
    replayed again to keep them.

    Raises the queue's first error: an overlapping switch, a node not
    Bound, a switch to the controller it holds, an unusable leg. Before
    raising it logs the batch's controller changes, which the reports
    sent before the failing event read, and sets ``sim._ctx`` to that
    event's context. A node's handovers do not overlap unless one
    raises, so each chain depends on the others of its node only
    through its source controller.
    """
    flat = [switch for _, calls, _, _ in parts for switch in calls]
    if not flat:
        return
    keep = keep or sim.trace is not None
    sizes = [len(calls) for _, calls, _, _ in parts]
    sats, t0, tgt = map(np.array, zip(*flat))
    seq = np.concatenate([np.arange(first, first + n) for (_, _, first, _), n in zip(parts, sizes)])
    protocol_ix = np.repeat([list(_CHAINS).index(protocol) for protocol, *_ in parts], sizes)
    ctx = [np.repeat(c, sizes) for c in zip(*(ctx for *_, ctx in parts))]
    pos = np.lexsort((seq, t0, sats))  # each node's handovers in the order they start
    sats, t0, tgt, seq = sats[pos], t0[pos].astype(float), tgt[pos], seq[pos]
    protocol_ix = protocol_ix[pos]
    ctx = [c[pos] for c in ctx]
    same = np.append(False, sats[1:] == sats[:-1])  # the node's previous handover is the one before
    src, unbound = np.roll(tgt, 1), np.zeros(len(sats), dtype=bool)
    for i in np.flatnonzero(~same).tolist():
        sat = sats[i].item()
        held = sim.controller(sat)
        unbound[i] = held is None or sim.binding(held, sat) is not BindingState.BOUND
        src[i] = tgt[i] if held is None else held  # a stand-in: the start event fails

    groups, end = [], np.empty(len(sats))
    with np.errstate(over="ignore", invalid="ignore"):  # a step past the largest float, inf - inf
        for k, (protocol, chain) in enumerate(_CHAINS.items()):
            i = np.flatnonzero(protocol_ix == k)
            if i.size:
                steps = _Lockstep(sim, protocol, i, sats[i], src[i], tgt[i], t0[i], seq[i], keep)
                root = _Event(ctx[0][i], ctx[1][i], (None, ctx[2][i], None), None, None, [])
                out = chain(steps, sim.delays, root, max(sim.pods_per_sat, 0))
                end[i] = out.record[1]
                groups.append((steps, out))
    checks = [  # met by the start event, before its first leg
        (same & np.append(False, t0[1:] <= end[:-1]), ConcurrentHandover,
         "handover already in flight for node {}"),
        (unbound, ProtocolViolation, "node {} is not Bound anywhere; cannot hand over"),
        (src == tgt, ProtocolViolation, "handover target equals the current controller"),
    ]
    for steps, _ in groups:
        i, s = steps.index, steps.sats
        steps.fails[:0] = [(0, mask[i], lambda h, c=cls, m=message, s=s: c(m.format(s[h])))
                           for mask, cls, message in checks if mask[i].any()]
    failed = any(steps.fails for steps, _ in groups)
    if failed and not keep:
        return _replay(sim, parts, keep=True)

    sim._settle_accepts()
    changes = [[(steps.sats, e.rank, e.t, gs, flush) for e, gs, flush in out.changes]
               for steps, out in groups]
    for sat, *change in _entries(groups, changes):
        sim._controller_log.setdefault(sat, []).append(tuple(change))
    if failed:
        error, sim._ctx = _first_failure(sim, [steps for steps, _ in groups])
        raise error

    states = [[(gs, steps.sats, e.t, state, e.parent[0], e.parent[2]) for gs, e, state in out.states]
              for steps, out in groups]
    for gs, sat, t, state, *pushed in _entries(groups, states):
        sim.state_log.setdefault((gs, sat), []).append((t, state))
        sim._state_pushed.setdefault((gs, sat), []).append(tuple(pushed))
    columns = []
    for steps, out in groups:
        for gs, sat, t in zip(steps.tgt.tolist(), steps.sats.tolist(), out.accepts.tolist()):
            bisect.insort(sim._report_log.setdefault((gs, sat), []), t)
        if out.statuses:
            _log_requests(sim, steps, out.statuses)
        t_start, t_end, invisibility, unavailable = out.record
        columns.append((steps.sats, steps.src, steps.tgt, t_start, t_end, t_end - t_start,
                        invisibility, unavailable, np.full(len(steps.sats), steps.kind)))
    columns = [np.concatenate(c) for c in zip(*columns)]
    order = np.lexsort((columns[0], columns[3]))
    sim.records += [HandoverRecord(*row) for row in zip(*(c[order].tolist() for c in columns))]
    if sim.trace is not None:
        groups = [steps for steps, _ in groups]
        for t, g, i, h in _fire_order(sim, groups):
            s = groups[g]
            ids = s.sats[h].item(), s.src[h].item(), s.tgt[h].item()
            sim.trace += [_trace_row(spec, t, *ids) for spec in s.events[i].rows]


def _entries(groups, kinds):
    """Each handover's entries of every kind, handover-major and the
    handovers in node order, as rows of Python values. ``kinds`` holds
    one list per group of (field, ...) entry kinds, each field one
    value or an array over the group's handovers."""
    fields, order = [], []
    for (steps, _), group in zip(groups, kinds):
        n = len(steps.sats)
        fields.append([np.stack([np.broadcast_to(v, n) for v in field], axis=1).ravel()
                       for field in zip(*group)])
        order.append(np.repeat(steps.index, len(group)))
    fields = [np.concatenate(field) for field in zip(*fields)]
    if len(groups) > 1:
        by_node = np.argsort(np.concatenate(order), kind="stable")
        fields = [field[by_node] for field in fields]
    return zip(*(field.tolist() for field in fields))


def _log_requests(sim, steps, statuses):
    """One completed request per seamless handover, numbered in the order
    the start events fire."""
    base = next(sim._request_ids)
    sim._request_ids = itertools.count(base + len(steps.sats))
    order = np.lexsort((steps.seq, steps.t0))
    names = [status.value for status, _ in statuses]
    columns = (steps.sats, steps.src, steps.tgt) + tuple(t for _, t in statuses)
    rows = zip(*(c[order].tolist() for c in columns))
    for rid, (sat, source, target, *times) in enumerate(rows, base):
        stamps = dict(zip(names, times))
        sim.requests.append(HandoverRequest(rid, sat, source, target, RequestStatus.COMPLETED, stamps))


def _fire_order(sim, groups):
    """(time, group, event id, handover) of every event, in the order the
    queue fires them: by time, then push order. The start events were
    pushed before the run, in sequence; an event pushes its own once the
    caller takes it, in the order its chain made them."""
    heap, children, times = [], [], []
    for g, steps in enumerate(groups):
        kids = [[] for _ in steps.events]
        for e in steps.events[1:]:
            kids[e.pusher].append(e.id)
        children.append(kids)
        times.append([e.t.tolist() for e in steps.events])
        starts = zip(times[g][0], steps.seq.tolist())
        heap += [(t, seq, g, 0, h) for h, (t, seq) in enumerate(starts)]
    heapq.heapify(heap)
    while heap:
        t, _, g, i, h = heapq.heappop(heap)
        yield t, g, i, h
        for c in children[g][i]:
            heapq.heappush(heap, (times[g][c][h], next(sim._seq), g, c, h))


def _first_failure(sim, groups):
    """The error of the first event, in firing order, that meets one of
    the ``fails``, and that event's context. Only the events before it
    are ordered, and the events it would push are never reached."""
    met = [collections.defaultdict(list) for _ in groups]
    for found, steps in zip(met, groups):
        for i, mask, error in steps.fails:
            found[i].append((mask, error))
    for t, g, i, h in _fire_order(sim, groups):
        for mask, error in met[g].get(i, ()):
            if mask[h]:
                e = groups[g].events[i]
                return error(h), (t, e.rank[h].item(), e.parent[1][h].item())
    raise AssertionError("no failing event fired")


def _trace_row(spec, t, sat, src, tgt):
    """The trace row of ``spec``: an event name, then ``@src`` or ``@tgt``
    for the station it happens at, or ``#i`` for the pod it concerns."""
    name, _, at = spec.partition("@")
    name, _, pod = name.partition("#")
    row = {"t": t, "event": name}
    if at:
        row["gs"] = src if at == "src" else tgt
    row["sat"] = sat
    if pod:
        row["pod"] = f"pod-{sat}-{pod}"
    if name == "daemon_submit":
        row.update(source=src, target=tgt)
    return row
