"""Discrete-event simulation of controller handovers.

Two protocols are modeled. The seamless protocol walks a handover
request through creation, source-side release, record sync to the
target, client re-initialization, target binding, and final release
commit; the satellite stays registered with at least one controller
throughout and pods never stop. The legacy protocol drains the node,
removes it, and rejoins it at the target, which opens measurable
windows of node invisibility and pod downtime. A node runs one handover
at a time: starting a second one while the first is in flight raises
``ConcurrentHandover``.

Each protocol is written twice. As one generator whose body is the
protocol in order: every queued step yields the time it fires, and
``_advance`` queues the generator's resumption there. This event engine
runs direct ``start_seamless``/``start_legacy`` calls and every
simulation that records a trace. And as a fixed chain of steps
(``_seamless_chain``, ``_legacy_chain``), over which ``run`` replays a
``start_handovers`` batch in bulk: each step is ``t + delay`` or
``t + leg(t)``, one numpy operation over every handover of the batch
with the engine's float association, and each step's event gets the
rank the queue would give it. A batch the engine would stop on (an
overlapping switch, an unknown id, an unusable leg) goes through the
queue instead, so it raises the engine's first error.

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


# Allowed transitions on an existing binding entry: the target walks
# Released -> Binding -> Bound, the source walks Bound -> Releasing -> Released.
_ALLOWED = {
    (BindingState.RELEASED, BindingState.BINDING),
    (BindingState.BINDING, BindingState.BOUND),
    (BindingState.BOUND, BindingState.RELEASING),
    (BindingState.RELEASING, BindingState.RELEASED),
}

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

    def advance(self, status: RequestStatus, t: float):
        self.status = status
        self.timestamps[status.value] = t


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

    ``start_handovers`` starts a batch of handovers that ``run`` replays
    in bulk; it leaves ``records`` in (t_start, satellite) order, where
    the queue leaves them in the order they end.

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
        self._in_flight = set()
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
        self._batch = None  # handovers of ``start_handovers``, until ``run``
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
        target)`` switches) under ``protocol``: the ``start_seamless`` or
        ``start_legacy`` events scheduled here, satellite by satellite.

        ``run`` replays the batch in bulk if nothing else is queued then.
        The queue runs it instead when the simulation records a trace,
        or when the engine would stop on it, so that it raises the
        engine's first error. Raises ``BudgetExceeded``, before any work,
        past ``STEP_BUDGET`` steps.
        """
        if self._batch is not None:
            self._queue_batch(*self._batch)
            self._batch = None
        flat = [(sat, t, target) for sat in sorted(schedules) for t, target in schedules[sat]]
        per = _steps_per_handover(protocol, self.pods_per_sat, self.delays.auth_roundtrips)
        if len(flat) * per > STEP_BUDGET:
            raise BudgetExceeded(
                f"{len(flat)} handovers x {per} steps = {len(flat) * per:,} handover steps, "
                f"over the budget of {STEP_BUDGET:,}; lower protocol.delays.auth_roundtrips "
                f"(now {self.delays.auth_roundtrips}) or protocol.pods_per_sat "
                f"(now {self.pods_per_sat})"
            )
        first = next(self._seq)  # the batch's events take the next sequence numbers
        self._seq = itertools.count(first + len(flat))
        batch = (protocol, flat, first, self._ctx)
        if self.trace is not None or not all(math.isfinite(t) for _, t, _ in flat):
            self._queue_batch(*batch)
        else:
            self._batch = batch

    def _queue_batch(self, protocol, flat, first, ctx):
        starter = start_seamless if protocol is Protocol.SEAMLESS else start_legacy
        for seq, (sat, t, target) in enumerate(flat, first):
            self._push(t, seq, functools.partial(starter, self, sat, target), ctx)

    def run(self):
        """Replay the pending ``start_handovers`` batch in bulk, or fire
        every queued event, then derive the report latencies, if
        reporting is on; the accepts wait for ``report_log``."""
        if self._batch is not None:
            batch, self._batch = self._batch, None
            if self._queue or self._in_flight or not _replay(self, *batch):
                self._queue_batch(*batch)
        queue = self._queue
        try:
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

    def _leg_s(self, a, b, t) -> float:
        ms = self.latency(a, b, t)
        if not math.isfinite(ms):
            raise _no_path(a, b, t)
        return ms / 1000.0

    def _emit(self, t, event, **fields):
        if self.trace is not None:
            self.trace.append({"t": t, "event": event, **fields})

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

    def _log_state(self, gs, sat, state, t):
        """Log ``sat``'s binding ``state`` at ``gs`` (None: entry removed)."""
        self._settle_accepts()
        self.state_log.setdefault((gs, sat), []).append((t, state))
        self._state_pushed.setdefault((gs, sat), []).append((self._parent[0], self._parent[2]))

    def _log_report(self, gs, sat, t):
        # in time order even when a run's accept precedes an earlier run's
        bisect.insort(self.report_log.setdefault((gs, sat), []), t)

    def _set_controller(self, sat, gs, t, flush=False):
        """Point ``sat`` at controller ``gs`` (None: unmanaged). ``flush``
        marks the change that completes the reports queued while the
        node was unmanaged."""
        self._settle_accepts()
        self._controller_log.setdefault(sat, []).append((self._ctx[1], t, gs, flush))

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

    def _transition(self, gs, sat, new_state, t):
        state = self.binding(gs, sat)
        if state is None:
            raise ProtocolViolation(f"gs {gs} holds no entry for node {sat}")
        if (state, new_state) not in _ALLOWED:
            raise ProtocolViolation(
                f"illegal binding transition {state.value} -> {new_state.value}"
            )
        self._log_state(gs, sat, new_state, t)

    def _accept_report(self, gs, sat, t):
        if self.binding(gs, sat) in VISIBLE_STATES:
            self._log_report(gs, sat, t)

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
# handover protocols: each step yields its firing time, which is sent back
# in when it fires; acks off the critical path are queued directly


def _advance(sim: Simulation, steps, t=None):
    """Run ``steps`` up to its next step and queue the rest at that step's
    time. A fresh partial per step leaves no object that refers to itself."""
    try:
        at = steps.send(t)
    except StopIteration:
        return
    sim.schedule(at, functools.partial(_advance, sim, steps))


def _begin_handover(sim: Simulation, sat: int, target_gs: int) -> int:
    """Mark ``sat`` in flight and return its source controller.

    An overlapping switch is checked first, so it raises
    ``ConcurrentHandover`` rather than a complaint about the node's
    mid-handover binding state; unknown ids are checked next.
    """
    if sat in sim._in_flight:
        raise ConcurrentHandover(f"handover already in flight for node {sat}")
    sim._check_ids(sat, target_gs)
    source_gs = sim.controller(sat)
    if source_gs is None or sim.binding(source_gs, sat) is not BindingState.BOUND:
        raise ProtocolViolation(f"node {sat} is not Bound anywhere; cannot hand over")
    if target_gs == source_gs:
        raise ProtocolViolation("handover target equals the current controller")
    sim._in_flight.add(sat)
    return source_gs


def _finish(sim, protocol, sat, source_gs, target_gs, t_start, t_end, invisibility, pod_unavailability):
    sim.records.append(
        HandoverRecord(
            sat_id=sat,
            source_gs=source_gs,
            target_gs=target_gs,
            t_start=t_start,
            t_end=t_end,
            duration=t_end - t_start,
            invisibility=invisibility,
            pod_unavailability=pod_unavailability,
            protocol=protocol,
        )
    )
    sim._in_flight.discard(sat)


def run_seamless_handover(sim: Simulation, sat: int, target_gs: int, t0: float) -> HandoverRecord:
    """Execute one seamless handover to completion and return its record."""
    start_seamless(sim, sat, target_gs, t0)
    sim.run()
    return sim.records[-1]


def start_seamless(sim: Simulation, sat: int, target_gs: int, t0: float):
    """Start a seamless handover of ``sat`` to ``target_gs`` at ``t0``."""
    _advance(sim, _seamless(sim, sat, target_gs, t0))


def _seamless(sim, sat, target_gs, t0):
    source_gs = _begin_handover(sim, sat, target_gs)
    d = sim.delays
    req = HandoverRequest(
        request_id=next(sim._request_ids), node_id=sat, source_gs=source_gs, target_gs=target_gs
    )
    sim.requests.append(req)
    sat_ep, src_ep, tgt_ep = ("sat", sat), ("gs", source_gs), ("gs", target_gs)

    # steps 1-4: daemon submits the request; API server persists and acks
    sim._emit(t0, "daemon_submit", sat=sat, source=source_gs, target=target_gs)
    t = yield t0 + sim._leg_s(sat_ep, src_ep, t0)
    t = yield t + d.persist
    req.advance(RequestStatus.CREATED, t)
    sim._emit(t, "request_created", gs=source_gs, sat=sat)
    # creation ack back over the daemon's watch channel (off the critical
    # path; the controller chain continues locally)
    sim.schedule(t + sim._leg_s(src_ep, sat_ep, t), lambda t3: sim._emit(t3, "create_ack", sat=sat))
    t = yield t + d.controller_process

    # steps 5-6: status Processing, source binding -> Releasing
    req.advance(RequestStatus.PROCESSING, t)
    sim._emit(t, "hr_processing", gs=source_gs, sat=sat)
    sim._transition(source_gs, sat, BindingState.RELEASING, t)
    sim._emit(t, "binding_releasing", gs=source_gs, sat=sat)
    # step 7: synchronous record transfer to the target
    t = yield t + sim._leg_s(src_ep, tgt_ep, t)
    sim._emit(t, "sync_arrived", gs=target_gs, sat=sat)
    t = yield t + d.persist
    # target now knows the node and its pods, but is not managing it
    sim._log_state(target_gs, sat, BindingState.RELEASED, t)
    sim._emit(t, "sync_persisted", gs=target_gs, sat=sat)
    t = yield t + sim._leg_s(tgt_ep, src_ep, t)

    # step 8: request status Finished
    req.advance(RequestStatus.FINISHED, t)
    sim._emit(t, "status_finished", gs=source_gs, sat=sat)
    # step 9: watch push to the satellite daemon
    t = yield t + sim._leg_s(src_ep, sat_ep, t)
    sim._emit(t, "watch_finished", sat=sat)
    # steps 10-11: build the clientset for the target control node
    t = yield t + d.client_init
    sim._emit(t, "client_ready", sat=sat)
    # step 12: first status report to the target
    t = yield t + sim._leg_s(sat_ep, tgt_ep, t)
    sim._emit(t, "report_arrived", gs=target_gs, sat=sat)
    t = yield t + d.status_report_process

    # step 13: Binding, then Bound; the dwell in Binding is zero
    sim._transition(target_gs, sat, BindingState.BINDING, t)
    sim._emit(t, "binding_binding", gs=target_gs, sat=sat)
    sim._transition(target_gs, sat, BindingState.BOUND, t)
    sim._emit(t, "binding_bound", gs=target_gs, sat=sat)
    bound = t
    sim._accept_report(target_gs, sat, t)
    # step 14: ack to the kubelet, which swaps its clientset pointer
    t = yield t + sim._leg_s(tgt_ep, sat_ep, t)
    sim._emit(t, "bound_ack", sat=sat)
    sim._set_controller(sat, target_gs, t)

    # step 15: release the source binding
    t = yield t + sim._leg_s(sat_ep, src_ep, t)
    sim._emit(t, "released_arrived", gs=source_gs, sat=sat)
    t = yield t + d.persist
    sim._transition(source_gs, sat, BindingState.RELEASED, t)
    sim._emit(t, "released_commit", gs=source_gs, sat=sat)
    # steps 16-17: commit marks formal completion at the source
    req.advance(RequestStatus.COMPLETED, t)
    sim._emit(t, "status_completed", gs=source_gs, sat=sat)
    sim.schedule(t + sim._leg_s(src_ep, sat_ep, t), lambda t3: sim._emit(t3, "released_ack", sat=sat))
    _finish(sim, Protocol.SEAMLESS, sat, source_gs, target_gs, t0, t, max(0.0, bound - t), 0.0)


def run_legacy_handover(sim: Simulation, sat: int, target_gs: int, t0: float) -> HandoverRecord:
    """Execute one drain-and-rejoin handover and return its record."""
    start_legacy(sim, sat, target_gs, t0)
    sim.run()
    return sim.records[-1]


def start_legacy(sim: Simulation, sat: int, target_gs: int, t0: float):
    """Start a drain-and-rejoin handover of ``sat`` to ``target_gs`` at ``t0``."""
    _advance(sim, _legacy(sim, sat, target_gs, t0))


def _legacy(sim, sat, target_gs, t):
    source_gs = _begin_handover(sim, sat, target_gs)
    d = sim.delays
    pods = sorted(f"pod-{sat}-{i}" for i in range(sim.pods_per_sat))
    sat_ep, src_ep, tgt_ep = ("sat", sat), ("gs", source_gs), ("gs", target_gs)

    # drain: cordon, then evict the pods one at a time
    sim._emit(t, "drain_begin", gs=source_gs, sat=sat)
    pods_stopped = None
    for pod in pods:
        t = yield t + d.drain_per_pod
        t = yield t + sim._leg_s(src_ep, sat_ep, t)
        if pods_stopped is None:
            pods_stopped = t
        sim._emit(t, "pod_stopping", sat=sat, pod=pod)
        t = yield t + d.pod_stop
        sim._emit(t, "pod_stopped", sat=sat, pod=pod)
        t = yield t + sim._leg_s(sat_ep, src_ep, t)

    # remove the node at the source, then clean up and re-authenticate
    t = yield t + d.persist
    removed = t
    sim._log_state(source_gs, sat, None, t)
    sim._set_controller(sat, None, t)
    sim._emit(t, "node_removed", gs=source_gs, sat=sat)
    t = yield t + sim._leg_s(src_ep, sat_ep, t)
    t = yield t + d.legacy_cleanup
    sim._emit(t, "cleanup_done", sat=sat)
    for _ in range(d.auth_roundtrips):
        rtt = sim._leg_s(sat_ep, tgt_ep, t) + sim._leg_s(tgt_ep, sat_ep, t)
        t = yield t + rtt
    sim._emit(t, "auth_done", sat=sat)
    t = yield t + d.client_init
    sim._emit(t, "client_ready", sat=sat)

    # register at the target
    t = yield t + sim._leg_s(sat_ep, tgt_ep, t)
    sim._emit(t, "register_arrived", gs=target_gs, sat=sat)
    t = yield t + d.register
    # node object exists but carries no status yet
    sim._log_state(target_gs, sat, BindingState.BOUND, t)
    sim._emit(t, "node_registered", gs=target_gs, sat=sat)
    # the node's ack and first report run beside the pod resync; the
    # second of the two legs to end records the handover
    legs = {} if pods else {"pod_unavailability": 0.0}
    finish = functools.partial(_finish, sim, Protocol.LEGACY, sat, source_gs, target_gs, removed)
    _advance(sim, _legacy_report(sim, sat, target_gs, t, removed, legs, finish))
    if not pods:
        return

    # the target pulls the pod records from the source, persists them and
    # re-schedules the pods
    rtt = sim._leg_s(tgt_ep, src_ep, t) + sim._leg_s(src_ep, tgt_ep, t)
    t = yield t + rtt + d.persist
    sim._emit(t, "pods_persisted", gs=target_gs, sat=sat)
    t = yield t + d.controller_process + d.persist
    sim._emit(t, "pods_scheduled", gs=target_gs, sat=sat)
    t = yield t + sim._leg_s(tgt_ep, sat_ep, t)
    sim._emit(t, "pod_push", sat=sat)
    t = yield t + d.client_init
    t = yield t + d.pod_start
    sim._emit(t, "pods_started", sat=sat)
    legs["pod_unavailability"] = t - pods_stopped
    if len(legs) == 2:
        finish(t, **legs)


def _legacy_report(sim, sat, target_gs, t, removed, legs, finish):
    """The legacy rejoin's leg from registration: ack, first status
    report, accept."""
    sat_ep, tgt_ep = ("sat", sat), ("gs", target_gs)
    t = yield t + sim._leg_s(tgt_ep, sat_ep, t)
    sim._set_controller(sat, target_gs, t, flush=True)
    sim._emit(t, "register_acked", sat=sat)
    t = yield t + sim._leg_s(sat_ep, tgt_ep, t)
    sim._emit(t, "report_arrived", gs=target_gs, sat=sat)
    t = yield t + sim.delays.status_report_process
    sim._accept_report(target_gs, sat, t)
    sim._emit(t, "report_accepted", gs=target_gs, sat=sat)
    legs["invisibility"] = t - removed
    if len(legs) == 2:
        finish(t, **legs)


# ---------------------------------------------------------------------------
# bulk replay: a batch's handovers stepped together, one numpy operation
# over every handover per protocol step


def _steps_per_handover(protocol, pods, auth_roundtrips):
    """Queue events of one handover: its start, every step, and seamless's
    two acks."""
    if protocol is Protocol.SEAMLESS:
        return 16
    return 10 + auth_roundtrips + (5 + 4 * pods if pods > 0 else 0)


# an event of every handover: its times, ranks, and the context of the
# event that pushed it, (time, rank, its pusher's rank) as ``Simulation._parent``
_Event = collections.namedtuple("_Event", "t rank parent")
# what a protocol's chain logs: binding entries (gs, event, state), controller
# changes (event, gs, flush), accept times at the target, the record's
# (t_start, t_end, invisibility, pod_unavailability), the request statuses
_Outcome = collections.namedtuple("_Outcome", "states changes accepts record statuses")


class _Lockstep:
    """Steps over a batch's handovers. Each event gets the rank the
    queue would give it; ``ok`` drops a handover with a leg the engine
    would refuse, or one that runs back in time."""

    def __init__(self, sim, sats, src, tgt):
        self.sim, self.sats, self.src, self.tgt = sim, sats, src, tgt
        self.ticks = np.empty(0) if sim._ticks is None else sim._ticks
        self._tick_at = np.append(self.ticks, math.inf)
        self.ok = np.ones(len(sats), dtype=bool)

    def at(self, ev, t):
        """The events at times ``t`` that ``ev`` pushes (``Simulation._rank``)."""
        k = np.searchsorted(self.ticks, t)
        rank = k + ((self._tick_at[k] == t) & (ev.rank >= k))
        return _Event(t, rank, (ev.t, ev.rank, ev.parent[1]))

    def sat_s(self, gs, t):
        """Seconds between each satellite and its station ``gs`` at ``t``."""
        return self._checked(self.sim.latency.sat_gs_ms(self.sats, gs[:, None], t[:, None])[:, 0])

    def gs_s(self, a, b):
        """Seconds from station ``a`` to ``b``; station legs do not depend on time."""
        pairs = list(zip(a.tolist(), b.tolist()))
        ms = {p: self.sim.latency(("gs", p[0]), ("gs", p[1]), 0.0) for p in set(pairs)}
        return self._checked(np.array([ms[p] for p in pairs], dtype=float))

    def _checked(self, ms):
        self.ok &= np.isfinite(ms) & (ms >= 0.0)
        return ms / 1000.0


def _seamless_chain(steps, d, e, _pods):
    src, tgt, t0 = steps.src, steps.tgt, e.t
    e = steps.at(e, e.t + steps.sat_s(src, e.t))  # steps 1-4
    e = created = steps.at(e, e.t + d.persist)
    steps.sat_s(src, e.t)  # creation ack
    e = releasing = steps.at(e, e.t + d.controller_process)  # steps 5-6
    e = steps.at(e, e.t + steps.gs_s(src, tgt))  # step 7
    e = synced = steps.at(e, e.t + d.persist)
    e = finished = steps.at(e, e.t + steps.gs_s(tgt, src))  # step 8
    e = steps.at(e, e.t + steps.sat_s(src, e.t))  # step 9
    e = steps.at(e, e.t + d.client_init)  # steps 10-11
    e = steps.at(e, e.t + steps.sat_s(tgt, e.t))  # step 12
    e = bound = steps.at(e, e.t + d.status_report_process)  # step 13
    e = switched = steps.at(e, e.t + steps.sat_s(tgt, e.t))  # step 14
    e = steps.at(e, e.t + steps.sat_s(src, e.t))  # step 15
    done = steps.at(e, e.t + d.persist)
    steps.sat_s(src, done.t)  # released ack
    lag = bound.t - done.t
    return _Outcome(
        [(src, releasing, BindingState.RELEASING), (tgt, synced, BindingState.RELEASED),
         (tgt, bound, BindingState.BINDING), (tgt, bound, BindingState.BOUND),
         (src, done, BindingState.RELEASED)],
        [(switched, tgt, False)],
        bound.t,
        (t0, done.t, np.where(lag > 0.0, lag, 0.0), np.zeros_like(t0)),
        [(RequestStatus.CREATED, created.t), (RequestStatus.PROCESSING, releasing.t),
         (RequestStatus.FINISHED, finished.t), (RequestStatus.COMPLETED, done.t)],
    )


def _legacy_chain(steps, d, e, pods):
    src, tgt, stopped = steps.src, steps.tgt, None
    for _ in range(pods):  # drain: evict the pods one at a time
        e = steps.at(e, e.t + d.drain_per_pod)
        e = steps.at(e, e.t + steps.sat_s(src, e.t))
        stopped = e.t if stopped is None else stopped
        e = steps.at(e, e.t + d.pod_stop)
        e = steps.at(e, e.t + steps.sat_s(src, e.t))
    e = removed = steps.at(e, e.t + d.persist)
    e = steps.at(e, e.t + steps.sat_s(src, e.t))
    e = steps.at(e, e.t + d.legacy_cleanup)
    for _ in range(d.auth_roundtrips):
        leg = steps.sat_s(tgt, e.t)  # both ways
        e = steps.at(e, e.t + (leg + leg))
    e = steps.at(e, e.t + d.client_init)
    e = steps.at(e, e.t + steps.sat_s(tgt, e.t))
    registered = steps.at(e, e.t + d.register)
    # the ack and first report, beside the pod resync
    e = acked = steps.at(registered, registered.t + steps.sat_s(tgt, registered.t))
    e = steps.at(e, e.t + steps.sat_s(tgt, e.t))
    accepted = e.t + d.status_report_process
    end, unavailable = accepted, np.zeros_like(accepted)
    if pods:
        rtt = steps.gs_s(tgt, src) + steps.gs_s(src, tgt)
        e = steps.at(registered, registered.t + rtt + d.persist)
        e = steps.at(e, e.t + d.controller_process + d.persist)
        e = steps.at(e, e.t + steps.sat_s(tgt, e.t))
        e = steps.at(e, e.t + d.client_init)
        resynced = e.t + d.pod_start
        end, unavailable = np.maximum(accepted, resynced), resynced - stopped
    return _Outcome(
        [(src, removed, None), (tgt, registered, BindingState.BOUND)],
        [(removed, None, False), (acked, tgt, True)],
        accepted,
        (removed.t, end, accepted - removed.t, unavailable),
        [],
    )


def _replay(sim, protocol, flat, _first, ctx):
    """Replay the batch ``flat`` of (satellite, start time, target)
    handovers in bulk, leaving the logs, records and requests the queue
    would; ``sim.records`` gets them in (t_start, satellite) order.

    Returns False, having changed nothing, if the engine would stop on the
    batch (an unknown id, a node not Bound, a switch to the controller it
    holds or at or before the end of its previous handover, an unusable
    leg) or the bulk form cannot follow it (a leg running back in time).
    A node's handovers do not overlap, so each chain depends on the
    others of its node only through its source controller.
    """
    if not flat:
        return True
    sats, t0, tgt = zip(*flat)
    if not (set(sats) <= sim.satellites and set(tgt) <= sim.controllers):
        return False
    sats, t0, tgt = np.array(sats), np.array(t0), np.array(tgt)
    pos = np.lexsort((t0, sats))  # each node's handovers in starting order
    sats, t0, tgt = sats[pos], t0[pos].astype(float), tgt[pos]
    same = np.append(False, sats[1:] == sats[:-1])  # the node's previous handover is the one before
    src = np.roll(tgt, 1)
    for i in np.flatnonzero(~same).tolist():
        sat = sats[i].item()
        held = sim.controller(sat)
        if held is None or sim.binding(held, sat) is not BindingState.BOUND:
            return False
        src[i] = held
    if (src == tgt).any():
        return False
    steps = _Lockstep(sim, sats, src, tgt)
    chain = _seamless_chain if protocol is Protocol.SEAMLESS else _legacy_chain
    with np.errstate(invalid="ignore"):  # inf - inf of a dropped handover
        start = steps.at(_Event(ctx[0], ctx[1], (None, ctx[2], None)), t0)
        out = chain(steps, sim.delays, start, max(sim.pods_per_sat, 0))
    if not steps.ok.all() or (same[1:] & (t0[1:] <= out.record[1][:-1])).any():
        return False

    sim._settle_accepts()
    n = len(sats)

    def rows(kinds):  # each handover's rows of every kind, handover-major, as Python values
        fields = ([np.broadcast_to(v, n) for v in field] for field in zip(*kinds))
        return zip(*(np.stack(field, axis=1).ravel().tolist() for field in fields))

    states = [(gs, sats, e.t, state, e.parent[0], e.parent[2]) for gs, e, state in out.states]
    for gs, sat, t, state, *pushed in rows(states):
        sim.state_log.setdefault((gs, sat), []).append((t, state))
        sim._state_pushed.setdefault((gs, sat), []).append(tuple(pushed))
    for sat, *change in rows([(sats, e.rank, e.t, gs, flush) for e, gs, flush in out.changes]):
        sim._controller_log.setdefault(sat, []).append(tuple(change))
    for gs, sat, t in zip(tgt.tolist(), sats.tolist(), out.accepts.tolist()):
        bisect.insort(sim._report_log.setdefault((gs, sat), []), t)

    t_start, t_end, invisibility, unavailable = out.record
    order = np.lexsort((sats, t_start))
    columns = (sats, src, tgt, t_start, t_end, t_end - t_start, invisibility, unavailable)
    rows = zip(*(c[order].tolist() for c in columns))
    sim.records += [HandoverRecord(*row, protocol) for row in rows]
    if out.statuses:
        base = next(sim._request_ids)
        sim._request_ids = itertools.count(base + n)
        order = np.lexsort((pos, t0))  # the order the start events fire
        names = [status.value for status, _ in out.statuses]
        columns = (sats, src, tgt) + tuple(t for _, t in out.statuses)
        rows = zip(*(c[order].tolist() for c in columns))
        for rid, (sat, source, target, *times) in enumerate(rows, base):
            stamps = dict(zip(names, times))
            req = HandoverRequest(rid, sat, source, target, RequestStatus.COMPLETED, stamps)
            sim.requests.append(req)
    return True

