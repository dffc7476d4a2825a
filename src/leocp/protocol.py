"""Discrete-event simulation of controller handovers.

Two protocols are modeled over the same event engine. The seamless
protocol walks a handover request through creation, source-side
release, record sync to the target, client re-initialization, target
binding, and final release commit; the satellite stays registered with
at least one controller throughout and pods never stop. The legacy
protocol drains the node, removes it, and rejoins it at the target,
which opens measurable windows of node invisibility and pod downtime.
Each protocol is one generator whose body is the protocol in order:
every queued step yields the time it fires, and ``_advance`` queues the
generator's resumption there. A node runs one handover at a time:
starting a second one while the first is in flight raises
``ConcurrentHandover``.

The engine is logically single-threaded: one priority queue ordered by
(time, sequence number), so identical inputs replay identical traces.
Only handover steps pass through the queue. Periodic status reports
depend on nothing but the controller a satellite holds at each tick and
the binding state at each accept, so they are derived in bulk from each
satellite's controller timeline and the registry's state log. Once the
queue drains, the latencies replay the queue's waiting list: a tick
under a controller records its latency at once, a tick while the node
holds none waits, and the legacy rejoin's flush records every waiting
tick. The accepted report times are derived only when ``report_log`` is
first read, or before anything else is logged. Every logged change
carries enough of its event's ancestry to place it against the report
events the queue would have held, so exact time ties resolve in the
queue's push order.
"""
import bisect
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
from .topology import distance_to_latency, nearest_field_index

DEFAULT_REPORT_INTERVAL_S = 10.0
DEFAULT_TERRESTRIAL_FACTOR = 2.0

# Status reports one run may derive. Full-day Starlink needs 2,282,544;
# at the budget the report arrays and their aggregation stay within a
# few hundred MiB.
REPORT_BUDGET = 5_000_000
# Satellites whose reports are derived together: bounds the per-tick
# work arrays while sharing each snapshot lookup across the block.
_REPORT_BLOCK_SATS = 64


class BindingState(Enum):
    BOUND = "Bound"
    BINDING = "Binding"
    RELEASING = "Releasing"
    RELEASED = "Released"


# Allowed transitions on an existing registry entry: the target walks
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


_STATUS_ORDER = list(RequestStatus)


@dataclass
class HandoverRequest:
    request_id: int
    node_id: int
    source_gs: int
    target_gs: int
    status: RequestStatus | None = None
    timestamps: dict = dc_field(default_factory=dict)

    def advance(self, status: RequestStatus, t: float):
        if self.source_gs == self.target_gs:
            raise ProtocolViolation("source and target controller coincide")
        if self.status is not None:
            if _STATUS_ORDER.index(status) != _STATUS_ORDER.index(self.status) + 1:
                raise ProtocolViolation(
                    f"request status {self.status.value} -> {status.value} skips a stage"
                )
        elif status is not RequestStatus.CREATED:
            raise ProtocolViolation("request must start in Created")
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


@dataclass
class SatelliteAgent:
    current_gs: int | None
    pods: dict = dc_field(default_factory=dict)  # pod name -> running flag


# ---------------------------------------------------------------------------
# latency models


class ConstantLatency:
    """Uniform one-way latency between distinct endpoints, milliseconds."""

    def __init__(self, one_way_ms: float):
        self.one_way_ms = one_way_ms

    def __call__(self, a, b, t) -> float:
        return 0.0 if a == b else self.one_way_ms

    def sat_gs_ms(self, sats, gs, times):
        """``self(("sat", sats[i]), ("gs", gs[i, k]), times[k])`` as an
        array shaped like ``gs``; entries where ``gs`` is negative are
        not defined."""
        return np.full(gs.shape, float(self.one_way_ms))


class SnapshotLatency:
    """Latency from the nearest-in-time snapshot of a ``DistanceFields``.

    Satellite-station legs read the shortest-path distance at the
    closest snapshot, in place in ``fields.d``; station-station legs use
    great-circle distance scaled by a terrestrial routing factor.
    """

    def __init__(self, fields, stations, terrestrial_factor=DEFAULT_TERRESTRIAL_FACTOR):
        self.fields = fields
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
        """``self(("sat", sats[i]), ("gs", gs[i, k]), times[k])`` as an
        array shaped like ``gs``; entries where ``gs`` is negative are
        not defined. One gather reads every leg at its tick's nearest
        snapshot."""
        nearest = [nearest_field_index(self.fields.times, t) for t in times.tolist()]
        km = self.fields.d[np.array(nearest, dtype=np.intp), np.asarray(sats)[:, None], gs]
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
    """Event engine plus controller registries and satellite agents.

    ``latency`` has two methods, both giving one-way milliseconds
    (``math.inf`` where no path exists): ``latency(a, b, t)``, one leg
    of a handover step, and ``sat_gs_ms(sats, gs, times)``, the report
    legs of a block; ``ConstantLatency`` and ``SnapshotLatency`` do both.

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
        self.registries = {g: {} for g in controllers}  # gs -> {sat: BindingState}
        self.agents = {
            s: SatelliteAgent(None, {f"pod-{s}-{i}": True for i in range(pods_per_sat)})
            for s in satellites
        }
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
        if not math.isfinite(t):
            raise Unreachable("event scheduled over an unreachable link")
        heapq.heappush(self._queue, (t, next(self._seq), fn, self._ctx))

    def run(self):
        """Fire every queued event, then derive the report latencies, if
        reporting is on; the accepts wait for ``report_log``."""
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

    # -- registry ----------------------------------------------------------

    @property
    def report_log(self):
        """(controller, satellite) -> accepted report times, in time order."""
        self._settle_accepts()
        return self._report_log

    def _log_state(self, gs, sat, t, state):
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
        self.agents[sat].current_gs = gs
        self._controller_log.setdefault(sat, []).append((self._ctx[1], t, gs, flush))

    def bind_initial(self, sat, gs, t=0.0):
        """Bootstrap registration: entry is Bound with a synchronous
        initial status, as if the node joined before the scenario."""
        self._set_state(gs, sat, BindingState.BOUND, t)
        self._set_controller(sat, gs, t)
        self._log_report(gs, sat, t)

    def _transition(self, gs, sat, new_state, t):
        state = self.registries[gs].get(sat)
        if state is None:
            raise ProtocolViolation(f"gs {gs} holds no entry for node {sat}")
        if (state, new_state) not in _ALLOWED:
            raise ProtocolViolation(
                f"illegal binding transition {state.value} -> {new_state.value}"
            )
        self._set_state(gs, sat, new_state, t)

    def _set_state(self, gs, sat, state, t):
        self.registries[gs][sat] = state
        self._log_state(gs, sat, t, state)

    def _drop_entry(self, gs, sat, t):
        self.registries[gs].pop(sat, None)
        self._log_state(gs, sat, t, None)

    def _accept_report(self, gs, sat, t):
        if self.registries[gs].get(sat) in VISIBLE_STATES:
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
        reports = len(self.agents) * per_sat
        if reports > REPORT_BUDGET:
            raise BudgetExceeded(
                f"{len(self.agents)} satellites x {per_sat} ticks = {reports} status "
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
        sats = sorted(self.agents)
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
    for gs in sim.registries:
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
    mid-handover binding state.
    """
    if sat in sim._in_flight:
        raise ConcurrentHandover(f"handover already in flight for node {sat}")
    source_gs = sim.agents[sat].current_gs
    if source_gs is None or sim.registries[source_gs][sat] is not BindingState.BOUND:
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
    sim._set_state(target_gs, sat, BindingState.RELEASED, t)
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
    agent = sim.agents[sat]
    pods = sorted(agent.pods)
    sat_ep, src_ep, tgt_ep = ("sat", sat), ("gs", source_gs), ("gs", target_gs)

    # drain: cordon, then evict the pods one at a time
    sim._emit(t, "drain_begin", gs=source_gs, sat=sat)
    pods_stopped = None
    for pod in pods:
        t = yield t + d.drain_per_pod
        t = yield t + sim._leg_s(src_ep, sat_ep, t)
        if pods_stopped is None:
            pods_stopped = t
        agent.pods[pod] = False
        sim._emit(t, "pod_stopping", sat=sat, pod=pod)
        t = yield t + d.pod_stop
        sim._emit(t, "pod_stopped", sat=sat, pod=pod)
        t = yield t + sim._leg_s(sat_ep, src_ep, t)

    # remove the node at the source, then clean up and re-authenticate
    t = yield t + d.persist
    removed = t
    sim._drop_entry(source_gs, sat, t)
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
    sim._set_state(target_gs, sat, BindingState.BOUND, t)
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
    for pod in pods:
        agent.pods[pod] = True
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
