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
Its logs are numpy columns, appended a batch of rows at a time, and
every logged change carries enough of its event's ancestry to place it
against the report events the queue would have held, so exact time
ties resolve in the queue's push order. Periodic status reports never
enter the queue: they depend on nothing but the controller a satellite
holds at each tick and the binding state at each accept, so once the
handovers are done their latencies are derived from the logs in one
pass over every satellite, and their accepts when ``report_log`` is
first read, or before anything else is logged.
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
from .topology import distance_to_latency, nearest_field_indices

DEFAULT_REPORT_INTERVAL_S = 10.0
DEFAULT_TERRESTRIAL_FACTOR = 2.0

# Status reports one run may derive. Full-day Starlink needs 2,282,544;
# at the budget the report arrays and their aggregation stay within a
# few hundred MiB.
REPORT_BUDGET = 5_000_000
# Satellite-ticks whose reports are derived together: bounds the work
# arrays while sharing each snapshot lookup across the block.
_REPORT_BLOCK_TICKS = 1 << 18
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
    closest snapshot (``nearest_field_indices``), in place in
    ``fields.d``: one leg is ``sat_gs_ms`` of a one-leg block, so both
    methods give the same leg. Station-station legs use great-circle
    distance scaled by a terrestrial routing factor.
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
        return self.sat_gs_ms([sat], np.array([[gs]]), t).item()

    def sat_gs_ms(self, sats, gs, times):
        """``self(("sat", sats[i]), ("gs", gs[i, k]), t[i, k])`` as an
        array shaped like ``gs``, where ``t`` is ``times`` broadcast to
        that shape; entries where ``gs`` is negative are not defined. One
        gather reads every leg at its time's nearest snapshot."""
        nearest = nearest_field_indices(self._times, times)
        km = self.fields.d[nearest, np.asarray(sats)[:, None], gs]
        return distance_to_latency(km)  # inf where no path


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


_NO_TICKS = np.array([math.inf])  # ``_rank``'s tick times while reporting is off


def _rank(tick_at, t, pusher_rank):
    """Report ticks before events at ``t`` pushed by events of rank
    ``pusher_rank`` (scalars, or arrays of one shape): every earlier
    tick, and a tick at ``t`` itself iff the tick before it fired before
    the pusher. ``tick_at`` holds the tick times, then ``inf``."""
    k = np.searchsorted(tick_at[:-1], t)
    return k + ((tick_at[k] == t) & (pusher_rank >= k))


# the logs' rows, in event order: a controller change (gs -1: none held;
# ``flush``: it records the reports that waited), a binding state (None:
# the entry removed) with its pusher's time and that pusher's own pusher's
# rank, an accepted report time
_Change = collections.namedtuple("_Change", "sat rank t gs flush")
_State = collections.namedtuple("_State", "gs sat t state pusher_t pusher_rank")
_Accept = collections.namedtuple("_Accept", "gs sat t")


class _Log:
    """A log's rows as numpy columns (the fields of ``rows``, of ``dtypes``)
    in event order, appended a batch at a time. A view of the rows, a dict
    of lists of Python values, is built on its first read after an append."""

    def __init__(self, rows, *dtypes):
        self._rows, self._dtypes = rows, dtypes
        self._batches, self._views = [[np.empty(0, d) for d in dtypes]], {}

    def append(self, *columns):
        """Append the rows of ``columns``: arrays of one length, or single values."""
        batch = np.broadcast_arrays(*(np.asarray(c, d) for c, d in zip(columns, self._dtypes)))
        self._batches.append([np.atleast_1d(c) for c in batch])
        self._views = {}

    @property
    def columns(self):
        if len(self._batches) > 1:
            self._batches = [list(map(np.concatenate, zip(*self._batches)))]
        return self._rows(*self._batches[0])

    def view(self, name, build):
        """``build(columns)``: a dict of lists, the view called ``name``."""
        if name not in self._views:
            self._views[name] = build(self.columns)
        return self._views[name]


def _pairs(rows):
    return zip(rows.gs.tolist(), rows.sat.tolist())


def _grouped(keys, *fields):
    """Per row, the tuple of its ``fields`` (columns) as Python values, listed
    under its key from ``keys`` in row order."""
    view = {}
    for key, value in zip(keys, zip(*(f.tolist() for f in fields))):
        view.setdefault(key, []).append(value)
    return view


def _time_ordered(rows):
    """Per (gs, sat) of ``rows``: its times ``t``, in order (ties in row order)."""
    order = np.lexsort((rows.t, rows.sat, rows.gs))
    gs, sat, t = rows.gs[order], rows.sat[order], rows.t[order].tolist()
    ends = (np.flatnonzero((gs[1:] != gs[:-1]) | (sat[1:] != sat[:-1])) + 1).tolist() + [len(t)]
    return {(gs[a].item(), sat[a].item()): t[a:b] for a, b in zip([0] + ends, ends) if a < b}


def _last(keys, query, values, missing):
    """``values`` at the last row of each of ``query`` among ``keys``, or
    ``missing`` where it has none."""
    if not keys.size:
        return np.full(np.shape(query), missing, values.dtype)
    by = np.argsort(keys, kind="stable")
    last = by[np.maximum(np.searchsorted(keys[by], query, side="right") - 1, 0)]
    return np.where(keys[last] == query, values[last], missing)


_Spans = collections.namedtuple("_Spans", "owner first length gs t after")


class Simulation:
    """Event engine whose per-node state is its logs: a node's binding
    state at a controller is the last entry of ``state_log`` (``binding``),
    and the controller it holds the last of its controller log (``controller``).
    Both are dict-of-lists views of the log columns, built when read.

    ``latency`` has two methods, both giving one-way milliseconds
    (``math.inf`` where no path exists): ``latency(a, b, t)``, one leg,
    and ``sat_gs_ms(sats, gs, times)``, a block of satellite-station
    legs. The bulk replay reads every satellite-station leg of a step
    through ``sat_gs_ms`` and every station-station leg at t = 0, so a
    model must give the same leg both ways and station legs that do not
    change with time. ``ConstantLatency`` gives one constant both ways;
    ``SnapshotLatency`` reads its one leg through ``sat_gs_ms``.

    ``start_handovers`` starts a batch of handovers whose steps never
    enter the queue: ``run`` replays them in bulk and leaves ``records``
    in (t_start, satellite) order, not in the order the handovers end.
    ``schedule`` queues any other event; a batch does not run beside them.

    ``start_reporting`` turns on periodic status reports, derived in bulk
    exactly as per-event send, arrive and accept steps would have left
    them. When ``run`` drains the queue, ``report_latencies`` gets each
    satellite's latencies (ms) in the order they were recorded, as float64
    views into one array; their accepts are logged on the next read of
    ``report_log``, or before the next change is logged.
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
        self._gs_ids = np.array(sorted(self.controllers), dtype=np.int64)
        self._sats = np.array(sorted(self.satellites), dtype=np.int64)
        self._changes = _Log(_Change, np.int64, np.int64, float, np.int64, bool)
        self._states = _Log(_State, np.int64, np.int64, float, object, float, np.int64)
        self._accepts = _Log(_Accept, np.int64, np.int64, float)
        self._ticks = None  # report tick times, while reports are pending
        self._tick_at = _NO_TICKS  # the same, then inf: what ``_rank`` searches
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

    def start_handovers(self, protocol, sats, t, targets):
        """Start under ``protocol`` the switch of satellite ``sats[i]`` to
        controller ``targets[i]`` at ``t[i]``, for each row: one start event
        per switch, in row order, pushed now, for ``run`` to replay.

        A second call before ``run`` extends the pending batch; each call
        keeps its own context and push order. Raises before any work:
        ``Unreachable`` for a start time that is not finite, then
        ``ProtocolViolation`` for the first switch with an unknown id,
        then ``BudgetExceeded`` past ``STEP_BUDGET`` steps in the batch.
        """
        sats, targets = np.asarray(sats, np.int64), np.asarray(targets, np.int64)
        t = np.asarray(t, float)
        if not np.isfinite(t).all():
            raise Unreachable("event scheduled over an unreachable link")
        self._check_ids(sats, targets)
        parts = (self._batch or []) + [(protocol, sats)]
        steps_of = functools.partial(_steps_per_handover, pods=self.pods_per_sat,
                                     auth_roundtrips=self.delays.auth_roundtrips)
        terms = [(len(s), steps_of(p)) for p, s, *_ in parts]
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
        self._seq = itertools.count(first + len(sats))
        self._batch = parts[:-1] + [(protocol, sats, t, targets, first, self._ctx)]

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
                self._ctx = (t, int(_rank(self._tick_at, t, parent[1])), parent[1])
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
            ticks, self._ticks, self._tick_at = self._ticks, None, _NO_TICKS
            if first is not None:
                raise first
            self._unaccepted = ticks

    # -- logs --------------------------------------------------------------

    def _log(self, log, *columns):
        """Append a batch of rows to ``log``, a drained run's accepts first."""
        self._settle_accepts()
        log.append(*columns)

    @property
    def state_log(self):
        """(controller, satellite) -> its binding states as (t, state), in event order."""
        return self._states.view("state", lambda r: _grouped(_pairs(r), r.t, r.state))

    @property
    def _state_pushed(self):
        """Per ``state_log`` entry: its pusher's time and the pusher's own pusher's rank."""
        return self._states.view("pushed", lambda r: _grouped(_pairs(r), r.pusher_t, r.pusher_rank))

    @property
    def _controller_log(self):
        """Satellite -> its controller changes as (rank, t, gs, flush), in event order."""
        return self._changes.view("held", lambda r: _grouped(
            r.sat.tolist(), r.rank, r.t, np.where(r.gs < 0, None, r.gs), r.flush))

    @property
    def report_log(self):
        """(controller, satellite) -> accepted report times, in time order."""
        self._settle_accepts()
        return self._accepts.view("accepts", _time_ordered)

    def binding(self, gs, sat):
        """``sat``'s binding state at ``gs``: the last one logged, or None
        if ``gs`` holds no entry for it."""
        log = self.state_log.get((gs, sat))
        return log[-1][1] if log else None

    def controller(self, sat):
        """The controller ``sat`` holds now, or None."""
        log = self._controller_log.get(sat)
        return log[-1][2] if log else None

    def _holding(self, sats):
        """For each of ``sats``: the controller it holds (-1: none) and
        whether its entry there is Bound, read from the columns."""
        changes, states, n = self._changes.columns, self._states.columns, len(self._sats)
        held = _last(changes.sat, sats, changes.gs, -1)
        pairs = [np.searchsorted(self._gs_ids, gs) * n + np.searchsorted(self._sats, sat)
                 for gs, sat in ((states.gs, states.sat), (held, sats))]  # one int per pair
        state = _last(*pairs, states.state, None)
        return held, (held >= 0) & (state == BindingState.BOUND)

    def bind_initial(self, sat, gs, t=0.0):
        """Bootstrap registration: entry is Bound with a synchronous
        initial status, as if the node joined before the scenario."""
        self.bind_all([sat], [gs], t)

    def bind_all(self, sats, gs, t=0.0):
        """``bind_initial(sats[i], gs[i], t)`` for each row of the columns,
        in order, as one batch of each log; an unknown id refuses them all."""
        sats, gs = np.asarray(sats, np.int64), np.asarray(gs, np.int64)
        self._check_ids(sats, gs)
        self._log(self._states, gs, sats, t, BindingState.BOUND, self._parent[0], self._parent[2])
        self._log(self._changes, sats, self._ctx[1], t, gs, False)
        self._log(self._accepts, gs, sats, t)

    def _check_ids(self, sats, gs):
        """Refuse the first row of the columns with an unknown id: its controller, then its node."""
        bad = ~np.isin(gs, self._gs_ids) | ~np.isin(sats, self._sats)
        if bad.any():
            i = bad.argmax()
            if gs[i] not in self.controllers:
                raise ProtocolViolation(f"gs {gs[i]} is not a controller of this simulation")
            raise ProtocolViolation(f"node {sats[i]} is not a satellite of this simulation")

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
        self._tick_at = np.append(self._ticks, math.inf)
        # the first ticks count as pushed now, after every event so far
        self._root = self._ctx = self._parent = (-math.inf, 0, 0)

    def _held_spans(self, n):
        """Every satellite's report ticks ``0..n-1`` (satellite ``p``'s laid
        at ``p * n`` on) split into spans: one before its first controller
        change, then one per change in event order. A change of rank r opens
        its span at tick ``clip(r, 0, n)``, or where the span before opens if
        later. Per span: its satellite's position, ``first`` tick, ``length``,
        the controller held (-1: none), its change's time ``t`` and the next
        span of the satellite whose change flushes (-1: none)."""
        changes, sats = self._changes.columns, np.arange(len(self._sats))
        owner = np.searchsorted(self._sats, changes.sat)
        by = np.argsort(owner, kind="stable")
        at = np.searchsorted(owner[by], sats)  # where each satellite's first span goes
        firsts = [(owner, sats), (changes.rank, 0), (changes.gs, -1), (changes.t, math.nan),
                  (changes.flush, False)]
        owner, rank, gs, t, flush = (np.insert(c[by], at, v) for c, v in firsts)
        first = np.maximum.accumulate(owner * n + np.clip(rank, 0, n))
        after = np.where(flush, np.arange(len(flush)), len(flush))  # the next flushing span,
        after = np.append(np.minimum.accumulate(after[::-1])[::-1][1:], len(flush))
        after = np.where(np.append(owner, -1)[after] == owner, after, -1)  # of the same satellite
        return _Spans(owner, first, np.diff(first, append=len(sats) * n), gs, t, after)

    def _report_blocks(self, ticks, spans):
        """Per block of ``_REPORT_BLOCK_TICKS`` satellite-ticks (one satellite
        at least): its first satellite's position, the controller held at
        each tick (-1: none) and the report legs to it (ms)."""
        n = len(ticks)
        step = max(1, _REPORT_BLOCK_TICKS // max(n, 1))
        for lo in range(0, len(self._sats), step):
            sats = self._sats[lo : lo + step]
            a, b = np.searchsorted(spans.owner, (lo, lo + len(sats)))
            held = np.repeat(spans.gs[a:b], spans.length[a:b]).reshape(len(sats), n)
            yield lo, held, self.latency.sat_gs_ms(sats, held, ticks)

    def _derive_reports(self, limit=None):
        """Return the ``Unreachable`` error of the first report (by tick,
        then satellite) sent over an unreachable link; with ``limit``, only
        look for it among the first ``limit`` ticks. If there is none, return
        None and, without ``limit``, record every satellite's latencies.

        A held tick records its leg; a tick while none is held waits for the
        next flush, or records nothing if none comes. One stable sort by the
        span at which each tick records replays the queue's waiting list: the
        ticks a flush records come before those of the span it opens. A block
        in which no tick waits is in that order already."""
        ticks = self._ticks[:limit]
        n, spans = len(ticks), self._held_spans(len(ticks))
        first, counts = None, []  # first: (tick, satellite position, error)
        flat, end = None, 0  # values, then an unused tail
        for lo, held, ms in self._report_blocks(ticks, spans):
            bad = (held >= 0) & ~np.isfinite(ms)
            if bad.any():
                k, i = np.argwhere(bad.T)[0].tolist()
                if first is None or (k, lo + i) < first[:2]:
                    sat, gs = self._sats[lo + i].item(), held[i, k].item()
                    first = (k, lo + i, _no_path(("sat", sat), ("gs", gs), ticks[k].item()))
            elif first is None and limit is None:
                values, kept = ms.reshape(-1), np.full(held.shape, True)  # ms: the block's own
                values /= 1000.0
                values *= 1000.0
                waiting = np.flatnonzero(held < 0)
                if waiting.size:  # each records its wait at the span of the next flush, if any
                    a, b = np.searchsorted(spans.owner, (lo, lo + len(held)))
                    span = np.repeat(np.arange(a, b), spans.length[a:b])
                    span[waiting] = spans.after[span[waiting]]
                    values[waiting] = (spans.t[span[waiting]] - ticks[waiting % n]) * 1000.0
                    kept.flat[waiting] = span[waiting] >= 0
                    at = np.flatnonzero(kept)
                    values = values[at[np.argsort(span[at], kind="stable")]]
                flat = np.empty(len(self._sats) * n) if flat is None else flat
                flat[end : end + len(values)] = values
                end += len(values)
                counts += kept.sum(axis=1).tolist()
        if first is None and limit is None:
            ends = np.cumsum(counts).tolist()
            rows = (flat[a:b] for a, b in zip([0] + ends, ends))
            self.report_latencies.update(zip(self._sats.tolist(), rows))
        return None if first is None else first[2]

    def _settle_accepts(self):
        """Log the accepts of the drained reporting run, if any are
        pending: a report is accepted if its controller's entry for the
        node is managed at its accept."""
        ticks, self._unaccepted = self._unaccepted, None
        if ticks is None:
            return
        n, keys, accepted = len(ticks), [], []
        spans = self._held_spans(n)
        for lo, held, ms in self._report_blocks(ticks, spans):
            arrive = (ticks + ms / 1000.0).ravel()
            accept = arrive + self.delays.status_report_process
            a, b = np.searchsorted(spans.owner, (lo, lo + len(held)))
            i = np.flatnonzero((spans.gs[a:b] >= 0) & (spans.length[a:b] > 0)) + a
            held_spans = (spans.owner[i], spans.gs[i], spans.first[i], spans.length[i])
            for p, gs, k, m in zip(*(c.tolist() for c in held_spans)):  # ticks k..k+m-1, flat
                at, sat = slice(k - lo * n, k - lo * n + m), self._sats[p].item()
                accepted.append(self._accepted(gs, sat, k - p * n, arrive[at], accept[at]))
                keys.append((gs, sat, len(accepted[-1])))
        if accepted:
            gs, sat, count = np.array(keys).T
            times = np.concatenate(accepted)
            self._log(self._accepts, np.repeat(gs, count), np.repeat(sat, count), times)

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
    sim.start_handovers(Protocol.SEAMLESS, [sat], [t0], [target_gs])


def start_legacy(sim: Simulation, sat: int, target_gs: int, t0: float):
    """Start a drain-and-rejoin handover of ``sat`` to ``target_gs`` at
    ``t0``: a one-handover ``start_handovers`` batch."""
    sim.start_handovers(Protocol.LEGACY, [sat], [t0], [target_gs])


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
# changes (event, gs, flush; gs -1: none held), accept times at the target, the record's
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
        self.events, self.fails, self._ids = [] if keep else None, [], itertools.count()

    def at(self, ev, t, *rows):
        """The events at times ``t`` that ``ev`` pushes, ranked by ``_rank``."""
        return self._push(ev, t, _rank(self.sim._tick_at, t, ev.rank), rows)

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
        """Seconds from station ``a`` to ``b``; station legs do not depend on
        time, so each distinct pair's is read once."""
        ids = self.sim._gs_ids
        key = np.searchsorted(ids, a) * len(ids) + np.searchsorted(ids, b)  # one int per pair
        _, first, at = np.unique(key, return_index=True, return_inverse=True)
        pairs = zip(a[first].tolist(), b[first].tolist())
        ms = np.array([self.sim.latency(("gs", p), ("gs", q), 0.0) for p, q in pairs])
        return self._checked(ev, ms[at], ("gs", a), ("gs", b))

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
        [(removed, -1, False), (acked, tgt, True)],
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
    protocols, sats, t0, tgt, firsts, ctxs = zip(*parts)
    sizes = [len(c) for c in sats]
    if not sum(sizes):
        return
    keep = keep or sim.trace is not None
    sats, t0, tgt = map(np.concatenate, (sats, t0, tgt))
    seq = np.concatenate([np.arange(first, first + n) for first, n in zip(firsts, sizes)])
    protocol_ix = np.repeat([list(_CHAINS).index(protocol) for protocol in protocols], sizes)
    ctx = [np.repeat(c, sizes) for c in zip(*ctxs)]
    pos = np.lexsort((seq, t0, sats))  # each node's handovers in the order they start
    sats, t0, tgt, seq = sats[pos], t0[pos], tgt[pos], seq[pos]
    protocol_ix = protocol_ix[pos]
    ctx = [c[pos] for c in ctx]
    same = np.append(False, sats[1:] == sats[:-1])  # the node's previous handover is the one before
    src, unbound = np.roll(tgt, 1), np.zeros(len(sats), dtype=bool)
    first = np.flatnonzero(~same)
    held, bound = sim._holding(sats[first])
    unbound[first] = ~bound
    src[first] = np.where(held < 0, tgt[first], held)  # a stand-in if none: the start event fails

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

    sim._log(sim._changes, *_batch(groups, [
        [(steps.sats, e.rank, e.t, gs, flush) for e, gs, flush in out.changes]
        for steps, out in groups
    ]))
    if failed:
        error, sim._ctx = _first_failure(sim, [steps for steps, _ in groups])
        raise error

    sim._log(sim._states, *_batch(groups, [
        [(gs, steps.sats, e.t, state, e.parent[0], e.parent[2]) for gs, e, state in out.states]
        for steps, out in groups
    ]))
    sim._log(sim._accepts, *_batch(groups, [[(steps.tgt, steps.sats, out.accepts)]
                                            for steps, out in groups]))
    columns = []
    for steps, out in groups:
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


def _batch(groups, kinds):
    """Every group's log rows of every kind as one batch of columns, the
    rows by handover in node order, then by kind. ``kinds`` holds per
    group a list of rows (field, ...), each field one value or an array
    over the group's handovers."""
    width = max(map(len, kinds))
    at, rows = [], []
    for (steps, _), group in zip(groups, kinds):
        for k, row in enumerate(group):
            at.append(steps.index * width + k)
            rows.append([np.broadcast_to(v, len(steps.sats)) for v in row])
    order = np.argsort(np.concatenate(at))
    return [np.concatenate(c)[order] for c in zip(*rows)]


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
