"""Discrete-event simulation of controller handovers.

Two protocols are modeled over the same event engine. The seamless
protocol walks a handover request through creation, source-side
release, record sync to the target, client re-initialization, target
binding, and final release commit; the satellite stays registered with
at least one controller throughout and pods never stop. The legacy
protocol drains the node, removes it, and rejoins it at the target,
which opens measurable windows of node invisibility and pod downtime.
A node runs one handover at a time: starting a second one while the
first is in flight raises ``ConcurrentHandover``.

The engine is logically single-threaded: one priority queue ordered by
(time, sequence number), so identical inputs replay identical traces.
"""
import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field as dc_field
from enum import Enum

import numpy as np

from .constants import EARTH_RADIUS_KM
from .errors import ConcurrentHandover, ProtocolViolation, Unreachable
from .topology import distance_to_latency, nearest_field_index

DEFAULT_REPORT_INTERVAL_S = 10.0
DEFAULT_TERRESTRIAL_FACTOR = 2.0


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

VISIBLE_STATES = {BindingState.BOUND, BindingState.RELEASING, BindingState.BINDING}
REPORT_STATES = {BindingState.BOUND, BindingState.RELEASING}


class RequestStatus(Enum):
    CREATED = "Created"
    PROCESSING = "Processing"
    FINISHED = "Finished"
    COMPLETED = "Completed"


_STATUS_ORDER = [
    RequestStatus.CREATED,
    RequestStatus.PROCESSING,
    RequestStatus.FINISHED,
    RequestStatus.COMPLETED,
]


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
        numeric = [
            self.controller_process, self.persist, self.client_init,
            self.status_report_process, self.pod_stop, self.pod_start,
            self.drain_per_pod, self.register, self.legacy_cleanup,
        ]
        if any(v < 0 for v in numeric) or self.auth_roundtrips < 0:
            raise ValueError("delays must be non-negative")

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
class RegistryEntry:
    state: BindingState
    last_report: float | None
    pods: set = dc_field(default_factory=set)


@dataclass
class SatelliteAgent:
    sat_id: int
    current_gs: int | None
    pods: dict = dc_field(default_factory=dict)  # pod name -> running flag
    report_interval: float = DEFAULT_REPORT_INTERVAL_S
    pending_reports: list = dc_field(default_factory=list)


# ---------------------------------------------------------------------------
# latency models


class ConstantLatency:
    """Uniform one-way latency between distinct endpoints, milliseconds."""

    def __init__(self, one_way_ms: float):
        self.one_way_ms = one_way_ms

    def __call__(self, a, b, t) -> float:
        return 0.0 if a == b else self.one_way_ms


class SnapshotLatency:
    """Latency from the nearest-in-time distance field.

    Satellite-station legs read the shortest-path distance at the
    closest snapshot; station-station legs use great-circle distance
    scaled by a terrestrial routing factor.
    """

    def __init__(self, fields, stations, terrestrial_factor=DEFAULT_TERRESTRIAL_FACTOR):
        self.fields = sorted(fields, key=lambda f: f.t)
        self.times = [f.t for f in self.fields]
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
        d = self.fields[nearest_field_index(self.times, t)].d[sat, gs]
        return distance_to_latency(d) if np.isfinite(d) else math.inf


# ---------------------------------------------------------------------------
# simulation engine


class Simulation:
    """Event engine plus controller registries and satellite agents."""

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
        self.registries = {g: {} for g in controllers}
        self.agents = {
            s: SatelliteAgent(
                sat_id=s,
                current_gs=None,
                pods={f"pod-{s}-{i}": True for i in range(pods_per_sat)},
                report_interval=report_interval,
            )
            for s in satellites
        }
        self._queue = []
        self._seq = itertools.count()
        self.now = 0.0
        self.records = []
        self.report_latencies = {s: [] for s in satellites}
        self._in_flight = set()
        self._request_ids = itertools.count(1)
        self.requests = []
        self.trace = [] if record_trace else None
        # visibility bookkeeping: per (gs, sat) state transitions and
        # accepted report times, both in event order
        self.state_log = {}
        self.report_log = {}

    # -- engine ------------------------------------------------------------

    def schedule(self, t, fn):
        if not math.isfinite(t):
            raise Unreachable("event scheduled over an unreachable link")
        heapq.heappush(self._queue, (t, next(self._seq), fn))

    def run(self, until=None):
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                break
            t, _, fn = heapq.heappop(self._queue)
            self.now = t
            fn(t)

    def _leg_s(self, a, b, t) -> float:
        ms = self.latency(a, b, t)
        if not math.isfinite(ms):
            raise Unreachable(f"no path between {a} and {b} at t={t}")
        return ms / 1000.0

    def _emit(self, t, event, **fields):
        if self.trace is not None:
            self.trace.append({"t": t, "event": event, **fields})

    # -- registry ----------------------------------------------------------

    def _log_state(self, gs, sat, t, state):
        self.state_log.setdefault((gs, sat), []).append((t, state))

    def _log_report(self, gs, sat, t):
        self.report_log.setdefault((gs, sat), []).append(t)

    def bind_initial(self, sat, gs, t=0.0):
        """Bootstrap registration: entry is Bound with a synchronous
        initial status, as if the node joined before the scenario."""
        self.registries[gs][sat] = RegistryEntry(
            state=BindingState.BOUND, last_report=t, pods=set(self.agents[sat].pods)
        )
        self.agents[sat].current_gs = gs
        self._log_state(gs, sat, t, BindingState.BOUND)
        self._log_report(gs, sat, t)

    def _transition(self, gs, sat, new_state, t):
        entry = self.registries[gs].get(sat)
        if entry is None:
            raise ProtocolViolation(f"gs {gs} holds no entry for node {sat}")
        if (entry.state, new_state) not in _ALLOWED:
            raise ProtocolViolation(
                f"illegal binding transition {entry.state.value} -> {new_state.value}"
            )
        entry.state = new_state
        self._log_state(gs, sat, t, new_state)

    def _create_entry(self, gs, sat, state, t, last_report=None, pods=()):
        self.registries[gs][sat] = RegistryEntry(
            state=state, last_report=last_report, pods=set(pods)
        )
        self._log_state(gs, sat, t, state)

    def _drop_entry(self, gs, sat, t):
        self.registries[gs].pop(sat, None)
        self._log_state(gs, sat, t, None)

    def _accept_report(self, gs, sat, t):
        entry = self.registries[gs].get(sat)
        if entry is not None and entry.state in REPORT_STATES | {BindingState.BINDING}:
            entry.last_report = t
            self._log_report(gs, sat, t)

    # -- periodic status reports --------------------------------------------

    def start_reporting(self, duration):
        """Periodic status reports per satellite; each tick schedules the
        next so the queue stays small at fleet scale."""
        for sat in sorted(self.agents):
            self.schedule(0.0, self._make_report(sat, duration))

    def _make_report(self, sat, duration):
        def send(t):
            agent = self.agents[sat]
            next_tick = t + self.report_interval
            if next_tick <= duration:
                self.schedule(next_tick, send)
            if agent.current_gs is None:
                agent.pending_reports.append(t)
                return
            gs = agent.current_gs
            leg = self._leg_s(("sat", sat), ("gs", gs), t)
            self.report_latencies[sat].append(leg * 1000.0)

            def arrive(t2, gs=gs):
                self.schedule(
                    t2 + self.delays.status_report_process,
                    lambda t3: self._accept_report(gs, sat, t3),
                )

            self.schedule(t + leg, arrive)

        return send

    def _flush_pending_reports(self, sat, t):
        """Reports that queued while the node was unmanaged complete now;
        their latency includes the wait for the handover to finish."""
        agent = self.agents[sat]
        for tick in agent.pending_reports:
            self.report_latencies[sat].append((t - tick) * 1000.0)
        agent.pending_reports.clear()


def node_visible(sim: Simulation, sat: int, t: float) -> bool:
    """True iff some controller currently holds the node in a managed
    state with a sufficiently recent accepted status report."""
    window = sim.report_interval + sim.grace
    for gs in sim.registries:
        log = sim.state_log.get((gs, sat))
        if not log:
            continue
        times = [entry[0] for entry in log]
        i = bisect.bisect_right(times, t) - 1
        if i < 0 or log[i][1] not in VISIBLE_STATES:
            continue
        reports = sim.report_log.get((gs, sat), [])
        j = bisect.bisect_right(reports, t) - 1
        if j >= 0 and t - reports[j] <= window:
            return True
    return False


# ---------------------------------------------------------------------------
# seamless protocol


def run_seamless_handover(sim: Simulation, sat: int, target_gs: int, t0: float) -> HandoverRecord:
    """Execute one seamless handover to completion and return its record."""
    start_seamless(sim, sat, target_gs, t0)
    sim.run()
    return sim.records[-1]


def _begin_handover(sim: Simulation, sat: int, target_gs: int) -> int:
    """Mark ``sat`` in flight and return its source controller.

    An overlapping switch is checked first, so it raises
    ``ConcurrentHandover`` rather than a complaint about the node's
    mid-handover binding state.
    """
    if sat in sim._in_flight:
        raise ConcurrentHandover(f"handover already in flight for node {sat}")
    source_gs = sim.agents[sat].current_gs
    if source_gs is None or sim.registries[source_gs][sat].state is not BindingState.BOUND:
        raise ProtocolViolation(f"node {sat} is not Bound anywhere; cannot hand over")
    if target_gs == source_gs:
        raise ProtocolViolation("handover target equals the current controller")
    sim._in_flight.add(sat)
    return source_gs


def start_seamless(sim: Simulation, sat: int, target_gs: int, t0: float):
    source_gs = _begin_handover(sim, sat, target_gs)

    d = sim.delays
    req = HandoverRequest(
        request_id=next(sim._request_ids), node_id=sat, source_gs=source_gs, target_gs=target_gs
    )
    sim.requests.append(req)
    marks = {}

    sat_ep, src_ep, tgt_ep = ("sat", sat), ("gs", source_gs), ("gs", target_gs)

    def finish(t_end):
        sim.records.append(
            HandoverRecord(
                sat_id=sat,
                source_gs=source_gs,
                target_gs=target_gs,
                t_start=t0,
                t_end=t_end,
                duration=t_end - t0,
                invisibility=max(0.0, marks["bound"] - marks["released"]),
                pod_unavailability=0.0,
                protocol=Protocol.SEAMLESS,
            )
        )
        sim._in_flight.discard(sat)

    # steps 1-4: daemon submits the request; API server persists and acks
    sim._emit(t0, "daemon_submit", sat=sat, source=source_gs, target=target_gs)

    def on_submit_arrive(t):
        t_created = t + d.persist

        def on_created(t2):
            req.advance(RequestStatus.CREATED, t2)
            sim._emit(t2, "request_created", gs=source_gs, sat=sat)
            # creation ack back over the daemon's watch channel (off the
            # critical path; the controller chain continues locally)
            sim.schedule(
                t2 + sim._leg_s(src_ep, sat_ep, t2),
                lambda t3: sim._emit(t3, "create_ack", sat=sat),
            )
            sim.schedule(t2 + d.controller_process, on_processing)

        sim.schedule(t_created, on_created)

    def on_processing(t):
        # steps 5-6: status Processing, source binding -> Releasing
        req.advance(RequestStatus.PROCESSING, t)
        sim._emit(t, "hr_processing", gs=source_gs, sat=sat)
        sim._transition(source_gs, sat, BindingState.RELEASING, t)
        sim._emit(t, "binding_releasing", gs=source_gs, sat=sat)
        # step 7: synchronous record transfer to the target
        sim.schedule(t + sim._leg_s(src_ep, tgt_ep, t), on_sync_arrive)

    def on_sync_arrive(t):
        sim._emit(t, "sync_arrived", gs=target_gs, sat=sat)

        def on_persisted(t2):
            # target now knows the node and its pods, but is not managing it
            sim._create_entry(
                target_gs, sat, BindingState.RELEASED, t2, pods=set(sim.agents[sat].pods)
            )
            sim._emit(t2, "sync_persisted", gs=target_gs, sat=sat)
            sim.schedule(t2 + sim._leg_s(tgt_ep, src_ep, t2), on_sync_ack)

        sim.schedule(t + d.persist, on_persisted)

    def on_sync_ack(t):
        # step 8: request status Finished
        req.advance(RequestStatus.FINISHED, t)
        sim._emit(t, "status_finished", gs=source_gs, sat=sat)
        # step 9: watch push to the satellite daemon
        sim.schedule(t + sim._leg_s(src_ep, sat_ep, t), on_watch_finished)

    def on_watch_finished(t):
        sim._emit(t, "watch_finished", sat=sat)
        # steps 10-11: build the clientset for the target control node
        sim.schedule(t + d.client_init, on_client_ready)

    def on_client_ready(t):
        sim._emit(t, "client_ready", sat=sat)
        # step 12: first status report to the target
        sim.schedule(t + sim._leg_s(sat_ep, tgt_ep, t), on_report_arrive)

    def on_report_arrive(t):
        sim._emit(t, "report_arrived", gs=target_gs, sat=sat)

        def on_bound(t2):
            # step 13: Binding, then Bound; the dwell in Binding is zero
            sim._transition(target_gs, sat, BindingState.BINDING, t2)
            sim._emit(t2, "binding_binding", gs=target_gs, sat=sat)
            sim._transition(target_gs, sat, BindingState.BOUND, t2)
            sim._emit(t2, "binding_bound", gs=target_gs, sat=sat)
            marks["bound"] = t2
            sim._accept_report(target_gs, sat, t2)
            # step 14: ack to the kubelet, which swaps its clientset pointer
            sim.schedule(t2 + sim._leg_s(tgt_ep, sat_ep, t2), on_bound_ack)

        sim.schedule(t + d.status_report_process, on_bound)

    def on_bound_ack(t):
        sim._emit(t, "bound_ack", sat=sat)
        sim.agents[sat].current_gs = target_gs
        # step 15: release the source binding
        sim.schedule(t + sim._leg_s(sat_ep, src_ep, t), on_released_arrive)

    def on_released_arrive(t):
        sim._emit(t, "released_arrived", gs=source_gs, sat=sat)

        def on_released_commit(t2):
            sim._transition(source_gs, sat, BindingState.RELEASED, t2)
            marks["released"] = t2
            sim._emit(t2, "released_commit", gs=source_gs, sat=sat)
            # steps 16-17: commit marks formal completion at the source
            req.advance(RequestStatus.COMPLETED, t2)
            sim._emit(t2, "status_completed", gs=source_gs, sat=sat)
            sim.schedule(
                t2 + sim._leg_s(src_ep, sat_ep, t2),
                lambda t3: sim._emit(t3, "released_ack", sat=sat),
            )
            finish(t2)

        sim.schedule(t + d.persist, on_released_commit)

    sim.schedule(t0 + sim._leg_s(sat_ep, src_ep, t0), on_submit_arrive)


# ---------------------------------------------------------------------------
# legacy protocol


def run_legacy_handover(sim: Simulation, sat: int, target_gs: int, t0: float) -> HandoverRecord:
    """Execute one drain-and-rejoin handover and return its record."""
    start_legacy(sim, sat, target_gs, t0)
    sim.run()
    return sim.records[-1]


def start_legacy(sim: Simulation, sat: int, target_gs: int, t0: float):
    source_gs = _begin_handover(sim, sat, target_gs)
    agent = sim.agents[sat]

    d = sim.delays
    sat_ep, src_ep, tgt_ep = ("sat", sat), ("gs", source_gs), ("gs", target_gs)
    pods = sorted(agent.pods)
    marks = {"pod_stop_start": None, "pod_running": None, "removed": None, "accepted": None}
    done = {"report": False, "pods": len(pods) == 0}

    def maybe_finish(t):
        if not (done["report"] and done["pods"]):
            return
        t_end = t
        t_start = marks["removed"]
        pod_unavail = (
            marks["pod_running"] - marks["pod_stop_start"] if pods else 0.0
        )
        sim.records.append(
            HandoverRecord(
                sat_id=sat,
                source_gs=source_gs,
                target_gs=target_gs,
                t_start=t_start,
                t_end=t_end,
                duration=t_end - t_start,
                invisibility=marks["accepted"] - marks["removed"],
                pod_unavailability=pod_unavail,
                protocol=Protocol.LEGACY,
            )
        )
        sim._in_flight.discard(sat)

    # -- drain: cordon, then evict pods one at a time ------------------------
    sim._emit(t0, "drain_begin", gs=source_gs, sat=sat)

    def evict(i):
        def process(t):
            def send(t2):
                sim.schedule(t2 + sim._leg_s(src_ep, sat_ep, t2), stop)

            sim.schedule(t + d.drain_per_pod, send)

        def stop(t):
            if marks["pod_stop_start"] is None:
                marks["pod_stop_start"] = t
            agent.pods[pods[i]] = False
            sim._emit(t, "pod_stopping", sat=sat, pod=pods[i])

            def stopped(t2):
                sim._emit(t2, "pod_stopped", sat=sat, pod=pods[i])
                sim.schedule(t2 + sim._leg_s(sat_ep, src_ep, t2), confirmed)

            sim.schedule(t + d.pod_stop, stopped)

        def confirmed(t):
            if i + 1 < len(pods):
                evict(i + 1)(t)
            else:
                remove_node(t)

        return process

    def remove_node(t):
        def committed(t2):
            marks["removed"] = t2
            sim._drop_entry(source_gs, sat, t2)
            agent.current_gs = None
            sim._emit(t2, "node_removed", gs=source_gs, sat=sat)
            sim.schedule(t2 + sim._leg_s(src_ep, sat_ep, t2), cleanup)

        sim.schedule(t + d.persist, committed)

    def cleanup(t):
        def cleaned(t2):
            sim._emit(t2, "cleanup_done", sat=sat)
            auth(t2, d.auth_roundtrips)

        sim.schedule(t + d.legacy_cleanup, cleaned)

    def auth(t, remaining):
        if remaining == 0:
            sim._emit(t, "auth_done", sat=sat)
            sim.schedule(t + d.client_init, client_ready)
            return
        rtt = sim._leg_s(sat_ep, tgt_ep, t) + sim._leg_s(tgt_ep, sat_ep, t)
        sim.schedule(t + rtt, lambda t2: auth(t2, remaining - 1))

    def client_ready(t):
        sim._emit(t, "client_ready", sat=sat)
        sim.schedule(t + sim._leg_s(sat_ep, tgt_ep, t), register_arrive)

    def register_arrive(t):
        sim._emit(t, "register_arrived", gs=target_gs, sat=sat)

        def registered(t2):
            # node object exists but carries no status yet
            sim._create_entry(target_gs, sat, BindingState.BOUND, t2, last_report=None)
            sim._emit(t2, "node_registered", gs=target_gs, sat=sat)
            sim.schedule(t2 + sim._leg_s(tgt_ep, sat_ep, t2), register_acked)
            resync_pods(t2)  # the target pulls pod records in parallel

        sim.schedule(t + d.register, registered)

    def register_acked(t):
        agent.current_gs = target_gs
        sim._emit(t, "register_acked", sat=sat)
        sim._flush_pending_reports(sat, t)
        sim.schedule(t + sim._leg_s(sat_ep, tgt_ep, t), report_arrive)

    def report_arrive(t):
        sim._emit(t, "report_arrived", gs=target_gs, sat=sat)

        def accepted(t2):
            marks["accepted"] = t2
            sim._accept_report(target_gs, sat, t2)
            sim._emit(t2, "report_accepted", gs=target_gs, sat=sat)
            done["report"] = True
            maybe_finish(t2)

        sim.schedule(t + d.status_report_process, accepted)

    def resync_pods(t):
        if not pods:
            return
        # fetch scheduling metadata from the source, persist, re-schedule
        rtt = sim._leg_s(tgt_ep, src_ep, t) + sim._leg_s(src_ep, tgt_ep, t)

        def persisted(t2):
            sim._emit(t2, "pods_persisted", gs=target_gs, sat=sat)
            sim.schedule(t2 + d.controller_process + d.persist, scheduled)

        def scheduled(t2):
            sim._emit(t2, "pods_scheduled", gs=target_gs, sat=sat)
            sim.registries[target_gs][sat].pods = set(pods)
            sim.schedule(t2 + sim._leg_s(tgt_ep, sat_ep, t2), pod_push)

        sim.schedule(t + rtt + d.persist, persisted)

    def pod_push(t):
        sim._emit(t, "pod_push", sat=sat)
        sim.schedule(t + d.client_init, pods_start)

    def pods_start(t):
        def started(t2):
            for name in pods:
                agent.pods[name] = True
            marks["pod_running"] = t2
            sim._emit(t2, "pods_started", sat=sat)
            done["pods"] = True
            maybe_finish(t2)

        sim.schedule(t + d.pod_start, started)

    if pods:
        evict(0)(t0)
    else:
        remove_node(t0)
