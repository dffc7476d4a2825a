"""Reference implementations the fast paths are checked against, and the
helpers that build their inputs. The queue oracle runs each handover
protocol as a generator, one queued event per step, where the product
replays a batch as fixed chains (``leocp.protocol``)."""
import bisect
import functools
import json
import math

import numpy as np

from leocp import kernels, protocol
from leocp.assignment import DistanceSamples, HandoverSchedules
from leocp.errors import ConcurrentHandover, ProtocolViolation, Unreachable
from leocp.orbits import propagate
from leocp.protocol import (
    VISIBLE_STATES,
    BindingState,
    HandoverRecord,
    HandoverRequest as _Request,
    Protocol,
    RequestStatus,
    Simulation,
    _no_path,
)
from leocp.topology import (
    DEFAULT_MIN_ELEVATION_DEG,
    TopologySnapshot,
    _intra_plane_ring,
    _nearest_interplane_pairs,
    build_isl_grid,
)


def samples_from(times, rows, horizon):
    """Distances to controllers 0, 1, ..., one row each, as a one-satellite
    block; a ``(satellites, controllers, times)`` nesting of rows is taken
    as it is."""
    km = np.array(rows, float)
    km = km.reshape((-1,) + km.shape[-2:])
    return DistanceSamples(
        gs_ids=tuple(range(km.shape[1])), times=np.asarray(times, float), km=km, horizon_s=horizon
    )


def tick_oracle(samples, params):
    """The threshold rule applied one decision tick at a time to a
    one-satellite block: (initial id, [(t, target id), ...]). Each
    controller's distance is ``np.interp`` of its samples at every tick."""
    (km,) = samples.km
    n = int(params.horizon_s / params.decide_dt_s) + 1
    ticks = [i * params.decide_dt_s for i in range(n)]
    dists = np.array([np.interp(ticks, samples.times, row) for row in km]).T.tolist()

    def nearest(d):
        return min(range(len(d)), key=lambda g: (d[g], g))  # ties to the lowest id

    current = nearest(dists[0])
    initial = samples.gs_ids[current]
    events = []
    for t, d in zip(ticks, dists):
        best = nearest(d)
        if best != current and d[best] < params.delta * d[current]:
            events.append((t, samples.gs_ids[best]))
            current = best
    return initial, events


def switch_intervals_by_sort(d, delta):
    """``kernels._switch_intervals`` with each controller's nearest other
    distance taken from a sort of the controllers: the second lowest for a
    lowest one (the same value on a tie), else the lowest. With one
    controller it flags nothing, in an array with no controller row."""
    size = np.abs(d)
    scale = size.max(axis=(-2, -1), keepdims=True)
    unreachable = ~np.isfinite(scale)
    if unreachable.any():
        finite = np.max(size, axis=(-2, -1), keepdims=True, where=np.isfinite(d), initial=0.0)
        scale = np.where(unreachable, finite, scale)
    low = np.sort(d, axis=-2)
    lowest, second = low[..., :1, :], low[..., 1:2, :]
    others = np.where(d == lowest, second, lowest)
    below = others < delta * d + kernels._SLACK * scale
    return below[..., :-1] | below[..., 1:]


def constellation_json(c, sats_per_plane):
    """``constellation.json`` as ``json.dumps`` of one dict per satellite."""
    sats = [
        {
            "plane": i // sats_per_plane,
            "slot": i % sats_per_plane,
            "raan_rad": raan,
            "phase_rad": phase,
            "semi_major_axis_km": c.semi_major_axis_km,
            "inclination_rad": c.inclination,
        }
        for i, (raan, phase) in enumerate(zip(c.raan.tolist(), c.initial_phase.tolist()))
    ]
    return json.dumps(sats) + "\n"


# ---------------------------------------------------------------------------
# the queue oracle: each handover protocol as one generator whose body is
# the protocol in order, run one queued event per step


# Allowed transitions on an existing binding entry: the target walks
# Released -> Binding -> Bound, the source walks Bound -> Releasing -> Released.
_ALLOWED = {
    (BindingState.RELEASED, BindingState.BINDING),
    (BindingState.BINDING, BindingState.BOUND),
    (BindingState.BOUND, BindingState.RELEASING),
    (BindingState.RELEASING, BindingState.RELEASED),
}


class HandoverRequest(_Request):
    """A request that the generators advance one status at a time."""

    def advance(self, status: RequestStatus, t: float):
        self.status = status
        self.timestamps[status.value] = t


class QueueSimulation(Simulation):
    """The engine with the helpers the generators below log through;
    ``start_seamless``/``start_legacy`` queue one event per step on it.

    Every row it logs also goes into ``plain``, the logs as dicts of
    lists appended one entry at a time, which the engine's views must
    equal; ``binding`` and ``controller`` read them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._in_flight = set()
        self.plain = {"state_log": {}, "state_pushed": {}, "controller_log": {}, "report_log": {}}

    def _log(self, log, *columns):
        super()._log(log, *columns)
        for row in zip(*(np.atleast_1d(c).tolist() for c in np.broadcast_arrays(*columns))):
            if log is self._changes:
                sat, rank, t, gs, flush = row
                entry = (rank, t, None if gs < 0 else gs, bool(flush))
                self.plain["controller_log"].setdefault(sat, []).append(entry)
            elif log is self._states:
                gs, sat, t, state, pusher_t, pusher_rank = row
                self.plain["state_log"].setdefault((gs, sat), []).append((t, state))
                self.plain["state_pushed"].setdefault((gs, sat), []).append((pusher_t, pusher_rank))
            else:
                gs, sat, t = row
                bisect.insort(self.plain["report_log"].setdefault((gs, sat), []), t)

    def binding(self, gs, sat):
        log = self.plain["state_log"].get((gs, sat))
        return log[-1][1] if log else None

    def controller(self, sat):
        log = self.plain["controller_log"].get(sat)
        return log[-1][2] if log else None

    def _leg_s(self, a, b, t) -> float:
        ms = self.latency(a, b, t)
        if not math.isfinite(ms):
            raise _no_path(a, b, t)
        return ms / 1000.0

    def _emit(self, t, event, **fields):
        if self.trace is not None:
            self.trace.append({"t": t, "event": event, **fields})

    def _log_state(self, gs, sat, state, t):
        """Log ``sat``'s binding ``state`` at ``gs`` (None: entry removed)."""
        self._log(self._states, gs, sat, t, state, self._parent[0], self._parent[2])

    def _log_report(self, gs, sat, t):
        self._log(self._accepts, gs, sat, t)

    def _set_controller(self, sat, gs, t, flush=False):
        """Point ``sat`` at controller ``gs`` (None: unmanaged). ``flush``
        marks the change that completes the reports queued while the
        node was unmanaged."""
        self._log(self._changes, sat, self._ctx[1], t, -1 if gs is None else gs, flush)

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
    sim._check_ids([sat], [target_gs])
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


def switch_columns(schedules):
    """The ``sats``, ``t`` and ``targets`` columns of ``schedules``
    (satellite -> its ``(t, target)`` switches), satellite by satellite:
    what ``start_handovers`` and ``HandoverSchedules`` take."""
    rows = [(sat, t, target) for sat in sorted(schedules) for t, target in schedules[sat]]
    sats, t, targets = zip(*rows) if rows else ((), (), ())
    return np.array(sats, np.int64), np.array(t, float), np.array(targets, np.int64)


def per_satellite(table):
    """A schedule table, a ``HandoverSchedules`` or the ``(initial, sat,
    t, target)`` columns of ``kernels.handover_scan``, as ``(initial,
    [(t, target), ...])`` per satellite in Python values; its rows must be
    in satellite order."""
    if isinstance(table, HandoverSchedules):
        table = table.initial, table.sat, table.t, table.target
    initial, sat, t, target = (np.asarray(c).tolist() for c in table)
    assert sat == sorted(sat), "switches out of satellite order"
    events = [[] for _ in initial]
    for s, time, g in zip(sat, t, target):
        events[s].append((time, g))
    return list(zip(initial, events))


def queue_handovers(sim, kind, sats, t, targets):
    """``sim.start_handovers(kind, sats, t, targets)`` as one queued start
    event per switch, in row order, for the queue to run step by step on
    ``sim``, a ``QueueSimulation``."""
    starter = start_seamless if kind is Protocol.SEAMLESS else start_legacy
    for sat, t0, target in zip(*(np.asarray(c).tolist() for c in (sats, t, targets))):
        sim.schedule(t0, functools.partial(starter, sim, sat, target))


# ---------------------------------------------------------------------------
# status reports as queued events, on top of the queue oracle, and the
# cases that run on both engines


class PerEventSimulation(QueueSimulation):
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


def starter(sim, legacy):
    """The queue oracle's start on a ``QueueSimulation``, else the
    product's one-handover batch."""
    if isinstance(sim, QueueSimulation):
        return start_legacy if legacy else start_seamless
    return protocol.start_legacy if legacy else protocol.start_seamless


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
    if cls is PerEventSimulation:
        start = starter(sim, case["legacy"])
        for sat, handovers in enumerate(case["handovers"]):
            for t, target in handovers:
                sim.schedule(t, lambda t, sat=sat, target=target: start(sim, sat, target, t))
    else:
        kind = Protocol.LEGACY if case["legacy"] else Protocol.SEAMLESS
        sim.start_handovers(kind, *switch_columns(dict(enumerate(case["handovers"]))))
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
        "records": sorted(sim.records, key=lambda r: (r.t_start, r.sat_id)),
    }


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


# ---------------------------------------------------------------------------
# graphs: an all-pairs oracle, and the one-snapshot-at-a-time build and
# Dijkstra that the grouped ones must match bit for bit


def floyd_warshall(n, edges):
    """Independent all-pairs oracle."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b, w in edges:
        dist[a, b] = min(dist[a, b], w)
        dist[b, a] = min(dist[b, a], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i, k] + dist[k, j]
                if via < dist[i, j]:
                    dist[i, j] = via
    return dist


def random_snapshot(rng, n_sats, n_stations):
    """Random graph wrapped as a snapshot; integer weights keep float
    sums exact in both algorithms."""
    isl, gsl = [], []
    for i in range(n_sats):
        for j in range(i + 1, n_sats):
            if rng.random() < 0.4:
                isl.append((i, j, float(rng.integers(1, 1000))))
    for i in range(n_sats):
        for g in range(n_stations):
            if rng.random() < 0.3:
                gsl.append((i, g, float(rng.integers(1, 1000))))
    isl_pairs = np.array([(a, b) for a, b, _ in isl], dtype=np.int64).reshape(len(isl), 2)
    gsl_pairs = np.array([(a, b) for a, b, _ in gsl], dtype=np.int64).reshape(len(gsl), 2)
    return TopologySnapshot(
        t=0.0,
        sat_positions=np.zeros((n_sats, 3)),
        station_positions=np.zeros((n_stations, 3)),
        isl_pairs=isl_pairs,
        isl_km=np.array([w for _, _, w in isl]),
        gsl_pairs=gsl_pairs,
        gsl_km=np.array([w for _, _, w in gsl]),
    )


def oracle_field(snapshot):
    n = snapshot.n_sats + snapshot.n_stations
    edges = [
        (int(a), int(b), float(w))
        for (a, b), w in zip(snapshot.isl_pairs, snapshot.isl_km)
    ] + [
        (int(s), int(g) + snapshot.n_sats, float(w))
        for (s, g), w in zip(snapshot.gsl_pairs, snapshot.gsl_km)
    ]
    dist = floyd_warshall(n, edges)
    return dist[: snapshot.n_sats, snapshot.n_sats :]


def _visibility_matrix(sat_pos, gs_pos, min_elevation_deg):
    """Boolean (n_sats, n_stations) visibility and the range matrix."""
    diff = sat_pos[:, None, :] - gs_pos[None, :, :]  # (N, M, 3)
    rng = np.linalg.norm(diff, axis=2)
    gs_norm = np.linalg.norm(gs_pos, axis=1)
    radial = np.einsum("nmk,mk->nm", diff, gs_pos)
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_elev = radial / (rng * gs_norm[None, :])
    vis = sin_elev >= math.sin(math.radians(min_elevation_deg)) - 1e-12
    vis &= rng > 0.0
    return vis, rng


def per_time_snapshot(
    shell,
    constellation,
    gs_pos,
    t,
    min_elevation_deg=DEFAULT_MIN_ELEVATION_DEG,
    isl_mode="fixed_grid",
    gsl_limit=None,
):
    """Positions plus ISL/GSL edge lists at time ``t``: one snapshot at a
    time, with its own 2-D visibility test."""
    if gsl_limit is not None and gsl_limit < 1:
        raise ValueError(f"gsl_limit must be at least 1, got {gsl_limit}")
    sat_pos = propagate(constellation, t)

    if isl_mode == "fixed_grid":
        isl_pairs = build_isl_grid(shell)
    elif isl_mode == "nearest":
        pairs = _intra_plane_ring(shell) + _nearest_interplane_pairs(shell, sat_pos)
        isl_pairs = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    else:
        raise ValueError(f"unknown isl_mode: {isl_mode!r}")

    isl_km = np.linalg.norm(sat_pos[isl_pairs[:, 0]] - sat_pos[isl_pairs[:, 1]], axis=1)

    vis, rng = _visibility_matrix(sat_pos, gs_pos, min_elevation_deg)
    if gsl_limit is not None:
        # keep a visible link iff it is among the satellite's first
        # ``gsl_limit`` visible stations in stable range order
        order = np.argsort(rng, axis=1, kind="stable")
        in_order = np.take_along_axis(vis, order, axis=1)
        in_order &= np.cumsum(in_order, axis=1) <= gsl_limit
        np.put_along_axis(vis, order, in_order, axis=1)
    sat_idx, gs_idx = np.nonzero(vis)
    gsl_pairs = np.stack([sat_idx, gs_idx], axis=1) if sat_idx.size else np.empty((0, 2), dtype=np.int64)
    gsl_km = rng[sat_idx, gs_idx] if sat_idx.size else np.empty(0)

    return TopologySnapshot(
        t=t,
        sat_positions=sat_pos,
        station_positions=gs_pos,
        isl_pairs=isl_pairs,
        isl_km=isl_km,
        gsl_pairs=gsl_pairs.astype(np.int64),
        gsl_km=gsl_km,
    )


def _to_csr(snapshot):
    """Symmetric CSR adjacency over nodes [sats..., stations...]."""
    n = snapshot.n_sats + snapshot.n_stations
    src = np.concatenate(
        [
            snapshot.isl_pairs[:, 0],
            snapshot.isl_pairs[:, 1],
            snapshot.gsl_pairs[:, 0],
            snapshot.gsl_pairs[:, 1] + snapshot.n_sats,
        ]
    )
    dst = np.concatenate(
        [
            snapshot.isl_pairs[:, 1],
            snapshot.isl_pairs[:, 0],
            snapshot.gsl_pairs[:, 1] + snapshot.n_sats,
            snapshot.gsl_pairs[:, 0],
        ]
    )
    w = np.concatenate([snapshot.isl_km, snapshot.isl_km, snapshot.gsl_km, snapshot.gsl_km])
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    return indptr, dst.astype(np.int64), w.astype(np.float64), n


def per_snapshot_distances(snapshot):
    """Dijkstra from every ground station over one snapshot's ISL+GSL union
    graph: the (n_sats, n_stations) km array, inf where unreachable."""
    n_sats, n_stations = snapshot.n_sats, snapshot.n_stations
    if snapshot.isl_km.size + snapshot.gsl_km.size == 0:
        return np.full((n_sats, n_stations), np.inf)
    indptr, indices, weights, n = _to_csr(snapshot)
    sources = np.arange(n_sats, n_sats + n_stations)
    dist = kernels.dijkstra_from_sources(indptr, indices, weights, n, sources)
    return dist[:, :n_sats].T


# ---------------------------------------------------------------------------
# the snapshot-stage JSON files through the standard library's C encoder


def snapshot_to_dict(snapshot: TopologySnapshot) -> dict:
    """Plain lists for JSON; each edge is a ``(a, b, km)`` tuple, which
    encodes as a JSON array."""
    return {
        "t": snapshot.t,
        "sat_positions": snapshot.sat_positions.tolist(),
        "station_positions": snapshot.station_positions.tolist(),
        "isl_edges": list(zip(*snapshot.isl_pairs.T.tolist(), snapshot.isl_km.tolist())),
        "gsl_edges": list(zip(*snapshot.gsl_pairs.T.tolist(), snapshot.gsl_km.tolist())),
    }


def field_to_dict(t, d: np.ndarray) -> dict:
    """One snapshot's row ``d`` of a ``DistanceFields`` at time ``t``."""
    reachable = np.isfinite(d)
    return {
        "t": t,
        "d_km": np.where(reachable, d, -1.0).tolist(),
        "reachable": reachable.astype(int).tolist(),
    }


def write_json_array(items, path):
    """The bytes of ``json.dump(list(items), fh)`` plus a newline, written
    one item at a time.

    ``json.dump`` encodes in pure Python; ``json.dumps`` of one item takes
    the C encoder, and ``", "`` is the default item separator.
    """
    with open(path, "w") as fh:
        fh.write("[")
        sep = ""
        for item in items:
            fh.write(sep)
            fh.write(json.dumps(item))
            sep = ", "
        fh.write("]\n")
