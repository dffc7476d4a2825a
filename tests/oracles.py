"""Reference implementations the fast paths are checked against, and the
helpers that build their inputs."""
import functools

import numpy as np

from leocp.assignment import DistanceSamples
from leocp.protocol import Protocol, start_legacy, start_seamless


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
    """The threshold rule applied one decision tick and one controller at
    a time to a one-satellite block: (initial id, [(t, target id), ...])."""
    (km,) = samples.km
    n_ctl = len(samples.gs_ids)

    def dist(g, t):
        return float(np.interp(t, samples.times, km[g]))

    def nearest(d):
        return min(range(len(d)), key=lambda g: (d[g], g))  # ties to the lowest id

    current = nearest([dist(g, 0.0) for g in range(n_ctl)])
    initial = samples.gs_ids[current]
    events = []
    for i in range(int(params.horizon_s / params.decide_dt_s) + 1):
        t = i * params.decide_dt_s
        d = [dist(g, t) for g in range(n_ctl)]
        best = nearest(d)
        if best != current and d[best] < params.delta * d[current]:
            events.append((t, samples.gs_ids[best]))
            current = best
    return initial, events


def queue_handovers(sim, protocol, schedules):
    """``sim.start_handovers(protocol, schedules)`` as one queued start
    event per switch, satellite by satellite, for the event engine to
    run step by step."""
    starter = start_seamless if protocol is Protocol.SEAMLESS else start_legacy
    for sat in sorted(schedules):
        for t, target in schedules[sat]:
            sim.schedule(t, functools.partial(starter, sim, sat, target))
