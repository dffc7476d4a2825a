"""Hot numeric kernels on numpy/scipy.

Two inner loops dominate large runs: single-source Dijkstra over the
satellite-ground graph (once per ground station per snapshot) and the
handover decision scan (one tick per decision interval over a
multi-hour horizon, for every satellite). Dijkstra runs in scipy's
compiled csgraph routine, one call per group of snapshots on their
block-diagonal graph (``topology.shortest_distances``). The scan takes a block of satellites per call
and is interval-pruned: between two samples every distance curve is
linear, so a switch can only fire inside a sample interval where the
switch condition holds at one of its two ends. The initial controllers
and those intervals are found for the whole block in a few array
operations; a satellite with no such interval for its initial controller
is done there. Only the others are walked, one at a time, and only their
flagged intervals are interpolated onto the decision grid, with the same
``np.interp`` as a full scan, so event times are bit for bit those of a
tick-by-tick walk.
"""
import functools

import numpy as np

from .errors import BudgetExceeded

# Ticks one grid may hold; a full day at 1 s is 86,401
TICK_BUDGET = 10_000_000

# Slack on the end-point test, relative to the satellite's largest finite
# distance: it covers the rounding of ``np.interp`` inside an interval (a
# few ulps of its end values), so an interval whose ends sit exactly on the
# threshold is still scanned.
_SLACK = 1e-9


def dijkstra_from_sources(indptr, indices, weights, n_nodes, sources):
    """Shortest-path distances from each source node to every node.

    Parameters are a symmetric CSR adjacency (both directions present).
    Returns an array of shape ``(len(sources), n_nodes)``.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

    graph = csr_matrix((weights, indices, indptr), shape=(n_nodes, n_nodes))
    # directed: the CSR already holds both directions, so an undirected run
    # would only symmetrise it again
    return _sp_dijkstra(graph, directed=True, indices=np.asarray(sources))


@functools.lru_cache(maxsize=16)
def decision_ticks(decide_dt, horizon):
    """The decision grid, multiples of ``decide_dt`` in [0, horizon], as a
    read-only array built once per (decide_dt, horizon).

    Raises ``BudgetExceeded`` before allocating a grid of more than
    ``TICK_BUDGET`` ticks.
    """
    stop = horizon + decide_dt * 0.5
    n_ticks = np.ceil(stop / decide_dt)  # the length ``np.arange`` would allocate
    if n_ticks > TICK_BUDGET:
        raise BudgetExceeded(
            f"a grid every {decide_dt!r} s over a {horizon!r} s horizon has "
            f"{n_ticks:.3g} ticks, over the budget of {TICK_BUDGET:,}"
        )
    ticks = np.arange(0.0, stop, decide_dt)
    ticks = ticks[ticks <= horizon]
    ticks.setflags(write=False)
    return ticks


def handover_scan(sample_t, sample_d, decide_dt, horizon, delta):
    """Threshold-rule controller scan of a block of satellites, returning
    one ``(initial_index, [(t, target_index), ...])`` pair per satellite.

    ``sample_d`` is shaped ``(satellites, controllers, samples)``. Each
    controller's row is interpolated piecewise-linearly at every tick of
    ``decision_ticks(decide_dt, horizon)``; a satellite's initial
    controller is the nearest at the first sample (ties to the lowest
    index), and a switch fires at the first tick where the nearest
    controller (ties to the lowest index) is another one, strictly closer
    than ``delta`` times the current one's distance.
    """
    sample_t = np.asarray(sample_t, dtype=np.float64)
    sample_d = np.asarray(sample_d, dtype=np.float64)
    n_sats, n_ctl, n_samples = sample_d.shape
    initial = np.argmin(sample_d[:, :, 0], axis=1)
    events = [[] for _ in range(n_sats)]
    if n_ctl >= 2 and n_samples >= 2:
        flags = _switch_intervals(sample_d, delta)
        moving = flags[np.arange(n_sats), initial].any(axis=1).nonzero()[0]
        if moving.size:
            ticks = decision_ticks(decide_dt, horizon)
            # sample interval j holds the ticks [first[j], first[j + 1]); ticks
            # outside the samples take the end values, so they join the end intervals
            first = np.empty(n_samples, dtype=np.intp)
            first[0], first[-1] = 0, ticks.shape[0]
            first[1:-1] = np.searchsorted(ticks, sample_t[1:-1], side="left")
            for s in moving.tolist():
                events[s] = _walk(
                    sample_t, sample_d[s], flags[s], int(initial[s]), ticks, first, delta
                )
    return list(zip(initial.tolist(), events))


def _switch_intervals(d, delta):
    """``flags[..., c, j]``: with controller ``c`` current, a switch can fire
    in sample interval ``j``. True where another controller is below
    ``delta`` times ``c``'s distance, give or take the slack, at either end.
    ``d`` is shaped ``(..., controllers, samples)``; the slack scales with
    each satellite's own distances.

    Non-finite samples need no rule of their own: ``np.interp`` is ``inf``
    inside an interval with an infinite end, so a controller that can
    undercut there is finite at both ends and meets the end test."""
    size = np.abs(d)
    scale = size.max(axis=(-2, -1), keepdims=True)
    unreachable = ~np.isfinite(scale)
    if unreachable.any():  # unreachable samples: scale those satellites by their finite ones
        finite = np.max(size, axis=(-2, -1), keepdims=True, where=np.isfinite(d), initial=0.0)
        scale = np.where(unreachable, finite, scale)
    # the nearest distance among the other controllers, for each controller:
    # the second lowest for a lowest one (the same value on a tie), else the lowest
    low = np.sort(d, axis=-2)
    lowest, second = low[..., :1, :], low[..., 1:2, :]
    others = np.where(d == lowest, second, lowest)
    below = others < delta * d + _SLACK * scale
    return below[..., :-1] | below[..., 1:]


def _walk(sample_t, d, flags, current, ticks, first, delta):
    """Events of one satellite. The intervals flagged for the current
    controller are interpolated onto their ticks and scanned exactly, a
    few at a time (twice as many after each window where nothing fires);
    a window is scanned to its end, switches included, and the search
    goes on from there with whichever controller is current by then."""
    n_ctl, n_iv = flags.shape
    events = []
    span = 1  # flagged intervals expanded at once
    j = 0
    while j < n_iv:
        row = flags[current, j:]
        k = int(row.argmax())
        if not row[k]:
            break
        j0 = j + k
        run = flags[current, j0 : j0 + span]
        e = int(run.argmin())
        j = j0 + (run.shape[0] if run[e] else e)
        lo, hi = int(first[j0]), int(first[j])
        if lo == hi:
            continue
        t = ticks[lo:hi]
        interp = np.empty((n_ctl, hi - lo))
        for g in range(n_ctl):
            interp[g] = np.interp(t, sample_t, d[g])
        best = np.argmin(interp, axis=0)
        best_d = interp[best, np.arange(hi - lo)]
        span *= 2
        i = 0
        while i < hi - lo:
            fire = (best[i:] != current) & (best_d[i:] < delta * interp[current, i:])
            f = int(fire.argmax())
            if not fire[f]:
                break
            i += f
            current = int(best[i])
            events.append((float(t[i]), current))
            i += 1
            span = 1
    return events
