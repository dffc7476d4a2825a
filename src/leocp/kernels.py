"""Hot numeric kernels on numpy/scipy.

Two inner loops dominate large runs: single-source Dijkstra over the
satellite-ground graph (once per ground station per snapshot) and the
handover decision scan (one tick per decision interval over a
multi-hour horizon, for every satellite). Dijkstra runs in scipy's
compiled csgraph routine. The scan is interval-pruned: between two
samples every distance curve is linear, so a switch can only fire
inside a sample interval where the switch condition holds at one of its
two ends. Only those intervals are interpolated onto the decision grid,
with the same ``np.interp`` as a full scan, so event times are bit for
bit those of a tick-by-tick walk; a satellite with no such interval for
its initial controller is done in a few array operations.
"""
import numpy as np

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
    return _sp_dijkstra(graph, directed=False, indices=np.asarray(sources))


def decision_ticks(decide_dt, horizon):
    """The decision grid: multiples of ``decide_dt`` in [0, horizon]."""
    ticks = np.arange(0.0, horizon + decide_dt * 0.5, decide_dt)
    return ticks[ticks <= horizon]


def handover_scan(sample_t, sample_d, decide_dt, horizon, delta):
    """Threshold-rule controller scan, returning (initial_index, [(t, target_index)]).

    ``sample_d`` has one row per controller. Each row is interpolated
    piecewise-linearly at every decision tick; the initial controller is
    the nearest at the first sample (ties to the lowest index), and a
    switch fires at the first tick where the nearest controller (ties to
    the lowest index) is another one, strictly closer than ``delta``
    times the current one's distance.
    """
    sample_t = np.asarray(sample_t, dtype=np.float64)
    sample_d = np.asarray(sample_d, dtype=np.float64)
    n_ctl, n_samples = sample_d.shape
    current = int(np.argmin(sample_d[:, 0]))
    if n_ctl < 2 or n_samples < 2:
        return current, []
    flags = _switch_intervals(sample_d, delta)
    if not flags[current].any():
        return current, []
    ticks = decision_ticks(decide_dt, horizon)
    # sample interval j holds the ticks [first[j], first[j + 1]); ticks
    # outside the samples take the end values, so they join the end intervals
    first = np.empty(n_samples, dtype=np.intp)
    first[0], first[-1] = 0, ticks.shape[0]
    first[1:-1] = np.searchsorted(ticks, sample_t[1:-1], side="left")
    return current, _walk(sample_t, sample_d, flags, current, ticks, first, delta)


def _switch_intervals(d, delta):
    """``flags[c, j]``: with controller ``c`` current, a switch can fire in
    sample interval ``j``. True where another controller is below ``delta``
    times ``c``'s distance, give or take the slack, at either end.

    Non-finite samples need no rule of their own: ``np.interp`` is ``inf``
    inside an interval with an infinite end, so a controller that can
    undercut there is finite at both ends and meets the end test."""
    scale = np.abs(d).max()
    if not np.isfinite(scale):  # unreachable samples: scale by the finite ones
        scale = np.max(np.abs(d), where=np.isfinite(d), initial=0.0)
    # the nearest distance among the other controllers, for each controller:
    # the second lowest for a lowest one (the same value on a tie), else the lowest
    low = np.sort(d, axis=0)
    others = np.where(d == low[0], low[1], low[0])
    below = others < delta * d + _SLACK * scale
    return below[:, :-1] | below[:, 1:]


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
