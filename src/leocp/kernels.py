"""Hot numeric kernels on numpy/scipy.

Two inner loops dominate large runs: single-source Dijkstra over the
satellite-ground graph (once per ground station per snapshot) and the
per-satellite handover decision scan (one tick per decision interval
over a multi-hour horizon). Dijkstra runs in scipy's compiled csgraph
routine; the scan interpolates every controller onto the decision grid
with numpy and walks the ticks in python.
"""
import numpy as np


def dijkstra_from_sources(indptr, indices, weights, n_nodes, sources):
    """Shortest-path distances from each source node to every node.

    Parameters are a symmetric CSR adjacency (both directions present).
    Returns an array of shape ``(len(sources), n_nodes)``.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

    graph = csr_matrix((weights, indices, indptr), shape=(n_nodes, n_nodes))
    return _sp_dijkstra(graph, directed=False, indices=np.asarray(sources))


def handover_scan(sample_t, sample_d, decide_dt, horizon, delta):
    """Threshold-rule controller scan, returning (initial_index, [(t, target_index)]).

    ``sample_d`` has one row per controller. Each row is interpolated
    piecewise-linearly at every decision tick; the initial controller is
    the nearest at t=0 (ties to the lowest index), and a switch fires
    whenever another controller is strictly closer than ``delta`` times
    the current one's distance.
    """
    sample_t = np.asarray(sample_t, dtype=np.float64)
    sample_d = np.asarray(sample_d, dtype=np.float64)
    initial = int(np.argmin(sample_d[:, 0]))

    ticks = np.arange(0.0, horizon + decide_dt * 0.5, decide_dt)
    ticks = ticks[ticks <= horizon]
    interp = np.empty((sample_d.shape[0], ticks.shape[0]))
    for g in range(sample_d.shape[0]):
        interp[g] = np.interp(ticks, sample_t, sample_d[g])
    best = np.argmin(interp, axis=0)
    best_d = interp[best, np.arange(ticks.shape[0])]
    events = []
    current = initial
    for i in range(ticks.shape[0]):
        g = int(best[i])
        if g != current and best_d[i] < delta * interp[current, i]:
            events.append((float(ticks[i]), g))
            current = g
    return initial, events
