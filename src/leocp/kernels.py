"""Hot numeric kernels on numpy/scipy.

Two inner loops dominate large runs: single-source Dijkstra over the
satellite-ground graph (once per ground station per snapshot) and the
handover decision scan (one tick per decision interval over a multi-hour
horizon, for every satellite). Dijkstra runs in scipy's compiled csgraph
routine, one call per group of snapshots on their block-diagonal graph
(``topology.shortest_distances``). The scan takes a block of satellites per
call, gives its switches as columns, and is interval-pruned: between two
samples every distance curve is linear, so a switch can only fire inside a
sample interval where the switch condition holds at one of its two ends. The
initial controllers and those intervals are found for the whole block in a
few array operations; a satellite with no such interval for its initial
controller is done there. The others are scanned in lockstep: each step
interpolates every one's next flagged interval onto the decision grid in one
slab, with ``np.interp``'s own arithmetic (``_lerp``), so event times are
bit for bit those of a tick-by-tick walk.
"""
import functools

import numpy as np

from .errors import BudgetExceeded

# Ticks one grid may hold; a full day at 1 s is 86,401
TICK_BUDGET = 10_000_000

# Cells (satellites x controllers x ticks) one step of the handover scan
# interpolates at most, unless one tick per satellite and controller is
# more: 2 MiB of float64 per slab-sized temporary
SLAB_CELLS = 1 << 18

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
    """Threshold-rule controller scan of a block of satellites: each
    satellite's initial controller index, and the ``sat``, ``t`` and
    ``target`` index columns of every switch, in (satellite, time) order.

    ``sample_d`` is shaped ``(satellites, controllers, samples)``. Each
    controller's row is interpolated piecewise-linearly at every tick of
    ``decision_ticks(decide_dt, horizon)``; a satellite's initial
    controller is the nearest at the first sample (ties to the lowest
    index), and a switch fires at the first tick where the nearest
    controller (ties to the lowest index) is another one, strictly closer
    than ``delta`` times the current one's distance.

    Only the satellites with an interval flagged for their initial
    controller are scanned, all of them together. Each keeps its current
    controller and its next tick. A step takes each one's next interval
    flagged for its current controller, from that tick on, interpolates it
    for every controller in one ``(satellites, controllers, ticks)`` slab
    and finds each satellite's first fire. A satellite that fires goes on
    at the next tick with its new controller; one that does not goes on at
    the end of its window. A window is one interval, cut short so that the
    slab holds at most ``SLAB_CELLS`` cells, or one tick per satellite and
    controller where that is more.
    """
    sample_t = np.asarray(sample_t, dtype=np.float64)
    sample_d = np.asarray(sample_d, dtype=np.float64)
    n_sats, n_ctl, n_samples = sample_d.shape
    initial = np.argmin(sample_d[:, :, 0], axis=1)
    sat, t, target = np.empty(0, np.intp), np.empty(0), np.empty(0, np.intp)
    if n_ctl >= 2 and n_samples >= 2:
        flags = _switch_intervals(sample_d, delta)
        moving = flags[np.arange(n_sats), initial].any(axis=1).nonzero()[0]
        if moving.size:
            ticks = decision_ticks(decide_dt, horizon)
            row, t, target = _lockstep(
                sample_t, sample_d[moving], flags[moving], initial[moving], ticks, delta
            )
            sat = moving[row]
    return initial, sat, t, target


def _lockstep(sample_t, d, flags, current, ticks, delta):
    """The ``row``, ``t`` and ``target`` columns of every switch of the
    satellites of ``d``, from the controllers ``current`` on, in (row,
    time) order; ``flags`` is their ``_switch_intervals``."""
    n_rows, n_ctl, n_iv = flags.shape
    n_ticks = ticks.shape[0]
    # sample interval j holds the ticks [first[j], first[j + 1]); ticks
    # outside the samples take the end values, so they join the end intervals
    first = np.empty(n_iv + 1, dtype=np.intp)
    first[0], first[-1] = 0, n_ticks
    first[1:-1] = np.searchsorted(ticks, sample_t[1:-1], side="left")
    # ahead[r, c, j]: the first interval at or after j flagged for controller
    # c, n_iv past the last; j = n_iv is a row's end
    ahead = np.full((n_rows, n_ctl, n_iv + 1), n_iv, dtype=np.intp)
    np.copyto(ahead[..., :-1], np.arange(n_iv), where=flags)
    ahead = np.minimum.accumulate(ahead[..., ::-1], axis=-1)[..., ::-1]
    rows = np.arange(n_rows)  # the rows still scanned
    tick = np.zeros(n_rows, dtype=np.intp)  # each row's next tick
    found = [(rows[:0], tick[:0], current[:0])]  # per step: (row, tick, target) of its fires
    while True:
        j = ahead[rows, current, np.searchsorted(first, tick, side="right") - 1]
        left = j < n_iv
        if not left.all():
            if not left.any():
                break
            rows, current, tick, j = rows[left], current[left], tick[left], j[left]
        n = rows.shape[0]
        pick = np.arange(n)
        lo = np.maximum(tick, first[j])
        hi = np.minimum(first[j + 1], lo + max(1, SLAB_CELLS // (n * n_ctl)))
        width = hi - lo
        span = np.arange(max(1, int(width.max())))  # an empty interval has no tick
        t = ticks[np.minimum(lo[:, None] + span, n_ticks - 1)]
        dist = _lerp(
            t[:, None, :],
            sample_t[j, None, None],
            sample_t[j + 1, None, None],
            d[rows, :, j, None],
            d[rows, :, j + 1, None],
        )
        best = dist.argmin(axis=1)
        fire = (best != current[:, None]) & (dist.min(axis=1) < delta * dist[pick, current])
        fire &= span < width[:, None]
        f = fire.argmax(axis=1)
        fired = fire[pick, f]
        at = lo + f
        if fired.any():
            new = best[pick, f]
            found.append((rows[fired], at[fired], new[fired]))
            current = np.where(fired, new, current)
        tick = np.where(fired, at + 1, hi)
    row, at, target = map(np.concatenate, zip(*found))
    order = np.argsort(row, kind="stable")  # each row's fires are in time order already
    return row[order], ticks[at[order]], target[order]


def _lerp(x, x0, x1, f0, f1):
    """``np.interp``'s arithmetic at ``x`` for samples ``(x0, f0)`` and
    ``(x1, f1)`` with ``x0 < x1``, bit for bit, for ``x`` in ``[x0, x1)``
    and for ``x`` outside it where the pair is the first or last interval
    of the samples. Arguments broadcast.

    At or before ``x0`` (an exact hit, or before the first sample) it is
    ``f0``, at or past ``x1`` (the last sample, or past it) ``f1``. In
    between it is ``slope * (x - x0) + f0`` with ``slope = (f1 - f0) /
    (x1 - x0)``; where that is NaN, ``slope * (x - x1) + f1``; where that
    is NaN too and ``f0 == f1``, ``f0``. Like ``np.interp`` it warns of no
    invalid operation on infinite samples.
    """
    with np.errstate(all="ignore"):
        slope = (f1 - f0) / (x1 - x0)
        y = slope * (x - x0)
        y += f0
        if not np.isfinite(slope).all():  # a finite slope and f0 give no NaN
            nan = np.isnan(y)
            if nan.any():
                np.copyto(y, slope * (x - x1) + f1, where=nan)
                np.copyto(y, f0, where=np.isnan(y) & (f0 == f1))
    np.copyto(y, f0, where=x <= x0)
    np.copyto(y, f1, where=x >= x1)
    return y


def _switch_intervals(d, delta):
    """``flags[..., c, j]``: with controller ``c`` current, a switch can fire
    in sample interval ``j``. True where another controller is below
    ``delta`` times ``c``'s distance, give or take the slack, at either end.
    ``d`` is shaped ``(..., controllers, samples)``; the slack scales with
    each satellite's own distances.

    Non-finite samples need no rule of their own: ``np.interp`` is ``inf``
    inside an interval with an infinite end, so a controller that can
    undercut there is finite at both ends and meets the end test. A NaN
    sample flags as under a sort of the controllers, which puts NaN last:
    ``np.fmin`` skips it, and a NaN on either side of the test is False."""
    size = np.abs(d)
    scale = size.max(axis=(-2, -1), keepdims=True)
    unreachable = ~np.isfinite(scale)
    if unreachable.any():  # unreachable samples: scale those satellites by their finite ones
        finite = np.max(size, axis=(-2, -1), keepdims=True, where=np.isfinite(d), initial=0.0)
        scale = np.where(unreachable, finite, scale)
    # the nearest distance among the other controllers, for each controller:
    # the lower of the minima over the controllers before it and after it
    others = np.full_like(d, np.inf)
    np.fmin.accumulate(d[..., :-1, :], axis=-2, out=others[..., 1:, :])
    after = np.fmin.accumulate(d[..., :0:-1, :], axis=-2)[..., ::-1, :]
    np.fmin(others[..., :-1, :], after, out=others[..., :-1, :])
    below = others < delta * d + _SLACK * scale
    return below[..., :-1] | below[..., 1:]
