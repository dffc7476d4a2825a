"""Controller placement: clustering, greedy k-center selection, local search.

The objective is the worst case over snapshot times and satellites of
the shortest-path distance to the nearest selected station. Every
function here reads the distances as one ``(snapshots, satellites,
stations)`` array, ``DistanceFields.d``, in place. Candidate sets are
scored against either the full snapshot set or a clustered subset of
representative snapshots; the reported objective is always recomputed
on the full set.
"""
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import LIGHT_SPEED_KM_MS
from .errors import BudgetExceeded, EmptySelection, InfeasibleInstance

DEFAULT_COMBINATION_BUDGET = 2_000_000
DEFAULT_MAX_PASSES = 50
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6


@dataclass(frozen=True)
class PlacementProblem:
    fields: np.ndarray  # (snapshots, sats, stations) km, as ``DistanceFields.d``
    candidates: list  # station indices eligible as controllers
    k: int
    clusters: int
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k <= len(self.candidates):
            raise ValueError("need 1 <= k <= number of candidates")
        if not 1 <= self.clusters <= len(self.fields):
            raise ValueError("need 1 <= clusters <= number of snapshots")


@dataclass(frozen=True)
class PlacementSolution:
    selected: tuple  # sorted station indices
    objective_km: float
    objective_ms: float
    method: str = ""
    seed: int | None = None


def evaluate(selected, fields) -> float:
    """Worst-case distance from any satellite to its nearest selected station.

    Infinite when some satellite cannot reach any selected station in
    some snapshot.
    """
    sel = sorted(set(selected))
    if not sel:
        raise EmptySelection("controller set is empty")
    return float(fields[:, :, sel].min(axis=2).max())


def _solution(selected, fields, method, seed=None) -> PlacementSolution:
    obj = evaluate(selected, fields)
    return PlacementSolution(
        selected=tuple(sorted(selected)),
        objective_km=obj,
        objective_ms=obj / LIGHT_SPEED_KM_MS if math.isfinite(obj) else math.inf,
        method=method,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# snapshot clustering


def _feature_matrix(fields) -> np.ndarray:
    """Flattened, per-coordinate standardized distance matrices.

    Unreachable entries are replaced by twice the largest finite
    distance in the set so they behave as 'very far' rather than
    poisoning the statistics. Coordinates with zero variance pass
    through unchanged.
    """
    reachable = np.isfinite(fields)
    finite = fields[reachable]
    sentinel = 2.0 * float(finite.max()) if finite.size else 1.0
    x = np.where(reachable, fields, sentinel).reshape(fields.shape[0], -1)
    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    out = x.copy()
    nz = sigma > 0.0
    out[:, nz] = (x[:, nz] - mu[nz]) / sigma[nz]
    return out


def _kmeans_pp_init(x, k, rng):
    """k-means++ seeding: iteratively sample proportional to squared
    distance from the chosen centers."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a center; pick uniformly
            centers[i] = x[int(rng.integers(n))]
        else:
            probs = d2 / total
            centers[i] = x[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, ((x - centers[i]) ** 2).sum(axis=1))
    return centers


def _kmeans(x, k, rng):
    """Lloyd iterations from a k-means++ seeding, until no centre moves
    ``KMEANS_TOL`` or more.

    A centre's shift is summed with ufuncs, not ``np.linalg.norm``: on a
    vector over 10,000 elements OpenBLAS hands the dot product to its
    thread pool, whose wake-up costs milliseconds per call and whose
    sum depends on the thread count. The shift only feeds the tolerance
    test, and at convergence it is exactly 0.0 either way.
    """
    centers = _kmeans_pp_init(x, k, rng)
    labels = np.zeros(x.shape[0], dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        moved = 0.0
        for c in range(k):
            members = x[labels == c]
            if members.shape[0] == 0:
                continue  # empty cluster keeps its centroid
            new = members.mean(axis=0)
            diff = new - centers[c]
            moved = max(moved, math.sqrt(np.add.reduce(diff * diff)))
            centers[c] = new
        if moved < KMEANS_TOL:
            break
    return centers, labels


def select_representatives(fields, clusters: int, seed: int = 0):
    """Cluster the snapshot set and keep the member nearest each centroid.

    Returns the rows of at most ``clusters`` snapshots (empty clusters
    are dropped), in time order; every row when ``clusters`` covers them.
    """
    if clusters >= len(fields):
        return fields
    x = _feature_matrix(fields)
    rng = np.random.default_rng(seed)
    centers, labels = _kmeans(x, clusters, rng)
    picked = []
    for c in range(clusters):
        members = np.nonzero(labels == c)[0]
        if members.size == 0:
            continue
        dists = np.linalg.norm(x[members] - centers[c], axis=1)
        picked.append(int(members[np.argmin(dists)]))
    return fields[sorted(set(picked))]


# ---------------------------------------------------------------------------
# selection


def greedy_select(fields_eval, candidates, k: int) -> list:
    """k rounds of adding the candidate that minimizes the objective.

    Ties break toward the lowest station index. Raises
    InfeasibleInstance if the objective is still infinite after all
    rounds.
    """
    cand = sorted(candidates)
    cols = fields_eval[:, :, cand]  # (tau, n_sats, n_cand)
    current = np.full(fields_eval.shape[:2], np.inf)
    chosen = []
    chosen_pos = set()
    for _ in range(k):
        objs = np.minimum(current[:, :, None], cols).max(axis=(0, 1))
        avail = np.array([p for p in range(len(cand)) if p not in chosen_pos])
        best_pos = int(avail[np.argmin(objs[avail])])  # first occurrence = lowest id
        chosen.append(cand[best_pos])
        chosen_pos.add(best_pos)
        current = np.minimum(current, cols[:, :, best_pos])
    if not np.isfinite(current.max()):
        raise InfeasibleInstance("every k-selection leaves some satellite unreachable")
    return sorted(chosen)


def local_search(selected, fields_eval, max_passes: int = DEFAULT_MAX_PASSES) -> list:
    """First-improvement swap refinement.

    Scans (in-set, out-of-set) pairs in index order, accepts the first
    swap that strictly lowers the objective, and repeats until a full
    pass finds nothing or ``max_passes`` is hit.
    """
    n_stations = fields_eval.shape[2]
    current = sorted(selected)
    best_obj = evaluate(current, fields_eval)
    for _ in range(max_passes):
        improved = False
        for out_station in list(current):
            for in_station in range(n_stations):
                if in_station in current:
                    continue
                trial = sorted(set(current) - {out_station} | {in_station})
                obj = evaluate(trial, fields_eval)
                if obj < best_obj:
                    current, best_obj = trial, obj
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return current


def cnpa(problem: PlacementProblem, eval_on_full: bool = False) -> PlacementSolution:
    """Cluster snapshots, greedily select, locally refine.

    ``eval_on_full`` scores greedy rounds against the full snapshot set
    instead of the representatives; local search always runs on the
    representatives. The returned objective is recomputed on the full
    set either way.
    """
    full = problem.fields
    reps = select_representatives(full, problem.clusters, problem.seed)
    selected = greedy_select(full if eval_on_full else reps, problem.candidates, problem.k)
    selected = local_search(selected, reps)
    return _solution(selected, full, "cnpa", problem.seed)


def exhaustive_optimal(
    fields, candidates, k: int, budget: int = DEFAULT_COMBINATION_BUDGET
) -> PlacementSolution:
    """Global optimum by scanning every k-subset of the candidates."""
    n = len(candidates)
    if math.comb(n, k) > budget:
        raise BudgetExceeded(f"C({n},{k}) exceeds budget {budget}")
    cand = sorted(candidates)
    best, best_obj = None, np.inf
    for combo in itertools.combinations(cand, k):
        obj = evaluate(combo, fields)
        if obj < best_obj:
            best, best_obj = combo, obj
    if best is None or not np.isfinite(best_obj):
        # keep the lexicographically first subset for a degenerate instance
        best = tuple(cand[:k])
    return _solution(best, fields, "exhaustive")


def random_select(fields, candidates, k: int, seed: int = 0) -> PlacementSolution:
    """Uniform seeded k-subset baseline, scored on the full set."""
    rng = np.random.default_rng(seed)
    cand = sorted(candidates)
    chosen = rng.choice(len(cand), size=k, replace=False)
    selected = [cand[i] for i in chosen]
    return _solution(selected, fields, "random", seed)


def best_single(fields, candidates) -> PlacementSolution:
    """Best single-station placement (the k=1 exhaustive optimum)."""
    sol = exhaustive_optimal(fields, candidates, 1)
    return PlacementSolution(
        selected=sol.selected,
        objective_km=sol.objective_km,
        objective_ms=sol.objective_ms,
        method="single",
    )
