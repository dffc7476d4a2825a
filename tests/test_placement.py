import itertools
import math

import numpy as np
import pytest

from conftest import random_distance_fields
from leocp import placement as plc
from leocp.errors import BudgetExceeded, EmptySelection, InfeasibleInstance
from leocp.placement import (
    PlacementProblem,
    best_single,
    cnpa,
    evaluate,
    exhaustive_optimal,
    greedy_select,
    local_search,
    random_select,
    select_representatives,
)


def brute_force_objective(selected, fields):
    """Triple-loop oracle for the worst-case nearest-controller distance."""
    worst = 0.0
    for f in fields:
        for s in range(f.shape[0]):
            nearest = min(f[s, g] for g in selected)
            worst = max(worst, nearest)
    return worst


def fields_of(*matrices):
    """A ``(snapshots, sats, stations)`` distance array, one matrix per snapshot."""
    return np.array(matrices, dtype=float)


def rows_of(reps, fields):
    """The snapshot index of each row of ``reps`` in ``fields``."""
    return [next(i for i, f in enumerate(fields) if np.array_equal(r, f)) for r in reps]


def test_evaluate_single_entry():
    fields = fields_of([[100.0]])
    assert evaluate([0], fields) == 100.0


def test_evaluate_full_set_is_lower_bound():
    rng = np.random.default_rng(5)
    fields = random_distance_fields(rng, 3, 6, 5)
    full = evaluate(range(5), fields)
    for k in (1, 2, 3):
        for combo in itertools.combinations(range(5), k):
            assert evaluate(combo, fields) >= full - 1e-12


def test_evaluate_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n_sats = int(rng.integers(1, 6))
        n_st = int(rng.integers(1, 5))
        fields = random_distance_fields(rng, int(rng.integers(1, 4)), n_sats, n_st)
        k = int(rng.integers(1, n_st + 1))
        selected = sorted(rng.choice(n_st, size=k, replace=False).tolist())
        assert evaluate(selected, fields) == brute_force_objective(selected, fields)


def test_evaluate_monotone_in_selection():
    rng = np.random.default_rng(23)
    fields = random_distance_fields(rng, 2, 5, 6)
    small = evaluate([1, 3], fields)
    big = evaluate([1, 3, 4], fields)
    assert big <= small


def test_evaluate_empty_selection_raises():
    with pytest.raises(EmptySelection):
        evaluate([], fields_of([[1.0]]))


def test_evaluate_unreachable_is_infinite():
    fields = fields_of([[np.inf, 5.0]])
    assert math.isinf(evaluate([0], fields))
    assert evaluate([0, 1], fields) == 5.0


# ---------------------------------------------------------------------------
# representatives


def test_representatives_identity_when_c_equals_n():
    rng = np.random.default_rng(2)
    fields = random_distance_fields(rng, 4, 3, 3)
    reps = select_representatives(fields, 4, seed=0)
    assert reps is fields


def test_representatives_c1_nearest_global_mean():
    mats = [np.full((2, 2), v, dtype=float) for v in (0.0, 10.0, 11.0, 30.0)]
    fields = fields_of(*mats)
    reps = select_representatives(fields, 1, seed=3)
    # global mean value is 12.75; field with value 10 or 11 is nearest
    assert len(reps) == 1
    assert rows_of(reps, fields) == [2]  # 11.0 is closest to 12.75


def test_representatives_pick_one_per_group():
    rng = np.random.default_rng(9)
    base_a = rng.uniform(1, 10, size=(3, 3))
    base_b = base_a + 500.0
    fields = fields_of(
        *[base_a + rng.normal(0, 0.01, base_a.shape) for _ in range(4)],
        *[base_b + rng.normal(0, 0.01, base_b.shape) for _ in range(4)],
    )
    reps = select_representatives(fields, 2, seed=1)
    assert len(reps) == 2
    assert {0 if i < 4 else 1 for i in rows_of(reps, fields)} == {0, 1}


def test_representatives_deterministic():
    rng = np.random.default_rng(31)
    fields = random_distance_fields(rng, 10, 4, 4)
    a = select_representatives(fields, 3, seed=7)
    b = select_representatives(fields, 3, seed=7)
    assert rows_of(a, fields) == rows_of(b, fields)
    assert rows_of(a, fields) == sorted(rows_of(a, fields))  # time order


def _norm_loop_representatives(fields, clusters, seed):
    """``select_representatives`` with the k-means convergence test on
    ``np.linalg.norm`` of each centre's shift, as first written."""
    x = plc._feature_matrix(fields)
    rng = np.random.default_rng(seed)
    centers = plc._kmeans_pp_init(x, clusters, rng)
    for _ in range(plc.KMEANS_MAX_ITER):
        labels = np.argmin(((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
        moved = 0.0
        for c in range(clusters):
            members = x[labels == c]
            if members.shape[0]:
                new = members.mean(axis=0)
                moved = max(moved, float(np.linalg.norm(new - centers[c])))
                centers[c] = new
        if moved < plc.KMEANS_TOL:
            break
    picked = set()
    for c in range(clusters):
        members = np.nonzero(labels == c)[0]
        if members.size:
            dists = np.linalg.norm(x[members] - centers[c], axis=1)
            picked.add(int(members[np.argmin(dists)]))
    return sorted(picked)


@pytest.mark.parametrize("seed", range(5))
def test_representatives_above_the_blas_threshold_match_the_norm_loop(monkeypatch, seed):
    # 12 fields of 2,000 satellites x 6 stations: 12,000 features, past the
    # size at which OpenBLAS threads a level-1 call. Three drifting regimes
    # with some unreachable pairs keep k-means iterating.
    rng = np.random.default_rng(seed)
    regimes = rng.uniform(500.0, 5000.0, size=(3, 2000, 6))
    fields = []
    for i in range(12):
        d = regimes[i % 3] * rng.uniform(0.9, 1.1) + rng.normal(0.0, 50.0, size=(2000, 6))
        d[rng.random(d.shape) < 0.01] = np.inf
        fields.append(d)
    fields = fields_of(*fields)
    expected = _norm_loop_representatives(fields, 4, seed)

    norm = np.linalg.norm

    def no_long_vector_norm(x, *args, **kwargs):
        assert not (np.ndim(x) == 1 and np.size(x) > 10_000), "level-1 BLAS on a long vector"
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", no_long_vector_norm)
    got = select_representatives(fields, 4, seed=seed)
    assert rows_of(got, fields) == expected


# ---------------------------------------------------------------------------
# greedy + local search


def test_greedy_k1_matches_exhaustive():
    rng = np.random.default_rng(13)
    for _ in range(20):
        fields = random_distance_fields(rng, 2, 5, 4)
        greedy = greedy_select(fields, range(4), 1)
        opt = exhaustive_optimal(fields, range(4), 1)
        assert evaluate(greedy, fields) == opt.objective_km


def test_greedy_prefers_covering_station():
    fields = fields_of([[1.0, 1000.0], [1.0, 1000.0], [1.0, 1000.0]])
    assert greedy_select(fields, [0, 1], 1) == [0]


def test_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(29)
    for _ in range(30):
        fields = random_distance_fields(rng, 3, 6, 5)
        k = int(rng.integers(1, 4))
        greedy = greedy_select(fields, range(5), k)
        opt = exhaustive_optimal(fields, range(5), k)
        assert evaluate(greedy, fields) >= opt.objective_km - 1e-12


def test_greedy_infeasible_raises():
    fields = fields_of([[np.inf, np.inf], [1.0, 2.0]])
    with pytest.raises(InfeasibleInstance):
        greedy_select(fields, [0, 1], 1)


def test_greedy_tie_breaks_lowest_index():
    fields = fields_of([[7.0, 7.0, 7.0]])
    assert greedy_select(fields, [0, 1, 2], 1) == [0]


def test_local_search_keeps_optimum():
    rng = np.random.default_rng(37)
    fields = random_distance_fields(rng, 2, 5, 5)
    opt = exhaustive_optimal(fields, range(5), 2)
    refined = local_search(list(opt.selected), fields)
    assert evaluate(refined, fields) == opt.objective_km


def test_local_search_k1_converges_to_optimum():
    rng = np.random.default_rng(41)
    fields = random_distance_fields(rng, 2, 6, 5)
    singles = {g: evaluate([g], fields) for g in range(5)}
    worst = max(singles, key=lambda g: singles[g])
    best_obj = min(singles.values())
    refined = local_search([worst], fields)
    assert evaluate(refined, fields) == best_obj


def test_local_search_never_increases():
    rng = np.random.default_rng(43)
    for seed in range(100):
        inst = np.random.default_rng(seed)
        fields = random_distance_fields(inst, 2, 5, 5)
        start = sorted(inst.choice(5, size=2, replace=False).tolist())
        before = evaluate(start, fields)
        after = evaluate(local_search(start, fields), fields)
        assert after <= before


# ---------------------------------------------------------------------------
# full pipeline and baselines


def test_cnpa_with_all_clusters_matches_plain_greedy_ls():
    rng = np.random.default_rng(47)
    fields = random_distance_fields(rng, 4, 6, 5)
    problem = PlacementProblem(fields=fields, candidates=list(range(5)), k=2, clusters=4, seed=0)
    sol = cnpa(problem, eval_on_full=True)
    manual = local_search(greedy_select(fields, range(5), 2), fields)
    assert sol.selected == tuple(sorted(manual))
    assert sol.objective_km == evaluate(manual, fields)


def test_cnpa_deterministic():
    rng = np.random.default_rng(53)
    fields = random_distance_fields(rng, 6, 8, 6)
    problem = PlacementProblem(fields=fields, candidates=list(range(6)), k=2, clusters=3, seed=11)
    a, b = cnpa(problem), cnpa(problem)
    assert a.selected == b.selected
    assert a.objective_km == b.objective_km


def test_cnpa_objective_recomputed_on_full_set():
    rng = np.random.default_rng(59)
    fields = random_distance_fields(rng, 6, 5, 4)
    problem = PlacementProblem(fields=fields, candidates=list(range(4)), k=2, clusters=2, seed=3)
    sol = cnpa(problem)
    assert sol.objective_km == evaluate(sol.selected, fields)
    assert sol.objective_ms == pytest.approx(sol.objective_km / 299.792458)


def test_exhaustive_full_set_and_k1():
    rng = np.random.default_rng(61)
    fields = random_distance_fields(rng, 2, 4, 4)
    full = exhaustive_optimal(fields, range(4), 4)
    assert full.selected == (0, 1, 2, 3)
    k1 = exhaustive_optimal(fields, range(4), 1)
    singles = {g: evaluate([g], fields) for g in range(4)}
    assert k1.objective_km == min(singles.values())


def test_exhaustive_ties_break_lexicographically():
    # stations 0,1 and 2,3 are interchangeable; the lexicographically
    # smallest optimal pair wins
    d = [[5.0, 5.0, 5.0, 5.0], [5.0, 5.0, 5.0, 5.0]]
    sol = exhaustive_optimal(fields_of(d), range(4), 2)
    assert sol.selected == (0, 1)


def test_exhaustive_budget():
    rng = np.random.default_rng(67)
    fields = random_distance_fields(rng, 1, 2, 30)
    with pytest.raises(BudgetExceeded):
        exhaustive_optimal(fields, range(30), 15, budget=1000)


def test_method_ordering_exhaustive_cnpa_random():
    # structureless random snapshots: score with every snapshot so the
    # clustering proxy cannot distort the comparison
    for seed in range(20):
        inst = np.random.default_rng(1000 + seed)
        fields = random_distance_fields(inst, 3, 8, 6)
        problem = PlacementProblem(
            fields=fields, candidates=list(range(6)), k=2, clusters=3, seed=seed
        )
        sol = cnpa(problem)
        opt = exhaustive_optimal(fields, range(6), 2)
        rand_mean = np.mean(
            [random_select(fields, range(6), 2, seed=s).objective_km for s in range(30)]
        )
        assert opt.objective_km <= sol.objective_km + 1e-12
        assert sol.objective_km <= rand_mean + 1e-12


def test_cnpa_clustering_proxy_on_structured_instances():
    # snapshots arrive in two repeating regimes; representatives stand in
    # for the full set without hurting the final objective
    rng = np.random.default_rng(83)
    regime_a = rng.uniform(10, 500, size=(8, 6))
    regime_b = rng.uniform(10, 500, size=(8, 6))
    fields = []
    for i in range(10):
        base = regime_a if i % 2 == 0 else regime_b
        fields.append(base + rng.normal(0.0, 0.5, base.shape))
    fields = fields_of(*fields)
    problem = PlacementProblem(fields=fields, candidates=list(range(6)), k=2, clusters=2, seed=4)
    sol = cnpa(problem)
    opt = exhaustive_optimal(fields, range(6), 2)
    assert opt.objective_km <= sol.objective_km <= 1.3 * opt.objective_km


def test_random_select_deterministic_and_full():
    rng = np.random.default_rng(73)
    fields = random_distance_fields(rng, 2, 3, 4)
    a = random_select(fields, range(4), 2, seed=5)
    b = random_select(fields, range(4), 2, seed=5)
    assert a.selected == b.selected
    assert random_select(fields, range(4), 4, seed=9).selected == (0, 1, 2, 3)


def test_best_single_matches_k1_exhaustive():
    rng = np.random.default_rng(79)
    fields = random_distance_fields(rng, 3, 5, 4)
    assert best_single(fields, range(4)).objective_km == exhaustive_optimal(
        fields, range(4), 1
    ).objective_km


def test_problem_invariants():
    fields = fields_of([[1.0]])
    with pytest.raises(ValueError):
        PlacementProblem(fields=fields, candidates=[0], k=2, clusters=1)
    with pytest.raises(ValueError):
        PlacementProblem(fields=fields, candidates=[0], k=1, clusters=2)
