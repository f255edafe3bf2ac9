"""The column-generation simplex against three oracles: brute-force basis
enumeration on small random LPs, the all-columns start (the plain
full-tableau solve) on cut-cone distortion LPs, and the full-tableau
simplex of `tests/oracles.py`, bit for bit, on generated LPs."""

import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings

from cutgap import metrics as mt
from cutgap import simplex
from cutgap.quotient import build_kv_instance, build_ug_sdp_solution
from cutgap.separator import assign_sdp_solution, build_bes
from cutgap.simplex import solve_lp
import oracles
from fixtures import cut_metric_combination
from oracles import solve_lp_full_tableau
from strategies import lps


def brute_force_optimum(c, A, b):
    """min c.x over the basic feasible solutions of [A | I] (x, s) = b."""
    m, n = A.shape
    full = np.hstack([A, np.eye(m)])
    best = np.inf
    for cols in itertools.combinations(range(n + m), m):
        B = full[:, cols]
        if abs(np.linalg.det(B)) < 1e-9:
            continue
        xb = np.linalg.solve(B, b)
        if np.min(xb) < -1e-9:
            continue
        x = np.zeros(n + m)
        x[list(cols)] = xb
        best = min(best, float(c @ x[:n]))
    return best


def random_feasible_lp(rng, m, n):
    """Bounded, feasible by construction (x0 satisfies every row), with
    about a third of the rows >= constraints (negative rhs, so phase 1 runs)."""
    A = rng.uniform(-1.0, 2.0, size=(m, n))
    A[0] = rng.uniform(0.5, 1.5, size=n)  # bounds every variable
    x0 = rng.uniform(0.0, 1.0, size=n)
    b = A @ x0 + rng.uniform(0.0, 0.5, size=m)
    flip = rng.random(m) < 0.35
    flip[0] = False
    A[flip] = -rng.uniform(0.0, 1.0, size=(int(flip.sum()), n))
    b[flip] = A[flip] @ x0 + rng.uniform(0.0, 0.2, size=int(flip.sum()))
    c = rng.uniform(-1.0, 1.0, size=n)
    return c, A, b


def test_matches_basis_enumeration_on_random_lps():
    rng = np.random.default_rng(17)
    phase_one = 0
    for trial in range(40):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        c, A, b = random_feasible_lp(rng, m, n)
        want = brute_force_optimum(c, A, b)
        phase_one += bool(np.any(b < 0))
        for start in (None, [int(rng.integers(n))], []):
            res = solve_lp(c, A, b, start=start)
            assert res.status == "optimal", (trial, start)
            assert abs(res.objective - want) < 1e-9, (trial, start)
            assert max(res.certificate_residuals(c, A, b).values()) < 1e-9, (trial, start)
    assert phase_one >= 10


def test_unbounded_and_infeasible_are_found_through_pricing():
    # min -x0 with x0 only in a row it can satisfy for free: a ray that
    # enters only when column 0 is priced in
    c = np.array([-1.0, 0.0])
    A = np.array([[-1.0, 1.0]])
    b = np.array([1.0])
    for start in (None, [1]):
        assert solve_lp(c, A, b, start=start).status == "unbounded"
    # x0 + x1 <= 1 and x0 >= 2 (as -x0 <= -2)
    A = np.array([[1.0, 1.0], [-1.0, 0.0]])
    b = np.array([1.0, -2.0])
    for start in (None, [1]):
        assert solve_lp(np.zeros(2), A, b, start=start).status == "infeasible"


def test_rejects_bad_start():
    c, A, b = np.ones(2), np.eye(2), np.ones(2)
    for start in ([0, 0], [2], [[0]]):
        with pytest.raises(ValueError):
            solve_lp(c, A, b, start=start)


def outcome(solve, c, A, b, start):
    """Everything a solve returns, every float as its hex string, or the
    type of the exception it raised."""
    try:
        res = solve(c, A, b, start=start)
    except Exception as exc:
        return type(exc).__name__
    floats = {name: None if a is None else [v.hex() for v in a.tolist()]
              for name, a in (("x", res.x), ("dual", res.dual),
                              ("reduced_costs", res.reduced_costs))}
    basis = None if res.basis is None else res.basis.tolist()
    return res.status, res.iterations, basis, floats, res.working_columns


def full_tableau_columns(t):
    """The tableau of `oracles._Tableau`: a dict from the program column
    that each non-basic column stands for to its entries, the rhs, the
    basis, and whether every basic column is its row's unit column."""
    m = len(t.basis)
    units = np.eye(m + 1)[:, :m]
    nonbasic = np.setdiff1d(np.arange(t.tab.shape[1] - 1), t.basis)
    return ({int(t.cols[j]): t.tab[:, j].tolist() for j in nonbasic},
            t.tab[:, -1].tolist(), t.cols[t.basis].tolist(),
            all(t.tab[:, j].tolist() == units[:, i].tolist() for i, j in enumerate(t.basis)))


def dictionary_columns(t):
    """The same for the dictionary form of `cutgap.simplex._Tableau`, whose
    basic columns are unit columns by construction."""
    return ({int(t.cols[j]): t.tab[:, s].tolist() for s, j in enumerate(t.ids)},
            t.tab[:, -1].tolist(), t.cols[t.basis].tolist(), True)


def solve_recording(solve, tableau_class, columns, lp):
    """The outcome of `solve` on `lp`, and the tableau as `columns` reads it
    whenever `optimize` returns (once per phase and solve)."""
    snapshots = []
    optimize = tableau_class.optimize

    def recording_optimize(t, cost):
        out = optimize(t, cost)
        snapshots.append(columns(t))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tableau_class, "optimize", recording_optimize)
        return outcome(solve, *lp), snapshots


# Beale's cycling LP, with x4 <= 1 and x4 >= 1, which the rhs perturbation
# makes infeasible: the unperturbed solve then cycles under Dantzig's rule
# until Bland's rule takes over, whose ties the generated LPs never reach
BEALE = (np.array([-0.75, 20.0, -0.5, 6.0, 0.0]),
         np.array([[0.25, -8.0, -1.0, 9.0, 0.0], [0.5, -12.0, -0.5, 3.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0],
                   [0.0, 0.0, 0.0, 0.0, -1.0]]),
         np.array([0.0, 0.0, 1.0, 1.0, -1.0]), None)
# an LP whose drive-out has two columns to pivot on, in slots out of order
DRIVE_OUT_TIE = (np.array([2.0, -1.0, 2.0]),
                 np.array([[2.0, -1.0, 0.0], [0.0, 2.0, 2.0], [-1.0, 0.0, -1.0],
                           [-2.0, 0.0, 2.0], [-1.0, -2.0, -1.0]]),
                 np.array([0.0, 4.0, -2.0, 4.0, -2.0]), None)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(lps())
@example(BEALE)
@example(DRIVE_OUT_TIE)
def test_matches_full_tableau_bit_for_bit(lp):
    """The same outcome as the full tableau, every float in it bit for bit,
    and at the end of each phase the same non-basic columns and rhs. The
    tableaux are compared with ==: after a drive-out pivot on a negative
    entry the full tableau's basic columns hold -0.0 in that row, which a
    column leaving the basis keeps and the dictionary form writes as 0.0.
    An optimal basis holds no artificial: the drive-out pivots each one out
    on its row's slack, so `simplex._duals` solves over columns of [A | I]."""
    got = solve_recording(solve_lp, simplex._Tableau, dictionary_columns, lp)
    assert got == solve_recording(solve_lp_full_tableau, oracles._Tableau, full_tableau_columns, lp)
    result = got[0]
    if isinstance(result, tuple) and result[0] == "optimal":
        assert all(j < sum(lp[1].shape) for j in result[2])


def test_generated_lps_widen_the_tableau_mid_phase(monkeypatch):
    """The draws of `test_matches_full_tableau_bit_for_bit` include programs
    whose pricing widens the tableau and whose pivoting then resumes on it,
    so the pivot's work arrays are reallocated mid-phase and used at the
    new width."""
    widened = []  # a tableau at each pivot after a widening
    append, pivot = simplex._Tableau._append_priced, simplex._Tableau.pivot

    def recording_append(t, cost):
        grown = append(t, cost)
        t.widened = grown or getattr(t, "widened", False)
        return grown

    def recording_pivot(t, row, slot):
        if getattr(t, "widened", False):
            assert t.product.shape == t.tab.shape and t.column.shape == (len(t.tab), 1)
            widened.append(t)
        pivot(t, row, slot)

    monkeypatch.setattr(simplex._Tableau, "_append_priced", recording_append)
    monkeypatch.setattr(simplex._Tableau, "pivot", recording_pivot)
    test_matches_full_tableau_bit_for_bit()
    assert len({id(t) for t in widened}) >= 10


def test_pricing_appends_every_column_below_the_threshold(monkeypatch):
    """One pricing round appends every column that prices below -PRICE_TOL,
    in index order, and none at it. No reduced cost here reaches
    -PIVOT_TOL, so nothing enters, the duals stay 0 and column j prices at
    c_j."""
    rounds = []  # the columns of A each pricing round appends
    append = simplex._Tableau._append_priced

    def recording_append(t, cost):
        held = len(t.cols)
        grown = append(t, cost)
        rounds.append(t.cols[held:].tolist())
        return grown

    monkeypatch.setattr(simplex._Tableau, "_append_priced", recording_append)
    tol = simplex.PRICE_TOL
    c = np.array([0.0, -tol, np.nextafter(-tol, -1.0), 0.0, -2 * tol])
    res = solve_lp(c, np.ones((1, 5)), np.array([1.0]), start=[0])
    assert rounds == [[2, 4], []]
    assert res.status == "optimal" and res.working_columns == 3


def test_artificial_at_zero_level_is_driven_out(monkeypatch):
    """x <= 2 and 2x >= 4: the perturbed right-hand sides tie, so phase 1
    ends with the second row's artificial basic at zero level. The drive-out
    pivots it out on its row's slack, so phase 2 starts with no artificial
    basic (for any finite LP: that slack is the negated artificial column)."""
    lp = (np.array([1.0]), np.array([[1.0], [-2.0]]), np.array([2.0, -4.0]), None)
    assert outcome(solve_lp, *lp) == outcome(solve_lp_full_tableau, *lp)
    ends = []
    optimize = simplex._Tableau.optimize

    def recording_optimize(t, cost):
        out = optimize(t, cost)
        rows = np.flatnonzero(t.cols[t.basis] >= 3)  # n + m: the artificials
        ends.append((rows.tolist(), t.tab[rows, -1].tolist()))
        return out

    monkeypatch.setattr(simplex._Tableau, "optimize", recording_optimize)
    res = solve_lp(*lp)
    assert ends == [([1], [0.0]), ([], [])]
    assert res.status == "optimal" and res.x.tolist() == [2.0]
    assert res.basis.tolist() == [0, 1]  # x and the first row's slack


def _all_columns_gamma(metric):
    """Gamma of the full-tableau solve, on the metric l1_distortion_lp
    actually solves (zero-distance classes contracted)."""
    reps = [cls[0] for cls in mt._zero_distance_classes(metric)]
    _, _, c, A, b = mt._distortion_lp_data(mt.FiniteMetric(metric.d[np.ix_(reps, reps)]))
    return solve_lp(c, A, b).x[-1]


def _assert_matches_all_columns(metric):
    res = mt.l1_distortion_lp(metric)
    n = len(mt._zero_distance_classes(metric))
    # the certificate is taken over all 2^(n-1) - 1 cut columns and Gamma
    assert len(res.lp.x) == (1 << (n - 1))
    assert max(res.certificate.values()) <= 1e-7
    assert abs(res.gamma - _all_columns_gamma(metric)) <= 1e-12
    return res


@functools.cache
def handle_metric(t):
    """The 64-point k=2 separator handle metric (eta = epsilon = 0.3,
    l_in = 8) at tensor power t."""
    u, quot, _ = build_kv_instance(2, 0.3)
    inst = build_bes(u, 0.3)
    assign = assign_sdp_solution(inst, build_ug_sdp_solution(quot), l_in=8, t=t)
    g = np.block([[assign.base_gram_block(v, w) ** t for w in range(4)] for v in range(4)])
    return mt.metric_from_gram(g)


def handle_submetric(n, t=1, pts=None):
    """The handle metric's submetric on `pts`, by default its farthest-point
    n-point sample from point 0."""
    metric = handle_metric(t)
    if pts is None:
        pts = mt.farthest_point_sample(metric, n, seed_point=0)
    return mt.FiniteMetric(metric.d[np.ix_(pts, pts)])


def test_working_set_matches_all_columns_on_k23():
    d = np.full((5, 5), 2.0)
    np.fill_diagonal(d, 0.0)
    d[:2, 2:] = d[2:, :2] = 1.0
    res = _assert_matches_all_columns(mt.FiniteMetric(d))
    assert abs(res.gamma - 4.0 / 3.0) < 1e-12


def test_working_set_matches_all_columns_on_handle_submetrics():
    res = _assert_matches_all_columns(handle_submetric(10))
    assert res.gamma == 1.0000000000000002  # criterion 8's frozen value
    # the one n = 12 all-columns solve: 2047 cuts, of which the working set
    # ends with 525
    res = _assert_matches_all_columns(handle_submetric(12))
    assert (res.lp.iterations, res.lp.working_columns) == (402, 525)


def test_working_set_matches_all_columns_on_shortest_path_metrics():
    rng = np.random.default_rng(23)
    above_one = 0
    for _ in range(10):
        n = int(rng.integers(6, 11))
        w = np.where(rng.random((n, n)) < 0.5, rng.uniform(1.0, 3.0, (n, n)), np.inf)
        w = np.minimum(w, w.T)
        w[np.arange(n - 1), np.arange(1, n)] = w[np.arange(1, n), np.arange(n - 1)] = 1.0  # connected
        np.fill_diagonal(w, 0.0)
        for k in range(n):
            w = np.minimum(w, w[:, k:k + 1] + w[k:k + 1, :])
        res = _assert_matches_all_columns(mt.FiniteMetric(w))
        above_one += res.gamma > 1.0 + 1e-9
    assert above_one >= 5


def test_working_set_matches_all_columns_on_cut_metrics():
    # the random cut metrics of acceptance criterion 8 (seed 808): every one
    # is l1, so both solves give Gamma = 1
    rng = np.random.default_rng(808)
    done = 0
    while done < 100:
        n = int(rng.integers(4, 11))
        cuts = []
        for _ in range(int(rng.integers(2, 7))):
            members = frozenset(int(i) for i in np.flatnonzero(rng.random(n) < 0.5) if i > 0)
            if members:
                cuts.append((members, float(rng.uniform(0.2, 2.0))))
        if not cuts:
            continue
        metric = cut_metric_combination(n, cuts)
        if np.max(metric.d) == 0.0:
            continue
        _assert_matches_all_columns(metric)
        done += 1


# the t=3 failures of the distortion LP in a sweep of 600 subsets drawn by
# default_rng(0): each ends in a singular basis
T3_REPRODUCERS = (
    [23, 33, 36, 42, 48, 51, 56, 59, 61, 62],
    [8, 17, 20, 32, 40, 44, 46, 59, 61, 62],
    [1, 2, 4, 8, 13, 14, 34, 45, 54, 56],
)
# t=3 subsets that failed while pricing appended at most 8 columns a round:
# Gamma off by 1%, a stall and a singular basis
T3_SOLVED = (
    [0, 6, 22, 25, 45, 47, 59, 60, 62, 63],
    [0, 15, 16, 18, 21, 36, 37, 38, 55, 58],
    [6, 7, 17, 20, 24, 48, 56, 57, 58, 61],
)
PIVOT_PATH_DIGEST = "0096bcc667e0065b66d4c0fafa668cb5e4a542aa2d5d40792f59969d29fedb8d"


@pytest.mark.parametrize("pts", T3_SOLVED)
def test_former_t3_failures_solve(pts):
    res = mt.l1_distortion_lp(handle_submetric(10, 3, pts))
    assert abs(res.gamma - 1.0) <= 1e-12  # the metric is l1: Gamma is exactly 1
    assert max(res.certificate.values()) <= 1e-7


def test_pivot_path_matches_digest(monkeypatch):
    """One SHA-256 over (status or exception type, Gamma.hex(), iterations,
    basis) of the LP that l1_distortion_lp solves, for 40 seeded 10-point
    subsets of the t=3 handle metric and the three reproducers. It pins
    every pivot decision of the float simplex, failures included; a change
    that means to move the pivot path regenerates it."""
    rng = np.random.default_rng(42)
    subsets = [np.sort(rng.choice(64, 10, replace=False)) for _ in range(40)]
    solved = []

    def recording_solve_lp(*args, **kwargs):
        solved.append(solve_lp(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(mt, "solve_lp", recording_solve_lp)
    lines = []
    for pts in [*subsets, *T3_REPRODUCERS]:
        solved.clear()
        try:
            mt.l1_distortion_lp(handle_submetric(10, 3, pts))
        except Exception as exc:  # the reproducers fail on purpose
            if not solved:
                lines.append(type(exc).__name__)
                continue
        res = solved[0]
        gamma = None if res.x is None else res.x[-1].hex()
        basis = None if res.basis is None else res.basis.tolist()
        lines.append(repr((res.status, gamma, res.iterations, basis)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PIVOT_PATH_DIGEST
