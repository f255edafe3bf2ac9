"""The column-generation simplex against two independent oracles: brute-force
basis enumeration on small random LPs, and the all-columns start (the plain
full-tableau solve) on cut-cone distortion LPs."""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from cutgap import metrics as mt
from cutgap.quotient import build_kv_instance, build_ug_sdp_solution
from cutgap.separator import assign_sdp_solution, build_bes
from cutgap.simplex import solve_lp


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
    assert res.gamma == 0.9999999999999998  # criterion 8's frozen value
    # the one n = 12 all-columns solve: 2047 cuts, of which the working set
    # ends with fewer than 300
    res = _assert_matches_all_columns(handle_submetric(12))
    assert res.lp.working_columns < 300


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
        metric = mt.cut_metric_combination(n, cuts)
        if np.max(metric.d) == 0.0:
            continue
        _assert_matches_all_columns(metric)
        done += 1


# the three t=3 failures of the distortion LP: Gamma off by 1%, a stall and
# a singular basis
T3_REPRODUCERS = (
    [0, 6, 22, 25, 45, 47, 59, 60, 62, 63],
    [0, 15, 16, 18, 21, 36, 37, 38, 55, 58],
    [6, 7, 17, 20, 24, 48, 56, 57, 58, 61],
)
PIVOT_PATH_DIGEST = "c02cbf8e6bb6627213d5e8b52c33efa7cf22064cbb656de14fb09e77482ffa9b"


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
