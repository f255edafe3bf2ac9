"""Finite-metric machinery: negative-type validation via Schoenberg
centering, exact l1-embedding distortion through the cut-cone LP, sparsest
cuts, and the iterative cut-erasure / random-XOR rounding pipeline.

Metrics are symmetric nonnegative matrices with zero diagonal satisfying the
triangle inequality (validated at construction). Graph-with-demands
instances for the rounding side are plain (weights, demands) matrix pairs,
stored as GRAPH text files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import SimplexResult, solve_lp

__all__ = [
    "FiniteMetric",
    "NegativeTypeWitness",
    "CutDecomposition",
    "DistortionResult",
    "RoundingResult",
    "is_negative_type",
    "l1_distortion_lp",
    "export_distortion_lp",
    "metric_from_gram",
    "metric_to_text",
    "metric_from_text",
    "graph_to_text",
    "graph_from_text",
    "farthest_point_sample",
    "sparsity",
    "best_xor_cut",
    "round_to_balanced_cut",
    "local_search_sparsest_cut",
    "cut_metric_combination",
]

DEFAULT_LP_POINT_LIMIT = 12


@dataclass(frozen=True)
class FiniteMetric:
    d: np.ndarray
    tol: float = 1e-9

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        object.__setattr__(self, "d", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if np.max(np.abs(d - d.T)) > self.tol:
            raise ValueError("distance matrix must be symmetric")
        if np.max(np.abs(np.diag(d))) > self.tol:
            raise ValueError("diagonal must be zero")
        if np.min(d) < -self.tol:
            raise ValueError("distances must be nonnegative")
        n = d.shape[0]
        viol = d[:, None, :] + d[None, :, :] - d[:, :, None]
        if np.min(viol) < -self.tol:
            raise ValueError("triangle inequality violated")
        d.setflags(write=False)

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass
class NegativeTypeWitness:
    min_eigenvalue: float
    eigenvector: np.ndarray | None
    embedding: np.ndarray | None  # rows are realizing vectors when PSD


def is_negative_type(metric: FiniteMetric, base_point: int = 0,
                     tol: float = 1e-9):
    """Schoenberg test: d is negative type iff the centered matrix
    G[i,j] = (d(i,r) + d(j,r) - d(i,j)) / 2 is PSD (any base point r).

    Returns (verdict, witness): the witness carries the most negative
    eigenpair, plus realizing vectors whose squared distances reproduce d
    when the verdict is positive.
    """
    d = metric.d
    g = (d[base_point][:, None] + d[base_point][None, :] - d) / 2.0
    eigvals, eigvecs = np.linalg.eigh(g)
    scale = max(1.0, float(np.max(np.abs(g))))
    ok = bool(eigvals[0] >= -tol * scale)
    embedding = None
    if ok:
        embedding = eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))
    return ok, NegativeTypeWitness(
        min_eigenvalue=float(eigvals[0]),
        eigenvector=eigvecs[:, 0],
        embedding=embedding,
    )


def metric_from_gram(gram: np.ndarray) -> FiniteMetric:
    """||v_i - v_j||^2 distances from a Gram matrix of unit vectors."""
    g = np.asarray(gram, dtype=np.float64)
    d = np.diag(g)[:, None] + np.diag(g)[None, :] - 2 * g
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return FiniteMetric(np.maximum(d, 0.0))


@dataclass
class CutDecomposition:
    cuts: list  # (frozenset of point indices, weight >= 0)

    def induced(self, n: int) -> np.ndarray:
        d = np.zeros((n, n))
        for members, weight in self.cuts:
            ind = np.zeros(n, dtype=bool)
            ind[list(members)] = True
            sep = ind[:, None] != ind[None, :]
            d += weight * sep
        return d


@dataclass
class DistortionResult:
    gamma: float
    decomposition: CutDecomposition
    lp: SimplexResult
    certificate: dict


def _cut_bits(n: int) -> np.ndarray:
    """Membership of points 0..n-1 in the 2^(n-1) - 1 nontrivial cuts up to
    complement: row code - 1 holds point p >= 1 iff bit p - 1 of code is set
    (point 0 stays on the fixed side)."""
    codes = np.arange(1, 1 << (n - 1))
    bits = np.zeros((len(codes), n), dtype=bool)
    bits[:, 1:] = codes[:, None] >> np.arange(n - 1) & 1
    return bits


def _distortion_lp_data(metric: FiniteMetric):
    n = metric.n
    bits = _cut_bits(n)
    iu, ju = np.triu_indices(n, 1)
    delta = (bits[:, iu] != bits[:, ju]).T.astype(np.float64)
    dvec = metric.d[iu, ju]
    # variables: (lambda_cuts, Gamma); minimize Gamma subject to
    #   -sum lambda delta <= -d   (no contraction)
    #   sum lambda delta - Gamma d <= 0  (expansion at most Gamma)
    ncuts, npairs = len(bits), len(iu)
    c = np.zeros(ncuts + 1)
    c[-1] = 1.0
    A = np.zeros((2 * npairs, ncuts + 1))
    b = np.zeros(2 * npairs)
    A[:npairs, :ncuts] = -delta
    b[:npairs] = -dvec
    A[npairs:, :ncuts] = delta
    A[npairs:, -1] = -dvec
    return bits, (iu, ju), c, A, b


def _zero_distance_classes(metric: FiniteMetric):
    """Partition points into classes of pairwise distance zero.

    Zero pairs force every separating cut weight to zero (the Gamma*d side
    is an equality at 0), so contracting them first removes a wall of
    degenerate constraints without changing the optimal distortion.
    """
    n = metric.n
    rep = list(range(n))
    for i in range(n):
        for j in range(i):
            if metric.d[i, j] <= 1e-12 and rep[i] == i:
                rep[i] = rep[j]
    classes: dict = {}
    for i in range(n):
        classes.setdefault(rep[i], []).append(i)
    return list(classes.values())


def l1_distortion_lp(metric: FiniteMetric, n_max: int = DEFAULT_LP_POINT_LIMIT) -> DistortionResult:
    """Exact minimal l1 distortion via the cut-cone LP.

    Minimizes Gamma over nonnegative cut weights lambda with
    d <= sum lambda delta_S <= Gamma d, solved by the dense simplex.
    Zero-distance point classes are contracted first (distortion-preserving).
    The returned certificate holds the complementary-slackness residuals.
    """
    if metric.n > n_max:
        raise ValueError(
            f"{metric.n} points exceed n_max={n_max} "
            "(2^(n-1)-1 cut variables); use export_distortion_lp"
        )
    classes = _zero_distance_classes(metric)
    if len(classes) < 2:
        return DistortionResult(
            gamma=1.0, decomposition=CutDecomposition([]),
            lp=SimplexResult(status="optimal", x=np.zeros(1), objective=1.0,
                             dual=np.zeros(0), reduced_costs=np.zeros(1)),
            certificate={"primal_feasibility": 0.0, "dual_feasibility": 0.0,
                         "comp_slack_rows": 0.0, "comp_slack_cols": 0.0,
                         "duality_gap": 0.0},
        )
    reps = [cls[0] for cls in classes]
    contracted = metric
    if len(classes) < metric.n:
        contracted = FiniteMetric(metric.d[np.ix_(reps, reps)])
    bits, _, c, A, b = _distortion_lp_data(contracted)
    # start from the singleton cuts ({0} as its complement, the full row) and
    # Gamma: feasible, since Gamma is free; the other cuts enter by pricing
    sizes = np.sum(bits, axis=1)
    start = np.append(np.flatnonzero((sizes == 1) | (sizes == len(classes) - 1)), len(bits))
    res = solve_lp(c, A, b, start=start)
    if res.status != "optimal":
        raise RuntimeError(f"distortion LP did not solve: {res.status}")
    weights = res.x[:-1]
    decomposition = CutDecomposition(
        [
            (frozenset(p for ci in np.flatnonzero(bits[i]) for p in classes[ci]),
             float(weights[i]))
            for i in np.flatnonzero(weights > 1e-12)
        ]
    )
    return DistortionResult(
        gamma=float(res.x[-1]),
        decomposition=decomposition,
        lp=res,
        certificate=res.certificate_residuals(c, A, b),
    )


def export_distortion_lp(metric: FiniteMetric) -> str:
    """Text export of the same program for external solvers.

    Grammar: `OBJECTIVE min` then one `coef var` term per line; `CONSTRAINTS`
    with lines `name: coef var [coef var ...] <= rhs`; `BOUNDS` with
    `var >= 0` lines. Variables are cut_<bitcode> and gamma.
    """
    bits, (iu, ju), c, A, b = _distortion_lp_data(metric)
    names = ["cut_" + "_".join(str(p) for p in np.flatnonzero(row)) for row in bits]
    names.append("gamma")
    lines = ["OBJECTIVE min", "1 gamma", "CONSTRAINTS"]
    for row in range(A.shape[0]):
        terms = " ".join(
            f"{A[row, j]:.17g} {names[j]}"
            for j in np.flatnonzero(np.abs(A[row]) > 0)
        )
        kind = "lower" if row < len(iu) else "upper"
        i, j = iu[row % len(iu)], ju[row % len(iu)]
        lines.append(f"{kind}_{i}_{j}: {terms} <= {b[row]:.17g}")
    lines.append("BOUNDS")
    lines.extend(f"{name} >= 0" for name in names)
    return "\n".join(lines) + "\n"


def metric_to_text(metric: FiniteMetric) -> str:
    """Lower-triangular text rendering (row i lists d(i,0..i-1))."""
    lines = [f"METRIC {metric.n}"]
    for i in range(1, metric.n):
        lines.append(" ".join(f"{metric.d[i, j]:.17g}" for j in range(i)))
    return "\n".join(lines) + "\n"


def metric_from_text(text: str) -> FiniteMetric:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "METRIC":
        raise ValueError("not a metric file")
    n = int(head[1])
    if len(lines) < n:
        raise ValueError(f"metric file truncated: {len(lines)} of {n} lines")
    d = np.zeros((n, n))
    for i in range(1, n):
        row = [float(x) for x in lines[i].split()]
        if len(row) != i:
            raise ValueError("triangular row length mismatch")
        d[i, :i] = row
        d[:i, i] = row
    return FiniteMetric(d)


def graph_to_text(weights, demands) -> str:
    """Header `GRAPH n`, then `i j weight demand` for every pair i < j with
    a nonzero weight or demand, floats at 17 significant digits."""
    weights = np.asarray(weights, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    lines = [f"GRAPH {weights.shape[0]}"]
    for i, j in zip(*np.triu_indices(weights.shape[0], 1)):
        if weights[i, j] or demands[i, j]:
            lines.append(f"{i} {j} {weights[i, j]:.17g} {demands[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str):
    """(weights, demands) symmetric matrices of a GRAPH file; a later line
    for the same pair overrides an earlier one. A bad header, a line without
    exactly four fields, an unparsable number or a vertex outside [0, n)
    raises ValueError naming the line."""
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty GRAPH file")
    no, head = lines[0]
    if len(head) != 2 or head[0] != "GRAPH" or not head[1].isdigit() or int(head[1]) < 1:
        raise ValueError(f"line {no}: expected header `GRAPH n` with n >= 1")
    n = int(head[1])
    weights = np.zeros((n, n))
    demands = np.zeros((n, n))
    for no, fields in lines[1:]:
        if len(fields) != 4:
            raise ValueError(f"line {no}: expected `i j weight demand`, got {len(fields)} fields")
        try:
            i, j, w, d = int(fields[0]), int(fields[1]), float(fields[2]), float(fields[3])
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"line {no}: vertex out of range [0, {n}): {i} {j}")
        weights[i, j] = weights[j, i] = w
        demands[i, j] = demands[j, i] = d
    return weights, demands


def farthest_point_sample(metric: FiniteMetric, size: int, seed_point: int = 0):
    """Deterministic farthest-point subset: reproducible, spreads points."""
    chosen = [seed_point]
    while len(chosen) < min(size, metric.n):
        dist_to_set = np.min(metric.d[:, chosen], axis=1)
        dist_to_set[chosen] = -1.0
        chosen.append(int(np.argmax(dist_to_set)))
    return sorted(chosen)


def sparsity(weights: np.ndarray, demands: np.ndarray, cut) -> float:
    """(cut edge weight) / (cut demand); trivial or zero-demand cuts rejected."""
    cut = np.asarray(cut, dtype=bool)
    if cut.all() or not cut.any():
        raise ValueError("cut must be nontrivial")
    dem = _cut_demand(np.asarray(demands), cut)
    if dem <= 0:
        raise ValueError("cut separates no demand")
    return _cut_weight(np.asarray(weights), cut) / dem


def _cut_demand(demands: np.ndarray, cut: np.ndarray) -> float:
    sep = cut[:, None] != cut[None, :]
    return float(np.sum(demands * sep) / 2.0)


def _cut_weight(weights: np.ndarray, cut: np.ndarray) -> float:
    sep = cut[:, None] != cut[None, :]
    return float(np.sum(weights * sep) / 2.0)


def best_xor_cut(cuts, weights, demands, B, rng=None, max_exhaustive: int = 16):
    """Best XOR combination phi_A = xor of a subset A of the given cuts,
    ranked by (demand >= B/3 first, then minimal edge weight).

    Exhaustive over all 2^k subsets for k <= max_exhaustive, else sampled.
    A random subset cuts each demand pair with probability 1/2 wherever some
    cut separates it, so the expected demand cut is at least half the
    collectively separated demand.
    """
    cuts = [np.asarray(c, dtype=bool) for c in cuts]
    k = len(cuts)
    weights = np.asarray(weights, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    if k <= max_exhaustive:
        codes = range(1 << k)
    else:
        rng = rng or np.random.default_rng(0)
        codes = [int(c) for c in rng.integers(0, 1 << k, size=1 << max_exhaustive)]
    best = None
    for code in codes:
        phi = np.zeros_like(cuts[0])
        for i in range(k):
            if code >> i & 1:
                phi ^= cuts[i]
        dem = _cut_demand(demands, phi)
        wt = _cut_weight(weights, phi)
        key = (dem < B / 3.0, wt)  # feasible-first, then light cuts
        if best is None or key < best[0]:
            best = (key, phi, dem, wt)
    _, phi, dem, wt = best
    return phi, dem, wt


@dataclass
class RoundingResult:
    cut: np.ndarray
    edge_weight: float
    demand: float
    rounds: int
    flagged_partial: bool


def round_to_balanced_cut(weights, demands, sparse_cut_oracle, B: float,
                          seed: int = 0, patience: int = 3,
                          max_rounds: int = 64) -> RoundingResult:
    """Iterative cut erasure followed by a random-XOR combination.

    Loop: ask the oracle for a low-sparsity cut w.r.t. the current demands;
    if the cut alone separates >= B/3 of them, return it; otherwise erase the
    separated demands and repeat until the accumulated erased demand reaches
    2B/3, then return the best XOR combination of the collected cuts. Erased
    demand is never counted twice. Oracle stagnation (no demand progress for
    `patience` rounds) yields a flagged partial result.
    """
    weights = np.asarray(weights, dtype=np.float64)
    remaining = np.asarray(demands, dtype=np.float64).copy()
    rng = np.random.default_rng(seed)
    collected = []
    accumulated = 0.0
    stagnant = 0
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        cut = np.asarray(sparse_cut_oracle(weights, remaining), dtype=bool)
        dem_now = _cut_demand(remaining, cut)
        if dem_now >= B / 3.0:
            return RoundingResult(
                cut=cut,
                edge_weight=_cut_weight(weights, cut),
                demand=dem_now,
                rounds=rounds,
                flagged_partial=False,
            )
        collected.append(cut)
        accumulated += dem_now
        sep = cut[:, None] != cut[None, :]
        remaining[sep] = 0.0
        stagnant = stagnant + 1 if dem_now <= 0 else 0
        if accumulated >= 2.0 * B / 3.0:
            break
        if stagnant >= patience:
            phi, dem, wt = best_xor_cut(
                collected, weights, np.asarray(demands, dtype=np.float64), B, rng
            )
            return RoundingResult(phi, wt, dem, rounds, flagged_partial=True)
    phi, dem, wt = best_xor_cut(
        collected, weights, np.asarray(demands, dtype=np.float64), B, rng
    )
    return RoundingResult(phi, wt, dem, rounds, flagged_partial=False)


def local_search_sparsest_cut(weights, demands, seed: int = 0, restarts: int = 8):
    """Single-flip local search minimizing sparsity; the default oracle for
    the rounding pipeline."""
    weights = np.asarray(weights, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    n = weights.shape[0]
    best_cut = None
    best_ratio = np.inf
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        cut = rng.random(n) < 0.5
        if cut.all() or not cut.any():
            cut[int(rng.integers(n))] ^= True
        improved = True
        while improved:
            improved = False
            for v in range(n):
                cut[v] ^= True
                ok = cut.any() and not cut.all()
                if ok and _cut_demand(demands, cut) > 0:
                    ratio = sparsity(weights, demands, cut)
                    if ratio < best_ratio - 1e-15:
                        best_ratio = ratio
                        best_cut = cut.copy()
                        improved = True
                        continue
                cut[v] ^= True
        if best_cut is None:
            best_cut = cut.copy()
            if _cut_demand(demands, best_cut) > 0:
                best_ratio = sparsity(weights, demands, best_cut)
    return best_cut


def cut_metric_combination(n: int, cuts) -> FiniteMetric:
    """Metric sum lambda_S delta_S from explicit (members, weight) pairs."""
    return FiniteMetric(CutDecomposition(list(cuts)).induced(n))
