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

from ._fields import read_fields, split_lines
from .simplex import SimplexResult, solve_lp

__all__ = [
    "FiniteMetric",
    "NegativeTypeWitness",
    "DistortionResult",
    "RoundingResult",
    "is_negative_type",
    "l1_distortion_lp",
    "export_distortion_lp",
    "metric_from_gram",
    "metric_to_text",
    "metric_from_text",
    "graph_from_text",
    "farthest_point_sample",
    "best_xor_cut",
    "round_to_balanced_cut",
    "local_search_sparsest_cut",
]

LP_POINT_LIMIT = 12  # the cut-cone LP has 2^(n-1) - 1 cut columns: 2047 at 12 points
# the METRIC reader's cap: `FiniteMetric`'s triangle check holds n^3 floats,
# and `distortion --export` writes a 98 MB LP at 16 points
METRIC_POINT_LIMIT = 16
# the GRAPH reader's dense weights and demands, and each n x n temporary of
# `_cut_sum`, take 8 MB at this cap: 16x the 64-vertex expanded k=2 graph
GRAPH_VERTEX_LIMIT = 1024
XOR_EXHAUSTIVE_CUTS = 16  # best_xor_cut samples 2^16 subsets of more cuts
# `FiniteMetric`'s absolute tolerance on its checks, and `is_negative_type`'s
# on the least eigenvalue, relative to the largest |Gram entry|
METRIC_TOL = 1e-9
NEGATIVE_TYPE_TOL = 1e-9


@dataclass(frozen=True)
class FiniteMetric:
    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        object.__setattr__(self, "d", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.all(np.isfinite(d)):
            raise ValueError("distances must be finite")
        if np.max(np.abs(d - d.T)) > METRIC_TOL:
            raise ValueError("distance matrix must be symmetric")
        if np.max(np.abs(np.diag(d))) > METRIC_TOL:
            raise ValueError("diagonal must be zero")
        if np.min(d) < -METRIC_TOL:
            raise ValueError("distances must be nonnegative")
        # each distance halved before the sum, and the sum held against half
        # the tolerance: a metric whose distances fit in a float stays finite
        half = d * 0.5
        if np.min(half[:, None, :] + half[None, :, :] - half[:, :, None]) < -METRIC_TOL / 2:
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


def is_negative_type(metric: FiniteMetric, base_point: int = 0):
    """Schoenberg test: d is negative type iff the centered matrix
    G[i,j] = (d(i,r) + d(j,r) - d(i,j)) / 2 is PSD (any base point r).

    Returns (verdict, witness): the witness carries the most negative
    eigenpair, plus realizing vectors whose squared distances reproduce d
    when the verdict is positive.
    """
    # each distance halved before the sum, so a metric whose distances fit
    # in a float keeps a finite Gram; the tolerance is relative to |G|
    half = metric.d * 0.5
    g = half[base_point][:, None] + half[base_point][None, :] - half
    eigvals, eigvecs = np.linalg.eigh(g)
    ok = bool(eigvals[0] >= -NEGATIVE_TYPE_TOL * float(np.max(np.abs(g))))
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
class DistortionResult:
    gamma: float
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
    dvec = metric.d[iu, ju]
    # variables: (lambda_cuts, Gamma); minimize Gamma subject to
    #   -sum lambda delta <= -d   (no contraction)
    #   sum lambda delta - Gamma d <= 0  (expansion at most Gamma)
    ncuts, npairs = len(bits), len(iu)
    c = np.zeros(ncuts + 1)
    c[-1] = 1.0
    A = np.zeros((2 * npairs, ncuts + 1))
    b = np.zeros(2 * npairs)
    # delta, one row per pair (i, j); negated, its zeros are -0.0
    A[npairs:, :ncuts] = bits.T[iu] != bits.T[ju]
    np.negative(A[npairs:, :ncuts], out=A[:npairs, :ncuts])
    b[:npairs] = -dvec
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


def l1_distortion_lp(metric: FiniteMetric) -> DistortionResult:
    """Exact minimal l1 distortion via the cut-cone LP.

    Minimizes Gamma over nonnegative cut weights lambda with
    d <= sum lambda delta_S <= Gamma d, solved by the dense simplex.
    Zero-distance point classes are contracted first (distortion-preserving).
    The returned certificate holds the complementary-slackness residuals;
    a metric of more than LP_POINT_LIMIT points or a simplex status other
    than optimal raises ValueError.
    """
    if metric.n > LP_POINT_LIMIT:
        raise ValueError(
            f"{metric.n} points exceed the {LP_POINT_LIMIT}-point limit "
            "(2^(n-1)-1 cut variables); export the LP to solve it elsewhere"
        )
    classes = _zero_distance_classes(metric)
    if len(classes) < 2:
        return DistortionResult(
            gamma=1.0,
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
        raise ValueError(f"distortion LP did not solve: {res.status}")
    return DistortionResult(
        gamma=float(res.x[-1]),
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
    """Inverse of `metric_to_text`: header `METRIC n` with
    1 <= n <= METRIC_POINT_LIMIT, then exactly n - 1 rows. A bad header, a
    missing or extra row, a row of the wrong length or an unparsable number
    raises ValueError naming the line."""
    lines = split_lines(text)
    head = lines[0][1] if lines else []
    if len(head) != 2 or head[0] != "METRIC" or not head[1].isdigit() or int(head[1]) < 1:
        raise ValueError(f"line {lines[0][0] if lines else 1}: not a metric file: "
                         "expected header `METRIC n` with n >= 1")
    n = int(head[1])
    if n > METRIC_POINT_LIMIT:
        raise ValueError(f"line {lines[0][0]}: {n} points exceed the limit {METRIC_POINT_LIMIT}")
    if len(lines) > n:
        raise ValueError(f"line {lines[n][0]}: extra row, METRIC {n} has {n - 1} rows")
    if len(lines) < n:
        raise ValueError(f"line {lines[-1][0] + 1}: missing row {len(lines)} of {n - 1}")

    def checks(widths, dist):  # row i holds d(i, 0..i-1)
        return [(widths != np.arange(1, len(widths) + 1),
                 lambda r: f"expected {r + 1} distances, got {widths[r]}")]

    (dist,) = read_fields(lines[1:], float, checks)
    below = np.arange(n)[:, None] > np.arange(n)
    d = np.zeros((n, n))
    d[below] = dist
    d.T[below] = dist
    return FiniteMetric(d)


def graph_from_text(text: str):
    """(weights, demands) symmetric matrices of a GRAPH file; a later line
    for the same pair overrides an earlier one. A bad header (n outside
    [1, GRAPH_VERTEX_LIMIT]), a line without exactly four fields, an
    unparsable number, a weight or demand that is negative, infinite or nan,
    or a vertex outside [0, n) raises ValueError naming the line."""
    lines = split_lines(text)
    if not lines:
        raise ValueError("line 1: empty GRAPH file")
    no, head = lines[0]
    if len(head) != 2 or head[0] != "GRAPH" or not head[1].isdigit() or int(head[1]) < 1:
        raise ValueError(f"line {no}: expected header `GRAPH n` with n >= 1")
    n = int(head[1])
    if n > GRAPH_VERTEX_LIMIT:
        raise ValueError(f"line {no}: {n} vertices exceed the limit {GRAPH_VERTEX_LIMIT}")

    def checks(widths, ends, values):
        return [(((ends < 0) | (ends >= n)).any(axis=1), lambda r: (
                    f"vertex out of range [0, {n}): {ends[r, 0]} {ends[r, 1]}")),
                (~((values >= 0) & (values < np.inf)).all(axis=1), lambda r: (
                    "weight and demand must be finite and nonnegative: "
                    f"{values[r, 0]} {values[r, 1]}"))]  # also rejects nan

    ends, values = read_fields(
        lines[1:], (int, int, float, float), checks,
        lambda fields: f"expected `i j weight demand`, got {len(fields)} fields")
    # both cells of each line, in line order; of the cells a later line sets
    # again, only that line's value is kept
    cells = (ends * n + ends[:, ::-1]).astype(np.intp).ravel()
    last = len(cells) - 1 - np.unique(cells[::-1], return_index=True)[1]
    weights = np.zeros((n, n))
    demands = np.zeros((n, n))
    weights.flat[cells[last]] = values[last // 2, 0]
    demands.flat[cells[last]] = values[last // 2, 1]
    return weights, demands


def farthest_point_sample(metric: FiniteMetric, size: int, seed_point: int = 0):
    """Deterministic farthest-point subset: reproducible, spreads points."""
    chosen = [seed_point]
    while len(chosen) < min(size, metric.n):
        dist_to_set = np.min(metric.d[:, chosen], axis=1)
        dist_to_set[chosen] = -1.0
        chosen.append(int(np.argmax(dist_to_set)))
    return sorted(chosen)


def _cut_sum(pairs: np.ndarray, sep: np.ndarray) -> float:
    """Sum of a symmetric weight or demand matrix over the pairs a cut
    separates (the mask cut[:, None] != cut), each product halved before
    the sum. Halving commutes with rounding for normal floats, so this is
    the float of the whole sum halved, and a total that fits in a float
    stays finite."""
    half = np.multiply(pairs, sep)
    half *= 0.5
    return float(half.sum())


def best_xor_cut(cuts, weights, demands, B, rng=None):
    """Best XOR combination phi_A = xor of a subset A of the given cuts,
    ranked by (demand >= B/3 first, then minimal edge weight).

    Exhaustive over all 2^k subsets for k <= XOR_EXHAUSTIVE_CUTS, else
    2^XOR_EXHAUSTIVE_CUTS uniform subsets, their codes drawn 63 bits at a
    time (one draw below 2^k while k <= 63).
    A random subset cuts each demand pair with probability 1/2 wherever some
    cut separates it, so the expected demand cut is at least half the
    collectively separated demand.
    """
    cuts = [np.asarray(c, dtype=bool) for c in cuts]
    k = len(cuts)
    weights = np.asarray(weights, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    if k <= XOR_EXHAUSTIVE_CUTS:
        codes = range(1 << k)
    else:
        rng = rng or np.random.default_rng(0)
        codes = [0] * (1 << XOR_EXHAUSTIVE_CUTS)
        for low in range(0, k, 63):  # int64 draws hold at most 63 bits
            bits = rng.integers(0, 1 << min(k - low, 63), size=len(codes))
            codes = [code | int(b) << low for code, b in zip(codes, bits)]
    # row c of table j: the xor of the cuts 8j + i that bit i of c picks
    tables = []
    for low in range(0, k, 8):
        table = np.zeros((1 << min(k - low, 8), len(cuts[0])), dtype=bool)
        for i, cut in enumerate(cuts[low:low + 8]):
            table[1 << i:2 << i] = table[:1 << i] ^ cut
        tables.append(table)
    best = None
    for code in codes:
        phi = tables[0][code & 255]
        for j in range(1, len(tables)):
            phi = phi ^ tables[j][code >> 8 * j & 255]
        sep = phi[:, None] != phi
        dem = _cut_sum(demands, sep)
        wt = _cut_sum(weights, sep)
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
    flagged_partial = False
    while rounds < max_rounds:
        rounds += 1
        cut = np.asarray(sparse_cut_oracle(weights, remaining), dtype=bool)
        sep = cut[:, None] != cut
        dem_now = _cut_sum(remaining, sep)
        if dem_now >= B / 3.0:
            return RoundingResult(
                cut=cut,
                edge_weight=_cut_sum(weights, sep),
                demand=dem_now,
                rounds=rounds,
                flagged_partial=False,
            )
        collected.append(cut)
        accumulated += dem_now
        remaining[sep] = 0.0
        stagnant = stagnant + 1 if dem_now <= 0 else 0
        if accumulated >= 2.0 * B / 3.0:
            break
        if stagnant >= patience:
            flagged_partial = True
            break
    phi, dem, wt = best_xor_cut(
        collected, weights, np.asarray(demands, dtype=np.float64), B, rng
    )
    return RoundingResult(phi, wt, dem, rounds, flagged_partial=flagged_partial)


class _CutTotals:
    """A cut's weight and demand, and each vertex's weight and demand to the
    other side (the gains of Kernighan-Lin and Fiduccia-Mattheyses), kept
    current under single flips.

    Flipping v moves the cut's weight W to W + (deg(v) - out(v)) - out(v),
    where deg(v) is v's weight to every other vertex (a diagonal pair never
    crosses a cut) and out(v) its weight to the other side; the demand D
    alike. `across` holds out(v) of both matrices: one matrix product per
    anchor, then an O(n) update per kept flip. The totals and `across` are
    taken afresh (anchored) after n kept flips, so a kept flip costs O(n)
    amortized and a trial O(1).

    The bound. Let u = 2^-53 and R(v) be v's row sum, diagonal included. A
    full sum adds n^2 halved products, and in any order it errs by at most
    n^2 u times the exact sum (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 4.2). deg(v) errs by at most (n + 1) u R(v);
    out(v), at most n terms updated at most n times since the anchor, by
    2n u R(v); the estimate's three roundings add at most 2u (|W| + 2R(v)).
    So a trial's estimate W' lies within e + (n^2 + 5n + 8) u (|W| + R(v))
    of the trial cut's full sum, where e bounds the error of the running W
    (a flip kept on its estimate passes that trial's bound on as e), and D'
    likewise. `band` = 4 (n + 4)^2 u is more than twice that coefficient;
    the margin absorbs the rounding of the ratio bounds in `bounds` and the
    terms of second order. The bound assumes nonnegative weights and
    demands, as the GRAPH reader ensures, and no underflow: every nonzero
    weight and demand at least 2^-1021.
    """

    def __init__(self, weights: np.ndarray, demands: np.ndarray):
        self.pairs = (weights, demands)
        n = weights.shape[0]
        self.band = 4 * (n + 4) ** 2 * 2.0**-53
        # an overflowing row sum reads inf, and its trials are decided by the full sums
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.array([p.sum(axis=1) for p in self.pairs])
            self.scale = rows.tolist()
            self.degree = (rows - [np.diagonal(p) for p in self.pairs]).tolist()

    def sums(self, cut: np.ndarray) -> tuple[float, float]:
        """The cut's weight and demand as full sums on one mask, the values
        that every decision of the search must match."""
        sep = np.not_equal(cut[:, None], cut)
        return _cut_sum(self.pairs[0], sep), _cut_sum(self.pairs[1], sep)

    def anchor(self, cut: np.ndarray, sums: tuple | None = None) -> None:
        """Take the totals from the full sums and `across` from one product."""
        self.totals = self.sums(cut) if sums is None else sums
        self.errors = tuple(self.band * t for t in self.totals)
        sides = np.stack([cut, ~cut], axis=1).astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            into = np.array([p @ sides for p in self.pairs])
        self.across = np.where(cut, into[:, :, 1], into[:, :, 0])
        self.reads = self.across.tolist()
        self.flips = 0

    def bounds(self, v: int):
        """(lo, hi) around fl(wt / dem), the ratio that the full sums give the
        cut with v flipped, or None when its demand may be 0. The estimates
        are kept for `flip`."""
        (w, d), (ew, ed) = self.totals, self.errors
        out_w, out_d = self.reads[0][v], self.reads[1][v]
        wt = w + (self.degree[0][v] - out_w) - out_w
        dem = d + (self.degree[1][v] - out_d) - out_d
        e_wt = ew + self.band * (abs(w) + self.scale[0][v])
        e_dem = ed + self.band * (abs(d) + self.scale[1][v])
        self.trial = (wt, dem), (e_wt, e_dem)
        if not dem > e_dem:
            return None
        return (wt - e_wt) / (dem + e_dem), (wt + e_wt) / (dem - e_dem)

    def flip(self, cut: np.ndarray, v: int, sums: tuple | None = None) -> None:
        """Record the kept flip of v, already made in `cut`; `sums` are the
        new cut's full sums when they were taken."""
        if self.flips + 1 >= len(cut):
            self.anchor(cut, sums)
            return
        if sums is None:
            self.totals, self.errors = self.trial
        else:
            self.totals, self.errors = sums, tuple(self.band * t for t in sums)
        other = cut != cut[v]
        rows = np.array([p[v] for p in self.pairs])
        with np.errstate(over="ignore", invalid="ignore"):
            self.across += np.where(other, rows, -rows)
            self.across[:, v] = rows @ other
        self.reads = self.across.tolist()
        self.flips += 1


def local_search_sparsest_cut(weights, demands, seed: int = 0, restarts: int = 8):
    """Single-flip local search minimizing sparsity; the default oracle for
    the rounding pipeline.

    Each restart starts from a seeded random cut and sweeps the vertices in
    order until a sweep keeps no flip. A trial flip is kept when the cut
    then separates demand (dem > 0) and its ratio wt / dem, each a full sum
    on one mask (`_cut_sum`), is below the best ratio so far less 1e-15.
    The search reads both tests from the trial's O(1) estimate
    (`_CutTotals.bounds`); only where the estimate's error bound leaves
    either test open do the full sums decide, against the best ratio summed
    in full. So every flip kept is the one that the full sums of every trial
    keep, and the cut returned is theirs.
    """
    weights = np.asarray(weights, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    n = weights.shape[0]
    totals = _CutTotals(weights, demands)
    best_cut = None
    # bounds on the threshold best_ratio - 1e-15, equal once the best cut's
    # ratio is summed in full
    low = high = np.inf
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        cut = rng.random(n) < 0.5
        if cut.all() or not cut.any():
            cut[int(rng.integers(n))] ^= True
        totals.anchor(cut)
        improved = True
        while improved:
            improved = False
            for v in range(n):
                cut[v] ^= True
                span = totals.bounds(v)
                sums = None
                if span is not None and span[1] < low:
                    keep = True
                    low, high = span[0] - 1e-15, span[1] - 1e-15
                elif span is not None and span[0] >= high:
                    keep = False
                else:
                    # too close to call: the full sums decide
                    if low != high:
                        wt, dem = totals.sums(best_cut)
                        low = high = wt / dem - 1e-15
                    wt, dem = sums = totals.sums(cut)
                    keep = dem > 0 and wt / dem < low
                    if keep:
                        low = high = wt / dem - 1e-15
                if keep:
                    best_cut = cut.copy()
                    totals.flip(cut, v, sums)
                    improved = True
                    continue
                cut[v] ^= True
        if best_cut is None:
            best_cut = cut.copy()
            wt, dem = totals.sums(best_cut)
            if dem > 0:
                low = high = wt / dem - 1e-15
    return best_cut
