"""The Balanced Edge-Separator instance produced by the two-query reduction:
block-structured vertex set, lazy edge distribution, within-block unit
demands, the tensored SDP vector solution, feasibility and objective
verification, and balanced-cut search.

A source Unique Games instance on m vertices with N labels yields one block
of 2^N vertices (v, x) per UG vertex v. Drawing a UG edge e{v,w} by weight,
a uniform x and an epsilon-biased flip pattern mu produces the edge
((v, x), (w, (x mu) o pi_e)) -- the pair weight is
wt(e) * 2^-N * eps^|mu-| * (1-eps)^(N-|mu-|). This is the two-query Long
Code test's query distribution, and cut weights read it from the UG
instance's shared `EdgeDistribution`: the exact path is one noise-kernel
pass over all blocks and one gather-dot over all edges, and the Monte Carlo
path samples (e, x, mu) directly. Edges are never materialized.

Demands are 1 for every unordered pair inside a block and 0 across blocks;
D = m * C(2^N, 2) and the balance parameter is B = D / 2.

Cuts are +/-1 arrays over the flat vertex order (v, x) -> v * 2^N + x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import apply_noise_kernel
from .quotient import UGVectorSolution
from .tensor import GramCache
from .unique_games import UGInstance
from .verifier import dictator_tables, piecewise_balance

__all__ = [
    "BESInstance",
    "BESVectorAssignment",
    "BESFeasibilityReport",
    "CutSearchResult",
    "build_bes",
    "cut_edge_weight",
    "cut_edge_weight_mc",
    "demand_cut",
    "assign_sdp_solution",
    "sdp_objective",
    "sdp_objective_closed_form_t1",
    "check_bes_feasibility",
    "balanced_cut_search",
    "bes_to_text",
    "cut_to_text",
    "cut_from_text",
]

EXACT_LABEL_LIMIT = 8  # up to 2^8-point blocks (k <= 3 in the gap pipeline)
# first points per step of the triangle sweep: at 2^8-point blocks its
# (4, 256, 256) float64 buffer of pair sums takes 2 MB
TRIANGLE_CHUNK = 4
# local search trusts a flip's gain unless it lies strictly inside
# (-GAIN_BAND, GAIN_BAND); there the exact cut weights decide
GAIN_BAND = 1e-12
THETA = 5.0 / 6.0  # the largest piecewise balance a searched cut may have
RANDOM_CANDIDATES = 8  # seeded random balanced cuts among the search's candidates


@dataclass(frozen=True)
class BESInstance:
    ug: UGInstance
    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon={self.epsilon} outside (0, 1/2)")
        if self.ug.num_labels > EXACT_LABEL_LIMIT:
            raise ValueError(f"{self.ug.num_labels} labels exceed the exact-enumeration "
                             f"limit {EXACT_LABEL_LIMIT}")

    @property
    def num_blocks(self) -> int:
        return self.ug.num_vertices

    @property
    def block_size(self) -> int:
        return 1 << self.ug.num_labels

    @property
    def num_vertices(self) -> int:
        return self.num_blocks * self.block_size

    @property
    def total_demand(self) -> float:
        return self.num_blocks * math.comb(self.block_size, 2)

    @property
    def balance(self) -> float:
        """B = D / 2."""
        return self.total_demand / 2


def build_bes(u: UGInstance, epsilon: float) -> BESInstance:
    return BESInstance(u, epsilon)


def _block_views(inst: BESInstance, cut: np.ndarray) -> np.ndarray:
    cut = np.asarray(cut, dtype=np.float64)
    if len(cut) != inst.num_vertices:
        raise ValueError("cut length mismatch")
    return cut.reshape(inst.num_blocks, inst.block_size)


def cut_edge_weight(inst: BESInstance, cut) -> float:
    """Exact cut weight: the probability over the edge distribution that the
    two endpoints get different signs."""
    return inst.ug.edge_distribution.disagreement(_block_views(inst, cut), inst.epsilon)


def cut_edge_weight_mc(inst: BESInstance, cut, samples: int, seed: int):
    """Monte Carlo estimate of the cut weight over (e, x, mu) draws.

    Returns (estimate, stderr, trustworthy) where trustworthy requires the
    standard error to be below 5% of the estimate.
    """
    cut_count = inst.ug.edge_distribution.sample_disagreements(
        _block_views(inst, cut), samples, seed, inst.epsilon)
    p = cut_count / samples
    stderr = math.sqrt(max(p * (1 - p), 1e-300) / samples)
    return p, stderr, bool(stderr < 0.05 * max(p, 1e-300))


def demand_cut(inst: BESInstance, cut) -> float:
    """Number of within-block demand pairs separated by the cut:
    sum_i p_i (1 - p_i) |V_i|^2."""
    blocks = _block_views(inst, cut)
    p = np.mean(blocks > 0, axis=1)
    return float(np.sum(p * (1 - p)) * inst.block_size**2)


def _shift_correlations(n_bits: int) -> np.ndarray:
    """C[x, y, d] = sum_s x_s y_(s xor d) over the +/-1 coordinates of the
    points x, y of a block (n_bits a power of two)."""
    signs = dictator_tables(np.arange(n_bits), n_bits).T.astype(np.float64)  # [x, s] = x_s
    s = np.arange(n_bits)
    shifted = signs[:, s[:, None] ^ s[None, :]]  # [y, s, d] = y_(s xor d)
    return np.tensordot(signs, shifted, axes=([1], [1]))


@dataclass(frozen=True)
class BESVectorAssignment:
    """The tensored unit-vector solution: point (v, x) carries the unit vector
    ((1/sqrt(N)) sum_i x_i u_{v,i}^(tensor l_in))^(tensor t) of the sign
    pattern x (see `cutgap.tensor`).

    With the Gram table of the basis, a base inner product is
    base((v, x), (w, y)) = C[x, y] . table[v, w] / N for the shift
    correlations C of the sign patterns, so no tensor and no per-pair Gram
    block is ever formed.
    """

    inst: BESInstance
    cache: GramCache
    l_in: int
    t: int
    corr: np.ndarray  # (2^N, 2^N, N) shift correlations C of the sign patterns

    def base_gram_block(self, v: int, w: int) -> np.ndarray:
        """(2^N, 2^N) base inner products between two whole blocks."""
        return self.corr @ self.cache.table[v, w] / self.cache.N

    def base_inner_flat(self, a_ids, b_ids) -> np.ndarray:
        """Vectorized base inner products for flat vertex id pairs."""
        av, ax = np.divmod(np.asarray(a_ids), self.inst.block_size)
        bv, bx = np.divmod(np.asarray(b_ids), self.inst.block_size)
        out = np.einsum("bd,bd->b", self.corr[ax, bx], self.cache.table[av, bv])
        return np.clip(out / self.cache.N, -1.0, 1.0)


def assign_sdp_solution(inst: BESInstance, sol: UGVectorSolution,
                        l_in: int = 8, t: int = 1) -> BESVectorAssignment:
    if sol.basis.shape[0] != inst.num_blocks or sol.basis.shape[1] != inst.ug.num_labels:
        raise ValueError("solution shape does not match instance")
    return BESVectorAssignment(
        inst, GramCache(sol.basis, l_in=l_in), l_in, t,
        _shift_correlations(inst.ug.num_labels),
    )


def _distance_matrix(n_bits: int) -> np.ndarray:
    idx = np.arange(1 << n_bits, dtype=np.uint32)
    return np.bitwise_count(idx[:, None] ^ idx[None, :])


def sdp_objective(inst: BESInstance, assign: BESVectorAssignment) -> float:
    """(1/4) E[ ||V_a - V_b||^2 ] over the edge distribution, by exact
    enumeration of (x, mu) per UG edge. Comparable directly with cut weights
    (a +/-v0 cut solution scores exactly its cut weight), within two limits:
    a cut bounds only the SDP *minimum* from above, not this one feasible
    point, and only when the cut's demand is >= `inst.balance`.

    An edge of XOR shift c pairs (v, x) with (w, y), y_i = y'_(i xor c), and
    base((v,x),(w,y)) = sum_d C[x, y', d] table[v, w, d xor c] / N; edges
    with the same shifted table row give the same term, so each distinct
    row is evaluated once with the summed weight of its edges.
    """
    n = inst.ug.num_labels
    eps = inst.epsilon
    dist = _distance_matrix(n)
    w_noise = (eps**dist) * (1 - eps) ** (n - dist) / inst.block_size  # weight of (x, y')
    d = inst.ug.edge_distribution
    if not np.array_equal(d.perms, np.arange(n) ^ d.perms[:, :1]):
        raise ValueError("sdp_objective needs XOR-shift edge permutations")
    shifted = d.perms[d.table_of]
    rows, group = np.unique(assign.cache.table[d.v[:, None], d.w[:, None], shifted],
                            axis=0, return_inverse=True)
    weights = np.bincount(group.ravel(), weights=d.weight)
    # the distinct correlation vectors C[x, y', :], found by an integer code
    # (entries lie in [-N, N]); each row's inner products and their powers
    # are taken once per distinct vector, then spread back over (x, y')
    corr = assign.corr.reshape(-1, n)
    code = (corr.astype(np.int64) + n) @ (2 * n + 1) ** np.arange(n, dtype=np.int64)
    _, first, spread = np.unique(code, return_index=True, return_inverse=True)
    distinct = corr[first]
    spread = spread.reshape(w_noise.shape)
    mean_inner = 0.0
    for row, weight in zip(rows, weights):
        q_t = np.clip(distinct @ row / assign.cache.N, -1.0, 1.0) ** assign.t
        mean_inner += weight * float(np.sum(w_noise * q_t[spread]))
    return (1.0 - mean_inner) / 2.0


def sdp_objective_closed_form_t1(inst: BESInstance, assign: BESVectorAssignment) -> float:
    """Independent route for t = 1: under the noise coupling only matched
    label pairs survive in expectation, each damped by (1 - 2 eps)."""
    if assign.t != 1:
        raise ValueError("closed form only holds at t = 1")
    u = inst.ug
    n = u.num_labels
    mean_inner = 0.0
    for v, w, perm, weight in zip(u.v.tolist(), u.w.tolist(), u.perm, u.weight.tolist()):
        m = assign.cache.gram(v, w)
        matched = m[perm, np.arange(n)]
        mean_inner += weight * (1 - 2 * inst.epsilon) * float(np.sum(matched)) / n
    return (1.0 - mean_inner) / 2.0


@dataclass
class BESFeasibilityReport:
    unit_norm_residual: float
    well_separatedness_residual: float
    balance_lhs: float
    balance_required: float
    balance_exact_value: float
    triangle_violation: float
    triples_checked: int
    # always 0, since the triangle certificate samples no pairs; kept
    # because the benchmark tracer reads it
    adversarial_pairs: int = 0

    def balance_feasible(self) -> bool:
        return self.balance_lhs >= self.balance_required - 1e-9


def check_bes_feasibility(inst: BESInstance, assign: BESVectorAssignment) -> BESFeasibilityReport:
    """Unit norms, the per-block well-separatedness identity, the demand
    balance constraint, and the triangle inequality over every ordered
    triple.

    All four read the distinct rows of the Gram table: block pairs with the
    same row table[v, w] have the same base Gram, so each distinct Gram is
    formed from the first pair that carries it.

    Triangle checks run at the base level (t = 1); the odd-power transfer
    lemma carries them to every odd t. A triple (a, b, c) violates by
    g(a, c) + g(b, c) - 1 - g(a, b) when that is positive. Two unit vectors
    at inner product +/-1 are equal or opposite, and a triple holding such a
    pair has a term <= 0. Any other triple in blocks (U, V, W) has a term at
    most near[UW] + near[VW] + near[UV] - 1, where near[r] is the largest
    |inner| other than 1 in row r's Gram. Only the block triples where that
    bound is positive are swept, once per distinct row triple. The unit
    norms the bound relies on are check (a).
    """
    size = inst.block_size
    m = inst.num_blocks
    rows, first, row_of = np.unique(assign.cache.table.reshape(m * m, -1), axis=0,
                                    return_index=True, return_inverse=True)
    row_of = row_of.reshape(m, m)

    def gram(r):
        return assign.base_gram_block(*divmod(int(first[r]), m))

    # (a)-(c) per distinct diagonal row, weighted by the blocks that carry it
    norm_res = ws_res = balance_lhs = 0.0
    for r, blocks in zip(*np.unique(np.diagonal(row_of), return_counts=True)):
        t_mat = gram(r) ** assign.t
        # (a) unit norms of every point
        norm_res = max(norm_res, float(np.max(np.abs(np.diagonal(t_mat) - 1.0))))
        # (b) well-separatedness: E_{x,y}[inner^t] vanishes by exact antipodal
        # cancellation (column y vs its complement), making the identity
        # (1/2) E ||V_x - V_y||^2 = 1 exact per block
        ws_res = max(ws_res, float(np.max(np.abs(t_mat + t_mat[:, ::-1]))))
        # (c) balance constraint: (1/4) sum_dem ||V_x - V_y||^2 per block
        # equals (1/4) (2 C(size,2) - sum_{x != y} inner^t) with the pair sum
        # exactly -size (ordered total 0 minus the diagonal of ones)
        off_diag_sum = float(np.sum(t_mat)) - float(np.trace(t_mat))
        balance_lhs += int(blocks) * (0.25 * (2 * math.comb(size, 2) - off_diag_sum))
    balance_exact = m * size**2 / 4.0

    # (d) triangle certificate at the base level
    near = np.zeros(len(rows))
    for r in range(len(rows)):
        g = np.abs(gram(r))
        near[r] = np.max(g, where=g != 1.0, initial=0.0)
    # rows of (a, c), (b, c) and (a, b) for a in U, b in V, c in W
    pair_rows = np.broadcast_arrays(row_of[:, None, :], row_of[None, :, :], row_of[:, :, None])
    ac, bc, ab = pair_rows
    over = near[ac] + near[bc] + near[ab] > 1.0
    row_triples = np.unique(np.stack([r[over] for r in pair_rows], axis=1), axis=0)
    grams = {r: gram(r) for r in np.unique(row_triples)}
    worst = 0.0
    pair_sums = np.empty((TRIANGLE_CHUNK, size, size))
    for triple in row_triples:
        g_ac, g_bc, g_ab = (grams[r] for r in triple)
        # complementing all three points keeps every Gram entry, so the
        # triples whose first point has x < size / 2 cover all, TRIANGLE_CHUNK
        # x at a time. Rounding is monotone, so for fixed (a, b) the largest
        # fl(s - (1 + g_ab)) over c is fl(max_c s - (1 + g_ab)), with s the
        # sum g_ac + g_bc: the same worst term as subtracting before the max
        for lo in range(0, max(size // 2, 1), TRIANGLE_CHUNK):
            x = slice(lo, min(lo + TRIANGLE_CHUNK, size))
            sums = np.add(g_ac[x, None, :], g_bc[None, :, :], out=pair_sums[:x.stop - lo])
            viol = np.max(sums, axis=2) - (1.0 + g_ab[x])
            worst = max(worst, float(np.max(viol)))

    return BESFeasibilityReport(
        unit_norm_residual=norm_res,
        well_separatedness_residual=ws_res,
        balance_lhs=balance_lhs,
        balance_required=inst.balance,
        balance_exact_value=balance_exact,
        triangle_violation=worst,
        triples_checked=inst.num_vertices**3,
    )


@dataclass
class CutSearchResult:
    cut: np.ndarray
    edge_weight: float
    balance: float
    demand: float
    candidates: list  # (name, weight, balance) per candidate examined


def _random_balanced_cut(inst: BESInstance, rng) -> np.ndarray:
    half = inst.block_size // 2
    blocks = []
    for _ in range(inst.num_blocks):
        a = np.full(inst.block_size, -1, dtype=np.int8)
        a[rng.permutation(inst.block_size)[:half]] = 1
        blocks.append(a)
    return np.concatenate(blocks)


def _majority_cut(inst: BESInstance) -> np.ndarray:
    n = inst.ug.num_labels
    sums = dictator_tables(np.arange(n), n).sum(axis=0)  # coordinate sum per point
    block = np.where(sums >= 0, 1, -1).astype(np.int8)
    return np.tile(block, inst.num_blocks)


class _FlipGains:
    """The exact change in cut weight from flipping one point (the gain of
    Kernighan-Lin and Fiduccia-Mattheyses), kept current under flips.

    With S = K A the smoothed blocks, the cut weight is sum_e wt_e / 2 minus
    sum_e wt_e <A^(v_e), S^(w_e) o T_e> / 2^(N+1), and its gradient in
    A(u, x) is the field F_u(x) = sum_{e: v_e=u} wt_e S[w_e, T_e[x]] +
    sum_{e: w_e=u} wt_e S[v_e, T_e^-1[x]]. Flipping (u, x) moves the weight
    by (A(u, x) F_u(x) - 2 sum_{loop e at u} wt_e K[T_e[x], x]) / 2^N, the
    loop term being the one quadratic part. A flip changes S[u] by
    -2 A(u, x) K[:, x], so it moves only the fields of u's neighbours, each
    by a multiple of one kernel row: K[T_e[x'], x] = K[x', T_e^-1[x]].

    The edge ends are the distribution's `incidence`, loops included, each
    map row resolved to a point table: T_e from v_e, T_e^-1 from w_e.
    """

    def __init__(self, inst: BESInstance, blocks: np.ndarray):
        d = inst.ug.edge_distribution
        n = inst.ug.num_labels
        eps = inst.epsilon
        size = inst.block_size
        dist = _distance_matrix(n)
        self.kernel = eps**dist * (1 - eps) ** (n - dist)  # K[x, y]
        self.size = size
        ends = d.incidence
        self.others, self.weights, self.bounds = ends.other, ends.weight, ends.bounds
        self.maps = np.concatenate([d.tables, np.argsort(d.tables, axis=1)])[ends.row]
        points = np.arange(size)
        smoothed = apply_noise_kernel(blocks, eps, n)
        pulled = self.weights[:, None] * smoothed[self.others[:, None], self.maps]
        self.field = np.bincount((ends.vertex[:, None] * size + points).ravel(),
                                 weights=pulled.ravel(),
                                 minlength=blocks.size).reshape(blocks.shape)
        loops = d.v == d.w
        loop_terms = d.weight[loops, None] * self.kernel[d.tables[d.table_of[loops]], points]
        self.loop = np.bincount((d.v[loops, None] * size + points).ravel(),
                                weights=loop_terms.ravel(),
                                minlength=blocks.size).reshape(blocks.shape)

    def gain(self, u: int, x: int, a: int) -> float:
        """Weight after flipping (u, x), which holds a, minus weight before."""
        return (a * self.field[u, x] - 2 * self.loop[u, x]) / self.size

    def flip(self, u: int, x: int, a: int) -> None:
        """Record the flip of (u, x) from a to -a."""
        e = slice(self.bounds[u], self.bounds[u + 1])
        rows = self.kernel[self.maps[e, x]]
        np.add.at(self.field, self.others[e], (-2 * a * self.weights[e])[:, None] * rows)


def balanced_cut_search(inst: BESInstance, seed: int = 0, labelings=None,
                        local_search: bool = True) -> CutSearchResult:
    """Best THETA-piecewise-balanced cut found across dictator cuts (global
    coordinates and labeling-matched), per-block majority, random balanced
    cuts, and single-flip local search that keeps the balance feasible.

    Local search visits every point once per sweep, in a seeded order, for
    at most 8 sweeps, and stops after a sweep that keeps no flip. A flip
    that keeps the balance is kept when it lowers the exact cut weight by
    more than 1e-15. The search reads that from the flip's gain
    (`_FlipGains`); only a gain inside (-GAIN_BAND, GAIN_BAND) is settled
    by the exact weights of both cuts. The weight is recomputed exactly
    after every sweep that kept a flip, so every flip kept and every weight
    reported is that of an exact weight per trial, at one exact weight per
    sweep.

    The returned weight is a certified upper bound on the balanced-cut
    optimum; it says nothing about cuts the search did not visit. A
    THETA-piecewise-balanced cut may separate less demand than B (86 against
    240 on the k=2, eta = epsilon = 0.3 instance), so it need not meet the
    SDP's balance constraint.
    """
    rng = np.random.default_rng(seed)
    n = inst.ug.num_labels
    candidates: list[tuple[str, np.ndarray]] = []
    for i in range(n):
        candidates.append((f"coordinate_{i}",
                           dictator_tables(np.full(inst.num_blocks, i), n).ravel()))
    for idx, lam in enumerate(labelings or []):
        candidates.append((f"labeling_{idx}", dictator_tables(lam, n).ravel()))
    candidates.append(("majority", _majority_cut(inst)))
    for r in range(RANDOM_CANDIDATES):
        candidates.append((f"random_{r}", _random_balanced_cut(inst, rng)))

    report = []
    best_cut = None
    best_weight = np.inf
    for name, cut in candidates:
        bal = piecewise_balance(_block_views(inst, cut))
        if bal > THETA + 1e-9:
            continue
        weight = cut_edge_weight(inst, cut)
        report.append((name, weight, bal))
        if weight < best_weight:
            best_weight = weight
            best_cut = cut.copy()

    if local_search and best_cut is not None:
        size = inst.block_size
        m = inst.num_blocks
        blocks = best_cut.reshape(m, size)
        sums = blocks.sum(axis=1, dtype=np.int64).tolist()
        # piecewise_balance is imbalance / size / m as the same float: the
        # block means and their partial sums are exact multiples of 1 / size,
        # so only the division by m rounds
        imbalance = sum(abs(s) for s in sums)
        gains = _FlipGains(inst, blocks)
        improved = True
        sweeps = 0
        while improved and sweeps < 8:
            improved = False
            sweeps += 1
            order = rng.permutation(inst.num_vertices)
            for v in order.tolist():
                u, x = divmod(v, size)
                a = int(best_cut[v])
                flipped = imbalance - abs(sums[u]) + abs(sums[u] - 2 * a)
                if flipped / size / m > THETA + 1e-9:
                    continue
                gain = gains.gain(u, x, a)
                if abs(gain) < GAIN_BAND:
                    # too close to call: the exact weights of both cuts decide
                    current = cut_edge_weight(inst, best_cut)
                    best_cut[v] = -a
                    accept = cut_edge_weight(inst, best_cut) < current - 1e-15
                    best_cut[v] = a
                else:
                    accept = gain < 0
                if accept:
                    best_cut[v] = -a
                    sums[u] -= 2 * a
                    imbalance = flipped
                    gains.flip(u, x, a)
                    improved = True
            if improved:
                best_weight = cut_edge_weight(inst, best_cut)
        report.append(("local_search", best_weight,
                       piecewise_balance(_block_views(inst, best_cut))))

    return CutSearchResult(
        cut=best_cut,
        edge_weight=best_weight,
        balance=piecewise_balance(_block_views(inst, best_cut)),
        demand=demand_cut(inst, best_cut),
        candidates=report,
    )


def bes_to_text(inst: BESInstance, expanded: bool | None = None) -> str:
    """Header `BES m N epsilon <mode>`; expanded mode lists every realized
    edge as `v x w y weight` (only for <= 4-label instances), params mode
    embeds the generating UG instance."""
    from .unique_games import ug_to_text

    if expanded is None:
        expanded = inst.ug.num_labels <= 4
    mode = "expanded" if expanded else "params"
    head = f"BES {inst.num_blocks} {inst.ug.num_labels} {inst.epsilon:.17g} {mode}"
    if not expanded:
        return head + "\n" + ug_to_text(inst.ug)
    if inst.ug.num_labels > 4:
        raise ValueError("expanded export limited to 4-label instances")
    n = inst.ug.num_labels
    size = inst.block_size
    eps = inst.epsilon
    dist = _distance_matrix(n)
    d = inst.ug.edge_distribution
    # Python-float power tables, so that every pair weight is the scalar
    # wt(e) * eps**|mu| * (1-eps)**(N-|mu|) / 2^N, evaluated left to right
    eps_pow = np.array([eps**j for j in range(n + 1)])
    keep_pow = np.array([(1 - eps) ** (n - j) for j in range(n + 1)])
    weight = d.weight[:, None, None] * eps_pow[dist] * keep_pow[dist] / size  # [e, x, y']
    a = d.v[:, None, None] * size + np.arange(size)[:, None]  # flat id of (v, x)
    b = (d.w[:, None] * size + d.tables[d.table_of])[:, None, :]  # flat id of (w, y)
    # degenerate (a == b) pairs from loop edges stay in, so the exported
    # mass still totals 1; each pair's weights are summed in (e, x, y') order
    keys, group = np.unique(np.minimum(a, b) * inst.num_vertices + np.maximum(a, b),
                            return_inverse=True)
    sums = np.bincount(group.ravel(), weights=weight.ravel())
    # few distinct numbers recur: each point's `v x` and each distinct
    # weight is formatted once
    point = [f"{v} {x}" for v in range(inst.num_blocks) for x in range(size)]
    values, value_of = np.unique(sums, return_inverse=True)
    value_text = [f"{w:.17g}" for w in values.tolist()]
    lo, hi = np.divmod(keys, inst.num_vertices)
    lines = [head] + [f"{point[a]} {point[b]} {value_text[i]}" for a, b, i in
                      zip(lo.tolist(), hi.tolist(), value_of.tolist())]
    return "\n".join(lines) + "\n"


def cut_to_text(cut) -> str:
    return "\n".join(str(int(v)) for v in np.asarray(cut)) + "\n"


def cut_from_text(text: str) -> np.ndarray:
    """Inverse of `cut_to_text`; an entry that is not an integer, or not
    +/-1, raises ValueError naming its line."""
    vals = []
    for no, ln in enumerate(text.splitlines(), 1):
        try:
            entries = [int(tok) for tok in ln.split()]
            if any(abs(val) != 1 for val in entries):
                raise ValueError("cut entries must be +/-1")
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from None
        vals += entries
    return np.array(vals, dtype=np.int8)
