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

from .quotient import UGVectorSolution
from .tensor import GramCache
from .unique_games import UGInstance

__all__ = [
    "BESInstance",
    "BESVectorAssignment",
    "BESFeasibilityReport",
    "CutSearchResult",
    "build_bes",
    "signs_of_points",
    "dictator_cut",
    "cut_edge_weight",
    "cut_edge_weight_mc",
    "demand_cut",
    "piecewise_balance",
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


@dataclass(frozen=True)
class BESInstance:
    ug: UGInstance
    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon={self.epsilon} outside (0, 1/2)")

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

    def exactly_enumerable(self) -> bool:
        return self.ug.num_labels <= EXACT_LABEL_LIMIT


def build_bes(u: UGInstance, epsilon: float, require_exact: bool = True) -> BESInstance:
    inst = BESInstance(u, epsilon)
    if require_exact and not inst.exactly_enumerable():
        raise ValueError(
            f"{u.num_labels} labels exceed the exact-enumeration limit "
            f"{EXACT_LABEL_LIMIT}; pass require_exact=False for the sampling mode"
        )
    return inst


def signs_of_points(n_bits: int) -> np.ndarray:
    """(2^n, n) +/-1 matrix: row x is the point's coordinates 1 - 2 bit_i(x)."""
    idx = np.arange(1 << n_bits, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n_bits)) & 1
    return (1 - 2 * bits).astype(np.int8)


def dictator_cut(inst: BESInstance, lam) -> np.ndarray:
    """A(v, x) = x_{lam[v]}: the completeness cut of a labeling."""
    lam = np.asarray(lam, dtype=np.int64)
    n = inst.ug.num_labels
    x = np.arange(inst.block_size, dtype=np.int64)
    blocks = [1 - 2 * ((x >> int(lam[v])) & 1) for v in range(inst.num_blocks)]
    return np.concatenate(blocks).astype(np.int8)


def _block_views(inst: BESInstance, cut: np.ndarray) -> np.ndarray:
    cut = np.asarray(cut, dtype=np.float64)
    if len(cut) != inst.num_vertices:
        raise ValueError("cut length mismatch")
    return cut.reshape(inst.num_blocks, inst.block_size)


def cut_edge_weight(inst: BESInstance, cut) -> float:
    """Exact cut weight: the probability over the edge distribution that the
    two endpoints get different signs."""
    if not inst.exactly_enumerable():
        raise ValueError("instance too large for exact enumeration; use the MC path")
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


def piecewise_balance(inst: BESInstance, cut) -> float:
    """E_i | E_x A(v_i, x) |: 0 for block-balanced cuts, 1 for constants."""
    blocks = _block_views(inst, cut)
    return float(np.mean(np.abs(np.mean(blocks, axis=1))))


def _shift_correlations(n_bits: int) -> np.ndarray:
    """C[x, y, d] = sum_s x_s y_(s xor d) over the +/-1 coordinates of the
    points x, y of a block (n_bits a power of two)."""
    signs = signs_of_points(n_bits).astype(np.float64)
    s = np.arange(n_bits)
    shifted = signs[:, s[:, None] ^ s[None, :]]  # [y, s, d] = y_(s xor d)
    return np.tensordot(signs, shifted, axes=([1], [1]))


@dataclass(frozen=True)
class BESVectorAssignment:
    """The tensored unit-vector solution: point (v, x) carries the vector of
    BESVectorHandle(v, sign pattern of x, l_in, t).

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
    if not inst.exactly_enumerable():
        raise ValueError("instance too large for exact enumeration")
    n = inst.ug.num_labels
    eps = inst.epsilon
    dist = _distance_matrix(n)
    w_noise = (eps**dist) * (1 - eps) ** (n - dist) / inst.block_size  # weight of (x, y')
    v, w, perm, weight = inst.ug.edge_arrays()
    shifted = np.arange(n) ^ perm[:, :1]
    if not np.array_equal(perm, shifted):
        raise ValueError("sdp_objective needs XOR-shift edge permutations")
    rows, group = np.unique(assign.cache.table[v[:, None], w[:, None], shifted],
                            axis=0, return_inverse=True)
    weights = np.bincount(group.ravel(), weights=weight)
    mean_inner = 0.0
    for row, weight in zip(rows, weights):
        q = np.clip(assign.corr @ row / assign.cache.N, -1.0, 1.0)
        mean_inner += weight * float(np.sum(w_noise * q**assign.t))
    return (1.0 - mean_inner) / 2.0


def sdp_objective_closed_form_t1(inst: BESInstance, assign: BESVectorAssignment) -> float:
    """Independent route for t = 1: under the noise coupling only matched
    label pairs survive in expectation, each damped by (1 - 2 eps)."""
    if assign.t != 1:
        raise ValueError("closed form only holds at t = 1")
    n = inst.ug.num_labels
    mean_inner = 0.0
    for e in inst.ug.edges:
        m = assign.cache.gram(e.v, e.w)
        matched = m[e.perm, np.arange(n)]
        mean_inner += e.weight * (1 - 2 * inst.epsilon) * float(np.sum(matched)) / n
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
    for triple in row_triples:
        g_ac, g_bc, g_ab = (grams[r] for r in triple)
        # complementing all three points keeps every Gram entry, so the
        # triples whose first point has x < size / 2 cover all; four x at a time
        for lo in range(0, max(size // 2, 1), 4):
            viol = (g_ac[lo:lo + 4, None, :] + g_bc[None, :, :]) - (1.0 + g_ab[lo:lo + 4, :, None])
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
    signs = signs_of_points(inst.ug.num_labels)
    sums = signs.sum(axis=1)
    block = np.where(sums >= 0, 1, -1).astype(np.int8)
    return np.tile(block, inst.num_blocks)


def balanced_cut_search(inst: BESInstance, theta: float = 5.0 / 6.0,
                        seed: int = 0, random_candidates: int = 8,
                        labelings=None, local_search: bool = True) -> CutSearchResult:
    """Best theta-piecewise-balanced cut found across dictator cuts (global
    coordinates and labeling-matched), per-block majority, random balanced
    cuts, and single-flip local search that keeps the balance feasible.

    The returned weight is a certified upper bound on the balanced-cut
    optimum; it says nothing about cuts the search did not visit. A
    theta-piecewise-balanced cut may separate less demand than B (86 against
    240 on the k=2, eta = epsilon = 0.3 instance), so it need not meet the
    SDP's balance constraint.
    """
    rng = np.random.default_rng(seed)
    n = inst.ug.num_labels
    candidates: list[tuple[str, np.ndarray]] = []
    for i in range(n):
        candidates.append((f"coordinate_{i}", dictator_cut(inst, np.full(inst.num_blocks, i))))
    for idx, lam in enumerate(labelings or []):
        candidates.append((f"labeling_{idx}", dictator_cut(inst, lam)))
    candidates.append(("majority", _majority_cut(inst)))
    for r in range(random_candidates):
        candidates.append((f"random_{r}", _random_balanced_cut(inst, rng)))

    report = []
    best_cut = None
    best_weight = np.inf
    for name, cut in candidates:
        bal = piecewise_balance(inst, cut)
        if bal > theta + 1e-9:
            continue
        weight = cut_edge_weight(inst, cut)
        report.append((name, weight, bal))
        if weight < best_weight:
            best_weight = weight
            best_cut = cut.copy()

    if local_search and best_cut is not None:
        improved = True
        sweeps = 0
        while improved and sweeps < 8:
            improved = False
            sweeps += 1
            order = rng.permutation(inst.num_vertices)
            for v in order:
                best_cut[v] *= -1
                if piecewise_balance(inst, best_cut) > theta + 1e-9:
                    best_cut[v] *= -1
                    continue
                w = cut_edge_weight(inst, best_cut)
                if w < best_weight - 1e-15:
                    best_weight = w
                    improved = True
                else:
                    best_cut[v] *= -1
        report.append(("local_search", best_weight, piecewise_balance(inst, best_cut)))

    return CutSearchResult(
        cut=best_cut,
        edge_weight=best_weight,
        balance=piecewise_balance(inst, best_cut),
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
    tables = inst.ug.edge_distribution.tables
    accum: dict = {}
    for e, p in zip(inst.ug.edges, inst.ug.edge_distribution.table_of):
        table = tables[p]
        for x in range(size):
            for yp in range(size):
                y = int(table[yp])
                w = e.weight * (eps ** int(dist[x, yp])) * (1 - eps) ** (n - int(dist[x, yp])) / size
                a = (e.v, x)
                b = (e.w, y)
                # degenerate (a == b) pairs from loop edges stay in, so the
                # exported mass still totals 1
                key = (min(a, b), max(a, b))
                accum[key] = accum.get(key, 0.0) + w
    lines = [head]
    for (a, b), w in sorted(accum.items()):
        lines.append(f"{a[0]} {a[1]} {b[0]} {b[1]} {w:.17g}")
    return "\n".join(lines) + "\n"


def cut_to_text(cut) -> str:
    return "\n".join(str(int(v)) for v in np.asarray(cut)) + "\n"


def cut_from_text(text: str) -> np.ndarray:
    vals = np.array([int(ln) for ln in text.split()], dtype=np.int8)
    if not np.all(np.abs(vals) == 1):
        raise ValueError("cut entries must be +/-1")
    return vals
