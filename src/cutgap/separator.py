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
instance's shared `EdgeDistribution`: the exact path sums the blocks'
integer Walsh spectra by level (`EdgeDistribution.probabilities`) and
rounds once, and the Monte Carlo path samples (e, x, mu) directly.
Edges are never materialized.

Demands are 1 for every unordered pair inside a block and 0 across blocks;
D = m * C(2^N, 2) and the balance parameter is B = D / 2.

Cuts are +/-1 arrays over the flat vertex order (v, x) -> v * 2^N + x.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .quotient import UGVectorSolution
from .tensor import INNER_POWER_LIMIT, GramCache, triangle_sweep
from .unique_games import EXACT_LABEL_LIMIT, UGInstance, _binary_fractions, ug_to_text
from .verifier import dictator_tables, piecewise_balance

if TYPE_CHECKING:
    from fractions import Fraction

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
    "gap_ratio",
    "check_bes_feasibility",
    "balanced_cut_search",
    "bes_to_text",
    "cut_to_text",
    "cut_from_text",
]

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
            raise ValueError(f"{self.ug.num_labels} labels exceed the limit {EXACT_LABEL_LIMIT}")

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
    cut = np.asarray(cut)
    if len(cut) != inst.num_vertices:
        raise ValueError("cut length mismatch")
    return cut.reshape(inst.num_blocks, inst.block_size)


def cut_edge_weight(inst: BESInstance, cut) -> float:
    """Exact cut weight, correctly rounded: the probability over the edge
    distribution that the two endpoints of a +/-1 cut get different signs
    (`EdgeDistribution.probabilities`)."""
    return inst.ug.edge_distribution.probabilities(_block_views(inst, cut), inst.epsilon)[0]


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


@functools.cache
def _distinct_correlations(n_bits: int):
    """The distinct vectors C[x, y, :], C[x, y, d] = sum_s x_s y_(s xor d), over
    the points x, y of a block (n_bits a power of two), and per (x, y) its
    vector's index; read-only, found by an integer code (entries in [-N, N],
    int64)."""
    s = np.arange(n_bits)
    signs = dictator_tables(s, n_bits).T  # int8 [x, s] = x_s; the second factor is y_(s xor d)
    corr = np.tensordot(signs, signs[:, s[:, None] ^ s], axes=([1], [1])).reshape(-1, n_bits)
    code = (corr.astype(np.int64) + n_bits) @ (2 * n_bits + 1) ** np.arange(n_bits)
    _, first, spread = np.unique(code, return_index=True, return_inverse=True)
    out = corr[first].astype(np.int64), spread.reshape(1 << n_bits, -1)
    for a in out:
        a.setflags(write=False)
    return out


@functools.cache
def _class_counts(n_bits: int):
    """Per distinct vector of `_distinct_correlations`: how many point pairs
    (x, y) of a block carry it, how many of those have y = x, its distance
    |x xor y| (C[x, y, 0] = N - 2 |x xor y|) and the index of the vector of
    (x, -y), its negation; each read-only."""
    distinct, spread = _distinct_correlations(n_bits)
    classes = len(distinct)
    out = (np.bincount(spread.ravel(), minlength=classes),
           np.bincount(np.diagonal(spread), minlength=classes),
           (n_bits - distinct[:, 0]) // 2,
           np.empty(classes, dtype=np.intp))
    out[3][spread] = spread[:, ::-1]  # column -y of row x, the complement of y
    for a in out:
        a.setflags(write=False)
    return out


@functools.cache
def _orbit_action(n_bits: int) -> np.ndarray:
    """act[g, x], the image of point x under each element g of the group of
    order 2N that the coordinate XOR shifts (x o c)_s = x_(s xor c) and the
    complement x -> -x generate: rows c < N shift by c, rows N + c shift by
    c and complement. Read-only. The group keeps every shift correlation,
    C[g x, g y, :] = C[x, y, :], so it keeps every entry of every base
    Gram."""
    size = 1 << n_bits
    s = np.arange(n_bits)
    bits = (np.arange(size)[:, None] >> s) & 1  # [x, s] = bit s of x
    shifted = bits[:, s[None, :] ^ s[:, None]] @ (1 << s)  # [x, c] = x o c
    act = np.concatenate([shifted, shifted ^ (size - 1)], axis=1).T.astype(np.int32)
    act.setflags(write=False)
    return act


@functools.cache
def _orbit_representatives(n_bits: int) -> np.ndarray:
    """One point per orbit of the group of `_orbit_action`, the least index
    of each orbit, read-only: 1, 2, 5 and 30 orbits at N = 1, 2, 4 and 8."""
    act = _orbit_action(n_bits)
    reps = np.flatnonzero(act.min(axis=0) == np.arange(act.shape[1]))
    reps.setflags(write=False)
    return reps


@functools.cache
def _pair_orbits(n_bits: int):
    """One ordered point pair (a, b) per orbit of the group of
    `_orbit_action` acting on both points, then one per orbit of that group
    together with the swap (a, b) -> (b, a); each as read-only (first,
    second) index arrays. An orbit is represented by its least pair, first
    point first: a is an orbit representative and b the least point of its
    orbit under the stabilizer of a. 2, 6, 44 and 4320 pairs at N = 1, 2, 4
    and 8; 2, 5, 30 and 2288 with the swap. Built from the (2N, 2^N) action
    table alone, one representative at a time."""
    act = _orbit_action(n_bits)
    size = act.shape[1]
    points = np.arange(size)
    firsts, seconds = [], []
    for a in _orbit_representatives(n_bits).tolist():
        stabilizer = act[act[:, a] == a]
        b = np.flatnonzero(stabilizer.min(axis=0) == points)
        firsts.append(np.full(len(b), a))
        seconds.append(b)
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    # the least pair of the orbit of (b, a), as the code g b * size + g a;
    # a swap orbit joins the orbits of (a, b) and (b, a) and keeps the lesser
    swapped = (act[:, second] * size + act[:, first]).min(axis=0)
    keep = first * size + second <= swapped
    out = (first, second), (first[keep], second[keep])
    for index in (*out[0], *out[1]):
        index.setflags(write=False)
    return out


@dataclass(frozen=True)
class BESVectorAssignment:
    """The tensored unit-vector solution: point (v, x) carries the unit vector
    ((1/sqrt(N)) sum_i x_i u_{v,i}^(tensor l_in))^(tensor t) of the sign
    pattern x (see `cutgap.tensor`).

    A base inner product is base((v, x), (w, y)) = C[x, y] . table[v, w] /
    scale for the shift correlations C of the sign patterns, read from their
    distinct vectors, with the table's integer numerators
    (`tensor.GramCache`) and scale = N^(l_in+1): an int64 dot over one
    integer, so each float below is rounded once. No tensor, dense C or
    per-pair Gram block is formed.
    """

    inst: BESInstance
    cache: GramCache
    l_in: int
    t: int

    @property
    def scale(self) -> int:
        """N^(l_in+1), the denominator of every base inner product."""
        return self.cache.N ** (self.l_in + 1)

    @functools.cached_property
    def gram_rows(self):
        """The table's `_distinct_rows`, found on first use and kept: the
        objective and every check read them."""
        return _distinct_rows(self)

    def base_gram_block(self, v: int, w: int) -> np.ndarray:
        """(2^N, 2^N) base inner products between two whole blocks, each
        taken once per distinct shift-correlation vector."""
        distinct, spread = _distinct_correlations(self.cache.N)
        return (distinct @ self.cache.table[v, w] / self.scale)[spread]

    def base_inner_flat(self, a_ids, b_ids) -> np.ndarray:
        """Vectorized base inner products for flat vertex id pairs."""
        av, ax = np.divmod(np.asarray(a_ids), self.inst.block_size)
        bv, bx = np.divmod(np.asarray(b_ids), self.inst.block_size)
        distinct, spread = _distinct_correlations(self.cache.N)
        return np.einsum("bd,bd->b", distinct[spread[ax, bx]], self.cache.table[av, bv]) / self.scale


def assign_sdp_solution(inst: BESInstance, sol: UGVectorSolution,
                        l_in: int = 8, t: int = 1) -> BESVectorAssignment:
    if sol.basis.shape[0] != inst.num_blocks or sol.basis.shape[1] != inst.ug.num_labels:
        raise ValueError("solution shape does not match instance")
    if l_in > INNER_POWER_LIMIT:
        raise ValueError(f"l_in={l_in} exceeds INNER_POWER_LIMIT={INNER_POWER_LIMIT}")
    return BESVectorAssignment(inst, GramCache(sol.basis, l_in=l_in), l_in, t)


def _sorted_rows(values: np.ndarray):
    """np.unique(values, axis=0, return_inverse=True) for a 2-D array: the
    distinct rows in lexicographic order and each row's index among them,
    from one stable lexsort and a compare of adjacent rows."""
    order = np.lexsort(values.T[::-1])
    ordered = values[order]
    new = np.ones(len(values), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def _distinct_rows(assign: BESVectorAssignment):
    """The sorted distinct rows of the Gram table (int64 numerators over
    N^l_in), each block pair's row as an (m, m) index array, and
    inner[r, j] = rows[r] . distinct[j], row r's base inner product at
    every distinct shift-correlation vector as an int64 numerator over
    N^(l_in+1)."""
    m, n = assign.inst.num_blocks, assign.cache.N
    rows, row_of = _sorted_rows(assign.cache.table.reshape(m * m, -1))
    return rows, row_of.reshape(m, m), rows @ _distinct_correlations(n)[0].T


@functools.cache
def _distance_matrix(n_bits: int) -> np.ndarray:
    """Hamming distances |x xor y| between the points of a block, read-only."""
    idx = np.arange(1 << n_bits, dtype=np.uint32)
    dist = np.bitwise_count(idx[:, None] ^ idx[None, :])
    dist.setflags(write=False)
    return dist


def sdp_objective(inst: BESInstance, assign: BESVectorAssignment) -> Fraction:
    """(1/4) E[ ||V_a - V_b||^2 ] over the edge distribution, by exact
    enumeration of (x, mu) per UG edge, as (1 - mean inner product) / 2 with
    the weights' total taken as 1 (`UGInstance` checks it to 1e-9); exact,
    so float() rounds it once. Comparable directly with cut weights (a
    +/-v0 cut solution scores its cut weight), within two limits: a cut
    bounds only the SDP *minimum* from above, not this one feasible point,
    and only when the cut's demand is >= `inst.balance`.

    An edge of XOR shift c pairs (v, x) with (w, y), y_i = y'_(i xor c), and
    base((v,x),(w,y)) = sum_d C[x, y', d] table[v, w, d xor c] / scale;
    edges with the same shifted table row give the same term, so each
    distinct row is evaluated once with the summed weight of its edges.
    Every factor is an integer over a power of two or of N: the weights and
    epsilon read as exact binary fractions (`_binary_fractions`), the noise
    weight eps^d (1 - eps)^(N - d) / 2^N of a pair at distance d, and a
    power base^t = num^t / scale^t. A row's distinct correlation vectors
    are grouped by (distance, numerator) and each group's power is taken
    once, in Python ints, so the mean is one integer over one denominator.
    """
    # imported on first use: `fractions` loads `decimal` (about 5 ms and
    # 0.3 MB), which no other command needs
    from fractions import Fraction

    n = inst.ug.num_labels
    d = inst.ug.edge_distribution
    if not np.array_equal(d.perms, np.arange(n) ^ d.perms[:, :1]):
        raise ValueError("sdp_objective needs XOR-shift edge permutations")
    base_rows, row_of, _ = assign.gram_rows
    # 118 (table row, shift) keys at k = 3, whose 28 distinct shifted rows sort as every edge's
    keys, key_of = np.unique(row_of[d.v, d.w] * n + inst.ug.perm[:, 0], return_inverse=True)
    r, c = np.divmod(keys, n)
    rows, group = _sorted_rows(base_rows[r[:, None], np.arange(n) ^ c[:, None]])
    # each row's weight, an integer over 2^p: its edges counted per distinct
    # weight c_j / 2^p
    weights, class_of = np.unique(d.weight, return_inverse=True)
    edges = np.bincount(group[key_of] * len(weights) + class_of, minlength=len(rows) * len(weights))
    c, p = _binary_fractions(weights.tolist())
    row_weights = [sum(e * cj for e, cj in zip(counts, c))
                   for counts in edges.reshape(len(rows), -1).tolist()]
    (m,), q = _binary_fractions([inst.epsilon])  # eps = m / 2^q
    noise = [m**k * ((1 << q) - m) ** (n - k) for k in range(n + 1)]  # over 2^(q N)
    pairs, _, dist, _ = _class_counts(n)
    mean = 0
    for weight, nums in zip(row_weights, rows @ _distinct_correlations(n)[0].T):
        values, value_of = np.unique(nums, return_inverse=True)
        # the point pairs per (distance, numerator), below 2^16: exact as float64
        cells = np.bincount(dist * len(values) + value_of, weights=pairs)
        at = np.flatnonzero(cells)
        powers = [v**assign.t for v in values.tolist()]
        mean += weight * sum(noise[k] * int(count) * powers[j] for k, j, count in
                             zip(*(a.tolist() for a in np.divmod(at, len(values))),
                                 cells[at].tolist()))
    den = (1 << p + q * n + n) * assign.scale**assign.t
    return Fraction(den - mean, 2 * den)


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


def gap_ratio(inst: BESInstance, cut, objective: Fraction) -> float:
    """The gap ratio of a cut: its exact weight
    (`EdgeDistribution.probability_numerators`) over the exact objective of
    `sdp_objective`, rounded once; inf when the objective is not positive."""
    if objective <= 0:
        return math.inf
    disagree, _, whole = inst.ug.edge_distribution.probability_numerators(
        _block_views(inst, cut), inst.epsilon)
    return disagree * objective.denominator / (whole * objective.numerator)


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
        # balance_lhs is its exact value rounded once and the bound is a
        # float, so the compare errs only within half an ulp below the bound
        return self.balance_lhs >= self.balance_required


def check_bes_feasibility(inst: BESInstance, assign: BESVectorAssignment) -> BESFeasibilityReport:
    """Unit norms, the per-block well-separatedness identity, the demand
    balance constraint, and the triangle inequality over every ordered
    triple, each exact and rounded once.

    All four read the assignment's `gram_rows`: block pairs with the same
    row table[v, w] have the same base Gram, and each distinct row's base
    inner products are integer numerators over scale = N^(l_in+1), one per
    distinct shift-correlation vector (`_distinct_correlations`: 1425 at
    N = 8). For checks (a)-(c) a diagonal row's t-th powers are taken once
    per distinct numerator, in Python ints, and each vector's point pairs
    are counted (`_class_counts`), so no (2^N, 2^N) table is formed.

    Triangle checks run at the base level (t = 1); the odd-power transfer
    lemma carries them to every odd t. A triple (a, b, c) violates by
    g(a, c) + g(b, c) - 1 - g(a, b) when that is positive. Two unit vectors
    at inner product +/-1 are equal or opposite, and a triple holding such a
    pair has a term <= 0. Any other triple in blocks (U, V, W) has a term at
    most near[UW] + near[VW] + near[UV] - 1, where near[r] is the largest
    |inner| other than 1 in row r's Gram. Only the block triples where that
    bound is positive are swept, once per distinct row triple, by
    `tensor.triangle_sweep` on the swept rows' numerators spread to their
    Grams, so the certificate is exact.

    The sweep skips terms that repeat. Every row's Gram is symmetric, since
    C[x, y, :] = C[y, x, :], so swapping a and b takes the terms of the row
    triple (ac, bc, ab) to those of (bc, ac, ab): only the triples with
    ac <= bc are swept (3 of 4 at k = 3 and l_in = 8). The shifts and the
    complement of `_orbit_action` keep every Gram entry, so the term of
    (g a, g b, g c) is that of (a, b, c), and the pair (a, b) runs over one
    pair per orbit of that group, c over every point (`_pair_orbits`: 4320
    of the 65536 ordered pairs at N = 8). When ac == bc the term is
    symmetric in a and b as well, and one pair per orbit of the group with
    the swap (2288) suffices. The unit norms the bound relies on are check
    (a).
    """
    size = inst.block_size
    m = inst.num_blocks
    n = assign.cache.N
    _, row_of, inner = assign.gram_rows
    scale = assign.scale
    one = scale**assign.t
    pairs, diagonal, _, antipode = _class_counts(n)
    has_diagonal = diagonal > 0

    # (a)-(c) per distinct diagonal row, weighted by the blocks that carry it
    norm_res = ws_res = balance_lhs = 0
    for r, blocks in zip(*np.unique(np.diagonal(row_of), return_counts=True)):
        values, value_of = np.unique(inner[r], return_inverse=True)
        powers = [v**assign.t for v in values.tolist()]
        # (a) unit norms of every point
        norm_res = max(norm_res, *(abs(powers[j] - one)
                                   for j in np.unique(value_of[has_diagonal]).tolist()))
        # (b) well-separatedness: E_{x,y}[inner^t] vanishes by exact antipodal
        # cancellation (y against its complement), making the identity
        # (1/2) E ||V_x - V_y||^2 = 1 exact per block
        both = np.unique(value_of * len(values) + value_of[antipode])
        ws_res = max(ws_res, *(abs(powers[a] + powers[b])
                               for a, b in zip(*(x.tolist() for x in np.divmod(both, len(values))))))
        # (c) balance constraint: (1/4) sum_dem ||V_x - V_y||^2 per block
        # is (1/4) (2 C(size,2) - sum_{x != y} inner^t)
        off_diagonal = np.bincount(value_of, weights=pairs - diagonal).astype(np.int64)
        balance_lhs += int(blocks) * (2 * math.comb(size, 2) * one
                                      - sum(k * p for k, p in zip(off_diagonal.tolist(), powers)))
    balance_exact = m * size**2 / 4.0

    # (d) triangle certificate at the base level
    g = np.abs(inner)
    near = np.max(g, axis=1, where=g != scale, initial=0)
    # rows of (a, c), (b, c) and (a, b) for a in U, b in V, c in W
    ac, bc, ab = np.broadcast_arrays(row_of[:, None, :], row_of[None, :, :], row_of[:, :, None])
    over = near[ac] + near[bc] + near[ab] > scale
    ac, bc, ab = ac[over], bc[over], ab[over]
    # the triples (ac, bc, ab) and (bc, ac, ab) have the same terms, a and b
    # swapped, so each is swept as the one with ac <= bc
    row_triples = _sorted_rows(np.stack([np.minimum(ac, bc), np.maximum(ac, bc), ab], axis=1))[0]
    # the swept rows' numerators, each spread to its Gram
    swept = np.unique(row_triples)
    spread = _distinct_correlations(n)[1]
    nums = dict(zip(swept.tolist(),
                    inner[swept].astype(np.min_scalar_type(-3 * scale))[:, spread]))
    pair_orbits, swap_orbits = _pair_orbits(n)
    worst = max((triangle_sweep(nums[r], nums[s], nums[t],
                                swap_orbits if r == s else pair_orbits)
                 for r, s, t in row_triples.tolist()), default=scale)

    return BESFeasibilityReport(
        unit_norm_residual=norm_res / one,
        well_separatedness_residual=ws_res / one,
        balance_lhs=balance_lhs / (4 * one),
        balance_required=inst.balance,
        balance_exact_value=balance_exact,
        triangle_violation=max(worst - scale, 0) / scale,
        triples_checked=inst.num_vertices**3,
    )


@dataclass
class CutSearchResult:
    cut: np.ndarray
    edge_weight: float
    balance: float
    demand: float
    candidates: list  # (name, weight, balance) per candidate examined


def _random_balanced_cuts(inst: BESInstance, rng, count: int) -> np.ndarray:
    """`count` cuts, one per row, each +1 on the first half of one shuffle
    of every block's points. `Generator.permuted` shuffles the rows in
    order, as one `rng.permutation(block_size)` per block and cut would,
    so the generator is read the same way."""
    size = inst.block_size
    points = rng.permuted(np.tile(np.arange(size), (count * inst.num_blocks, 1)), axis=1)
    cuts = np.full(points.shape, -1, dtype=np.int8)
    np.put_along_axis(cuts, points[:, :size // 2], 1, axis=1)
    return cuts.reshape(count, -1)


def _majority_cut(inst: BESInstance) -> np.ndarray:
    n = inst.ug.num_labels
    sums = dictator_tables(np.arange(n), n).sum(axis=0)  # coordinate sum per point
    block = np.where(sums >= 0, 1, -1).astype(np.int8)
    return np.tile(block, inst.num_blocks)


class _FlipGains:
    """The exact change in cut weight from flipping one point (the gain of
    Kernighan-Lin and Fiduccia-Mattheyses), kept current under flips.

    With K[x, y] = eps^|x^y| (1-eps)^(N-|x^y|) the noise kernel, the cut
    weight is sum_e wt_e / 2 minus sum_e wt_e <A^(v_e) K, A^(w_e) o T_e> /
    2^(N+1). Each T_e permutes coordinates and K depends only on Hamming
    distance, so K[y, T_e[x]] = K[T_e^-1[y], x], and the weight's gradient in
    A(u, x) is the field F_u = B_u K of the pulled table B_u = sum_{e: v_e=u}
    wt_e A^(w_e) o T_e + sum_{e: w_e=u} wt_e A^(v_e) o T_e^-1. Flipping (u, x)
    moves the weight by (A(u, x) (B_u K)(x) - 2 sum_{loop e at u} wt_e
    K[T_e[x], x]) / 2^N, the loop term being the one quadratic part. A kept
    flip moves one entry of B per end of u, B[o, M[x]] by -2 A(u, x) wt for
    the end's other endpoint o, map M and weight wt: the reverse end at o
    reads A(u, .) through M^-1.

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
        rows = self.weights[:, None] * blocks[self.others[:, None], self.maps]
        self.pulled = np.bincount((ends.vertex[:, None] * size + points).ravel(),
                                  weights=rows.ravel(),
                                  minlength=blocks.size).reshape(blocks.shape)
        loops = d.v == d.w
        loop_terms = d.weight[loops, None] * self.kernel[d.tables[d.table_of[loops]], points]
        self.loop = np.bincount((d.v[loops, None] * size + points).ravel(),
                                weights=loop_terms.ravel(),
                                minlength=blocks.size).reshape(blocks.shape)

    def gain(self, u: int, x: int, a: int) -> float:
        """Weight after flipping (u, x), which holds a, minus weight before."""
        return (a * np.dot(self.pulled[u], self.kernel[x]) - 2 * self.loop[u, x]) / self.size

    def flip(self, u: int, x: int, a: int) -> None:
        """Record the flip of (u, x) from a to -a."""
        e = slice(self.bounds[u], self.bounds[u + 1])
        # an (other, point) pair repeats where two ends share it
        np.add.at(self.pulled, (self.others[e], self.maps[e, x]), -2 * a * self.weights[e])


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
    cuts = _random_balanced_cuts(inst, rng, RANDOM_CANDIDATES)
    candidates += [(f"random_{r}", cut) for r, cut in enumerate(cuts)]

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


def bes_to_text(inst: BESInstance, expanded: bool | None = None,
                ug_text: str | None = None) -> str:
    """Header `BES m N epsilon <mode>`; expanded mode lists every realized
    edge as `v x w y weight` (only for <= 4-label instances), params mode
    embeds the generating UG instance, `ug_text` when the caller already
    holds its `ug_to_text`."""
    if expanded is None:
        expanded = inst.ug.num_labels <= 4
    mode = "expanded" if expanded else "params"
    head = f"BES {inst.num_blocks} {inst.ug.num_labels} {inst.epsilon:.17g} {mode}"
    if not expanded:
        return head + "\n" + (ug_to_text(inst.ug) if ug_text is None else ug_text)
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
    """One entry per line; an entry other than +/-1 raises ValueError."""
    cut = np.asarray(cut)
    if not np.all((cut == 1) | (cut == -1)):
        raise ValueError("cut entries must be +/-1")
    return "\n".join(np.where(cut > 0, "1", "-1").tolist()) + "\n"


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
