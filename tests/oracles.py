"""Independent reference implementations the tests compare the production
paths against. None of them is used by the cutgap package itself.

- `character_table` and `naive_wht`: the Walsh-Hadamard transform as one
  product with the explicit character matrix, and `fwht_inplace`, the same
  transform as the in-place O(N log N) butterfly: the oracles for the
  Kronecker transform of `cutgap.fourier`, which must match the butterfly
  byte for byte on +/-1 tables.
- `noise_kernel_two_copies`: the noise kernel K f as a butterfly, one
  (1 - eps, eps) mixing pass per bit, the oracle for the kernel matrix of
  `cutgap.separator._FlipGains` and for the float cut-weight route of
  `disagreement_one_gather`.
- `tensor_inner` and `materialize_tensor_power`: tensor powers written out
  (<x tensor l, z tensor l> = <x, z>^l), the oracle for every symbolic
  tensored inner product.
- `BESVectorHandle` and `bes_inner`: one separator vector at a time, from
  one per-pair Gram block, the oracle for the batched routes of
  `cutgap.separator`.
- `odd_power_triangle_transfer`: the transfer lemma that lets the triangle
  certificates check t = 1 only.
- `_set_image_table`: one permutation's action on subset bitmasks, built
  bit by bit, the oracle for the reindex tables of
  `cutgap.unique_games.EdgeDistribution` that the verifier's spectral
  formula reads.
- `bes_expanded_text_loop`, `opt_exhaustive_loop` and `opt_search_loop`
  (with `incidence`): the expanded separator export, the exhaustive UG
  optimum and the UG local search written as loops over edges, point pairs
  and labelings, the oracles for the array code of
  `cutgap.separator.bes_to_text` and `cutgap.unique_games`; each sums in
  the order the array code must keep. `incidence`, built one edge at a
  time, is also the oracle for `EdgeDistribution.incidence` once its loop
  ends are set aside.
- `label_extended_graph_loop` and `labeling_set_expansion_identity_loop`:
  the label-extended graph as a dict built one (edge, label) at a time,
  and the expansion of a labeling's set walked over that dict, the oracles
  for the bincount routes of `cutgap.unique_games`.
- `edge_rows`: a UG instance's edge columns read one edge at a time, the
  form the loop oracles walk; `ug_text_per_edge`, the UG file written one
  edge at a time from them, each weight formatted where it stands, the
  oracle for `cutgap.unique_games.ug_to_text`.
- `quotient_partition_loop`: the classes of the 2^N truth-table codes
  under XOR by the character masks, one orbit at a time in code order,
  with every code's class and shift, the oracle for the representatives
  of `cutgap.quotient.build_quotient`.
- `agreement_by_enumeration`: a cut's weight and a proof's acceptance
  in rationals, every edge's (x, mu) pairs enumerated and counted by
  |mu|, the oracle that the integer level sums of
  `EdgeDistribution.level_sums`, rounded once by `probabilities`, must match with `==`;
  `level_sums_one_gather`: those level sums with every edge's pulled
  spectrum gathered at once and summed in int64, the oracle that the
  distinct-row keys of `EdgeDistribution.row_keys` and the slab products
  of `EdgeDistribution.level_sums` must match with `==`.
- `disagreement_one_gather` and `acceptance_exact_per_edge` (with
  `_noise_factors`): the float routes to the same two numbers, one noise
  kernel pass and one spectral term per edge, each summed in edge order;
  within FLOAT_ROUTE_TOL of the exact route (the widest gaps on the
  tests' cuts are 1.5e-14, 273 ulps, for a weight and 2.0e-14 for an
  acceptance).
- `sdp_objective_per_row`: the tensored SDP objective with the inner
  product numerators taken at every (x, y') point of every distinct table
  row and summed in rationals, the oracle that the integer objective of
  `cutgap.separator.sdp_objective`, grouped per distinct correlation
  vector, must match with `==`; `sdp_objective_float`, the same objective
  summed in float64 per row, the float route the objective took before it
  became exact (one ulp off at k = 2, t = 3, l_in = 16), within
  FLOAT_ROUTE_TOL of it.
- `sdp_by_enumeration`: the objective and checks (a)-(c) of the separator
  SDP in rationals from the basis alone, every edge's (x, mu) pairs and
  every block's point pairs enumerated, the oracle that the printed
  objective, residuals and `balance_lhs` must match with `==` once
  rounded, and, with `agreement_by_enumeration`, the gap ratio.
- `sample_disagreements_choice`: the Monte Carlo run of the two-query
  test with its edges and its flip patterns drawn by `Generator.choice`
  (the patterns by `flip_probabilities`), the oracle whose counts and
  generator state the guide-table sampler of
  `EdgeDistribution.sample_disagreements` must give with `==`.
- `random_balanced_cut_loop`: one random balanced cut, one
  `Generator.permutation` per block, the oracle whose cuts and generator
  state the one shuffle of `cutgap.separator._random_balanced_cuts` must
  give with `==`.
- `balanced_cut_search_per_trial`: the balanced-cut search with every
  trial flip of its local search judged by two exact cut weights and its
  balance by `piecewise_balance` of the whole flipped cut, the oracle that
  the gain bookkeeping of `cutgap.separator.balanced_cut_search` must
  match bit for bit.
- `shift_correlations`: the dense (2^N, 2^N, N) float64 tensor of the
  shift correlations C[x, y, d] = sum_s x_s y_(s xor d), which the
  separator only ever holds as its distinct vectors, for the per-point
  oracles here and in the tests.
- `base_gram_block_per_pair`, `triangle_sweep_half` and
  `check_bes_feasibility_per_pair`: a block pair's base Gram as one
  integer product C[x, y] . table[v, w] per point pair, the triangle sweep
  with its first point over half a block (the complement alone), and the
  separator's feasibility check built from both, checks (a)-(c) summed in
  rationals over every point pair, the oracles that the
  distinct-correlation values and the pair-orbit sweep of
  `cutgap.separator.check_bes_feasibility` must match with `==`.
- `triangle_sweep_ordered`: the triangle sweep over every ordered triple,
  the oracle for the pair-orbit sweep on generated Grams and for
  `cutgap.tensor.triangle_sweep_upper`.
- `decode_labeling_choice`: the Fourier decoder with each vertex's alpha
  drawn by `Generator.choice` from its renormalized spectrum and its label
  by `choice` over alpha's members, the oracle whose labelings the cdf
  lookups of `cutgap.verifier.decode_labeling` must give with `==`.
- `cut_sum`, `sparsity`, `local_search_sparsest_cut_via_sparsity` and
  `local_search_sparsest_cut_mask_per_sum`: a cut's weight or demand with
  its separation mask built per sum, a cut's edge weight over its demand,
  and the sparsest-cut local search with every trial's demand taken once
  for the `> 0` test and again inside `sparsity`, or with one mask and one
  product array per sum; the oracles whose cuts
  `cutgap.metrics.local_search_sparsest_cut` (each trial decided by its
  flip-gain estimate, by the full sums only inside the estimate's error
  band) must match with `==`.
- `distortion_lp_data_cut_major`: the cut-cone LP's (c, A, b) with the
  separation matrix built cut-major and transposed, the oracle that the
  pair-major build of `cutgap.metrics._distortion_lp_data` must match byte
  for byte, -0.0 entries included.
- `solve_lp_full_tableau`: the column-generation simplex on the full
  tableau, every basic column stored as its unit column and updated by
  every pivot, and each basis matrix gathered from [A | I], the oracle
  whose status, iterations, basis, x, duals and reduced costs the
  dictionary form of `cutgap.simplex.solve_lp` must give bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from cutgap._fields import int_array
from cutgap.fourier import wht_matrix
from cutgap.metrics import GRAPH_VERTEX_LIMIT, METRIC_POINT_LIMIT, FiniteMetric, _cut_bits
from cutgap.quotient import BASIS_MAX_K, UGVectorSolution
from cutgap.separator import (
    BESFeasibilityReport,
    CutSearchResult,
    _block_views,
    _majority_cut,
    cut_edge_weight,
    demand_cut,
)
from cutgap.simplex import MAX_ITER, PIVOT_TOL, PRICE_BATCH, PRICE_TOL, SimplexResult
from cutgap.tensor import DEFAULT_INNER_POWER, GramCache
from cutgap.unique_games import (
    EXACT_LABEL_LIMIT,
    UGInstance,
    _not_permutations,
    value,
)
from cutgap.verifier import DecodeResult, Proof, dictator_tables, piecewise_balance

DEFAULT_OUTER_POWER = 3
# the float routes' distance from the correctly rounded exact value
FLOAT_ROUTE_TOL = 1e-13


class EdgeRow(NamedTuple):
    v: int
    w: int
    perm: np.ndarray  # lam[v] = perm[lam[w]] satisfies
    weight: float


def edge_rows(u) -> list:
    """The edges of a UG instance in edge order, read from its columns, with
    Python-int endpoints and Python-float weights."""
    return [EdgeRow(*row) for row in
            zip(u.v.tolist(), u.w.tolist(), u.perm, u.weight.tolist())]


def ug_text_per_edge(u) -> str:
    """The UG file of `u`: its header, then one `v w weight perm` line per
    edge, each weight formatted on its own line."""
    lines = [f"UG {u.num_labels} {u.num_vertices} {u.num_edges}"]
    lines += [f"{e.v} {e.w} {e.weight:.17g} {' '.join(map(str, e.perm.tolist()))}"
              for e in edge_rows(u)]
    return "\n".join(lines) + "\n"


def quotient_partition_loop(masks):
    """(reps, class_id, shift_id) for the 2^N codes, N = len(masks): each
    code not yet placed opens a class as its representative, and code
    rep ^ masks[s] gets that class and shift s."""
    n = len(masks)
    total = 1 << n
    class_id = np.full(total, -1, dtype=np.int64)
    shift_id = np.zeros(total, dtype=np.int64)
    reps = []
    for code in range(total):
        if class_id[code] >= 0:
            continue
        orbit = np.uint64(code) ^ masks
        class_id[orbit] = len(reps)
        shift_id[orbit] = np.arange(n)
        reps.append(code)
    return np.array(reps, dtype=np.uint64), class_id, shift_id


def character_table(k: int) -> np.ndarray:
    """The 2^k x 2^k matrix H[s, x] = chi_S(x) = (-1)^popcount(s & x)."""
    idx = np.arange(1 << k, dtype=np.uint32)
    pc = np.bitwise_count(idx[:, None] & idx[None, :])
    return np.where(pc % 2 == 0, 1, -1).astype(np.int64)


def naive_wht(f) -> np.ndarray:
    """O(N^2) transform of a 1-D table by explicit summation over the
    character table."""
    values = np.asarray(f, dtype=np.float64)
    k = len(values).bit_length() - 1
    return character_table(k).astype(np.float64) @ values / len(values)


def fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard butterfly along the last axis, in
    place: sum_x f(x) (-1)^popcount(s & x) in O(N log N)."""
    n = a.shape[-1]
    if n <= 0 or n & (n - 1):
        raise ValueError(f"table length {n} is not a power of two")
    h = 1
    while h < n:
        shape = a.shape[:-1] + (n // (2 * h), 2, h)
        view = a.reshape(shape)
        top = view[..., 0, :] + view[..., 1, :]
        bot = view[..., 0, :] - view[..., 1, :]
        view[..., 0, :] = top
        view[..., 1, :] = bot
        h *= 2
    return a


def noise_kernel_two_copies(values, eps: float, n_bits: int) -> np.ndarray:
    """K f along the last axis, K[x, y] = eps^d(x,y) (1-eps)^(n_bits - d(x,y)),
    leading axes a batch: the mean of f at x with each bit flipped
    independently with probability eps. One pass per bit h, with both
    halves copied: the values a at bit h clear become (1 - eps) * a + eps * b
    and the values b at bit h set become eps * a + (1 - eps) * b."""
    out = np.array(values, dtype=np.float64, order="C")
    n = 1 << n_bits
    h = 1
    while h < n:
        view = out.reshape(out.shape[:-1] + (n // (2 * h), 2, h))
        a = view[..., 0, :].copy()
        b = view[..., 1, :].copy()
        view[..., 0, :] = (1 - eps) * a + eps * b
        view[..., 1, :] = eps * a + (1 - eps) * b
        h *= 2
    return out


def tensor_inner(x, z, l: int) -> float:
    """<x tensor l, z tensor l> = <x, z>^l."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError("dimension mismatch")
    if l < 1:
        raise ValueError("tensor power must be >= 1")
    return float(np.dot(x, z)) ** l


def materialize_tensor_power(x, l: int) -> np.ndarray:
    """Explicit l-th tensor power as a flat vector of length dim^l.

    Only sensible at tiny dimension; exists as the oracle the symbolic path
    is tested against.
    """
    x = np.asarray(x, dtype=np.float64)
    out = x
    for _ in range(l - 1):
        out = np.multiply.outer(out, x).ravel()
    return out


@dataclass(frozen=True)
class BESVectorHandle:
    """Symbolic unit vector for the pair (vertex, sign pattern): the vector
    ((1/sqrt(N)) sum_i x_i v_i^(tensor l_in))^(tensor t).

    The handle never materializes anything: self inner product is exactly
    (1/N) sum x_i^2 = 1. t must be odd, l_in even and at least 2.
    """

    vertex: int
    signs: np.ndarray
    l_in: int = DEFAULT_INNER_POWER
    t: int = DEFAULT_OUTER_POWER

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.int8)
        object.__setattr__(self, "signs", signs)
        if not np.all(np.abs(signs) == 1):
            raise ValueError("sign pattern must be +/-1")
        if self.t < 1 or self.t % 2 == 0:
            raise ValueError(f"outer power t={self.t} must be a positive odd integer")
        if self.l_in < 2 or self.l_in % 2:
            raise ValueError(f"inner power l_in={self.l_in} must be even and >= 2")


def bes_inner(a: BESVectorHandle, b: BESVectorHandle, cache: GramCache) -> float:
    """((1/N) x^T M y)^t, base clamped to [-1, 1] against floating residue."""
    if a.l_in != b.l_in or a.t != b.t:
        raise ValueError("handles disagree on tensor powers")
    if a.l_in != cache.l_in:
        raise ValueError("cache built for a different inner power")
    m = cache.gram(a.vertex, b.vertex)
    base = float(a.signs.astype(np.float64) @ m @ b.signs.astype(np.float64)) / cache.N
    base = min(1.0, max(-1.0, base))
    return base**a.t


def odd_power_triangle_transfer(a: float, b: float, c: float, t: int) -> bool:
    """Whether 1 + a^t >= b^t + c^t (within 1e-12), given 1 + a >= b + c.

    The transfer lemma guarantees True for all odd t when a, b, c are in
    [-1, 1] and the base inequality holds; the precondition is enforced
    because nothing is claimed outside it.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError("t must be a positive odd integer")
    for val in (a, b, c):
        if not -1.0 <= val <= 1.0:
            raise ValueError("inputs must lie in [-1, 1]")
    if 1 + a < b + c:
        raise ValueError("precondition 1 + a >= b + c violated")
    return bool(1 + a**t >= b**t + c**t - 1e-12)


def _set_image_table(perm) -> np.ndarray:
    """table[alpha] = bitmask of {perm^-1(i) : i in alpha}."""
    n = len(perm)
    inv = np.argsort(perm)
    alphas = np.arange(1 << n, dtype=np.int64)
    out = np.zeros_like(alphas)
    for i in range(n):
        out |= ((alphas >> i) & 1) << int(inv[i])
    return out


def bes_expanded_text_loop(inst) -> str:
    """The expanded `BES` export, one (edge, x, y') term at a time."""
    n = inst.ug.num_labels
    size = inst.block_size
    eps = inst.epsilon
    tables = inst.ug.edge_distribution.tables
    accum: dict = {}
    for e, p in zip(edge_rows(inst.ug), inst.ug.edge_distribution.table_of):
        table = tables[p]
        for x in range(size):
            for yp in range(size):
                y = int(table[yp])
                dist = bin(x ^ yp).count("1")
                w = e.weight * (eps**dist) * (1 - eps) ** (n - dist) / size
                a = (e.v, x)
                b = (e.w, y)
                key = (min(a, b), max(a, b))
                accum[key] = accum.get(key, 0.0) + w
    lines = [f"BES {inst.num_blocks} {n} {eps:.17g} expanded"]
    for (a, b), w in sorted(accum.items()):
        lines.append(f"{a[0]} {a[1]} {b[0]} {b[1]} {w:.17g}")
    return "\n".join(lines) + "\n"


def opt_exhaustive_loop(u):
    """The first labeling of the highest value, scanning labeling numbers
    in order (vertex i takes digit i in base N)."""
    best_val = -1.0
    best = None
    lam = np.zeros(u.num_vertices, dtype=np.int64)
    for code in range(u.num_labels**u.num_vertices):
        c = code
        for i in range(u.num_vertices):
            lam[i] = c % u.num_labels
            c //= u.num_labels
        val = value(u, lam)
        if val > best_val:
            best_val = val
            best = lam.copy()
    return best, best_val


def incidence(u):
    """Per-vertex list of (other endpoint, weight, target-label map), in
    edge order, self-loops left out.

    For vertex v on edge (v, w, pi): label a satisfies iff a == pi[lam[w]].
    For vertex w on that edge: label b satisfies iff lam[v] == pi[b].
    """
    inc = [[] for _ in range(u.num_vertices)]
    for e in edge_rows(u):
        if e.v == e.w:
            continue
        inc[e.v].append((e.w, e.weight, e.perm))
        inc[e.w].append((e.v, e.weight, np.argsort(e.perm)))
    return inc


def opt_search_loop(u, seed: int, restarts: int = 10):
    """Greedy single-vertex relabeling from seeded random starts, each gain
    summed one incident edge at a time."""
    inc = incidence(u)
    best = None
    best_val = -1.0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        lam = rng.integers(0, u.num_labels, size=u.num_vertices)
        improved = True
        while improved:
            improved = False
            for v in range(u.num_vertices):
                gains = np.zeros(u.num_labels)
                for other, wt, mapping in inc[v]:
                    gains[mapping[lam[other]]] += wt
                new_label = int(np.argmax(gains))
                if gains[new_label] > gains[lam[v]] + 1e-15:
                    lam[v] = new_label
                    improved = True
        val = value(u, lam)
        if val > best_val:
            best_val = val
            best = lam.copy()
    return best, best_val


def label_extended_graph_loop(u) -> dict:
    """{(a, b): weight} over the label edges a < b of V x [N] (vertex v,
    label i flattened as v * N + i), each edge's N label edges added in
    label order and edge after edge."""
    n = u.num_labels
    out: dict = {}
    for e in edge_rows(u):
        for i in range(n):
            a = e.v * n + int(e.perm[i])
            b = e.w * n + i
            if a == b:
                raise ValueError("label-extended self-loop (fixed point on a loop edge)")
            key = (min(a, b), max(a, b))
            out[key] = out.get(key, 0.0) + e.weight
    return out


def labeling_set_expansion_identity_loop(u, lam):
    """(val, 1 - Phi(S_lam)), the expansion side summed over the dict of
    `label_extended_graph_loop`."""
    lam = np.asarray(lam, dtype=np.int64)
    val = value(u, lam)
    lext = label_extended_graph_loop(u)
    n = u.num_labels
    in_set = set(int(v * n + lam[v]) for v in range(u.num_vertices))
    degree = {}
    stay = {}
    for (a, b), wt in lext.items():
        degree[a] = degree.get(a, 0.0) + wt
        degree[b] = degree.get(b, 0.0) + wt
        if a in in_set and b in in_set:
            stay[a] = stay.get(a, 0.0) + wt
            stay[b] = stay.get(b, 0.0) + wt
    one_minus_phi = sum(
        stay.get(x, 0.0) / degree[x] for x in in_set
    ) / len(in_set)
    return val, one_minus_phi


def agreement_by_enumeration(d, tables, epsilon: float) -> tuple[Fraction, Fraction]:
    """(cut weight, acceptance) of +/-1 tables, one row per vertex, over an
    `EdgeDistribution`, in rationals: per edge, the (x, mu) pairs whose
    queries disagree, counted by k = |mu| and weighed by
    eps^k (1 - eps)^(N - k) / 2^N, give its disagreement p_e; the weight is
    sum_e wt(e) p_e and the acceptance 1/2 + 1/2 sum_e wt(e) (1 - 2 p_e).
    Edges of equal weight add their counts first. Epsilon and the weights
    are the exact values of their binary64s."""
    n = d.num_labels
    tables = np.asarray(tables)
    points = np.arange(1 << n)
    y = d.tables[d.table_of][:, points[:, None] ^ points]  # [e, x, mu]
    differ = tables[d.v][:, :, None] != tables[d.w[:, None, None], y]
    flips = np.bitwise_count(points)
    counts = np.stack([differ[:, :, flips == k].sum(axis=(1, 2)) for k in range(n + 1)], axis=1)
    eps = Fraction(epsilon)
    level = [eps**k * (1 - eps) ** (n - k) / 2**n for k in range(n + 1)]
    weight = total = Fraction(0)
    for wt in np.unique(d.weight).tolist():
        edges = d.weight == wt
        total += Fraction(wt) * int(edges.sum())
        weight += Fraction(wt) * sum(c * f for c, f in zip(counts[edges].sum(axis=0).tolist(), level))
    return weight, Fraction(1, 2) + (total - 2 * weight) / 2


def level_sums_one_gather(d, tables) -> np.ndarray:
    """`EdgeDistribution.level_sums` with every vertex's spectrum taken by
    the butterfly in int64 and every edge's pulled spectrum gathered
    at once, as an (|E|, 2^N) array with its sets S ordered by size, each
    edge's products added to its (weight, |S|) cell."""
    n = d.num_labels
    by_size = np.argsort(np.bitwise_count(np.arange(1 << n)), kind="stable")
    spectra = fwht_inplace(np.array(tables, dtype=np.int64))
    products = spectra[:, by_size][d.v] * spectra[d.w[:, None], d.tables[:, by_size][d.table_of]]
    per_edge = np.add.reduceat(products, np.cumsum([0] + [math.comb(n, s) for s in range(n)]),
                               axis=1)
    weights, class_of = np.unique(d.weight, return_inverse=True)
    return np.stack([per_edge[class_of == j].sum(axis=0) for j in range(len(weights))])


def disagreement_one_gather(d, blocks, epsilon: float) -> float:
    """The cut weight by the float noise-kernel route, with every edge's
    pulled row gathered at once, as an (|E|, 2^N) array, and the terms
    summed in edge order."""
    blocks = np.asarray(blocks, dtype=np.float64)
    smoothed = noise_kernel_two_copies(blocks, epsilon, d.num_labels)
    pulled = smoothed[d.w[:, None], d.tables[d.table_of]]
    agree = np.einsum("ex,ex->e", blocks[d.v], pulled)
    return float(np.cumsum(d.weight * (1.0 - agree / blocks.shape[1]) / 2.0)[-1])


def _noise_factors(num_labels: int, epsilon: float) -> np.ndarray:
    """(1 - 2 eps)^|alpha| per subset bitmask, the magnitudes through log
    space; eps > 1/2 flips the sign per level, eps = 1/2 kills every
    non-empty one."""
    sizes = np.bitwise_count(np.arange(1 << num_labels, dtype=np.uint32)).astype(np.float64)
    base = 1.0 - 2.0 * epsilon
    if base == 0.0:
        out = np.zeros(1 << num_labels)
        out[0] = 1.0
        return out
    signs = np.where(sizes % 2 == 0, 1.0, math.copysign(1.0, base))
    return signs * np.exp(sizes * math.log(abs(base)))


def acceptance_exact_per_edge(u, proof, epsilon: float) -> float:
    """The acceptance by the float spectral route, with every vertex's
    spectrum taken and every edge's term summed on its own, in edge order,
    from an (|E|, 2^N) array of pulled spectra."""
    d = u.edge_distribution
    spectra = wht_matrix(proof.tables.astype(np.float64))
    pulled = spectra[d.w[:, None], d.tables[d.table_of]]
    terms = d.weight * np.sum(spectra[d.v] * pulled * _noise_factors(u.num_labels, epsilon), axis=1)
    return 0.5 + 0.5 * float(np.cumsum(terms)[-1])


def flip_probabilities(n: int, epsilon: float) -> np.ndarray:
    """q(mu) = eps^|mu| (1 - eps)^(N - |mu|) for each N-bit flip pattern mu,
    each pattern's two powers taken in Python floats."""
    return np.array([epsilon**s * (1 - epsilon)**(n - s)
                     for s in np.bitwise_count(np.arange(1 << n)).tolist()])


def sample_disagreements_choice(d, blocks, samples: int, seed: int,
                                epsilon: float) -> int:
    """`EdgeDistribution.sample_disagreements` drawing each batch's edges
    and its flip patterns with `Generator.choice`, between them x as uint8
    `integers`, and each query read from the edge's own tables."""
    rng = np.random.default_rng(seed)
    n = d.num_labels
    p = d.weight / d.weight.sum()
    q = flip_probabilities(n, float(epsilon))
    count = done = 0
    while done < samples:
        batch = min(samples - done, 1 << 16)
        ei = rng.choice(len(p), p=p, size=batch)
        x = rng.integers(0, 1 << n, size=batch, dtype=np.uint8).astype(np.int64)
        mu = rng.choice(1 << n, p=q, size=batch)
        y = d.tables[d.table_of[ei], x ^ mu]
        count += int(np.sum(blocks[d.v[ei], x] != blocks[d.w[ei], y]))
        done += batch
    return count


def sdp_objective_per_row(inst, assign) -> Fraction:
    """`separator.sdp_objective` with each distinct shifted table row's
    inner product numerators taken at every (x, y') point, in int64, each
    point's noise weight and power in rationals grouped by (distance,
    numerator), and each row's weight the exact sum of its edges'."""
    n = inst.ug.num_labels
    scale = n ** (assign.l_in + 1)
    idx = np.arange(inst.block_size, dtype=np.uint32)
    dist = np.bitwise_count(idx[:, None] ^ idx[None, :]).astype(np.int64).ravel()
    eps = Fraction(inst.epsilon)
    noise = [eps**k * (1 - eps) ** (n - k) / inst.block_size for k in range(n + 1)]
    d = inst.ug.edge_distribution
    shifted = d.perms[d.table_of]
    rows, group = np.unique(assign.cache.table[d.v[:, None], d.w[:, None], shifted],
                            axis=0, return_inverse=True)
    weights = [Fraction(0)] * len(rows)
    for r, wt in zip(group.ravel().tolist(), d.weight.tolist()):
        weights[r] += Fraction(wt)
    corr = shift_correlations(n).reshape(-1, n).astype(np.int64)
    mean = Fraction(0)
    for row, weight in zip(rows, weights):
        # each point's (numerator, distance) as one int64 code
        cells, counts = np.unique((corr @ row) * (n + 1) + dist, return_counts=True)
        nums, k = np.divmod(cells, n + 1)
        mean += weight * sum(noise[d] * count * Fraction(num, scale) ** assign.t
                             for num, d, count in zip(nums.tolist(), k.tolist(), counts.tolist()))
    return (1 - mean) / 2


def sdp_objective_float(inst, assign) -> float:
    """The tensored SDP objective in float64, with the inner products and
    their powers taken at every (x, y') point of every distinct table row
    and summed per row: the float route `separator.sdp_objective` took
    before it became exact, whose values it gives bit for bit, within
    FLOAT_ROUTE_TOL of the exact value."""
    n = inst.ug.num_labels
    eps = inst.epsilon
    idx = np.arange(inst.block_size, dtype=np.uint32)
    dist = np.bitwise_count(idx[:, None] ^ idx[None, :])
    w_noise = (eps**dist) * (1 - eps) ** (n - dist) / inst.block_size
    d = inst.ug.edge_distribution
    shifted = d.perms[d.table_of]
    table = assign.cache.table / n**assign.l_in
    rows, group = np.unique(table[d.v[:, None], d.w[:, None], shifted],
                            axis=0, return_inverse=True)
    weights = np.bincount(group.ravel(), weights=d.weight)
    corr = shift_correlations(n)
    mean_inner = 0.0
    for row, weight in zip(rows, weights):
        q = np.clip(corr @ row / n, -1.0, 1.0)
        mean_inner += weight * float(np.sum(w_noise * q**assign.t))
    return (1.0 - mean_inner) / 2.0


def _signs(n_bits: int) -> np.ndarray:
    """[x, i] = 1 - 2 (bit i of x), int64."""
    return 1 - 2 * ((np.arange(1 << n_bits)[:, None] >> np.arange(n_bits)) & 1)


def sdp_by_enumeration(inst, assign) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(objective, unit_norm_residual, well_separatedness_residual,
    balance_lhs) of the tensored solution in rationals, from the basis
    alone. With M[i, j] = <u_{v,i}, u_{w,j}>^l_in, the vectors of (v, x)
    and (w, y) have the inner product ((1/N) x^T M y)^t. The objective is
    (1 - mean) / 2, the mean over every edge e (v, w) and every (x, mu)
    pair, y = (x ^ mu) o pi_e, weighed by wt(e) eps^|mu| (1 - eps)^(N - |mu|)
    / 2^N; the checks enumerate every point pair of every block with
    itself. Epsilon and the weights are the exact values of their
    binary64s."""
    basis = np.asarray(assign.cache.basis, dtype=np.int64)
    n, l_in, t = inst.ug.num_labels, assign.l_in, assign.t
    size = inst.block_size
    one = n ** ((l_in + 1) * t)  # a base inner product's numerators are over N^(l_in+1)
    signs = _signs(n)
    points = np.arange(size)
    flips = np.bitwise_count(points)

    def numerators(v, w, second):
        """N^(l_in+1) times the base inner product of (v, x) and (w, second[x, z])."""
        gram = (basis[v] @ basis[w].T) ** l_in  # N^l_in <u_{v,i}, u_{w,j}>^l_in
        return np.einsum("xi,ij,xzj->xz", signs, gram, signs[second])

    eps = Fraction(inst.epsilon)
    mean = Fraction(0)
    for v, w, wt, perm in zip(inst.ug.v.tolist(), inst.ug.w.tolist(),
                              inst.ug.weight.tolist(), inst.ug.perm):
        z = points[:, None] ^ points  # [x, mu] = x ^ mu
        y = np.sum(((z[:, :, None] >> perm) & 1) << np.arange(n), axis=2)
        nums = numerators(v, w, y)
        mean += Fraction(wt) * sum(eps**k * (1 - eps) ** (n - k) / size
                                   * sum(a**t for a in nums[:, flips == k].ravel().tolist())
                                   for k in range(n + 1)) / one
    norm = separated = balance = 0
    pairs = np.broadcast_to(points, (size, size))
    for v in range(inst.num_blocks):
        powers = [[a**t for a in row] for row in numerators(v, v, pairs).tolist()]
        norm = max(norm, *(abs(powers[x][x] - one) for x in range(size)))
        separated = max(separated, *(abs(powers[x][y] + powers[x][size - 1 - y])
                                     for x in range(size) for y in range(size)))
        off = sum(powers[x][y] for x in range(size) for y in range(size) if x != y)
        balance += 2 * math.comb(size, 2) * one - off
    return (1 - mean) / 2, Fraction(norm, one), Fraction(separated, one), Fraction(balance, 4 * one)


def random_balanced_cut_loop(inst, rng) -> np.ndarray:
    """A cut with +1 on half of every block's points: per block, the first
    half of one `rng.permutation` of the block's points."""
    half = inst.block_size // 2
    blocks = []
    for _ in range(inst.num_blocks):
        a = np.full(inst.block_size, -1, dtype=np.int8)
        a[rng.permutation(inst.block_size)[:half]] = 1
        blocks.append(a)
    return np.concatenate(blocks)


def balanced_cut_search_per_trial(inst, theta: float = 5.0 / 6.0, seed: int = 0,
                                  random_candidates: int = 8, labelings=None,
                                  local_search: bool = True):
    """`separator.balanced_cut_search` with one exact cut weight per trial
    flip: a flip that keeps the balance is kept when the flipped cut's
    weight is below the current one's by more than 1e-15."""
    rng = np.random.default_rng(seed)
    n = inst.ug.num_labels
    candidates = []
    for i in range(n):
        candidates.append((f"coordinate_{i}",
                           dictator_tables(np.full(inst.num_blocks, i), n).ravel()))
    for idx, lam in enumerate(labelings or []):
        candidates.append((f"labeling_{idx}", dictator_tables(lam, n).ravel()))
    candidates.append(("majority", _majority_cut(inst)))
    for r in range(random_candidates):
        candidates.append((f"random_{r}", random_balanced_cut_loop(inst, rng)))

    report = []
    best_cut = None
    best_weight = np.inf
    for name, cut in candidates:
        bal = piecewise_balance(_block_views(inst, cut))
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
                if piecewise_balance(_block_views(inst, best_cut)) > theta + 1e-9:
                    best_cut[v] *= -1
                    continue
                w = cut_edge_weight(inst, best_cut)
                if w < best_weight - 1e-15:
                    best_weight = w
                    improved = True
                else:
                    best_cut[v] *= -1
        report.append(("local_search", best_weight,
                       piecewise_balance(_block_views(inst, best_cut))))

    return CutSearchResult(
        cut=best_cut,
        edge_weight=best_weight,
        balance=piecewise_balance(_block_views(inst, best_cut)),
        demand=demand_cut(inst, best_cut),
        candidates=report,
    )


@functools.cache
def shift_correlations(n_bits: int) -> np.ndarray:
    """C[x, y, d] = sum_s x_s y_(s xor d) as float64, one shift d at a
    time, over the coordinates x_s = 1 - 2 (bit s of x) of the points of a
    block (n_bits a power of two), read-only."""
    size = 1 << n_bits
    s = np.arange(n_bits)
    signs = 1 - 2 * ((np.arange(size)[:, None] >> s) & 1)  # [x, s] = x_s
    corr = np.zeros((size, size, n_bits))
    for d in range(n_bits):
        corr[:, :, d] = signs @ signs[:, s ^ d].T
    corr.setflags(write=False)
    return corr


def base_gram_block_per_pair(assign, v: int, w: int) -> np.ndarray:
    """(2^N, 2^N) base inner products of blocks v and w, one product
    C[x, y] . table[v, w] per point pair in int64, over N^(l_in+1)."""
    return _gram_numerators_per_pair(assign, v, w) / assign.cache.N ** (assign.l_in + 1)


def _gram_numerators_per_pair(assign, v: int, w: int) -> np.ndarray:
    return shift_correlations(assign.cache.N).astype(np.int64) @ assign.cache.table[v, w]


def triangle_sweep_half(ac, bc, ab) -> int:
    """max of ac[a, c] + bc[b, c] - ab[a, b] in int64 over the first points
    a < 2^N / 2 and all b, c, one first point at a time: complementing all
    three points keeps every Gram entry, so half a block covers all."""
    ac, bc, ab = (np.asarray(g, dtype=np.int64) for g in (ac, bc, ab))
    return max(int(np.max(np.max(ac[a] + bc, axis=1) - ab[a])) for a in range(len(ac) // 2))


def triangle_sweep_ordered(ac, bc, ab) -> int:
    """max of ac[a, c] + bc[b, c] - ab[a, b] in int64 over every ordered
    triple (a, b, c), one first point at a time."""
    ac, bc, ab = (np.asarray(g, dtype=np.int64) for g in (ac, bc, ab))
    return max(int(np.max(np.max(ac[a] + bc, axis=1) - ab[a])) for a in range(len(ac)))


def check_bes_feasibility_per_pair(inst, assign) -> BESFeasibilityReport:
    """`separator.check_bes_feasibility` with each distinct row's Gram
    numerators formed per point pair from the first block pair that carries
    it, checks (a)-(c) summed over every point pair in rationals, and every
    swept row triple checked by `triangle_sweep_half`."""
    size = inst.block_size
    m = inst.num_blocks
    scale = assign.cache.N ** (assign.l_in + 1)
    rows, first, row_of = np.unique(assign.cache.table.reshape(m * m, -1), axis=0,
                                    return_index=True, return_inverse=True)
    row_of = row_of.reshape(m, m)
    grams = [_gram_numerators_per_pair(assign, *divmod(int(f), m)) for f in first]
    one = scale**assign.t
    norm_res = ws_res = balance_lhs = 0
    for r, blocks in zip(*np.unique(np.diagonal(row_of), return_counts=True)):
        t_mat = [[a**assign.t for a in row] for row in grams[r].tolist()]
        norm_res = max(norm_res, *(abs(t_mat[x][x] - one) for x in range(size)))
        ws_res = max(ws_res, *(abs(t_mat[x][y] + t_mat[x][size - 1 - y])
                               for x in range(size) for y in range(size)))
        off_diag_sum = sum(map(sum, t_mat)) - sum(t_mat[x][x] for x in range(size))
        balance_lhs += int(blocks) * (2 * math.comb(size, 2) * one - off_diag_sum)
    near = np.array([np.max(np.abs(g), where=np.abs(g) != scale, initial=0) for g in grams])
    # the rows of (a, c), (b, c) and (a, b) for a, b, c in blocks u, v, w
    # whose bound near[UW] + near[VW] + near[UV] - 1 is positive
    swept = {(row_of[u, w], row_of[v, w], row_of[u, v])
             for u in range(m) for v in range(m) for w in range(m)
             if near[row_of[u, w]] + near[row_of[v, w]] + near[row_of[u, v]] > scale}
    worst = scale
    for triple in swept:
        worst = max(worst, triangle_sweep_half(*(grams[r] for r in triple)))
    return BESFeasibilityReport(
        unit_norm_residual=norm_res / one,
        well_separatedness_residual=ws_res / one,
        balance_lhs=balance_lhs / (4 * one),
        balance_required=inst.balance,
        balance_exact_value=m * size**2 / 4.0,
        triangle_violation=max(worst - scale, 0) / scale,
        triples_checked=inst.num_vertices**3,
    )


def decode_labeling_choice(u, proof, seed: int, rounds: int = 10) -> DecodeResult:
    """`verifier.decode_labeling` drawing each alpha with `Generator.choice`
    over the vertex's spectrum, renormalized with alpha = empty set zeroed,
    and each label with `choice` over alpha's members."""
    spectra = wht_matrix(proof.tables.astype(np.float64))
    sq = spectra**2
    sq = sq / np.sum(sq, axis=1, keepdims=True)
    n = u.num_labels
    rng = np.random.default_rng(seed)
    fallback = []
    best_lam = None
    best_val = -1.0
    nonempty_mass = 1.0 - sq[:, 0]
    for _ in range(rounds):
        lam = np.zeros(u.num_vertices, dtype=np.int64)
        for v in range(u.num_vertices):
            if nonempty_mass[v] < 1e-15:
                lam[v] = int(rng.integers(n))
                if v not in fallback:
                    fallback.append(v)
                continue
            probs = sq[v].copy()
            probs[0] = 0.0
            probs /= probs.sum()
            alpha = int(rng.choice(len(probs), p=probs))
            members = [i for i in range(n) if alpha >> i & 1]
            lam[v] = int(rng.choice(members))
        val = value(u, lam)
        if val > best_val:
            best_val = val
            best_lam = lam.copy()
    return DecodeResult(best_lam, best_val, tuple(fallback))


def cut_sum(pairs: np.ndarray, cut: np.ndarray) -> float:
    """Sum of a symmetric weight or demand matrix over the separated pairs."""
    sep = cut[:, None] != cut[None, :]
    return float(np.sum(pairs * sep) / 2.0)


def sparsity(weights: np.ndarray, demands: np.ndarray, cut) -> float:
    """(cut edge weight) / (cut demand); trivial or zero-demand cuts rejected."""
    cut = np.asarray(cut, dtype=bool)
    if cut.all() or not cut.any():
        raise ValueError("cut must be nontrivial")
    dem = cut_sum(np.asarray(demands), cut)
    if dem <= 0:
        raise ValueError("cut separates no demand")
    return cut_sum(np.asarray(weights), cut) / dem


def local_search_sparsest_cut_via_sparsity(weights, demands, seed: int = 0,
                                           restarts: int = 8):
    """`metrics.local_search_sparsest_cut` judging each trial flip by
    `sparsity`, after its own `cut_sum` of the demands for the `> 0` test."""
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
                if ok and cut_sum(demands, cut) > 0:
                    ratio = sparsity(weights, demands, cut)
                    if ratio < best_ratio - 1e-15:
                        best_ratio = ratio
                        best_cut = cut.copy()
                        improved = True
                        continue
                cut[v] ^= True
        if best_cut is None:
            best_cut = cut.copy()
            if cut_sum(demands, best_cut) > 0:
                best_ratio = sparsity(weights, demands, best_cut)
    return best_cut


def local_search_sparsest_cut_mask_per_sum(weights, demands, seed: int = 0,
                                           restarts: int = 8):
    """`metrics.local_search_sparsest_cut` with each of a trial's sums
    building its own separation mask and product array (`cut_sum`), and
    no sum at all for a trivial cut."""
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
                dem = cut_sum(demands, cut) if cut.any() and not cut.all() else 0.0
                if dem > 0:
                    ratio = cut_sum(weights, cut) / dem
                    if ratio < best_ratio - 1e-15:
                        best_ratio = ratio
                        best_cut = cut.copy()
                        improved = True
                        continue
                cut[v] ^= True
        if best_cut is None:
            best_cut = cut.copy()
            dem = cut_sum(demands, best_cut)
            if dem > 0:
                best_ratio = cut_sum(weights, best_cut) / dem
    return best_cut


def distortion_lp_data_cut_major(metric: FiniteMetric):
    """(c, A, b) of `metrics._distortion_lp_data`, the separation matrix
    indexed cut-major, transposed and negated as a float array."""
    n = metric.n
    bits = _cut_bits(n)
    iu, ju = np.triu_indices(n, 1)
    delta = (bits[:, iu] != bits[:, ju]).T.astype(np.float64)
    dvec = metric.d[iu, ju]
    ncuts, npairs = len(bits), len(iu)
    c = np.zeros(ncuts + 1)
    c[-1] = 1.0
    A = np.zeros((2 * npairs, ncuts + 1))
    b = np.zeros(2 * npairs)
    A[:npairs, :ncuts] = -delta
    b[:npairs] = -dvec
    A[npairs:, :ncuts] = delta
    A[npairs:, -1] = -dvec
    return c, A, b


# The full-tableau simplex that `cutgap.simplex` stored before it kept
# only the non-basic columns; everything below is that code unchanged.


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    # each entry is the one product f_i r_j, as in np.outer, which takes
    # about twice as long to form them
    tab -= np.einsum("i,j->ij", factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col
    # degenerate rows must stay exactly zero or Bland's tie set (and with it
    # the anti-cycling guarantee) dissolves into float dust
    rhs = tab[:-1, -1]
    rhs[np.abs(rhs) < 1e-11] = 0.0


def _bland_iterate(tab: np.ndarray, basis: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Dantzig pivoting with Bland's rule as the anti-cycling fallback.

    Most-negative reduced cost enters while the objective makes progress;
    after 2m+16 degenerate pivots in a row the iteration switches to Bland's
    rule (lowest eligible index) until progress resumes, which rules out
    cycling while keeping the usual pivot counts on degenerate programs.
    The leaving row is always the lowest-basis-index exact minimum-ratio row
    (degenerate rows are clamped to exact zeros, keeping the tie set real).
    Retired artificial columns have an exact zero cost, so they would never
    enter; phase 2 keeps only those still basic.
    """
    it = 0
    m = tab.shape[0] - 1
    bland_mode = False
    stall = 0
    stall_limit = 2 * m + 16
    last_obj = tab[-1, -1]
    while it < max_iter:
        obj = tab[-1, :-1]
        # ndarray methods rather than the np. wrappers: a pivot is short
        # enough for the wrappers' call overhead to show
        if bland_mode:
            negative = (obj < -PIVOT_TOL).nonzero()[0]
            if len(negative) == 0:
                return "optimal", it
            entering = int(negative[0])
        else:
            entering = int(obj.argmin())
            if obj[entering] >= -PIVOT_TOL:
                return "optimal", it
        col = tab[:m, entering]
        rhs = tab[:m, -1]
        eligible = (col > PIVOT_TOL).nonzero()[0]
        if len(eligible) == 0:
            return "unbounded", it
        ratios = rhs[eligible] / col[eligible]
        ties = eligible[ratios <= ratios.min()]
        best_row = int(ties[basis[ties].argmin()])
        _pivot(tab, basis, best_row, entering)
        it += 1
        if tab[-1, -1] > last_obj + PIVOT_TOL:
            last_obj = tab[-1, -1]
            stall = 0
            bland_mode = False
        else:
            stall += 1
            if stall >= stall_limit:
                bland_mode = True
    return "stalled", it


class _Tableau:
    """Rows B^-1 D [A_W | I | I_art | b] and the objective row, where W is
    the working set and D negates the rows with negative rhs.

    Tableau column j stands for column cols[j] of the full program
    [A | I | I_art]: j < len(start) are the start columns, then come the m
    slacks, the artificials (in phase 2 only those still basic) and the
    columns appended by pricing.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, start: np.ndarray):
        m, n = A.shape
        w = len(start)
        neg = b < 0
        n_art = int(np.sum(neg))
        tab = np.zeros((m + 1, w + m + n_art + 1))
        tab[:m, :w] = np.where(neg[:, None], -A[:, start], A[:, start])
        tab[:m, w:w + m] = np.diag(np.where(neg, -1.0, 1.0))
        self.arts = w + m + np.arange(n_art)
        tab[np.flatnonzero(neg), self.arts] = 1.0
        tab[:m, -1] = np.abs(b)
        self.tab = tab
        self.A = A
        self.slack = slice(w, w + m)
        self.cols = np.concatenate([start, n + np.arange(m + n_art)])
        self.basis = w + np.arange(m)
        self.basis[neg] = self.arts

    def retire_artificials(self) -> None:
        """Zero the objective row and every artificial column, and delete the
        artificial columns outside the basis: after phase 1 they cost
        nothing and never enter. An artificial still basic at zero level (a
        redundant row) keeps its zero column. Every kept column keeps its
        relative order, so the leaving row's tie-break on the basis is the
        same."""
        m = self.tab.shape[0] - 1
        self.tab[-1, :] = 0.0
        self.tab[:m, self.arts] = 0.0
        keep = np.ones(self.tab.shape[1], dtype=bool)
        keep[self.arts] = False
        keep[self.basis] = True
        index = np.cumsum(keep) - 1
        # compress keeps the tableau row-major, where tab[:, keep] would
        # return it column-major, and the pricing products' last bits
        # depend on the layout BLAS is handed
        self.tab = self.tab.compress(keep, axis=1)
        self.cols = self.cols[keep[:-1]]
        self.arts = index[self.arts[keep[self.arts]]]
        self.basis = index[self.basis]

    def optimize(self, cost: np.ndarray) -> tuple[str, int]:
        """Pivot to an optimum of the restricted program, price every column
        of A against the objective row (whose costs on A are `cost`), append
        the best and resume, until none prices below -PRICE_TOL."""
        total = 0
        while True:
            status, it = _bland_iterate(self.tab, self.basis, MAX_ITER - total)
            total += it
            if status != "optimal" or not self._append_priced(cost):
                return status, total

    def _append_priced(self, cost: np.ndarray) -> bool:
        m, n = self.A.shape
        rc = cost + self.tab[-1, self.slack] @ self.A
        rc[self.cols[self.cols < n]] = np.inf
        new = np.argsort(rc, kind="stable")[:PRICE_BATCH]
        new = new[rc[new] < -PRICE_TOL]
        if len(new) == 0:
            return False
        block = np.empty((m + 1, len(new)))
        block[:m] = self.tab[:m, self.slack] @ self.A[:, new]
        block[-1] = rc[new]
        self.tab = np.concatenate([self.tab[:, :-1], block, self.tab[:, -1:]], axis=1)
        self.cols = np.concatenate([self.cols, new])
        return True


def solve_lp_full_tableau(c, A, b, start=None) -> SimplexResult:
    """`cutgap.simplex.solve_lp` on the full tableau: every column of the
    working set, basic or not, stored and updated by every pivot, and the
    basis matrix gathered from [A | I]."""
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP shapes")
    start = np.arange(n) if start is None else np.asarray(start, dtype=np.int64)
    if start.ndim != 1 or len(np.unique(start)) != len(start) or np.any((start < 0) | (start >= n)):
        raise ValueError("start must list distinct column indices of A")
    scale = max(1.0, float(np.max(np.abs(b))))
    sign = np.where(b < 0, -1.0, 1.0)
    delta = 1e-6 * scale * (np.arange(m) + 1) / m * sign
    rough = _solve_core(c, A, b + delta, start)
    if rough.status == "optimal":
        repaired = _repair_basis(c, A, b, rough)
        if repaired is not None:
            return repaired
    # rare path: perturbation failed to help or changed the status
    res = _solve_core(c, A, b, start)
    if res.status == "optimal":
        res.dual, res.reduced_costs = _duals(c, A, res.basis)
    return res


def _duals(c, A, basis):
    """Dual y solving B^T y = c_B over the basic structural and slack
    columns (least squares when zero-level artificials leave fewer than m
    of them), and the reduced costs c - A^T y of every column of A."""
    m, n = A.shape
    kept = basis[basis < n + m]
    B = np.hstack([A, np.eye(m)])[:, kept]
    cost = np.concatenate([c, np.zeros(m)])[kept]
    if len(kept) < m:
        y = np.linalg.lstsq(B.T, cost, rcond=None)[0]
    else:
        y = np.linalg.solve(B.T, cost)
    return y, c - A.T @ y


def _repair_basis(c, A, b, rough: SimplexResult) -> SimplexResult | None:
    """Exact solution for the original rhs from the perturbed optimal basis."""
    m, n = A.shape
    basis = rough.basis
    if np.any(basis >= n + m):
        return None
    try:
        x_basic = np.linalg.solve(np.hstack([A, np.eye(m)])[:, basis], b)
    except np.linalg.LinAlgError:
        return None
    tol = 1e-7 * max(1.0, float(np.max(np.abs(b))))
    if np.min(x_basic) < -tol:
        return None
    try:
        y, rc = _duals(c, A, basis)
    except np.linalg.LinAlgError:
        return None
    x_full = np.zeros(n + m)
    x_full[basis] = np.maximum(x_basic, 0.0)
    x = x_full[:n]
    return SimplexResult(
        status="optimal",
        x=x,
        objective=float(c @ x),
        dual=y,
        reduced_costs=rc,
        iterations=rough.iterations,
        basis=basis,
        working_columns=rough.working_columns,
    )


def _solve_core(c, A, b, start) -> SimplexResult:
    """Two-phase solve from the working set `start`; an optimal result
    carries x and the basis in full column indices (n + i is slack i,
    n + m + r artificial r) but no duals."""
    m, n = A.shape
    t = _Tableau(A, b, start)

    total_iters = 0
    if len(t.arts):
        # phase 1: minimize the artificial sum
        t.tab[-1, t.arts] = 1.0
        for i in range(m):
            if t.basis[i] in t.arts:
                t.tab[-1] -= t.tab[i]
        status, iters = t.optimize(np.zeros(n))
        total_iters += iters
        if status != "optimal":
            return SimplexResult(status="stalled", iterations=total_iters)
        if -t.tab[-1, -1] > 1e-7:
            return SimplexResult(status="infeasible", iterations=total_iters)
        # drive leftover artificials out of the basis where possible
        real = np.flatnonzero(t.cols < n + m)
        for i in range(m):
            if t.basis[i] in t.arts:
                hits = real[np.abs(t.tab[i, real]) > PIVOT_TOL]
                if len(hits):
                    _pivot(t.tab, t.basis, i, int(hits[0]))
        t.retire_artificials()

    # phase 2 objective row
    structural = np.flatnonzero(t.cols < n)
    t.tab[-1, structural] = c[t.cols[structural]]
    for i in range(m):
        if t.cols[t.basis[i]] < n:
            t.tab[-1] -= c[t.cols[t.basis[i]]] * t.tab[i]
    status, iters = t.optimize(c)
    total_iters += iters
    if status != "optimal":
        return SimplexResult(status=status, iterations=total_iters)

    basis = t.cols[t.basis]
    x = np.zeros(n)
    basic = basis < n  # the basic columns of A
    x[basis[basic]] = t.tab[:m, -1][basic]
    return SimplexResult(
        status="optimal",
        x=x,
        objective=float(c @ x),
        iterations=total_iters,
        basis=basis,
        working_columns=int(np.sum(t.cols < n)),
    )


def ug_from_text_per_line(text: str) -> UGInstance:
    """The UG reader converting one edge line at a time, each field by its
    own `int` or `float` call, with the labels checked as permutations once
    all lines are read, or, when a line fails, on the lines before it."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty UG file")
    no, head = lines[0][0], lines[0][1].split()
    if len(head) != 4 or head[0] != "UG":
        raise ValueError(f"line {no}: expected header `UG N |V| |E|`")
    try:
        n, nv, ne = int(head[1]), int(head[2]), int(head[3])
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    if n < 1 or nv < 1 or ne < 0:
        raise ValueError(f"line {no}: header counts N = {n}, |V| = {nv}, |E| = {ne}: "
                         "need N >= 1, |V| >= 1 and |E| >= 0")
    if n > EXACT_LABEL_LIMIT:
        raise ValueError(f"line {no}: {n} labels exceed the limit {EXACT_LABEL_LIMIT}")
    if len(lines) - 1 != ne:
        at = lines[ne + 1][0] if len(lines) - 1 > ne else lines[-1][0] + 1
        raise ValueError(f"line {at}: expected {ne} edge lines, found {len(lines) - 1}")
    v, w, weight = [], [], []
    labels: list = []
    for no, ln in lines[1:]:
        parts = ln.split()
        try:
            if len(parts) != n + 3:
                raise ValueError(f"expected `v w weight` and a permutation of {n} labels")
            edge = (int(parts[0]), int(parts[1]), float(parts[2]))
            perm = list(map(int, parts[3:]))
        except ValueError as exc:
            _check_permutations(labels, lines[1:len(v) + 1], n)
            raise ValueError(f"line {no}: {exc}") from None
        v.append(edge[0])
        w.append(edge[1])
        weight.append(edge[2])
        labels += perm
    perms = _check_permutations(labels, lines[1:], n)
    return UGInstance(nv, n, v, w, weight, perms)


def _check_permutations(labels: list, lines: list, n: int) -> np.ndarray:
    perms = int_array(labels).reshape(len(lines), n)
    bad = np.flatnonzero(_not_permutations(perms, n))
    if len(bad):
        no, ln = lines[bad[0]]
        raise ValueError(f"line {no}: {' '.join(ln.split()[3:])} is not a permutation of 0..{n - 1}")
    return perms.astype(np.int64, copy=False)


def basis_from_text_per_line(text: str) -> UGVectorSolution:
    """The BASIS reader converting one row at a time."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    head = lines[0][1].split() if lines else []
    if len(head) != 3 or head[0] != "BASIS":
        raise ValueError(f"line {lines[0][0] if lines else 1}: not a basis file")
    try:
        k, m = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ValueError(f"line {lines[0][0]}: {exc}") from None
    if not 0 <= k <= BASIS_MAX_K:
        raise ValueError(f"line {lines[0][0]}: k={k} out of range")
    if m < 1:
        raise ValueError(f"line {lines[0][0]}: class count {m} out of range")
    N = 1 << k
    rows = m * (N + 1)
    if len(lines) - 1 != rows:
        at = lines[rows + 1][0] if len(lines) - 1 > rows else lines[-1][0] + 1
        raise ValueError(f"line {at}: BASIS {k} {m} has {rows} rows, found {len(lines) - 1}")
    basis = np.zeros((m, N, N), dtype=np.int8)
    pos = 1
    for i in range(m):
        if lines[pos][1] != f"CLASS {i}":
            raise ValueError(f"line {lines[pos][0]}: expected CLASS {i} header")
        pos += 1
        for s in range(N):
            no, ln = lines[pos]
            try:
                row = [int(x) for x in ln.split()]
            except ValueError as exc:
                raise ValueError(f"line {no}: {exc}") from None
            if len(row) != N or any(abs(x) != 1 for x in row):
                raise ValueError(f"line {no}: expected {N} entries of +/-1")
            basis[i, s] = row
            pos += 1
    return UGVectorSolution(k, basis)


def proof_from_text_per_line(text: str) -> Proof:
    """The PROOF reader converting one row at a time."""
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty PROOF file")
    no, head = lines[0]
    if len(head) != 3 or head[0] != "PROOF":
        raise ValueError(f"line {no}: expected header `PROOF |V| N`")
    try:
        nv, n = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    if nv < 1:
        raise ValueError(f"line {no}: vertex count {nv} out of range")
    if not 0 <= n <= EXACT_LABEL_LIMIT:
        raise ValueError(f"line {no}: label count {n} out of range")
    rows = []
    for no, row in lines[1:]:
        try:
            rows.append([int(x) for x in row])
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from None
        if any(abs(x) != 1 for x in rows[-1]):
            raise ValueError(f"line {no}: proof entries must be +/-1")
        if len(row) != 1 << n:
            raise ValueError(f"line {no}: expected {1 << n} entries, got {len(row)}")
    if len(rows) != nv:
        at = lines[nv + 1][0] if nv < len(rows) else lines[-1][0] + 1
        raise ValueError(f"line {at}: PROOF {nv} {n} has {nv} rows, found {len(rows)}")
    return Proof(n, np.array(rows, dtype=np.int8))


def metric_from_text_per_line(text: str) -> FiniteMetric:
    """The METRIC reader converting one row at a time."""
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
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
    d = np.zeros((n, n))
    for i, (no, fields) in enumerate(lines[1:], 1):
        try:
            row = [float(x) for x in fields]
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from None
        if len(row) != i:
            raise ValueError(f"line {no}: expected {i} distances, got {len(row)}")
        d[i, :i] = row
        d[:i, i] = row
    return FiniteMetric(d)


def graph_from_text_per_line(text: str):
    """The GRAPH reader converting one line at a time; a later line for the
    same pair overrides an earlier one as it is assigned."""
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty GRAPH file")
    no, head = lines[0]
    if len(head) != 2 or head[0] != "GRAPH" or not head[1].isdigit() or int(head[1]) < 1:
        raise ValueError(f"line {no}: expected header `GRAPH n` with n >= 1")
    n = int(head[1])
    if n > GRAPH_VERTEX_LIMIT:
        raise ValueError(f"line {no}: {n} vertices exceed the limit {GRAPH_VERTEX_LIMIT}")
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
        if not (0 <= w < np.inf and 0 <= d < np.inf):
            raise ValueError(f"line {no}: weight and demand must be finite and "
                             f"nonnegative: {w} {d}")
        weights[i, j] = weights[j, i] = w
        demands[i, j] = demands[j, i] = d
    return weights, demands
