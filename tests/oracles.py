"""Independent reference implementations the tests compare the production
paths against. None of them is used by the cutgap package itself.

- `character_table` and `naive_wht`: the Walsh-Hadamard transform as one
  product with the explicit character matrix, the oracle for the butterfly
  of `cutgap.fourier`.
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
  form the loop oracles walk.
- `disagreement_one_gather` and `sdp_objective_per_row`: the exact cut
  weight as one gather of every edge's pulled row, and the tensored SDP
  objective with the inner products and their powers taken at every
  (x, y') point of every distinct table row, the oracles that the chunked
  gather and the distinct-correlation powers of `cutgap` must match bit for
  bit.
- `balanced_cut_search_per_trial`: the balanced-cut search with every
  trial flip of its local search judged by two exact cut weights and its
  balance by `piecewise_balance` of the whole flipped cut, the oracle that
  the gain bookkeeping of `cutgap.separator.balanced_cut_search` must
  match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cutgap.fourier import FourierSpectrum, _values_of, apply_noise_kernel
from cutgap.separator import (
    CutSearchResult,
    _block_views,
    _majority_cut,
    _random_balanced_cut,
    cut_edge_weight,
    demand_cut,
)
from cutgap.tensor import DEFAULT_INNER_POWER, GramCache
from cutgap.unique_games import value
from cutgap.verifier import dictator_tables, piecewise_balance

DEFAULT_OUTER_POWER = 3


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


def character_table(k: int) -> np.ndarray:
    """The 2^k x 2^k matrix H[s, x] = chi_S(x) = (-1)^popcount(s & x)."""
    idx = np.arange(1 << k, dtype=np.uint32)
    pc = np.bitwise_count(idx[:, None] & idx[None, :])
    return np.where(pc % 2 == 0, 1, -1).astype(np.int64)


def naive_wht(f) -> FourierSpectrum:
    """O(N^2) transform by explicit summation over the character table."""
    values = _values_of(f)
    k = len(values).bit_length() - 1
    coeffs = character_table(k).astype(np.float64) @ values / len(values)
    return FourierSpectrum(k, coeffs)


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


def disagreement_one_gather(d, blocks, epsilon: float) -> float:
    """`EdgeDistribution.disagreement` with every edge's pulled row gathered
    at once, as an (|E|, 2^N) array."""
    blocks = np.asarray(blocks, dtype=np.float64)
    smoothed = apply_noise_kernel(blocks, epsilon, d.num_labels)
    pulled = smoothed[d.w[:, None], d.tables[d.table_of]]
    agree = np.einsum("ex,ex->e", blocks[d.v], pulled)
    return float(np.cumsum(d.weight * (1.0 - agree / blocks.shape[1]) / 2.0)[-1])


def sdp_objective_per_row(inst, assign) -> float:
    """`separator.sdp_objective` with each distinct table row's inner
    products and their t-th powers taken over all (x, y') points."""
    n = inst.ug.num_labels
    eps = inst.epsilon
    idx = np.arange(inst.block_size, dtype=np.uint32)
    dist = np.bitwise_count(idx[:, None] ^ idx[None, :])
    w_noise = (eps**dist) * (1 - eps) ** (n - dist) / inst.block_size
    d = inst.ug.edge_distribution
    shifted = d.perms[d.table_of]
    rows, group = np.unique(assign.cache.table[d.v[:, None], d.w[:, None], shifted],
                            axis=0, return_inverse=True)
    weights = np.bincount(group.ravel(), weights=d.weight)
    mean_inner = 0.0
    for row, weight in zip(rows, weights):
        q = np.clip(assign.corr @ row / assign.cache.N, -1.0, 1.0)
        mean_inner += weight * float(np.sum(w_noise * q**assign.t))
    return (1.0 - mean_inner) / 2.0


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
        candidates.append((f"random_{r}", _random_balanced_cut(inst, rng)))

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
