"""Quotient of the noisy hypercube by character multiplication: the Unique
Games integrality-gap instance and its explicit SDP vector solution.

The 2^N Boolean functions on {-1,1}^k (N = 2^k) are partitioned into
m = 2^N / N classes closed under f -> f*chi_S. Classes become UG vertices,
shifts S (as k-bit masks) become labels, and each windowed noisy-hypercube
edge {f, g} lands in the bundle c = S xor T (where f = rep_i chi_S,
g = rep_j chi_T), giving the UG edge permutation pi(b) = c xor b.

The SDP solution attaches to class i the orthonormal basis
{u_{rep_i chi_S}}_S of R^N, entries +/-1/sqrt(N); the SDP formally lives on
the squared tensors u x u, but every SDP quantity here is evaluated as a
squared base inner product (tensor identity), read from the dense base Gram
tensor of all m * N basis vectors, so nothing quadratic in N^2 is
materialized.

For eta >= 1/4 the typical window contains d = N/2, so within-class pairs
{f, f*chi_c} are windowed in and produce UG self-loop edges (permutation
XOR c, never satisfiable). A self-bundle holds N/2 distinct pairs (not N),
so its edge weight is (N/2) * pair weight, which keeps the total weight 1,
exact degree regularity, and the label-extended graph isomorphic to the
windowed hypercube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypercube import NoisyHypercube, typical_window
from .tensor import base_gram, shift_covariance_residual
from .unique_games import UGEdge, UGInstance

__all__ = [
    "QuotientStructure",
    "UGVectorSolution",
    "build_quotient",
    "shift_masks",
    "build_kv_instance",
    "build_ug_sdp_solution",
    "check_ug_sdp_feasibility",
    "ug_sdp_objective",
    "verify_ulc_properties",
    "basis_to_text",
    "basis_from_text",
    "FeasibilityReport",
    "UlcPropertyReport",
]

DEFAULT_MAX_K = 4
HARD_MAX_K = 5


def shift_masks(k: int) -> np.ndarray:
    """masks[s] = truth-table code of chi_S: bit x set iff popcount(s & x)
    is odd (multiplying a function by chi_S is XOR by masks[s])."""
    n = 1 << k
    s = np.arange(n, dtype=np.uint32)[:, None]
    x = np.arange(n, dtype=np.uint32)[None, :]
    parity = (np.bitwise_count(s & x) & 1).astype(np.uint64)
    return (parity << x.astype(np.uint64)).sum(axis=1, dtype=np.uint64)


@dataclass(frozen=True)
class QuotientStructure:
    """Partition of all 2^(2^k) Boolean functions into classes closed under
    character multiplication; class_of/shift_of are dense arrays for k <= 4
    and computed on demand for k = 5 (too many functions to materialize)."""

    k: int
    masks: np.ndarray
    reps: np.ndarray | None
    class_id: np.ndarray | None
    shift_id: np.ndarray | None

    @property
    def N(self) -> int:
        return 1 << self.k

    @property
    def num_classes(self) -> int:
        return (1 << self.N) // self.N

    def representative(self, class_index: int) -> int:
        if self.reps is not None:
            return int(self.reps[class_index])
        raise ValueError("lazy quotient does not enumerate classes")

    def class_of(self, code: int):
        """Return (class id, shift s) with code == rep(class) xor masks[s].

        In lazy mode the class id is the canonical representative itself.
        """
        if self.class_id is not None:
            return int(self.class_id[code]), int(self.shift_id[code])
        orbit = np.uint64(code) ^ self.masks
        s = int(np.argmin(orbit))
        return int(orbit[s]), s


def build_quotient(k: int, allow_large: bool = False) -> QuotientStructure:
    """Partition with canonical representatives (numerically smallest code).

    k <= 4 by default; k = 5 (2^32 functions) is gated behind allow_large and
    served lazily without dense per-function arrays.
    """
    if not 1 <= k <= HARD_MAX_K:
        raise ValueError(f"k={k} outside [1, {HARD_MAX_K}]")
    if k > DEFAULT_MAX_K and not allow_large:
        raise ValueError(f"k={k} needs allow_large=True (2^{1 << k} functions)")
    masks = shift_masks(k)
    if k > DEFAULT_MAX_K:
        return QuotientStructure(k, masks, None, None, None)
    n = 1 << k
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
    assert len(reps) == total // n
    return QuotientStructure(
        k, masks, np.array(reps, dtype=np.uint64), class_id, shift_id
    )


def build_kv_instance(k: int, eta: float, window: str = "typical",
                      quotient: QuotientStructure | None = None):
    """The quotiented noisy-hypercube UG instance on m vertices, N labels.

    window: "typical" for the [ceil(eta N/2), floor(2 eta N)] deletion
    (renormalized), "none" to keep all distances. Returns (instance,
    quotient, hypercube). The label-extended graph of the instance is
    weighted-graph-isomorphic to the windowed hypercube.
    """
    if k > 3:
        raise ValueError(
            "the instance pipeline materializes the edge list and is capped "
            "at k=3 (~10^6 edges at k=4); the quotient and vector solution "
            "remain available via build_quotient/build_ug_sdp_solution"
        )
    q = quotient if quotient is not None else build_quotient(k)
    N = q.N
    if window == "typical":
        win = typical_window(N, eta)
        if win is None:
            raise ValueError(
                f"typical window is empty at k={k}, eta={eta}; "
                "pass window='none' or widen it"
            )
    elif window == "none":
        win = None
    else:
        raise ValueError(f"unknown window mode {window!r}")
    cube = NoisyHypercube(N, eta, window=win, renormalized=True)
    profile = cube.weight_profile()
    m = q.num_classes
    labels = np.arange(N, dtype=np.int64)
    edges = []
    for i in range(m):
        rep_i = int(q.reps[i])
        # self-bundles: pairs {g, g*chi_c} all at distance popcount(masks[c])
        for c in range(1, N):
            d = int(np.bitwise_count(q.masks[c]))
            if profile[d] > 0:
                perm = labels ^ c
                edges.append(UGEdge(i, i, perm, (N / 2) * float(profile[d])))
        for j in range(i + 1, m):
            rep_j = int(q.reps[j])
            for c in range(N):
                d = int(np.bitwise_count(np.uint64(rep_i ^ rep_j) ^ q.masks[c]))
                if profile[d] > 0:
                    perm = labels ^ c
                    edges.append(UGEdge(i, j, perm, N * float(profile[d])))
    u = UGInstance(m, N, edges, regularity_tol=1e-9)
    return u, q, cube


@dataclass(frozen=True)
class UGVectorSolution:
    """Per class, the ordered orthonormal basis of R^N indexed by shift.

    basis[i, s, x] is the +/-1 table of rep_i * chi_S; actual SDP vectors are
    these rows scaled by 1/sqrt(N), and the SDP's tensored vectors enter only
    through squared base inner products.
    """

    k: int
    basis: np.ndarray  # (m, N, N) int8

    @property
    def N(self) -> int:
        return 1 << self.k


def build_ug_sdp_solution(q: QuotientStructure) -> UGVectorSolution:
    if q.reps is None:
        raise ValueError("lazy quotient cannot materialize the vector solution")
    N = q.N
    m = q.num_classes
    codes = q.reps[:, None] ^ q.masks[None, :]  # (m, N) table codes
    x = np.arange(N, dtype=np.uint64)
    bits = (codes[:, :, None] >> x[None, None, :]) & np.uint64(1)
    basis = (1 - 2 * bits.astype(np.int8)).astype(np.int8)
    return UGVectorSolution(q.k, basis)


@dataclass
class FeasibilityReport:
    norm_sum_residual: float
    orthogonality_residual: float
    cross_negativity: float
    cross_sum_residual: float
    triangle_violation: float
    triples_checked: int

    def max_residual(self) -> float:
        return max(
            self.norm_sum_residual,
            self.orthogonality_residual,
            self.cross_negativity,
            self.cross_sum_residual,
            self.triangle_violation,
        )


def check_ug_sdp_feasibility(sol: UGVectorSolution, seed: int = 0,
                             triple_samples: int = 20000) -> FeasibilityReport:
    """Verify the UG SDP constraints on the squared-tensor solution.

    Per vertex: sum of squared-vector norms equals N and distinct shifts are
    orthogonal. Across vertices: all tensored inner products are squares
    (hence >= 0) and each cross sum equals N (basis completeness). Base
    vectors additionally satisfy 1 + <u,v> >= <v,w> + <u,w> on sampled
    triples (entries are +/-1/sqrt(N)). Reads the full base Gram, so a basis
    that is not shift-covariant is checked, not rejected.
    """
    m, N, _ = sol.basis.shape
    gram = base_gram(sol.basis)
    sq = gram.transpose(0, 2, 1, 3) ** 2  # [i, j, s, t]
    own = sq[np.arange(m), np.arange(m)]
    norm_res = float(np.max(np.abs(np.trace(own, axis1=1, axis2=2) - N)))
    orth_res = float(np.max(np.abs(own - own * np.eye(N))))
    cross = sq[np.triu_indices(m, 1)]
    cross_neg = max(0.0, float(np.max(-cross, initial=0.0)))  # 0.0, not -0.0
    cross_res = float(np.max(np.abs(np.sum(cross, axis=(1, 2)) - N), initial=0.0))
    rng = np.random.default_rng(seed)
    flat = gram.reshape(m * N, m * N)
    idx = rng.integers(0, m * N, size=(triple_samples, 3))
    gu = flat[idx[:, 0], idx[:, 1]]
    gv = flat[idx[:, 0], idx[:, 2]]
    gw = flat[idx[:, 1], idx[:, 2]]
    tri = float(np.max(gv + gw - gu - 1.0, initial=-np.inf))
    return FeasibilityReport(
        norm_sum_residual=norm_res,
        orthogonality_residual=orth_res,
        cross_negativity=cross_neg,
        cross_sum_residual=cross_res,
        triangle_violation=max(tri, 0.0),
        triples_checked=triple_samples,
    )


def ug_sdp_objective(u: UGInstance, sol: UGVectorSolution) -> float:
    """sum_e wt(e) * (1/N) sum_i <u_{v,pi(i)}, u_{w,i}>^2, evaluated on the
    squared-tensor Gram."""
    m, N, _ = sol.basis.shape
    if u.num_labels != N or u.num_vertices != m:
        raise ValueError("solution shape does not match instance")
    v, w, perm, weight = u.edge_arrays()
    matched = base_gram(sol.basis)[v[:, None], perm, w[:, None], np.arange(N)] ** 2
    return float(np.sum(weight * np.sum(matched, axis=1) / N))


@dataclass
class UlcPropertyReport:
    basis_completeness_residual: float
    triangle_violation: float
    matching_residual: float
    closeness_satisfied: bool
    closeness_margin: float
    triples_checked: int


def verify_ulc_properties(u: UGInstance, sol: UGVectorSolution, eta: float,
                          seed: int = 0,
                          triple_samples: int = 200000) -> UlcPropertyReport:
    """Check the four structural properties of the gap solution.

    (2) basis completeness ||w||^2 = sum_i <w, v_i>^2 for random w;
    (3) the +/-1/sqrt(N) triangle inequality over sampled triples;
    (4) shift covariance <v_i, w_j> = <v_(i^l), w_(j^l)>, exhaustive over
        vertex pairs and (i, j, l);
    (5) per edge, some matched pair (i0, j0) with inner product >= 1-4*eta
        and i0 ^ l = pi_e(j0 ^ l) for all l.
    """
    m, N, _ = sol.basis.shape
    rng = np.random.default_rng(seed)

    completeness = 0.0
    for _ in range(50):
        w = rng.normal(size=N)
        i = int(rng.integers(m))
        proj = sol.basis[i].astype(np.float64) / math.sqrt(N) @ w
        completeness = max(completeness, abs(float(np.sum(proj**2)) - float(w @ w)))

    rep = check_ug_sdp_feasibility(sol, seed=seed, triple_samples=triple_samples)

    gram = base_gram(sol.basis)
    v, w, perm, _ = u.edge_arrays()
    labels = np.arange(N)
    xor = labels[:, None] ^ labels[None, :]  # [j0, l]
    # j0 is matched iff perm[j0 ^ l] == perm[j0] ^ l for every l, with i0 = perm[j0]
    matched = np.all(perm[:, xor] == perm[:, :, None] ^ labels, axis=2)
    inner = np.where(matched, gram[v[:, None], perm, w[:, None], labels], -np.inf)
    best = np.max(inner, axis=1)
    margin = float(np.min(best - (1 - 4 * eta)))
    return UlcPropertyReport(
        basis_completeness_residual=completeness,
        triangle_violation=rep.triangle_violation,
        matching_residual=shift_covariance_residual(gram),
        closeness_satisfied=bool(np.all(best >= 1 - 4 * eta - 1e-12)),
        closeness_margin=margin,
        triples_checked=triple_samples,
    )


def basis_to_text(sol: UGVectorSolution) -> str:
    """Per-class basis export: `CLASS i` then N rows of N signed integers
    (entries to be scaled by 1/sqrt(N))."""
    m, N, _ = sol.basis.shape
    lines = [f"BASIS {sol.k} {m}"]
    for i in range(m):
        lines.append(f"CLASS {i}")
        for s in range(N):
            lines.append(" ".join(str(int(v)) for v in sol.basis[i, s]))
    return "\n".join(lines) + "\n"


def basis_from_text(text: str) -> UGVectorSolution:
    """Inverse of `basis_to_text`; a row that is not N entries of +/-1
    raises ValueError naming the line."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    head = lines[0][1].split() if lines else []
    if len(head) != 3 or head[0] != "BASIS":
        raise ValueError("not a basis file")
    k, m = int(head[1]), int(head[2])
    if not 0 <= k < 63:  # each class has 2^k rows
        raise ValueError(f"line {lines[0][0]}: k={k} out of range")
    N = 1 << k
    if len(lines) < 1 + m * (N + 1):
        raise ValueError(f"basis file truncated: {len(lines)} of {1 + m * (N + 1)} lines")
    basis = np.zeros((m, N, N), dtype=np.int8)
    pos = 1
    for i in range(m):
        if lines[pos][1] != f"CLASS {i}":
            raise ValueError(f"line {lines[pos][0]}: expected CLASS {i} header")
        pos += 1
        for s in range(N):
            no, ln = lines[pos]
            row = [int(x) for x in ln.split()]
            if len(row) != N or any(abs(x) != 1 for x in row):
                raise ValueError(f"line {no}: expected {N} entries of +/-1")
            basis[i, s] = row
            pos += 1
    return UGVectorSolution(k, basis)
