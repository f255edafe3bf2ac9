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
materialized. Every check is exact and exhaustive: the triangle inequality
is swept over all (m N)^3 ordered triples of basis vectors in int8 by
`tensor.triangle_sweep_upper`, which reads about half of them by the
symmetry of the pair sum, and basis completeness is the identity
B_i^T B_i = N I per class, so no check draws random numbers.

For eta >= 1/4 the typical window contains d = N/2, so within-class pairs
{f, f*chi_c} are windowed in and produce UG self-loop edges (permutation
XOR c, never satisfiable). A self-bundle holds N/2 distinct pairs (not N),
so its edge weight is (N/2) * pair weight, which keeps the total weight 1,
exact degree regularity, and the label-extended graph isomorphic to the
windowed hypercube.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fields import any_per_row, read_fields, split_lines
from .hypercube import NoisyHypercube, typical_window
from .tensor import base_gram, shift_covariance_residual, triangle_sweep_upper
from .unique_games import UGInstance

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

PIPELINE_MAX_K = 3  # build_kv_instance lists every UG edge: about 10^6 at k = 4
BASIS_MAX_K = 5  # N = 2^k <= 32 keeps _triangle_violation's sweep in int8


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
    """The classes of the 2^(2^k) Boolean functions under character
    multiplication, by representative: class i is {reps[i] ^ masks[s]},
    and reps[i] ^ masks[s] is its member of shift s."""

    k: int
    masks: np.ndarray
    reps: np.ndarray

    @property
    def N(self) -> int:
        return 1 << self.k

    @property
    def num_classes(self) -> int:
        return (1 << self.N) // self.N


def build_quotient(k: int) -> QuotientStructure:
    """Partition with canonical representatives (numerically smallest code
    of each orbit, in increasing order), for 1 <= k <= PIPELINE_MAX_K."""
    if not 1 <= k <= PIPELINE_MAX_K:
        raise ValueError(f"k={k} outside [1, {PIPELINE_MAX_K}]")
    masks = shift_masks(k)
    codes = np.arange(1 << (1 << k), dtype=np.uint64)
    reps = codes[(codes[:, None] ^ masks).min(axis=1) == codes]
    return QuotientStructure(k, masks, reps)


def build_kv_instance(k: int, eta: float, window: str = "typical"):
    """The quotiented noisy-hypercube UG instance on m vertices, N labels,
    for 1 <= k <= PIPELINE_MAX_K.

    window: "typical" for the [ceil(eta N/2), floor(2 eta N)] deletion
    (the kept weights rescaled to total 1), "none" to keep all distances.
    Returns (instance, quotient, hypercube). The label-extended graph of
    the instance is weighted-graph-isomorphic to the windowed hypercube.
    """
    if not 1 <= k <= PIPELINE_MAX_K:
        raise ValueError(f"k={k} outside [1, {PIPELINE_MAX_K}]")
    q = build_quotient(k)
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
    cube = NoisyHypercube(N, eta, window=win)
    profile = cube.weight_profile()
    m = q.num_classes
    # edge columns (v, w, shift c, weight); the permutation is XOR by c
    shifts = np.arange(N, dtype=np.int64)
    self_d = np.bitwise_count(q.masks[1:])
    columns = []
    for i in range(m):
        # class i's self-bundles c = 1..N-1 (pairs {g, g*chi_c}, all at
        # distance popcount(masks[c])), then its bundles (j, c) for j > i
        others = np.arange(i + 1, m)
        pair_d = np.bitwise_count((q.reps[i] ^ q.reps[others])[:, None] ^ q.masks).ravel()
        keep = profile[np.concatenate([self_d, pair_d])] > 0
        w = np.concatenate([np.full(N - 1, i), np.repeat(others, N)])
        shift = np.concatenate([shifts[1:], np.tile(shifts, len(others))])
        weight = np.concatenate([(N / 2) * profile[self_d], N * profile[pair_d]])
        columns.append((np.full(keep.sum(), i), w[keep], shift[keep], weight[keep]))
    v, w, shift, weight = (np.concatenate(c) for c in zip(*columns))
    perm = shift[:, None] ^ shifts
    u = UGInstance(m, N, v, w, weight, perm)
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


def build_ug_sdp_solution(q: QuotientStructure) -> UGVectorSolution:
    N = q.N
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


def _triangle_violation(gram: np.ndarray) -> float:
    """max (g_ac + g_bc - g_ab - 1) over every ordered triple (a, b, c) of the
    m * N rows of a base_gram tensor, as (G_ac + G_bc - G_ab - N) / N on
    G = N g, the Gram B B^T of the +/-1 rows.

    Swapping a and b keeps G_ac + G_bc, so the triples (a, b, c) and
    (b, a, c) differ only in the G entry they subtract: one
    `tensor.triangle_sweep_upper` over the pairs b >= a, subtracting
    min(G_ab, G_ba), covers both (for B B^T the two are equal). That is
    about half the sweep over every ordered pair, and exact, since the sums
    are integers.

    |G| <= N, so G_ac + G_bc - G_ab lies in [-3N, 3N], which int8 holds for
    N <= 42; basis_from_text accepts k <= BASIS_MAX_K, so N <= 32. The triple
    a = b = c has term 0, so the result is never negative.
    """
    m, N = gram.shape[:2]
    if 3 * N > np.iinfo(np.int8).max:
        raise ValueError(f"basis dimension {N} overflows the int8 triangle sweep")
    g = (gram.reshape(m * N, m * N) * N).astype(np.int8)  # exact: gram holds integers / N
    return (triangle_sweep_upper(g) - N) / N


def check_ug_sdp_feasibility(sol: UGVectorSolution) -> FeasibilityReport:
    """Verify the UG SDP constraints on the squared-tensor solution.

    Per vertex: sum of squared-vector norms equals N and distinct shifts are
    orthogonal. Across vertices: all tensored inner products are squares
    (hence >= 0) and each cross sum equals N (basis completeness). Base
    vectors additionally satisfy 1 + <u,v> >= <v,w> + <u,w> on every one of
    the (m N)^3 ordered triples (entries are +/-1/sqrt(N)). Reads the full
    base Gram, so a basis that is not shift-covariant is checked, not
    rejected.
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
    return FeasibilityReport(
        norm_sum_residual=norm_res,
        orthogonality_residual=orth_res,
        cross_negativity=cross_neg,
        cross_sum_residual=cross_res,
        triangle_violation=_triangle_violation(gram),
        triples_checked=(m * N) ** 3,
    )


def ug_sdp_objective(u: UGInstance, sol: UGVectorSolution) -> float:
    """sum_e wt(e) * (1/N) sum_i <u_{v,pi(i)}, u_{w,i}>^2, evaluated on the
    squared-tensor Gram."""
    m, N, _ = sol.basis.shape
    if u.num_labels != N or u.num_vertices != m:
        raise ValueError("solution shape does not match instance")
    matched = base_gram(sol.basis)[u.v[:, None], u.perm, u.w[:, None], np.arange(N)] ** 2
    return float(np.sum(u.weight * np.sum(matched, axis=1) / N))


@dataclass
class UlcPropertyReport:
    basis_completeness_residual: float
    matching_residual: float
    closeness_satisfied: bool
    closeness_margin: float


def verify_ulc_properties(u: UGInstance, sol: UGVectorSolution,
                          eta: float) -> UlcPropertyReport:
    """Check structural properties (2), (4) and (5) of the gap solution;
    `check_ug_sdp_feasibility` checks (3), the +/-1/sqrt(N) triangle
    inequality over all (m N)^3 triples.

    (2) basis completeness ||w||^2 = sum_i <w, v_i>^2 for every w, i.e.
        max_i |B_i^T B_i / N - I| over the classes i;
    (4) shift covariance <v_i, w_j> = <v_(i^l), w_(j^l)>, exhaustive over
        vertex pairs and (i, j, l);
    (5) per edge, some matched pair (i0, j0) with inner product >= 1-4*eta
        and i0 ^ l = pi_e(j0 ^ l) for all l.
    """
    N = sol.basis.shape[1]
    b = sol.basis.astype(np.int64)
    completeness = float(np.max(np.abs(b.transpose(0, 2, 1) @ b - N * np.eye(N)))) / N
    gram = base_gram(sol.basis)
    perm = u.perm
    labels = np.arange(N)
    xor = labels[:, None] ^ labels[None, :]  # [j0, l]
    # j0 is matched iff perm[j0 ^ l] == perm[j0] ^ l for every l, with i0 = perm[j0]
    matched = np.all(perm[:, xor] == perm[:, :, None] ^ labels, axis=2)
    inner = np.where(matched, gram[u.v[:, None], perm, u.w[:, None], labels], -np.inf)
    best = np.max(inner, axis=1)
    margin = float(np.min(best - (1 - 4 * eta)))
    return UlcPropertyReport(
        basis_completeness_residual=completeness,
        matching_residual=shift_covariance_residual(gram),
        closeness_satisfied=bool(np.all(best >= 1 - 4 * eta - 1e-12)),
        closeness_margin=margin,
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
    """Inverse of `basis_to_text`; a bad header, a missing or extra row, or
    a row that is not N entries of +/-1 raises ValueError naming the line."""
    lines = split_lines(text)
    head = lines[0][1] if lines else []
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
    # each class is its `CLASS i` line, exactly as written, then N rows; the
    # rows before the first bad class line are read first, as they come first
    raw = text.splitlines()
    m_ok = next((i for i, (no, _) in enumerate(lines[1::N + 1]) if raw[no - 1] != f"CLASS {i}"),
                m)
    body = [row for i, row in enumerate(lines[1:m_ok * (N + 1) + 1]) if i % (N + 1)]

    def checks(widths, entries):
        off = any_per_row(np.abs(entries) != 1, widths)
        return [((widths != N) | off, lambda r: f"expected {N} entries of +/-1")]

    (entries,) = read_fields(body, int, checks)
    if m_ok < m:
        raise ValueError(f"line {lines[1 + m_ok * (N + 1)][0]}: expected CLASS {m_ok} header")
    return UGVectorSolution(k, entries.astype(np.int8).reshape(m, N, N))
