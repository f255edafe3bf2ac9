"""Tensor-power inner-product algebra.

Every tensored inner product is evaluated symbolically through
<x tensor l, z tensor l> = <x, z>^l, so no tensor is ever materialized.
The separator vectors are handled the same way: a handle (vertex v, sign
pattern x, inner power l_in, outer power t) stands for the unit vector

    ( (1/sqrt(N)) sum_i x_i v_i^(tensor l_in) )^(tensor t)

and the inner product of two handles is ((1/N) x^T M y)^t with
M[i][j] = <v_i, w_j>^l_in the base Gram block of the vertex pair. The gap
solution's bases are shift-covariant (<v_i, w_j> depends on i xor j only),
so one dense table of m * m * N numbers holds every block.

The analytic construction fixes t astronomically large (recorded below as
REFERENCE_OUTER_POWER); any |base| < 1 underflows to zero at that exponent,
so computations use a small odd t. Checking triangle inequalities at t = 1
suffices for every odd t by the odd-power transfer lemma
(1 + a >= b + c implies 1 + a^t >= b^t + c^t on [-1, 1]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "REFERENCE_OUTER_POWER",
    "tensor_inner",
    "materialize_tensor_power",
    "BESVectorHandle",
    "base_gram",
    "shift_covariance_residual",
    "GramCache",
    "bes_inner",
    "odd_power_triangle_transfer",
]

# outer power used by the analytic construction; metadata only (numerically
# meaningless in floating point: |base| < 1 underflows to 0)
REFERENCE_OUTER_POWER = 2**240 + 1

DEFAULT_INNER_POWER = 8
DEFAULT_OUTER_POWER = 3


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
    """Symbolic unit vector for the pair (vertex, sign pattern).

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


def base_gram(basis) -> np.ndarray:
    """G[v, s, w, t] = <u_{v,s}, u_{w,t}> for the rows u = basis / sqrt(N)
    of an (m, N, N) +/-1 basis, N a power of two; entries are exact
    multiples of 1/N."""
    basis = np.asarray(basis)
    if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
        raise ValueError("basis must be (m, N, N)")
    m, n, _ = basis.shape
    if n & (n - 1):
        raise ValueError(f"basis dimension {n} is not a power of two")
    flat = basis.reshape(m * n, n).astype(np.float64)
    return (flat @ flat.T).reshape(m, n, m, n) / n


def shift_covariance_residual(gram: np.ndarray) -> float:
    """max |G[v, s, w, t] - G[v, 0, w, s xor t]| over a base_gram tensor:
    zero exactly when every block depends on s xor t only, which is the
    same as invariance under shifting both indices by any l."""
    n = gram.shape[1]
    idx = np.arange(n)
    predicted = gram[:, 0][:, :, idx[:, None] ^ idx[None, :]]  # [v, w, s, t]
    return float(np.max(np.abs(gram.transpose(0, 2, 1, 3) - predicted)))


class GramCache:
    """Dense table of the powered base Grams of a shift-covariant basis.

    table[v, w, c] = <u_{v,0}, u_{w,c}>^l_in holds every block:
    gram(v, w)[s, t] = table[v, w, s xor t]. The table is built once from
    the basis; a basis that is not shift-covariant is rejected with
    ValueError, since the table would misread it.
    """

    # blocks computed on demand: none, the table is built in the constructor
    misses = 0

    def __init__(self, basis: np.ndarray, l_in: int = DEFAULT_INNER_POWER):
        self.basis = np.asarray(basis, dtype=np.int8)
        gram = base_gram(self.basis)
        residual = shift_covariance_residual(gram)
        if residual:
            raise ValueError(f"basis is not shift-covariant (residual {residual:g})")
        self.l_in = l_in
        self.table = gram[:, 0] ** l_in
        self.table.setflags(write=False)
        idx = np.arange(self.N)
        self._xor = idx[:, None] ^ idx[None, :]

    @property
    def N(self) -> int:
        return self.basis.shape[1]

    def gram(self, v: int, w: int) -> np.ndarray:
        """M[s, t] = <u_{v,s}, u_{w,t}>^l_in for the ordered pair (v, w)."""
        return self.table[v, w][self._xor]


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
