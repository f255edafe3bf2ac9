"""Tensor-power inner-product algebra.

Every tensored inner product is evaluated symbolically through
<x tensor l, z tensor l> = <x, z>^l, so no tensor is ever materialized.
The separator vectors are handled the same way: the point (vertex v, sign
pattern x) carries, for inner power l_in and outer power t, the unit vector

    ( (1/sqrt(N)) sum_i x_i v_i^(tensor l_in) )^(tensor t)

and the inner product of two such vectors is ((1/N) x^T M y)^t with
M[i][j] = <v_i, w_j>^l_in the base Gram block of the vertex pair. The gap
solution's bases are shift-covariant (<v_i, w_j> depends on i xor j only),
so one dense table of m * m * N numbers holds every block. The bases are
+/-1 over sqrt(N), so each number is an integer over N^l_in and each base
inner product an integer over N^(l_in+1): the table holds the integers.

The analytic construction fixes t astronomically large (recorded below as
REFERENCE_OUTER_POWER); any |base| < 1 underflows to zero at that exponent,
so computations use a small odd t. Checking triangle inequalities at t = 1
suffices for every odd t by the odd-power transfer lemma
(1 + a >= b + c implies 1 + a^t >= b^t + c^t on [-1, 1]).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "REFERENCE_OUTER_POWER",
    "base_gram",
    "shift_covariance_residual",
    "GramCache",
]

# outer power used by the analytic construction; metadata only (numerically
# meaningless in floating point: |base| < 1 underflows to 0)
REFERENCE_OUTER_POWER = 2**240 + 1

DEFAULT_INNER_POWER = 8
# the largest even inner power at which every table numerator (at most
# 8^16 = 2^48 at N = 8) is exact as a float64 too, for `GramCache.gram`;
# the int64 sums stay inside 2^63: a base inner product's dot of N terms
# has partial sums below N^(l_in+2) = 2^54, a triangle's three numerators
# sum below 3 * 2^51
INNER_POWER_LIMIT = 16
# bytes per triangle sweep step (k=3: the gathered rows of 512 BES point pairs
# in int32, the pair sums of 16 UG first points in int8)
TRIANGLE_STEP_BYTES = 1 << 20


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


def triangle_sweep(ac, bc, ab, pairs) -> int:
    """max of ac[a, c] + bc[b, c] - ab[a, b] over the point pairs (a, b)
    that `pairs`, two index arrays of first and second points, lists and
    over all c, for integer tables whose dtype holds three times their
    largest entry. Each step gathers the rows ac[a] and bc[b] of as many
    pairs as keep both gathers within TRIANGLE_STEP_BYTES, adds them in
    place and takes the max over c first."""
    first, second = pairs
    step = max(1, TRIANGLE_STEP_BYTES // (2 * bc[0].nbytes))
    worst = []
    for i in range(0, len(first), step):
        a, b = first[i:i + step], second[i:i + step]
        sums = ac[a]
        sums += bc[b]
        worst.append(int(np.max(np.max(sums, axis=1) - ab[a, b])))
    return max(worst)


def triangle_sweep_upper(g) -> int:
    """max of g[a, c] + g[b, c] - g[a, b] over all a, b, c, for an integer
    table whose dtype holds three times its largest entry. The pair sum is
    symmetric in a and b, so the pairs b >= a stand for both orders when
    they subtract min(g[a, b], g[b, a]): about half the ordered pairs. Each
    step takes the first points a in [lo, lo + step) with every second
    point b >= lo, as many as keep the pair sums within
    TRIANGLE_STEP_BYTES, and the max over c first."""
    low = np.minimum(g, g.T)
    step = max(1, TRIANGLE_STEP_BYTES // g.nbytes)
    return max(int(np.max(np.max(g[lo:lo + step, None] + g[lo:], axis=2) - low[lo:lo + step, lo:]))
               for lo in range(0, len(g), step))


class GramCache:
    """Dense table of the powered base Grams of a shift-covariant basis, as
    integer numerators.

    table[v, w, c] = (N <u_{v,0}, u_{w,c}>)^l_in, an int64 over N^l_in,
    holds every block: gram(v, w)[s, t] = table[v, w, s xor t] / N^l_in.
    The table is built once from the basis; a basis that is not
    shift-covariant is rejected with ValueError, since the table would
    misread it.
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
        # N <u, u'> is an integer in [-N, N], exact in float64
        self.table = (gram[:, 0] * self.N).astype(np.int64) ** l_in
        self.table.setflags(write=False)
        idx = np.arange(self.N)
        self._xor = idx[:, None] ^ idx[None, :]

    @property
    def N(self) -> int:
        return self.basis.shape[1]

    def gram(self, v: int, w: int) -> np.ndarray:
        """M[s, t] = <u_{v,s}, u_{w,t}>^l_in for the ordered pair (v, w), as
        float64: each numerator and N^l_in are exact, so each entry is."""
        return self.table[v, w][self._xor] / self.N**self.l_in
