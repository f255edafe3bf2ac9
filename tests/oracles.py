"""Independent reference implementations the tests compare the production
paths against. None of them is used by the cutgap package itself.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cutgap.tensor import DEFAULT_INNER_POWER, GramCache

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
