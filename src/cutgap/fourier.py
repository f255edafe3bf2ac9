"""The Walsh-Hadamard transform on {-1,1}^k, on plain arrays.

Conventions (used across the whole package):

* A point x in {-1,1}^k is an index i in [0, 2^k); coordinate j of x is
  +1 when bit j of i is 0 and -1 when it is 1 (bit b maps to 1 - 2b).
* A subset S of [k] is a bitmask s; the character chi_S(x) is
  (-1)^popcount(s & i), so character evaluation is branch-free.
* Spectra are indexed by subset bitmask, coeffs[s] = 2^-k sum_x f(x) chi_S(x).

A function is its table of 2^k values along the last axis of an array;
leading axes are a batch. Every operation is a pure function.
"""

from __future__ import annotations

import functools

import numpy as np

# empty: the benchmark's tracer wraps `wht_matrix` by name
__all__: list[str] = []


def _checked_dimension(table_len: int) -> int:
    """Return k with table_len = 2^k, rejecting non-powers of two."""
    if table_len <= 0 or table_len & (table_len - 1):
        raise ValueError(f"table length {table_len} is not a power of two")
    return table_len.bit_length() - 1


@functools.cache
def _hadamard(k: int) -> np.ndarray:
    """The 2^k x 2^k matrix H[s, x] = (-1)^popcount(s & x), read-only."""
    idx = np.arange(1 << k, dtype=np.uint32)
    h = 1.0 - 2.0 * (np.bitwise_count(idx[:, None] & idx) & 1)
    h.setflags(write=False)
    return h


def walsh_hadamard(tables) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis,
    sum_x f(x) (-1)^popcount(s & x), in float64.

    The characters factor over the low a = k // 2 bits of x and the high
    k - a bits, so with each table read as a 2^(k-a) x 2^a matrix X (row:
    the high bits) its spectrum is H_{2^(k-a)} X H_{2^a}: two small matrix
    products for the whole batch. On integer tables every product and
    partial sum is an integer, exact while below 2^53 (as on +/-1 tables).
    """
    values = np.asarray(tables, dtype=np.float64)
    k = _checked_dimension(values.shape[-1])
    a = k // 2
    low = values.reshape(-1, 1 << a) @ _hadamard(a)
    high = _hadamard(k - a) @ low.reshape(values.shape[:-1] + (1 << k - a, 1 << a))
    return high.reshape(values.shape)


def wht_matrix(tables: np.ndarray) -> np.ndarray:
    """Batched transform: rows of `tables` are truth tables, rows of the
    result are spectra (normalized by 2^-k)."""
    out = walsh_hadamard(tables)
    out /= out.shape[-1]
    return out
