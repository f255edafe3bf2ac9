"""Boolean functions on {-1,1}^k: Walsh-Hadamard transforms, noise operators,
norms, hypercontractivity checks, and junta diagnostics.

Conventions (used across the whole package):

* A point x in {-1,1}^k is an index i in [0, 2^k); coordinate j of x is
  +1 when bit j of i is 0 and -1 when it is 1 (bit b maps to 1 - 2b).
* A subset S of [k] is a bitmask s; the character chi_S(x) is
  (-1)^popcount(s & i), so character evaluation is branch-free.
* Spectra are indexed by subset bitmask, coeffs[s] = 2^-k sum_x f(x) chi_S(x).

All values are immutable after construction and every operation is a pure
function, so everything here is safe for unrestricted data-parallel use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BooleanFunction",
    "RealFunction",
    "FourierSpectrum",
    "wht",
    "inverse_wht",
    "apply_noise_operator",
    "apply_noise_kernel",
    "lp_norm",
    "bonami_beckner_check",
    "junta_diagnostics",
    "format_spectrum",
]


def _checked_dimension(table_len: int) -> int:
    """Return k with table_len = 2^k, rejecting non-powers of two."""
    if table_len <= 0 or table_len & (table_len - 1):
        raise ValueError(f"table length {table_len} is not a power of two")
    return table_len.bit_length() - 1


def _frozen_row(obj, name: str, dtype) -> np.ndarray:
    """Store field `name` of a frozen dataclass with a dimension k as a
    read-only 1-D array of 2^k entries of dtype."""
    row = np.asarray(getattr(obj, name), dtype=dtype)
    if row.ndim != 1 or len(row) != 1 << obj.k:
        raise ValueError(f"expected {name} of length 2^{obj.k}")
    row.setflags(write=False)
    object.__setattr__(obj, name, row)
    return row


@dataclass(frozen=True)
class BooleanFunction:
    """A +/-1-valued function on {-1,1}^k stored as its truth table.

    Doubles as a hypercube vertex and, after 1/sqrt(N) scaling, a unit vector.
    """

    k: int
    table: np.ndarray

    def __post_init__(self):
        if not np.all(np.abs(_frozen_row(self, "table", np.int8)) == 1):
            raise ValueError("table entries must be +1 or -1")

    @classmethod
    def from_code(cls, k: int, code: int) -> "BooleanFunction":
        """Decode an integer whose bit x says whether f(x) = -1."""
        idx = np.arange(1 << k, dtype=np.uint64)
        bits = (np.uint64(code) >> idx) & np.uint64(1)
        return cls(k, 1 - 2 * bits.astype(np.int8))

    def code(self) -> int:
        """Encode the table as an integer (bit x set iff f(x) = -1)."""
        bits = (1 - self.table.astype(np.int64)) // 2
        return int(np.sum(bits << np.arange(len(bits), dtype=np.int64)))

    def __mul__(self, other: "BooleanFunction") -> "BooleanFunction":
        if self.k != other.k:
            raise ValueError("dimension mismatch")
        return BooleanFunction(self.k, self.table * other.table)


@dataclass(frozen=True)
class RealFunction:
    """A real-valued function on {-1,1}^k (the range T_rho outputs live in)."""

    k: int
    values: np.ndarray

    def __post_init__(self):
        _frozen_row(self, "values", np.float64)


@dataclass(frozen=True)
class FourierSpectrum:
    """Fourier coefficients indexed by subset bitmask."""

    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        _frozen_row(self, "coeffs", np.float64)


def _values_of(f) -> np.ndarray:
    if isinstance(f, BooleanFunction):
        return f.table.astype(np.float64)
    if isinstance(f, RealFunction):
        return f.values
    values = np.asarray(f, dtype=np.float64)
    _checked_dimension(len(values))
    return values


def fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard butterfly along the last axis.

    Computes sum_x f(x) (-1)^popcount(s & x) in O(N log N).
    """
    n = a.shape[-1]
    _checked_dimension(n)
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


def wht_matrix(tables: np.ndarray) -> np.ndarray:
    """Batched transform: rows of `tables` are truth tables, rows of the
    result are spectra (normalized by 2^-k)."""
    out = np.array(tables, dtype=np.float64)
    fwht_inplace(out)
    out /= out.shape[-1]
    return out


def wht(f) -> FourierSpectrum:
    """Walsh-Hadamard transform: coeffs[s] = 2^-k sum_x f(x) chi_S(x)."""
    values = _values_of(f)
    return FourierSpectrum(_checked_dimension(len(values)), wht_matrix(values))


def inverse_wht(spectrum: FourierSpectrum) -> RealFunction:
    """Inverse transform: f(x) = sum_S coeffs[S] chi_S(x)."""
    out = spectrum.coeffs.copy()
    fwht_inplace(out)
    return RealFunction(spectrum.k, out)


def apply_noise_operator(f, rho: float) -> RealFunction:
    """The operator scaling the level-|S| coefficient by rho^|S|.

    The output is always a RealFunction even for +/-1 input, since the
    smoothed function leaves the Boolean range.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho={rho} outside [-1, 1]")
    spectrum = wht(f)
    sizes = np.bitwise_count(np.arange(len(spectrum.coeffs), dtype=np.uint32))
    scaled = spectrum.coeffs * np.power(rho, sizes.astype(np.float64))
    return inverse_wht(FourierSpectrum(spectrum.k, scaled))


def apply_noise_kernel(values, eps: float, n_bits: int) -> np.ndarray:
    """K f along the last axis, K[x, y] = eps^d(x,y) (1-eps)^(n_bits - d(x,y)):
    the mean of f at x with each bit flipped independently with probability
    eps, which is T_rho at rho = 1 - 2 eps. Leading axes are a batch.

    Product structure over bits: one (1-eps, eps) mixing pass per coordinate,
    butterfly-style like the Walsh-Hadamard transform. K commutes with every
    coordinate permutation, since those preserve Hamming distance.
    """
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


def lp_norm(f, p: float) -> float:
    """Averaged p-norm (2^-k sum_x |f(x)|^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"p={p} < 1 rejected")
    values = _values_of(f)
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


def bonami_beckner_check(f, p: float, q: float, rho: float):
    """Evaluate the hypercontractive inequality ||T_rho f||_q <= ||f||_p.

    Requires 1 < p < q and 0 <= rho <= sqrt((p-1)/(q-1)); outside that range
    the inequality is not claimed and the parameters are rejected.
    Returns (lhs, rhs, holds) with holds = lhs <= rhs + 1e-9.
    """
    if not 1 < p < q:
        raise ValueError(f"need 1 < p < q, got p={p}, q={q}")
    rho_max = ((p - 1) / (q - 1)) ** 0.5
    if not 0 <= rho <= rho_max:
        raise ValueError(f"rho={rho} outside admissible [0, {rho_max}]")
    lhs = lp_norm(apply_noise_operator(f, rho), q)
    rhs = lp_norm(f, p)
    return lhs, rhs, bool(lhs <= rhs + 1e-9)


def junta_diagnostics(f: BooleanFunction, k_cut: int, gamma: float):
    """Raw Fourier masses behind the junta phenomenon.

    Returns (tail_mass, small_coeff_mass) where tail_mass is the weight above
    level k_cut and small_coeff_mass the weight on coefficients of magnitude
    at most gamma * 4^(-k_cut^2). Diagnostics only: the associated theorem's
    constant is unspecified, so no verdict is produced.
    """
    if not isinstance(f, BooleanFunction):
        raise ValueError("junta diagnostics are defined for +/-1-valued functions")
    spectrum = wht(f)
    sq = spectrum.coeffs**2
    sizes = np.bitwise_count(np.arange(len(sq), dtype=np.uint32))
    tail_mass = float(np.sum(sq[sizes > k_cut]))
    threshold = gamma * 4.0 ** (-(k_cut**2))
    small_coeff_mass = float(np.sum(sq[np.abs(spectrum.coeffs) <= threshold]))
    return tail_mass, small_coeff_mass


def format_spectrum(spectrum: FourierSpectrum) -> str:
    """Debug rendering, one `S_<bitmask> <coefficient>` line per subset."""
    lines = [
        f"S_{s:0{max(spectrum.k, 1)}b} {c:.17g}"
        for s, c in enumerate(spectrum.coeffs)
    ]
    return "\n".join(lines)
