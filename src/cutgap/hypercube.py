"""The eta-noisy hypercube graph on {-1,1}^N: edge-weight distribution and
typical-edge windowing.

Vertices are encoded as integer bitmasks (bit b of the index is coordinate
value 1 - 2b, matching `cutgap.fourier`). One random-walk step flips every
bit independently with probability eta, so the weight of an unordered pair
{f, g} at Hamming distance d is 2 * 2^-N * eta^d * (1-eta)^(N-d).

Self-pairs (d = 0) carry mass (1-eta)^N in that probability experiment; they
are excluded here (expansion and label-cover semantics ignore them) and the
retained weights are scaled to total 1. Edges are never materialized as a
list: the graph is its closed-form distance-weight profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NoisyHypercube", "typical_window"]


def typical_window(N: int, eta: float):
    """Inclusive Hamming-distance window [ceil(eta*N/2), floor(2*eta*N)].

    Returns None (flagged empty) when the lower end exceeds the upper end,
    which happens in the degenerate small-N regime; the caller must widen the
    window or disable windowing.
    """
    if not 0 < eta < 0.5:
        raise ValueError(f"eta={eta} outside (0, 1/2)")
    d_lo = math.ceil(eta * N / 2)
    d_hi = math.floor(2 * eta * N)
    if d_lo > d_hi:
        return None
    return d_lo, d_hi


@dataclass(frozen=True)
class NoisyHypercube:
    """Noise graph on {-1,1}^N with optional distance window.

    window is an inclusive (d_lo, d_hi) pair or None for no windowing. The
    retained edge weights total 1: the raw probability-experiment weights
    are `weight_profile() * retained_mass()`.
    """

    N: int
    eta: float
    window: tuple | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if not 0 < self.eta < 0.5:
            raise ValueError(f"eta={self.eta} outside (0, 1/2)")
        if self.window is not None:
            d_lo, d_hi = self.window
            if not (1 <= d_lo <= d_hi <= self.N):
                raise ValueError(f"bad window {self.window}")

    def _retained(self) -> np.ndarray:
        """Mask of the retained distances among d = 0..N: the window, or all
        of 1..N."""
        lo, hi = (1, self.N) if self.window is None else self.window
        return (np.arange(self.N + 1) >= lo) & (np.arange(self.N + 1) <= hi)

    def retained_mass(self) -> float:
        """sum over retained distances of C(N,d) eta^d (1-eta)^(N-d)."""
        d = np.arange(self.N + 1)
        mass = np.array(
            [math.comb(self.N, int(dd)) for dd in d], dtype=np.float64
        ) * self.eta**d * (1 - self.eta) ** (self.N - d)
        return float(np.sum(np.where(self._retained(), mass, 0.0)))

    def weight_profile(self) -> np.ndarray:
        """Per-pair weight indexed by distance d = 0..N, after the window,
        scaled so that the retained weights total 1."""
        d = np.arange(self.N + 1)
        w = 2.0 * 2.0 ** (-self.N) * self.eta**d * (1 - self.eta) ** (self.N - d)
        w = np.where(self._retained(), w, 0.0)
        return w / self.retained_mass()
