"""The two-query Long Code verifier over a Unique Games instance.

A proof assigns every UG vertex v a +/-1 table A^v on {-1,1}^N (N = label
count). The verifier draws an edge e{v,w} by weight, a uniform x and an
epsilon-biased flip pattern mu, and accepts iff
A^v(x) = A^w((x mu) o pi_e). Acceptance probability is available exactly
through the per-vertex spectra,

    1/2 + 1/2 sum_e wt(e) sum_alpha A^v_alpha A^w_{pi^-1(alpha)} (1-2 eps)^|alpha|,

and operationally through the seeded sampler of the instance's
`EdgeDistribution`, the one that also estimates separator cut weights (a
cut's weight is one minus the acceptance of its blocks as a proof). The
decoder draws a subset alpha with probability (A^v_alpha)^2 and a uniform
element of alpha; empty draws are redrawn, and all-mass-on-empty tables fall
back to a uniform label (flagged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import wht_matrix
from .unique_games import UGInstance, value as ug_value

__all__ = [
    "Proof",
    "DecodeResult",
    "long_code_proof",
    "piecewise_balance_stat",
    "acceptance_probability_exact",
    "acceptance_probability_mc",
    "decode_labeling",
    "proof_to_text",
    "proof_from_text",
]


@dataclass(frozen=True)
class Proof:
    """tables[v] is the +/-1 truth table of the supposed Long Code of v's
    label, length 2^N."""

    num_labels: int
    tables: np.ndarray

    def __post_init__(self):
        tables = np.asarray(self.tables, dtype=np.int8)
        object.__setattr__(self, "tables", tables)
        if tables.ndim != 2 or tables.shape[1] != 1 << self.num_labels:
            raise ValueError(f"expected (num_vertices, 2^{self.num_labels}) tables")
        if not np.all(np.abs(tables) == 1):
            raise ValueError("proof tables must be +/-1 valued")
        tables.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.tables.shape[0]


def long_code_proof(lam, num_labels: int) -> Proof:
    """Dictator tables encoding a labeling: A^v(x) = x_{lam[v]}."""
    lam = np.asarray(lam, dtype=np.int64)
    if np.any(lam < 0) or np.any(lam >= num_labels):
        raise ValueError("label out of range")
    x = np.arange(1 << num_labels, dtype=np.int64)
    tables = np.stack([1 - 2 * ((x >> int(l)) & 1) for l in lam])
    return Proof(num_labels, tables.astype(np.int8))


def piecewise_balance_stat(proof: Proof) -> float:
    """E_v |A^v_empty| (the empty-set coefficient is the table mean)."""
    return float(np.mean(np.abs(np.mean(proof.tables.astype(np.float64), axis=1))))


def _noise_factors(num_labels: int, epsilon: float) -> np.ndarray:
    """(1 - 2 eps)^|alpha| per subset bitmask.

    Magnitudes go through log space against underflow at large |alpha|;
    eps > 1/2 flips the sign per level, eps = 1/2 kills every non-empty one.
    """
    sizes = np.bitwise_count(np.arange(1 << num_labels, dtype=np.uint32)).astype(
        np.float64
    )
    base = 1.0 - 2.0 * epsilon
    if base == 0.0:
        out = np.zeros(1 << num_labels)
        out[0] = 1.0
        return out
    signs = np.where(sizes % 2 == 0, 1.0, math.copysign(1.0, base))
    return signs * np.exp(sizes * math.log(abs(base)))


def _set_image_table(perm: np.ndarray) -> np.ndarray:
    """table[alpha] = bitmask of {perm^-1(i) : i in alpha}."""
    n = len(perm)
    inv = np.argsort(perm)
    alphas = np.arange(1 << n, dtype=np.int64)
    out = np.zeros_like(alphas)
    for i in range(n):
        out |= ((alphas >> i) & 1) << int(inv[i])
    return out


def acceptance_probability_exact(u: UGInstance, proof: Proof, epsilon: float) -> float:
    """Exact acceptance probability via the spectral formula. The set-image
    table is built once per distinct edge permutation; the per-edge terms
    are summed in edge order."""
    if proof.num_vertices != u.num_vertices or proof.num_labels != u.num_labels:
        raise ValueError("proof shape does not match instance")
    spectra = wht_matrix(proof.tables.astype(np.float64))
    factors = _noise_factors(u.num_labels, epsilon)
    v, w, perm, weight = u.edge_arrays()
    perms, which = np.unique(perm, axis=0, return_inverse=True)
    terms = np.empty(len(u.edges))
    for p, distinct in enumerate(perms):
        group = np.flatnonzero(which == p)
        pulled = spectra[w[group]][:, _set_image_table(distinct)]
        terms[group] = weight[group] * np.sum(spectra[v[group]] * pulled * factors, axis=1)
    return 0.5 + 0.5 * float(np.cumsum(terms)[-1])


def acceptance_probability_mc(u: UGInstance, proof: Proof, samples: int,
                              seed: int, epsilon: float):
    """Operational Monte Carlo estimate: run the two-query test `samples`
    times. Returns (estimate, stderr); deterministic per seed."""
    if samples < 1:
        raise ValueError("need at least one sample")
    reject = u.edge_distribution.sample_disagreements(proof.tables, samples, seed, epsilon)
    p = (samples - reject) / samples
    stderr = math.sqrt(max(p * (1 - p), 1e-300) / samples)
    return p, stderr


@dataclass
class DecodeResult:
    labeling: np.ndarray
    value: float
    fallback_vertices: tuple  # vertices whose spectrum sat entirely on the empty set


def decode_labeling(u: UGInstance, proof: Proof, seed: int, rounds: int = 10) -> DecodeResult:
    """Randomized Fourier decoding: per vertex draw alpha ~ (A^v_alpha)^2
    (redrawing the empty set), then a uniform element of alpha. The best of
    `rounds` labelings by value is returned."""
    if rounds < 1:
        raise ValueError("rounds must be positive")
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
            probs[0] = 0.0  # redraw rule: condition on alpha != empty set
            probs /= probs.sum()
            alpha = int(rng.choice(len(probs), p=probs))
            members = [i for i in range(n) if alpha >> i & 1]
            lam[v] = int(rng.choice(members))
        val = ug_value(u, lam)
        if val > best_val:
            best_val = val
            best_lam = lam.copy()
    return DecodeResult(best_lam, best_val, tuple(fallback))


def proof_to_text(proof: Proof) -> str:
    """Header `PROOF |V| N`, then one line of 2^N +/-1 entries per vertex."""
    lines = [f"PROOF {proof.num_vertices} {proof.num_labels}"]
    for row in proof.tables:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def proof_from_text(text: str) -> Proof:
    """Inverse of `proof_to_text`; an empty file, a bad header or an entry
    other than +/-1 raises ValueError naming the line."""
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty PROOF file")
    no, head = lines[0]
    if len(head) != 3 or head[0] != "PROOF":
        raise ValueError(f"line {no}: expected header `PROOF |V| N`")
    nv, n = int(head[1]), int(head[2])
    if not 0 <= n < 63:  # each table has 2^n entries
        raise ValueError(f"line {no}: label count {n} out of range")
    rows = []
    for no, row in lines[1:]:
        rows.append([int(x) for x in row])
        if any(abs(x) != 1 for x in rows[-1]):
            raise ValueError(f"line {no}: proof entries must be +/-1")
    tables = np.array(rows, dtype=np.int8)
    if tables.shape != (nv, 1 << n):
        raise ValueError("table shape mismatch")
    return Proof(n, tables)
