"""The two-query Long Code verifier over a Unique Games instance.

A proof assigns every UG vertex v a +/-1 table A^v on {-1,1}^N (N = label
count). The verifier draws an edge e{v,w} by weight, a uniform x and an
epsilon-biased flip pattern mu, and accepts iff
A^v(x) = A^w((x mu) o pi_e). Acceptance probability is available exactly
through the per-vertex spectra,

    1/2 + 1/2 sum_e wt(e) sum_alpha A^v_alpha A^w_{pi^-1(alpha)} (1-2 eps)^|alpha|,

where alpha -> pi^-1(alpha) is the reindex table of the instance's
`EdgeDistribution`, whose `probabilities` sums it in integers and rounds it
once, and operationally through that distribution's seeded sampler. The
distribution is also the separator's edge distribution: a separator cut
is a proof, its weight is one minus the acceptance of its blocks, and the
separator builds its dictator cuts and its balance test with
`dictator_tables` and `piecewise_balance` from here.

The decoder draws a subset alpha with probability (A^v_alpha)^2 and a
uniform element of alpha; empty draws are redrawn, and all-mass-on-empty
tables fall back to a uniform label (flagged).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fourier import wht_matrix
from .unique_games import EXACT_LABEL_LIMIT, UGInstance, value as ug_value

__all__ = [
    "Proof",
    "DecodeResult",
    "dictator_tables",
    "piecewise_balance",
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


def dictator_tables(lam, num_labels: int) -> np.ndarray:
    """The Long Codes of a labeling as (len(lam), 2^N) +/-1 tables,
    A^v(x) = x_{lam[v]}: a proof's tables, or the blocks of a separator
    cut."""
    lam = np.asarray(lam, dtype=np.int64)
    if np.any(lam < 0) or np.any(lam >= num_labels):
        raise ValueError("label out of range")
    x = np.arange(1 << num_labels, dtype=np.int64)
    return (1 - 2 * ((x >> lam[:, None]) & 1)).astype(np.int8)


def piecewise_balance(tables) -> float:
    """E_v |A^v_empty| over +/-1 tables, one row per vertex (the empty-set
    coefficient is the table mean): 0 when every row is balanced, 1 for
    constant rows."""
    return float(np.mean(np.abs(np.mean(np.asarray(tables, dtype=np.float64), axis=1))))


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon <= 1.0:  # also rejects nan
        raise ValueError(f"epsilon={epsilon} is not a probability in [0, 1]")


def acceptance_probability_exact(u: UGInstance, proof: Proof, epsilon: float) -> float:
    """Exact acceptance probability by the spectral formula, correctly
    rounded (`EdgeDistribution.probabilities`)."""
    if proof.num_vertices != u.num_vertices or proof.num_labels != u.num_labels:
        raise ValueError("proof shape does not match instance")
    _check_epsilon(epsilon)
    return u.edge_distribution.probabilities(proof.tables, epsilon)[1]


def acceptance_probability_mc(u: UGInstance, proof: Proof, samples: int,
                              seed: int, epsilon: float):
    """Operational Monte Carlo estimate: run the two-query test `samples`
    times. Returns (estimate, stderr); deterministic per seed."""
    _check_epsilon(epsilon)
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
    `rounds` labelings by value is returned.

    Each vertex's cdf is built once and looked up with one uniform, which
    reads the generator as `Generator.choice(len(p), p=p)` does; the element
    is drawn as `choice` over alpha's members draws it."""
    if rounds < 1:
        raise ValueError("rounds must be positive")
    spectra = wht_matrix(proof.tables.astype(np.float64))
    sq = spectra**2
    sq = sq / np.sum(sq, axis=1, keepdims=True)
    n = u.num_labels
    rng = np.random.default_rng(seed)
    live = 1.0 - sq[:, 0] >= 1e-15  # else all mass is on the empty set
    probs = sq[live]
    probs[:, 0] = 0.0  # redraw rule: condition on alpha != empty set
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.zeros_like(sq)
    cdf[live] = probs.cumsum(axis=1)
    cdf[live] /= cdf[live, -1:]
    members = _subset_members(n)
    best_lam = None
    best_val = -1.0
    for _ in range(rounds):
        lam = np.zeros(u.num_vertices, dtype=np.int64)
        for v in range(u.num_vertices):
            if not live[v]:
                lam[v] = int(rng.integers(n))
                continue
            elems = members[int(cdf[v].searchsorted(rng.random(), side="right"))]
            lam[v] = elems[int(rng.integers(0, len(elems)))]
        val = ug_value(u, lam)
        if val > best_val:
            best_val = val
            best_lam = lam.copy()
    return DecodeResult(best_lam, best_val, tuple(int(v) for v in np.flatnonzero(~live)))


@functools.cache
def _subset_members(num_labels: int) -> tuple:
    """The elements of each subset bitmask of num_labels labels, in
    increasing order."""
    return tuple(tuple(i for i in range(num_labels) if alpha >> i & 1)
                 for alpha in range(1 << num_labels))


def proof_to_text(proof: Proof) -> str:
    """Header `PROOF |V| N`, then one line of 2^N +/-1 entries per vertex."""
    lines = [f"PROOF {proof.num_vertices} {proof.num_labels}"]
    for row in proof.tables:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def proof_from_text(text: str) -> Proof:
    """Inverse of `proof_to_text`; an empty file, a bad header, an entry
    other than +/-1, a row of the wrong length, or a missing or extra row
    raises ValueError naming the line."""
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty PROOF file")
    no, head = lines[0]
    if len(head) != 3 or head[0] != "PROOF":
        raise ValueError(f"line {no}: expected header `PROOF |V| N`")
    try:
        nv, n = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    if nv < 1:
        raise ValueError(f"line {no}: vertex count {nv} out of range")
    if not 0 <= n <= EXACT_LABEL_LIMIT:  # each table has 2^n entries
        raise ValueError(f"line {no}: label count {n} out of range")
    rows = []
    for no, row in lines[1:]:
        try:
            rows.append([int(x) for x in row])
        except ValueError as exc:
            raise ValueError(f"line {no}: {exc}") from None
        if any(abs(x) != 1 for x in rows[-1]):
            raise ValueError(f"line {no}: proof entries must be +/-1")
        if len(row) != 1 << n:
            raise ValueError(f"line {no}: expected {1 << n} entries, got {len(row)}")
    if len(rows) != nv:
        at = lines[nv + 1][0] if nv < len(rows) else lines[-1][0] + 1
        raise ValueError(f"line {at}: PROOF {nv} {n} has {nv} rows, found {len(rows)}")
    return Proof(n, np.array(rows, dtype=np.int8))
