"""Test-side constructions and checks that no cutgap command needs.

- `plant_instance`: a random exactly weight-regular UG instance with a
  hidden labeling of known value, the fixture most UG, verifier and
  separator tests run on.
- `induced` and `cut_metric_combination`: the metric sum lambda_S delta_S
  of explicit cuts, which builds l1-embeddable inputs for the distortion LP;
  `lp_cuts` reads the cuts of a distortion LP solution back.
- `graph_to_text`: the GRAPH writer that `cutgap.metrics.graph_from_text`
  reads, for the `round` inputs the tests build.
- `apply_noise_operator`, `lp_norm`, `bonami_beckner_check` and
  `junta_diagnostics`: the noise operator T_rho through the spectrum,
  averaged p-norms, the hypercontractive inequality and the Fourier masses
  behind the junta phenomenon, on 1-D tables of 2^k values.
- `hamming`, `pair_weight`, `degree` and `expansion`: pair queries and
  exact set expansion of a `cutgap.hypercube.NoisyHypercube`, by
  enumeration up to N = EXACT_ENUMERATION_LIMIT.
"""

from __future__ import annotations

import math

import numpy as np

from cutgap.fourier import wht_matrix
from cutgap.metrics import FiniteMetric
from cutgap.unique_games import UGInstance
from oracles import fwht_inplace

EXACT_ENUMERATION_LIMIT = 14


def plant_instance(num_vertices: int, num_labels: int, eta: float,
                   edge_density: float, seed: int):
    """Random regular fixture with a hidden labeling of value >= 1 - eta.

    The graph is a union of circulant shift classes (exactly weight-regular).
    Permutations are chosen consistent with a hidden labeling; then a
    floor(eta * |E|) subset of edges get their permutation deranged at the
    hidden labels, so value(hidden) = 1 - floor(eta |E|)/|E| exactly.
    """
    if num_vertices < 2 or num_labels < 1:
        raise ValueError("need at least 2 vertices and 1 label")
    if not 0 <= eta < 1:
        raise ValueError(f"eta={eta} outside [0, 1)")
    rng = np.random.default_rng(seed)
    max_shift = num_vertices // 2
    want = max(1, min(max_shift, round(edge_density * max_shift)))
    shifts = 1 + rng.permutation(max_shift)[:want]
    pairs = set()
    for s in shifts:
        for i in range(num_vertices):
            j = (i + int(s)) % num_vertices
            pairs.add((min(i, j), max(i, j)))
    pairs = sorted(pairs)
    weight = 1.0 / len(pairs)
    hidden = rng.integers(0, num_labels, size=num_vertices)
    n_bad = int(np.floor(eta * len(pairs))) if num_labels > 1 else 0
    bad = set(rng.choice(len(pairs), size=n_bad, replace=False).tolist())
    perms = np.empty((len(pairs), num_labels), dtype=np.int64)
    for idx, (v, w) in enumerate(pairs):
        perm = rng.permutation(num_labels)
        # place hidden consistency: perm[hidden[w]] == hidden[v]
        pos = int(np.where(perm == hidden[v])[0][0])
        perm[pos], perm[hidden[w]] = perm[hidden[w]], perm[pos]
        if idx in bad:
            # derange at the hidden label: swap with any other slot
            other = (hidden[w] + 1 + int(rng.integers(num_labels - 1))) % num_labels
            perm[hidden[w]], perm[other] = perm[other], perm[hidden[w]]
        perms[idx] = perm
    v, w = np.array(pairs, dtype=np.int64).T
    u = UGInstance(num_vertices, num_labels, v, w, np.full(len(pairs), weight), perms)
    return u, hidden


def induced(cuts, n: int) -> np.ndarray:
    """The n x n matrix sum lambda_S delta_S of (members, weight) pairs."""
    d = np.zeros((n, n))
    for members, weight in cuts:
        ind = np.zeros(n, dtype=bool)
        ind[list(members)] = True
        sep = ind[:, None] != ind[None, :]
        d += weight * sep
    return d


def cut_metric_combination(n: int, cuts) -> FiniteMetric:
    """Metric sum lambda_S delta_S from explicit (members, weight) pairs."""
    return FiniteMetric(induced(cuts, n))


def lp_cuts(metric: FiniteMetric, x) -> list:
    """The (members, weight) cuts of positive weight in a solution x of
    `cutgap.metrics.l1_distortion_lp`'s program (cut weights, then Gamma).

    The program runs on the classes of points at distance zero, in order
    of their first point; cut column code - 1 holds class c >= 1 iff bit
    c - 1 of code is set, and a cut holds every point of its classes."""
    d = metric.d
    firsts = []
    for p in range(metric.n):
        if all(d[p, r] > 1e-12 for r in firsts):
            firsts.append(p)
    cls = [next(c for c, r in enumerate(firsts) if d[p, r] <= 1e-12) for p in range(metric.n)]
    x = np.asarray(x)[:-1]
    return [(frozenset(p for p in range(metric.n) if cls[p] and (code + 1) >> (cls[p] - 1) & 1),
             float(x[code]))
            for code in np.flatnonzero(x > 1e-12)]


def graph_to_text(weights, demands) -> str:
    """Header `GRAPH n`, then `i j weight demand` for every pair i < j with
    a nonzero weight or demand, floats at 17 significant digits."""
    weights = np.asarray(weights, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    lines = [f"GRAPH {weights.shape[0]}"]
    for i, j in zip(*np.triu_indices(weights.shape[0], 1)):
        if weights[i, j] or demands[i, j]:
            lines.append(f"{i} {j} {weights[i, j]:.17g} {demands[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def apply_noise_operator(f, rho: float) -> np.ndarray:
    """The operator scaling the level-|S| coefficient by rho^|S|; the output
    leaves the Boolean range even for +/-1 input."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho={rho} outside [-1, 1]")
    coeffs = wht_matrix(f)
    sizes = np.bitwise_count(np.arange(len(coeffs), dtype=np.uint32))
    return fwht_inplace(coeffs * np.power(rho, sizes.astype(np.float64)))


def lp_norm(f, p: float) -> float:
    """Averaged p-norm (2^-k sum_x |f(x)|^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"p={p} < 1 rejected")
    values = np.asarray(f, dtype=np.float64)
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


def junta_diagnostics(f, k_cut: int, gamma: float):
    """Raw Fourier masses behind the junta phenomenon of a +/-1 table f.

    Returns (tail_mass, small_coeff_mass) where tail_mass is the weight above
    level k_cut and small_coeff_mass the weight on coefficients of magnitude
    at most gamma * 4^(-k_cut^2). Diagnostics only: the associated theorem's
    constant is unspecified, so no verdict is produced.
    """
    values = np.asarray(f, dtype=np.float64)
    if not np.all(np.abs(values) == 1):
        raise ValueError("junta diagnostics are defined for +/-1-valued functions")
    coeffs = wht_matrix(values)
    sq = coeffs**2
    sizes = np.bitwise_count(np.arange(len(sq), dtype=np.uint32))
    tail_mass = float(np.sum(sq[sizes > k_cut]))
    threshold = gamma * 4.0 ** (-(k_cut**2))
    small_coeff_mass = float(np.sum(sq[np.abs(coeffs) <= threshold]))
    return tail_mass, small_coeff_mass


def hamming(f: int, g: int) -> int:
    return int(f ^ g).bit_count()


def pair_weight(cube, f: int, g: int) -> float:
    """Weight of the unordered edge {f, g} of `cube`; self-loops are rejected."""
    if f == g:
        raise ValueError("self-loops are excluded")
    return float(cube.weight_profile()[hamming(f, g)])


def degree(cube) -> float:
    """Weighted degree of any vertex of `cube` (the graph is weight-regular)."""
    profile = cube.weight_profile()
    counts = np.array([math.comb(cube.N, d) for d in range(cube.N + 1)])
    return float(np.sum(profile * counts))


def expansion(cube, members) -> float:
    """Exact expansion Phi(S) in `cube`: the probability of leaving S when a
    random vertex of S and then a random incident edge is chosen.

    Vertex choice is uniform (the graph is weight-regular, so
    degree-proportional and uniform choice coincide). Exact enumeration
    over S x S; requires N <= EXACT_ENUMERATION_LIMIT.
    """
    if cube.N > EXACT_ENUMERATION_LIMIT:
        raise ValueError(f"exact enumeration capped at N={EXACT_ENUMERATION_LIMIT}")
    members = np.unique(np.asarray(members, dtype=np.uint64))
    if len(members) == 0 or len(members) == 1 << cube.N:
        raise ValueError("S must be a nonempty proper subset")
    profile = cube.weight_profile()  # profile[0] is always 0
    dists = np.bitwise_count(members[:, None] ^ members[None, :])
    stay_ordered = float(np.sum(profile[dists]))
    return 1.0 - stay_ordered / (len(members) * degree(cube))
