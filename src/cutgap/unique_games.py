"""General Unique Games instances: evaluation, exact and heuristic
optimization, planted fixtures, serialization, and the label-extended graph.

An instance is a weighted constraint graph where each edge carries a bijection
pi on the label set [N]; a labeling lam satisfies the (ordered) edge (v, w)
when lam[v] == pi[lam[w]]. Edge weights sum to 1 and the weighted degree is
the same at every vertex (self-loop weights count twice toward degree).
Labelings are plain integer arrays indexed by vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fourier import apply_noise_kernel

__all__ = [
    "UGInstance",
    "EdgeDistribution",
    "Incidence",
    "BudgetExceededError",
    "value",
    "opt_exhaustive",
    "opt_search",
    "plant_instance",
    "label_extended_graph",
    "labeling_set_expansion_identity",
    "ug_to_text",
    "ug_from_text",
]


# edges per gather-dot step of `EdgeDistribution.disagreement`: at N = 8 its
# two (128, 256) float64 operands take 0.5 MB
DISAGREEMENT_CHUNK = 128


class BudgetExceededError(ValueError):
    """Raised when exhaustive enumeration would exceed the labeling budget;
    carries the exact count so the caller can fall back to opt_search."""

    def __init__(self, count: int, budget: int):
        self.count = count
        self.budget = budget
        super().__init__(f"{count} labelings exceed budget {budget}")


@dataclass(frozen=True)
class UGInstance:
    """Edge e joins v[e] and w[e] with weight weight[e] and permutation
    perm[e], one row of the (|E|, N) array: lam[v] = perm[lam[w]]
    satisfies it. The columns are validated and stored as read-only
    arrays, the one form of the edges."""

    num_vertices: int
    num_labels: int
    v: np.ndarray
    w: np.ndarray
    weight: np.ndarray
    perm: np.ndarray
    regularity_tol: float = 1e-9

    def __post_init__(self):
        n = self.num_labels
        # endpoints stay exact integers (an object array past int64) until
        # the range check, so an error names the endpoint as given
        v, w = _int_array(self.v), _int_array(self.w)
        weight = np.array(self.weight, dtype=np.float64)
        perm = np.array(self.perm, dtype=np.int64)
        if perm.shape[1:] != (n,) or not len(v) == len(w) == len(weight) == len(perm):
            raise ValueError(f"edge columns of lengths {len(v)}, {len(w)}, {len(weight)} and "
                             f"permutations of shape {perm.shape}: need one row of width "
                             f"N = {n} per edge")
        # the checks run on whole arrays; an error names the first offending
        # edge and, on it, the first failing check in this order
        bad_end = (v < 0) | (v >= self.num_vertices) | (w < 0) | (w >= self.num_vertices)
        bad_weight = ~((weight >= 0) & (weight < np.inf))
        bad_perm = _not_permutations(perm, n)
        first = np.flatnonzero(bad_end.astype(bool) | bad_weight | bad_perm)
        if len(first):
            i = first[0]
            if bad_end[i]:
                raise ValueError(f"edge endpoint out of range: {v[i]},{w[i]}")
            if bad_weight[i]:
                raise ValueError(
                    f"edge ({v[i]},{w[i]}) weight {weight[i]} is not finite and nonnegative")
            raise ValueError(f"perm on edge ({v[i]},{w[i]}) is not a bijection")
        v, w = v.astype(np.int64, copy=False), w.astype(np.int64, copy=False)
        # running sums in edge order from 0.0, as a loop over the edges adds
        total = float(np.cumsum(np.append(0.0, weight))[-1])
        # self-loops intentionally count twice
        degree = np.bincount(np.stack([v, w], axis=1).ravel(), weights=np.repeat(weight, 2),
                             minlength=self.num_vertices)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"edge weights sum to {total}, expected 1")
        if degree.max() - degree.min() > self.regularity_tol:
            raise ValueError(
                f"weighted degree spread {degree.max() - degree.min():.3g} "
                f"exceeds tolerance {self.regularity_tol:.3g}"
            )
        for name, a in (("v", v), ("w", w), ("weight", weight), ("perm", perm)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def num_edges(self) -> int:
        return len(self.weight)

    @cached_property
    def edge_distribution(self) -> "EdgeDistribution":
        """The two-query Long Code test's query distribution, built once
        from the edge columns."""
        perms, table_of = np.unique(self.perm, axis=0, return_inverse=True)
        z = np.arange(1 << self.num_labels, dtype=np.int64)
        bits = (z >> perms[:, :, None]) & 1  # [p, i, z] = bit perm_p(i) of z
        tables = np.sum(bits << np.arange(self.num_labels)[:, None], axis=1)
        table_of = table_of.ravel()
        for a in (perms, tables, table_of):
            a.setflags(write=False)
        return EdgeDistribution(self.num_vertices, self.num_labels, self.v, self.w,
                                self.weight, perms, tables, table_of)


def _int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as an object array when an entry does
    not fit int64 (it compares as the exact integer)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _not_permutations(perms: np.ndarray, n: int) -> np.ndarray:
    """Mask of the rows of an (rows, n) array that are not a permutation of
    0..n-1."""
    if not len(perms):
        return np.zeros(0, dtype=bool)
    return (np.sort(perms, axis=1) != np.arange(n)).any(axis=1)


class Incidence(NamedTuple):
    """Both ends of every edge, sorted by vertex (`EdgeDistribution.incidence`)."""

    vertex: np.ndarray  # the end's vertex, nondecreasing
    other: np.ndarray  # the edge's other endpoint
    weight: np.ndarray  # the edge's weight
    row: np.ndarray  # map row: p from the v end, P + p from the w end
    bounds: np.ndarray  # vertex u's ends are bounds[u]:bounds[u + 1]


@dataclass(frozen=True)
class EdgeDistribution:
    """The query distribution of the two-query Long Code test on a UG
    instance, which is also the edge distribution of the separator instance
    the test reduces it to: draw an edge e{v, w} by weight, a uniform point
    x and an epsilon-biased flip pattern mu, and query (v, x) and (w, y)
    with y = (x mu) o pi_e, that is bit i of y is bit pi_e(i) of x ^ mu.

    Edges with the same permutation share one reindex table: `perms[p]` is
    a distinct permutation, `tables[p]` maps x ^ mu to y under it and
    `table_of[e]` names edge e's, so edge e's permutation is
    `perms[table_of[e]]` and an instance whose permutations are XOR shifts
    (the quotient instance) holds at most N tables. Read as a map on subset
    bitmasks, `tables[p]` also sends alpha to {pi^-1(i) : i in alpha}, the
    spectral form of the same reindexing. Queried tables are +/-1 arrays
    with one row per UG vertex.
    """

    num_vertices: int
    num_labels: int
    v: np.ndarray
    w: np.ndarray
    weight: np.ndarray
    perms: np.ndarray  # (distinct permutations, N)
    tables: np.ndarray  # (distinct permutations, 2^N)
    table_of: np.ndarray  # (|E|,)

    @cached_property
    def incidence(self) -> Incidence:
        """Both ends of every edge, stably sorted by vertex, so that each
        vertex's ends stay in edge order, a loop's two ends sit side by side
        and an isolated vertex has none. Map row p is distinct permutation
        p, seen from an edge's v end; row P + p is its inverse, seen from
        the w end. Built once; the UG relabel search and the separator's
        flip gains both read it."""
        vertex = np.stack([self.v, self.w], axis=1).ravel()
        order = np.argsort(vertex, kind="stable")
        rows = np.stack([self.table_of, self.table_of + len(self.perms)], axis=1)
        inc = Incidence(vertex[order], np.stack([self.w, self.v], axis=1).ravel()[order],
                        np.repeat(self.weight, 2)[order], rows.ravel()[order],
                        np.searchsorted(vertex[order], np.arange(self.num_vertices + 1)))
        for a in inc:
            a.setflags(write=False)
        return inc

    def disagreement(self, blocks, epsilon: float) -> float:
        """Exact probability that the two queries get different values,
        sum_e wt(e) (1 - <A^v, K A^w o pi_e> / 2^N) / 2 for the noise kernel
        K. K commutes with pi_e, so one noise pass over all rows and a
        gather-dot per chunk of edges evaluate every term."""
        blocks = np.asarray(blocks, dtype=np.float64)
        size = blocks.shape[1]
        smoothed = apply_noise_kernel(blocks, epsilon, self.num_labels).ravel()
        agree = np.empty(len(self.v))
        # DISAGREEMENT_CHUNK edges at a time, so that the gathered rows stay
        # in cache; each edge's dot product is the same 2^N products in the
        # same order whatever the chunk
        for lo in range(0, len(self.v), DISAGREEMENT_CHUNK):
            e = slice(lo, lo + DISAGREEMENT_CHUNK)
            pulled = smoothed[self.w[e, None] * size + self.tables[self.table_of[e]]]
            np.einsum("ex,ex->e", blocks[self.v[e]], pulled, out=agree[e])
        # a sequential sum in edge order (np.sum would pair terms up): the
        # last digits of the written gap rows depend on this order
        return float(np.cumsum(self.weight * (1.0 - agree / size) / 2.0)[-1])

    def sample_disagreements(self, blocks, samples: int, seed: int,
                             epsilon: float) -> int:
        """How many of `samples` seeded draws of (e, x, mu) query two
        different values; the draws depend only on the seed."""
        rng = np.random.default_rng(seed)
        n = self.num_labels
        p = self.weight / self.weight.sum()
        # bit weights in the narrowest unsigned type that holds 2^N - 1, so
        # the product with the (batch, N) flip indicators makes no int64 copy
        bit_weights = (1 << np.arange(n)).astype(np.min_scalar_type((1 << n) - 1))
        count = 0
        done = 0
        while done < samples:
            batch = min(samples - done, 1 << 16)
            ei = rng.choice(len(p), p=p, size=batch)
            x = rng.integers(0, 1 << n, size=batch)
            mu = (rng.random((batch, n)) < epsilon) @ bit_weights
            y = self.tables[self.table_of[ei], x ^ mu]
            count += int(np.sum(blocks[self.v[ei], x] != blocks[self.w[ei], y]))
            done += batch
        return count


def value(u: UGInstance, lam) -> float:
    """Total weight of edges satisfied by the labeling."""
    lam = np.asarray(lam, dtype=np.int64)
    if len(lam) != u.num_vertices:
        raise ValueError("labeling must assign every vertex")
    d = u.edge_distribution
    satisfied = lam[d.v] == d.perms[d.table_of, lam[d.w]]
    # a sequential sum in edge order (an unsatisfied edge adds 0.0, which
    # changes nothing), so every reported value keeps its last digits
    return float(np.cumsum(np.where(satisfied, d.weight, 0.0))[-1])


def opt_exhaustive(u: UGInstance, budget: int = 10**8):
    """Exact optimum by enumerating all N^|V| labelings.

    Labeling number c gives vertex i digit i of c in base N (little-endian);
    the first labeling of the highest value is returned, and each value is
    `value`'s sequential sum in edge order. Labelings are scored in chunks
    of at most 2^20 (labeling, edge) pairs.
    Refuses (with the exact count) when the enumeration exceeds `budget`.
    """
    count = u.num_labels**u.num_vertices
    if count > budget:
        raise BudgetExceededError(count, budget)
    d = u.edge_distribution
    edge_perms = d.perms[d.table_of]
    edge_ids = np.arange(len(d.v))
    place = u.num_labels ** np.arange(u.num_vertices, dtype=np.int64)
    chunk = max(1, (1 << 20) // len(d.v))
    best_val = -1.0
    best = None
    for lo in range(0, count, chunk):
        lams = np.arange(lo, min(lo + chunk, count))[:, None] // place % u.num_labels
        satisfied = lams[:, d.v] == edge_perms[edge_ids, lams[:, d.w]]
        vals = np.cumsum(np.where(satisfied, d.weight, 0.0), axis=1)[:, -1]
        i = int(np.argmax(vals))  # the first maximum, as a strict > scan keeps
        if vals[i] > best_val:
            best_val = float(vals[i])
            best = lams[i].copy()
    return best, best_val


def opt_search(u: UGInstance, seed: int, restarts: int = 10):
    """Greedy single-vertex relabel local search from random starts.

    Returns the best labeling found and its value, a certified lower bound on
    the optimum. Ties break toward the lowest label index; fixed seed gives
    identical output, and the running best is nondecreasing in restarts.

    Vertex v's gain for label a sums, in `incidence` order, the weights of
    its edge ends that a would satisfy: a == pi[lam[w]] on an edge (v, w,
    pi), and lam[w'] == pi[a], that is a == pi^-1[lam[w']], on an edge (w',
    v, pi). Loop ends are left out (no single-vertex relabel can satisfy or
    break a loop unless pi has fixed points, which value() handles directly).
    """
    d = u.edge_distribution
    n = u.num_labels
    maps = np.concatenate([d.perms, np.argsort(d.perms, axis=1)])  # pi rows, then pi^-1
    ends = d.incidence
    keep = ends.other != ends.vertex
    other, rows, wts = ends.other[keep], ends.row[keep], ends.weight[keep]
    bounds = np.searchsorted(ends.vertex[keep], np.arange(u.num_vertices + 1))
    inc = [(other[a:b], rows[a:b], wts[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    best: np.ndarray | None = None
    best_val = -1.0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        lam = rng.integers(0, n, size=u.num_vertices)
        improved = True
        while improved:
            improved = False
            for v, (others, map_rows, weights) in enumerate(inc):
                gains = np.bincount(maps[map_rows, lam[others]], weights=weights, minlength=n)
                new_label = int(np.argmax(gains))  # argmax takes lowest index on ties
                if gains[new_label] > gains[lam[v]] + 1e-15:
                    lam[v] = new_label
                    improved = True
        val = value(u, lam)
        if val > best_val:
            best_val = val
            best = lam.copy()
    return best, best_val


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
            if perm[hidden[w]] == hidden[v]:  # swap landed the same value back
                raise AssertionError("derangement failed")
        perms[idx] = perm
    v, w = np.array(pairs, dtype=np.int64).T
    u = UGInstance(num_vertices, num_labels, v, w, np.full(len(pairs), weight), perms,
                   regularity_tol=1e-6)
    return u, hidden


def label_extended_graph(u: UGInstance):
    """Blow-up on V x [N]: edge (v, w, pi, wt) becomes the N label edges
    {(v, pi(i)), (w, i)} each of weight wt, coincident edges summed in
    (edge, label) order.

    Vertices are flattened as v * N + label. Returns (lo, hi, weight)
    arrays, one entry per distinct label edge lo < hi, sorted by (lo, hi).
    Total weight is N.
    """
    n = u.num_labels
    a = (u.v[:, None] * n + u.perm).ravel()
    b = (u.w[:, None] * n + np.arange(n)).ravel()
    if np.any(a == b):
        raise ValueError("label-extended self-loop (fixed point on a loop edge)")
    size = u.num_vertices * n
    keys, index = np.unique(np.minimum(a, b) * size + np.maximum(a, b), return_inverse=True)
    # bincount adds each key's terms in input order from 0.0, as a dict would
    weight = np.bincount(index.ravel(), weights=np.repeat(u.weight, n))
    return keys // size, keys % size, weight


def labeling_set_expansion_identity(u: UGInstance, lam):
    """Return (val, 1 - Phi(S_lam)) computed by two independent routes.

    val comes from the satisfaction predicate; the expansion side walks the
    label-extended graph: pick a uniform vertex of S_lam = {(v, lam[v])}
    (degrees are regular) and a random incident edge by weight.
    """
    lam = np.asarray(lam, dtype=np.int64)
    val = value(u, lam)
    lo, hi, weight = label_extended_graph(u)
    size = u.num_vertices * u.num_labels
    members = np.arange(u.num_vertices) * u.num_labels + lam
    in_set = np.zeros(size, dtype=bool)
    in_set[members] = True
    ends = np.concatenate([lo, hi])
    inside = np.where(in_set[lo] & in_set[hi], weight, 0.0)
    degree = np.bincount(ends, weights=np.tile(weight, 2), minlength=size)
    stay = np.bincount(ends, weights=np.tile(inside, 2), minlength=size)
    one_minus_phi = float(np.sum(stay[members] / degree[members])) / len(members)
    return val, one_minus_phi


def ug_to_text(u: UGInstance) -> str:
    """Line format: header `UG N |V| |E|`, then one edge per line as
    `v w weight pi(0) ... pi(N-1)` with 17-significant-digit weights."""
    d = u.edge_distribution
    perm_text = [" ".join(map(str, p)) for p in d.perms.tolist()]
    lines = [f"UG {u.num_labels} {u.num_vertices} {u.num_edges}"]
    lines += [f"{v} {w} {weight:.17g} {perm_text[p]}" for v, w, weight, p in
              zip(d.v.tolist(), d.w.tolist(), d.weight.tolist(), d.table_of.tolist())]
    return "\n".join(lines) + "\n"


def ug_from_text(text: str, regularity_tol: float = 1e-9) -> UGInstance:
    """Inverse of `ug_to_text`; an empty file, a bad header (counts
    included: integers with N >= 1, |V| >= 1, |E| >= 0), a missing or extra
    edge line, an edge line with the wrong number of fields or an unparsable
    number, or a permutation that is not one raises ValueError naming the
    first line that holds any of these (the field count and numbers are
    checked before the permutation on a line)."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty UG file")
    no, head = lines[0][0], lines[0][1].split()
    if len(head) != 4 or head[0] != "UG":
        raise ValueError(f"line {no}: expected header `UG N |V| |E|`")
    try:
        n, nv, ne = int(head[1]), int(head[2]), int(head[3])
    except ValueError as exc:
        raise ValueError(f"line {no}: {exc}") from None
    if n < 1 or nv < 1 or ne < 0:
        raise ValueError(f"line {no}: header counts N = {n}, |V| = {nv}, |E| = {ne}: "
                         "need N >= 1, |V| >= 1 and |E| >= 0")
    if len(lines) - 1 != ne:
        at = lines[ne + 1][0] if len(lines) - 1 > ne else lines[-1][0] + 1
        raise ValueError(f"line {at}: expected {ne} edge lines, found {len(lines) - 1}")
    # Python lists until the constructor: an endpoint past int64 stays exact
    v, w, weight = [], [], []
    labels: list = []
    for no, ln in lines[1:]:
        parts = ln.split()
        try:
            if len(parts) != n + 3:
                raise ValueError(f"expected `v w weight` and a permutation of {n} labels")
            edge = (int(parts[0]), int(parts[1]), float(parts[2]))
            perm = list(map(int, parts[3:]))
        except ValueError as exc:
            # a bad permutation on an earlier line is the first error
            _check_permutations(labels, lines[1:len(v) + 1], n)
            raise ValueError(f"line {no}: {exc}") from None
        v.append(edge[0])
        w.append(edge[1])
        weight.append(edge[2])
        labels += perm
    perms = _check_permutations(labels, lines[1:], n)
    return UGInstance(nv, n, v, w, weight, perms, regularity_tol=regularity_tol)


def _check_permutations(labels: list, lines: list, n: int) -> np.ndarray:
    """The labels of the edge `lines`, n per line, as one (lines, n) array;
    ValueError naming the first line whose labels are not a permutation of
    0..n-1."""
    perms = _int_array(labels).reshape(len(lines), n)
    bad = np.flatnonzero(_not_permutations(perms, n))
    if len(bad):
        no, ln = lines[bad[0]]
        raise ValueError(f"line {no}: {' '.join(ln.split()[3:])} is not a permutation of 0..{n - 1}")
    return perms.astype(np.int64, copy=False)
