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

import numpy as np

from .fourier import apply_noise_kernel

__all__ = [
    "UGEdge",
    "UGInstance",
    "EdgeDistribution",
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


class BudgetExceededError(ValueError):
    """Raised when exhaustive enumeration would exceed the labeling budget;
    carries the exact count so the caller can fall back to opt_search."""

    def __init__(self, count: int, budget: int):
        self.count = count
        self.budget = budget
        super().__init__(f"{count} labelings exceed budget {budget}")


@dataclass(frozen=True)
class UGEdge:
    v: int
    w: int
    perm: np.ndarray  # lam[v] = perm[lam[w]] satisfies
    weight: float

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        object.__setattr__(self, "perm", perm)
        perm.setflags(write=False)


@dataclass(frozen=True)
class UGInstance:
    num_vertices: int
    num_labels: int
    edges: tuple
    regularity_tol: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        total = 0.0
        degree = np.zeros(self.num_vertices)
        for e in self.edges:
            if not (0 <= e.v < self.num_vertices and 0 <= e.w < self.num_vertices):
                raise ValueError(f"edge endpoint out of range: {e.v},{e.w}")
            if not 0 <= e.weight < np.inf:
                raise ValueError(
                    f"edge ({e.v},{e.w}) weight {e.weight} is not finite and nonnegative")
            if sorted(e.perm) != list(range(self.num_labels)):
                raise ValueError(f"perm on edge ({e.v},{e.w}) is not a bijection")
            total += e.weight
            degree[e.v] += e.weight
            degree[e.w] += e.weight  # self-loops intentionally count twice
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"edge weights sum to {total}, expected 1")
        if degree.max() - degree.min() > self.regularity_tol:
            raise ValueError(
                f"weighted degree spread {degree.max() - degree.min():.3g} "
                f"exceeds tolerance {self.regularity_tol:.3g}"
            )

    def degree(self) -> float:
        """Common weighted degree (self-loops counted twice)."""
        deg = np.zeros(self.num_vertices)
        for e in self.edges:
            deg[e.v] += e.weight
            deg[e.w] += e.weight
        return float(deg[0])

    def edge_arrays(self):
        """(v, w, perm, weight) of every edge as arrays; perm is (|E|, N)."""
        return (
            np.array([e.v for e in self.edges], dtype=np.int64),
            np.array([e.w for e in self.edges], dtype=np.int64),
            np.stack([e.perm for e in self.edges]),
            np.array([e.weight for e in self.edges]),
        )

    @cached_property
    def edge_distribution(self) -> "EdgeDistribution":
        """The two-query Long Code test's query distribution, built once."""
        v, w, perm, weight = self.edge_arrays()
        perms, table_of = np.unique(perm, axis=0, return_inverse=True)
        z = np.arange(1 << self.num_labels, dtype=np.int64)
        bits = (z >> perms[:, :, None]) & 1  # [p, i, z] = bit perm_p(i) of z
        tables = np.sum(bits << np.arange(self.num_labels)[:, None], axis=1)
        arrays = (v, w, weight, tables, table_of.ravel())
        for a in arrays:
            a.setflags(write=False)
        return EdgeDistribution(self.num_labels, *arrays)


@dataclass(frozen=True)
class EdgeDistribution:
    """The query distribution of the two-query Long Code test on a UG
    instance, which is also the edge distribution of the separator instance
    the test reduces it to: draw an edge e{v, w} by weight, a uniform point
    x and an epsilon-biased flip pattern mu, and query (v, x) and (w, y)
    with y = (x mu) o pi_e, that is bit i of y is bit pi_e(i) of x ^ mu.

    Edges with the same permutation share one reindex table: `tables[p]`
    maps x ^ mu to y and `table_of[e]` names edge e's table, so an instance
    whose permutations are XOR shifts (the quotient instance) holds at most
    N tables. Queried tables are +/-1 arrays with one row per UG vertex.
    """

    num_labels: int
    v: np.ndarray
    w: np.ndarray
    weight: np.ndarray
    tables: np.ndarray  # (distinct permutations, 2^N)
    table_of: np.ndarray  # (|E|,)

    def disagreement(self, blocks, epsilon: float) -> float:
        """Exact probability that the two queries get different values,
        sum_e wt(e) (1 - <A^v, K A^w o pi_e> / 2^N) / 2 for the noise kernel
        K. K commutes with pi_e, so one noise pass over all rows and one
        gather-dot over all edges evaluate every term."""
        blocks = np.asarray(blocks, dtype=np.float64)
        smoothed = apply_noise_kernel(blocks, epsilon, self.num_labels)
        pulled = smoothed[self.w[:, None], self.tables[self.table_of]]
        agree = np.einsum("ex,ex->e", blocks[self.v], pulled)
        # a sequential sum in edge order (np.sum would pair terms up): the
        # last digits of the written gap rows depend on this order
        return float(np.cumsum(self.weight * (1.0 - agree / blocks.shape[1]) / 2.0)[-1])

    def sample_disagreements(self, blocks, samples: int, seed: int,
                             epsilon: float) -> int:
        """How many of `samples` seeded draws of (e, x, mu) query two
        different values; the draws depend only on the seed."""
        rng = np.random.default_rng(seed)
        n = self.num_labels
        p = self.weight / self.weight.sum()
        bit_weights = 1 << np.arange(n, dtype=np.int64)
        count = 0
        done = 0
        while done < samples:
            batch = min(samples - done, 1 << 16)
            ei = rng.choice(len(p), p=p, size=batch)
            x = rng.integers(0, 1 << n, size=batch)
            mu = ((rng.random((batch, n)) < epsilon) * bit_weights).sum(axis=1)
            y = self.tables[self.table_of[ei], x ^ mu]
            count += int(np.sum(blocks[self.v[ei], x] != blocks[self.w[ei], y]))
            done += batch
        return count


def value(u: UGInstance, lam) -> float:
    """Total weight of edges satisfied by the labeling."""
    lam = np.asarray(lam, dtype=np.int64)
    if len(lam) != u.num_vertices:
        raise ValueError("labeling must assign every vertex")
    return float(
        sum(e.weight for e in u.edges if lam[e.v] == e.perm[lam[e.w]])
    )


def opt_exhaustive(u: UGInstance, budget: int = 10**8):
    """Exact optimum by enumerating all N^|V| labelings.

    Refuses (with the exact count) when the enumeration exceeds `budget`.
    """
    count = u.num_labels**u.num_vertices
    if count > budget:
        raise BudgetExceededError(count, budget)
    best_val = -1.0
    best = None
    lam = np.zeros(u.num_vertices, dtype=np.int64)
    for code in range(count):
        c = code
        for i in range(u.num_vertices):
            lam[i] = c % u.num_labels
            c //= u.num_labels
        val = value(u, lam)
        if val > best_val:
            best_val = val
            best = lam.copy()
    return best, best_val


def _incidence(u: UGInstance):
    """Per-vertex list of (other endpoint, weight, target-label map).

    For vertex v on edge (v, w, pi): label a satisfies iff a == pi[lam[w]].
    For vertex w on that edge: label b satisfies iff lam[v] == pi[b].
    Self-loops are omitted (no single-vertex relabel can satisfy or break
    one unless pi has fixed points, which value() handles directly).
    """
    inc = [[] for _ in range(u.num_vertices)]
    for e in u.edges:
        if e.v == e.w:
            continue
        inv = np.argsort(e.perm)
        inc[e.v].append((e.w, e.weight, e.perm, True))
        inc[e.w].append((e.v, e.weight, inv, True))
    return inc


def opt_search(u: UGInstance, seed: int, restarts: int = 10):
    """Greedy single-vertex relabel local search from random starts.

    Returns the best labeling found and its value, a certified lower bound on
    the optimum. Ties break toward the lowest label index; fixed seed gives
    identical output, and the running best is nondecreasing in restarts.
    """
    inc = _incidence(u)
    best: np.ndarray | None = None
    best_val = -1.0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        lam = rng.integers(0, u.num_labels, size=u.num_vertices)
        improved = True
        while improved:
            improved = False
            for v in range(u.num_vertices):
                gains = np.zeros(u.num_labels)
                for other, wt, mapping, _ in inc[v]:
                    gains[mapping[lam[other]]] += wt
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
    edges = []
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
        edges.append(UGEdge(v, w, perm, weight))
    u = UGInstance(num_vertices, num_labels, edges, regularity_tol=1e-6)
    return u, hidden


def label_extended_graph(u: UGInstance):
    """Blow-up on V x [N]: edge (v, w, pi, wt) becomes the N label edges
    {(v, pi(i)), (w, i)} each of weight wt, coincident edges summed.

    Vertices are flattened as v * N + label. Total weight is N.
    """
    n = u.num_labels
    out: dict = {}
    for e in u.edges:
        for i in range(n):
            a = e.v * n + int(e.perm[i])
            b = e.w * n + i
            if a == b:
                raise ValueError("label-extended self-loop (fixed point on a loop edge)")
            key = (min(a, b), max(a, b))
            out[key] = out.get(key, 0.0) + e.weight
    return out


def labeling_set_expansion_identity(u: UGInstance, lam):
    """Return (val, 1 - Phi(S_lam)) computed by two independent routes.

    val comes from the satisfaction predicate; the expansion side walks the
    label-extended graph: pick a uniform vertex of S_lam = {(v, lam[v])}
    (degrees are regular) and a random incident edge by weight.
    """
    lam = np.asarray(lam, dtype=np.int64)
    val = value(u, lam)
    lext = label_extended_graph(u)
    n = u.num_labels
    in_set = set(int(v * n + lam[v]) for v in range(u.num_vertices))
    degree = {}
    stay = {}
    for (a, b), wt in lext.items():
        degree[a] = degree.get(a, 0.0) + wt
        degree[b] = degree.get(b, 0.0) + wt
        if a in in_set and b in in_set:
            stay[a] = stay.get(a, 0.0) + wt
            stay[b] = stay.get(b, 0.0) + wt
    one_minus_phi = sum(
        stay.get(x, 0.0) / degree[x] for x in in_set
    ) / len(in_set)
    return val, one_minus_phi


def ug_to_text(u: UGInstance) -> str:
    """Line format: header `UG N |V| |E|`, then one edge per line as
    `v w weight pi(0) ... pi(N-1)` with 17-significant-digit weights."""
    lines = [f"UG {u.num_labels} {u.num_vertices} {len(u.edges)}"]
    for e in u.edges:
        perm = " ".join(str(int(p)) for p in e.perm)
        lines.append(f"{e.v} {e.w} {e.weight:.17g} {perm}")
    return "\n".join(lines) + "\n"


def ug_from_text(text: str, regularity_tol: float = 1e-9) -> UGInstance:
    """Inverse of `ug_to_text`; an empty file, a bad header, an edge line
    with the wrong number of fields or a permutation that is not one raises
    ValueError naming the line."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("line 1: empty UG file")
    no, head = lines[0][0], lines[0][1].split()
    if len(head) != 4 or head[0] != "UG":
        raise ValueError(f"line {no}: expected header `UG N |V| |E|`")
    n, nv, ne = int(head[1]), int(head[2]), int(head[3])
    if len(lines) - 1 != ne:
        raise ValueError(f"expected {ne} edge lines, found {len(lines) - 1}")
    edges = []
    for no, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n + 3:
            raise ValueError(f"line {no}: expected `v w weight` and a permutation of {n} labels")
        v, w = int(parts[0]), int(parts[1])
        weight = float(parts[2])
        perm = [int(x) for x in parts[3:]]
        if sorted(perm) != list(range(n)):
            raise ValueError(
                f"line {no}: {' '.join(parts[3:])} is not a permutation of 0..{n - 1}")
        edges.append(UGEdge(v, w, np.array(perm), weight))
    return UGInstance(nv, n, edges, regularity_tol=regularity_tol)
