"""General Unique Games instances: evaluation, exact and heuristic
optimization, serialization, and the label-extended graph.

An instance is a weighted constraint graph where each edge carries a bijection
pi on the label set [N]; a labeling lam satisfies the (ordered) edge (v, w)
when lam[v] == pi[lam[w]]. Edge weights sum to 1 and the weighted degree is
the same at every vertex (self-loop weights count twice toward degree).
Labelings are plain integer arrays indexed by vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise
from math import comb
from typing import NamedTuple

import numpy as np

from .fourier import walsh_hadamard

__all__ = [
    "UGInstance",
    "EdgeDistribution",
    "Incidence",
    "Guide",
    "Pulls",
    "RowKeys",
    "distinct_rows",
    "BudgetExceededError",
    "value",
    "opt_exhaustive",
    "opt_search",
    "label_extended_graph",
    "labeling_set_expansion_identity",
    "ug_to_text",
    "ug_from_text",
]


EXACT_LABEL_LIMIT = 8  # the one label cap: 2^N points per vertex (k <= 3 in the gap pipeline)
# `EdgeDistribution.sample_disagreements` draws at most SAMPLE_BATCH queries
# at a time, and their flip uniforms FLIP_ROWS rows at a time (0.25 MB of
# float64 at N = 8); GUIDE_BITS sets the guide table's 2^16 buckets
SAMPLE_BATCH = 1 << 16
FLIP_ROWS = 4096
GUIDE_BITS = 16
# `EdgeDistribution.level_sums` takes the level dots of at most ROW_SLAB
# distinct v-rows at a time (the k = 3 quotient instance's 32 in one)
ROW_SLAB = 32


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
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"edge weights sum to {total}, expected 1")
        # the degrees of the touched vertices only, each summed in edge order
        # (self-loops intentionally count twice); an untouched vertex has
        # degree 0, so no array is sized by num_vertices
        touched, end_of = np.unique(np.stack([v, w], axis=1).ravel(), return_inverse=True)
        degree = np.bincount(end_of, weights=np.repeat(weight, 2))
        lowest = degree.min() if len(touched) == self.num_vertices else 0.0
        if degree.max() - lowest > self.regularity_tol:
            raise ValueError(
                f"weighted degree spread {degree.max() - lowest:.3g} "
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
        from the edge columns, for at most EXACT_LABEL_LIMIT labels."""
        if self.num_labels > EXACT_LABEL_LIMIT:
            raise ValueError(f"{self.num_labels} labels exceed the limit {EXACT_LABEL_LIMIT}")
        n = self.num_labels
        # each row read as a base-N number: numeric order is the rows'
        # lexicographic order, and N^N <= 2^24 for N <= 8, so this is
        # np.unique(perm, axis=0) without its structured-dtype sort
        code = self.perm @ n ** np.arange(n - 1, -1, -1)
        _, first, table_of = np.unique(code, return_index=True, return_inverse=True)
        perms = self.perm[first]
        z = np.arange(1 << n, dtype=np.int64)
        bits = (z >> perms[:, :, None]) & 1  # [p, i, z] = bit perm_p(i) of z
        tables = np.sum(bits << np.arange(n)[:, None], axis=1)
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
    return (np.sort(perms, axis=1) != np.arange(n)).any(axis=1)


class Incidence(NamedTuple):
    """Both ends of every edge, sorted by vertex (`EdgeDistribution.incidence`)."""

    vertex: np.ndarray  # the end's vertex, nondecreasing
    other: np.ndarray  # the edge's other endpoint
    weight: np.ndarray  # the edge's weight
    row: np.ndarray  # map row: p from the v end, P + p from the w end
    bounds: np.ndarray  # vertex u's ends are bounds[u]:bounds[u + 1]


class Guide(NamedTuple):
    """The edge weights' cdf and its guide table of 2^GUIDE_BITS buckets
    (`EdgeDistribution.guide`)."""

    cdf: np.ndarray  # cumulative weights over their sum, as Generator.choice forms them
    # the edge every uniform in bucket j draws, or -1 where the bucket holds
    # a cdf entry: lo[j] = #{cdf <= j / 2^GUIDE_BITS} where it equals
    # hi[j] = #{cdf < (j + 1) / 2^GUIDE_BITS}
    edge: np.ndarray


class Pulls(NamedTuple):
    """The distinct (other endpoint, table) pairs of the edges
    (`EdgeDistribution.pulls`)."""

    other: np.ndarray  # the pair's endpoint w
    table: np.ndarray  # the pair's reindex table p
    pair: np.ndarray  # per edge, the index of its (w[e], table_of[e]) pair


class Levels(NamedTuple):
    """The subsets S in order of size |S|, and the reindex tables in that
    order (`EdgeDistribution.levels`)."""

    order: np.ndarray  # the subset bitmasks, stably sorted by size
    bounds: list  # the sets of size s sit at positions bounds[s]:bounds[s + 1]
    # per table, the position each position reads: a coordinate permutation
    # keeps |S|, so position i reads a position of i's level
    tables: np.ndarray


class Slab(NamedTuple):
    """At most ROW_SLAB consecutive v-rows of a `RowKeys` and the pulls
    their keys read, the unit of `EdgeDistribution.level_sums`."""

    v_row: np.ndarray  # the slab's v-rows
    keys: slice  # the slab's keys
    gather: np.ndarray  # per pull read, the flat index of its level-sorted pulled spectrum
    cell: np.ndarray  # per key, its v-row's place in the slab times the pulls read, plus its pull's


class RowKeys(NamedTuple):
    """The distinct keys of the edges when each vertex reads one of a few
    distinct rows (`EdgeDistribution.row_keys`)."""

    key_pull: np.ndarray  # per key, its pull; the keys run sorted by their v-row
    key_of: np.ndarray  # per edge, its key
    slabs: tuple  # the `Slab`s of the distinct v-rows, increasing, in order


def distinct_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array, in order of first appearance, and
    each row's index among them. Rows are equal when their bytes are (a
    float -0.0 and 0.0 stay apart), so no two unequal rows ever merge."""
    flat = values.tobytes()
    width = len(flat) // len(values)
    index: dict = {}
    row_of = np.array([index.setdefault(flat[i:i + width], len(index))
                       for i in range(0, len(flat), width)])
    return np.frombuffer(b"".join(index), dtype=values.dtype).reshape(len(index), -1), row_of


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
    # `row_keys`' plans, by the int64 bytes of their row map
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    @cached_property
    def pulls(self) -> Pulls:
        """The distinct (w, p) pairs of an edge's other endpoint w and its
        table p, sorted, and each edge's pair (254 pairs for 2576 edges at
        k = 3), which `row_keys` merges and the sampler reads. Built once."""
        keys, pair = np.unique(self.w * len(self.tables) + self.table_of, return_inverse=True)
        pulls = Pulls(*np.divmod(keys, len(self.tables)), pair)
        for a in pulls:
            a.setflags(write=False)
        return pulls

    @cached_property
    def guide(self) -> Guide:
        """The cdf that `Generator.choice` searches for an edge draw, and a
        guide table over it (Chen and Asau 1974): a uniform u in bucket
        j = floor(u 2^GUIDE_BITS) finds between lo[j] and hi[j] cdf entries
        at or below it, so the bucket alone names its edge wherever the two
        agree, and `edge[j]` is that edge, or -1. Built once and read-only.
        With b_i the ceiling (for lo) or the floor (for hi) of
        cdf[i] 2^GUIDE_BITS, the bound is #{i : b_i <= j}; b is
        nondecreasing, as the cdf is, so that count is i for j in
        [b_(i-1), b_i), which one `np.repeat` writes."""
        p = self.weight / self.weight.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        buckets = 1 << GUIDE_BITS
        scaled = cdf * buckets  # exact: a power-of-two scale
        index = np.arange(len(cdf) + 1)
        lo, hi = (np.repeat(index, np.diff(f(scaled).astype(np.intp), prepend=0, append=buckets))
                  for f in (np.ceil, np.floor))
        guide = Guide(cdf, np.where(lo == hi, lo, -1))
        for a in guide:
            a.setflags(write=False)
        return guide

    @cached_property
    def levels(self) -> Levels:
        """The subsets sorted by size and the reindex tables in that order:
        position i of a level-sorted pulled row reads position tables[p][i]
        of the level-sorted row. Built once and read-only."""
        n = self.num_labels
        order = np.argsort(np.bitwise_count(np.arange(1 << n)), kind="stable")
        tables = np.argsort(order)[self.tables[:, order]]
        for a in (order, tables):
            a.setflags(write=False)
        return Levels(order, np.cumsum([0] + [comb(n, s) for s in range(n + 1)]).tolist(), tables)

    def row_keys(self, row_of) -> RowKeys:
        """The edges' keys when vertex u reads distinct row row_of[u] of
        2^N values: an edge (v, w) with table p reads v's row and the pulled
        row (row of w)[tables[p]], so its term depends only on its key
        (row of v, pull), with pull = (row of w, p). The pulls are found from
        the distinct (w, p) pairs (`pulls`), the keys from the edges.

        Each slab of ROW_SLAB v-rows finds the pulls its keys read, from
        those keys alone, the flat index of each one's level-sorted pulled
        row among the level-sorted rows (`levels`), and each key's cell
        among the slab's (v-row, pull read) pairs, so the plans' work and
        memory are linear in the keys.

        A map's plan is built on first use and kept, read-only, in `plans`;
        `level_sums` numbers rows by first appearance (`distinct_rows`), so
        its maps are arange(|V|) for distinct rows, zeros for one row, and at
        most Bell(|V|) in all (15 at k = 2; 2 or 3 per k = 3 `build-bes` row)."""
        row_of = np.asarray(row_of, dtype=np.int64)
        map_bytes = row_of.tobytes()
        if map_bytes in self.plans:
            return self.plans[map_bytes]
        n_tables = len(self.tables)
        pairs = self.pulls
        pulls, pull_of = np.unique(row_of[pairs.other] * n_tables + pairs.table,
                                   return_inverse=True)
        keys, key_of = np.unique(row_of[self.v] * len(pulls) + pull_of[pairs.pair],
                                 return_inverse=True)
        key_row, key_pull = np.divmod(keys, len(pulls))
        v_row, first, rank = np.unique(key_row, return_index=True, return_inverse=True)
        bounds = np.append(first, len(keys))
        w_row, table = np.divmod(pulls, n_tables)
        slabs = []
        for lo in range(0, len(v_row), ROW_SLAB):
            hi = min(lo + ROW_SLAB, len(v_row))
            slab_keys = slice(int(bounds[lo]), int(bounds[hi]))
            read, column = np.unique(key_pull[slab_keys], return_inverse=True)
            gather = self.levels.tables[table[read]]
            gather += (w_row[read] << self.num_labels)[:, None]
            cell = (rank[slab_keys] - lo) * len(read) + column
            slabs.append(Slab(v_row[lo:hi], slab_keys, gather, cell))
        for a in [key_pull, key_of, *(a for s in slabs for a in (s.v_row, s.gather, s.cell))]:
            a.setflags(write=False)
        plan = self.plans[map_bytes] = RowKeys(key_pull, key_of, tuple(slabs))
        return plan

    @cached_property
    def weight_classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct edge weights, the edges stably sorted by weight and
        where each weight's edges start in that order. Built once and
        read-only."""
        by_weight = np.argsort(self.weight, kind="stable")
        weights, starts = np.unique(self.weight[by_weight], return_index=True)
        classes = weights, by_weight, starts
        for a in classes:
            a.setflags(write=False)
        return classes

    def level_sums(self, tables) -> np.ndarray:
        """G[j, s]: Â^v(S) B̂_e(S) summed over the edges e of weight class j
        and the sets S of size s, with Â^v the unnormalized spectrum of v's
        +/-1 table and B̂_e = Â^w read through e's reindex table. The
        distinct rows' spectra are taken once and sorted by level
        (`levels`). Each slab of v-rows (`row_keys`) then takes the level
        dots of its (v-row, pull read) pairs by one matrix product per
        level, each key reads its cell, and each class adds its edges'
        keys', so the work is linear in |E| however many weights differ.
        Parseval bounds each edge's sum of |Â^v(S) B̂_e(S)| by 4^N, so every
        operand and partial sum is an integer below |E| 4^N (2^28 at
        k = 3): exact in float64 and BLAS, in any order and under any
        thread count."""
        rows, row_of = distinct_rows(np.asarray(tables))
        keys = self.row_keys(row_of)
        if not np.all(np.abs(rows) == 1):
            raise ValueError("table entries must be +/-1")
        levels = self.levels
        # indexing, not `take`: `take` copies an index array that is
        # read-only, as the level order and the plans are
        spectra = walsh_hadamard(rows)[:, levels.order]
        per_key = np.empty((len(keys.key_pull), self.num_labels + 1))
        for slab in keys.slabs:
            pulled = spectra.ravel()[slab.gather]
            own = spectra[slab.v_row]
            for s, (lo, hi) in enumerate(pairwise(levels.bounds)):
                per_key[slab.keys, s] = (own[:, lo:hi] @ pulled[:, lo:hi].T).ravel()[slab.cell]
        _, by_weight, starts = self.weight_classes
        return np.add.reduceat(per_key.take(keys.key_of[by_weight], axis=0), starts)

    def probabilities(self, tables, epsilon: float) -> tuple[float, float]:
        """The two-query test on +/-1 tables, one row per vertex: the
        probability sum_e wt(e) (1 - c_e) / 2 that its queries disagree and
        the acceptance 1/2 + 1/2 sum_e wt(e) c_e, with c_e = sum_S rho^|S|
        Â^v(S) B̂_e(S) / 4^N and rho = 1 - 2 epsilon (noise stability). With
        epsilon and the weights read as exact binary fractions, both sums are
        integers over one power of two, so each is rounded once, correctly."""
        n = self.num_labels
        weights, _, starts = self.weight_classes
        edges = np.diff(starts, append=len(self.weight))
        ratios = [w.as_integer_ratio() for w in weights.tolist()]  # (c, 2^p)
        top = max(den.bit_length() for _, den in ratios)
        c = [num << top - den.bit_length() for num, den in ratios]  # weights c / 2^(top - 1)
        m, den = float(epsilon).as_integer_ratio()  # rho = (den - 2 m) / den, den = 2^q
        q = den.bit_length() - 1
        factors = [(den - 2 * m)**s << q * (n - s) for s in range(n + 1)]
        correlation = sum(cj * sum(f * g for f, g in zip(factors, row))
                          for cj, row in zip(c, self.level_sums(tables).astype(np.int64).tolist()))
        total = sum(cj * nj for cj, nj in zip(c, edges.tolist())) << q * n + 2 * n
        whole = 1 << top + q * n + 2 * n  # twice the denominator of both sums
        return (total - correlation) / whole, (whole // 2 + correlation) / whole

    def sample_disagreements(self, blocks, samples: int, seed: int,
                             epsilon: float) -> int:
        """How many of `samples` seeded draws of (e, x, mu) query two
        different values; the draws depend only on the seed.

        Each batch of SAMPLE_BATCH draws reads the generator as
        `choice(len(p), p=p, size=batch)` for the edges, `integers` for x
        and `random((batch, N)) < epsilon` for mu would, in that order, so
        the counts are the ones those calls give. choice draws a uniform u
        per edge and takes `cdf.searchsorted(u, side="right")`, the number
        of cdf entries at or below u. Here u's bucket j = floor(u 2^16)
        (exact: a power-of-two scale) names that edge in `guide.edge[j]`
        unless the bucket holds a cdf entry; only those draws are searched
        (about 4% at k = 3). The flip uniforms come FLIP_ROWS rows at a time
        into one reused buffer, in the same order, and each row's N flips
        are packed into mu by one multiply (`_pack_rows`). The first query reads
        `blocks` at (v, x); the second reads the row blocks[w][tables[p]] of
        the edge's (w, p) pair (`pulls`) at x ^ mu, the pairs' rows gathered
        once per call. Both gathers read flat indices, so `blocks` must hold
        one row of 2^N values per UG vertex.
        """
        n = self.num_labels
        blocks = np.asarray(blocks)
        if samples < 1:
            raise ValueError(f"need at least one sample, got {samples}")
        if blocks.shape != (self.num_vertices, 1 << n):
            raise ValueError(f"tables of shape {blocks.shape}: need one row of 2^{n} "
                             f"values for each of {self.num_vertices} vertices")
        rng = np.random.default_rng(seed)
        values = blocks.ravel()
        pulls = self.pulls
        pulled = values.take(self.tables[pulls.table] + (pulls.other << n)[:, None]).ravel()
        first = self.v.astype(np.intp) << n  # each query's row, as a flat offset
        second = pulls.pair.astype(np.intp) << n
        flips = np.empty((min(samples, FLIP_ROWS), n))
        # room for the bytes `_pack_rows` reads past the last row
        hits = np.zeros(flips.size + (1 << (n - 1).bit_length()) - n, dtype=bool)
        mu = np.empty(min(samples, SAMPLE_BATCH), dtype=np.uint8)
        count = 0
        done = 0
        while done < samples:
            batch = min(samples - done, SAMPLE_BATCH)
            ei = self._draw_edges(rng, batch)
            x = rng.integers(0, 1 << n, size=batch)
            for lo in range(0, batch, FLIP_ROWS):
                rows = flips[:min(batch - lo, FLIP_ROWS)]
                rng.random(out=rows)
                np.less(rows.ravel(), epsilon, out=hits[:rows.size])
                _pack_rows(hits, n, mu[lo:lo + len(rows)])
            queried = values[first[ei] | x]
            x ^= mu[:batch]
            count += int(np.count_nonzero(queried != pulled[second[ei] | x]))
            done += batch
        return count

    def _draw_edges(self, rng, batch: int) -> np.ndarray:
        """`batch` edges drawn as `rng.choice(len(p), p=p, size=batch)`
        draws them: the same uniforms, the same edges (`guide`)."""
        guide = self.guide
        u = rng.random(batch)
        ei = guide.edge[(u * (1 << GUIDE_BITS)).astype(np.intp)]
        miss = (ei < 0).nonzero()[0]
        ei[miss] = guide.cdf.searchsorted(u[miss], side="right")
        return ei


def _pack_rows(bits: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """out[i] = sum_j bits[i N + j] 2^j for j < N: the N-bit rows of a
    flat 0/1 bool array, packed. Row i is read as the little-endian word of
    the W bytes from byte i N on, W the least power of two >= N (so `bits`
    holds W - N bytes past the last row, the next row's or spare). Times
    sum_j 2^(8(W - 1) - 7j), byte j lands at bit 8(W - 1) + j; every other
    term is a distinct power of two below 2^(8(W - 1)) or wraps past 8W
    bits, so nothing carries into the top byte, which masked to N bits is
    the row. `np.packbits(rows, axis=-1, bitorder="little")` gives the same
    bytes, but at 4096 rows of N = 1..8 takes 80-175 us against 10-21 us
    here and 30-60 us for a uint8 matmul (numpy 2.4, one core of a 2-core
    x86-64 machine)."""
    width = 1 << (n - 1).bit_length()
    words = np.ndarray(len(out), dtype=f"<u{width}", buffer=bits, strides=(n,))
    magic = words.dtype.type(sum(1 << 8 * (width - 1) - 7 * j for j in range(width)))
    np.right_shift(words * magic, 8 * (width - 1), out=out, casting="unsafe")
    return np.bitwise_and(out, (1 << n) - 1, out=out)


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
    edge_ids = np.arange(u.num_edges)
    place = u.num_labels ** np.arange(u.num_vertices, dtype=np.int64)
    chunk = max(1, (1 << 20) // u.num_edges)
    best_val = -1.0
    best = None
    for lo in range(0, count, chunk):
        lams = np.arange(lo, min(lo + chunk, count))[:, None] // place % u.num_labels
        satisfied = lams[:, u.v] == u.perm[edge_ids, lams[:, u.w]]
        vals = np.cumsum(np.where(satisfied, u.weight, 0.0), axis=1)[:, -1]
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

    Restart r starts from `default_rng([seed, r])`, and the restarts run in
    lockstep, one column each of a (|V|, restarts) array: at each vertex
    one `bincount` over the (end, restart) pairs, in that order, takes every
    restart's gains, each bin adding its restart's ends in incidence order,
    as a search alone would. A restart leaves the lockstep after its first
    pass without a move, at which its labeling is a fixed point.
    """
    d = u.edge_distribution
    n = u.num_labels
    # pi rows, then pi^-1 rows, flat: map row r sends label i to maps[r * n + i]
    maps = np.concatenate([d.perms, np.argsort(d.perms, axis=1)]).ravel()
    ends = d.incidence
    keep = ends.other != ends.vertex
    other, starts, wts = ends.other[keep], ends.row[keep] * n, ends.weight[keep]
    bounds = np.searchsorted(ends.vertex[keep], np.arange(u.num_vertices + 1))
    inc = [(other[a:b], starts[a:b, None], wts[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    lams = np.empty((u.num_vertices, restarts), dtype=np.int64)
    for r in range(restarts):
        lams[:, r] = np.random.default_rng([seed, r]).integers(0, n, size=u.num_vertices)
    active = np.arange(restarts)
    while len(active):
        lam = lams[:, active]
        offsets = np.arange(len(active)) * n  # restart i's gains are bins i n .. i n + n - 1
        moved = np.zeros(len(active), dtype=bool)
        for v, (others, map_starts, weights) in enumerate(inc):
            bins = maps.take(map_starts + lam.take(others, axis=0))
            bins += offsets
            gains = np.bincount(bins.ravel(), np.repeat(weights, len(active)), n * len(active))
            new = gains.reshape(-1, n).argmax(axis=1)  # argmax takes lowest index on ties
            better = gains[offsets + new] > gains[offsets + lam[v]] + 1e-15
            np.copyto(lam[v], new, where=better)
            moved |= better
        lams[:, active] = lam
        active = active[moved]
    best: np.ndarray | None = None
    best_val = -1.0
    for r in range(restarts):
        val = value(u, lams[:, r])
        if val > best_val:
            best_val = val
            best = lams[:, r].copy()
    return best, best_val


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


def labeling_set_expansion_identity(u: UGInstance, lam, graph):
    """Return (val, 1 - Phi(S_lam)) computed by two independent routes.

    val comes from the satisfaction predicate; the expansion side walks the
    label-extended graph `graph` = `label_extended_graph(u)`, which every
    labeling of the instance shares: pick a uniform vertex of S_lam =
    {(v, lam[v])} (degrees are regular) and a random incident edge by
    weight.
    """
    lam = np.asarray(lam, dtype=np.int64)
    val = value(u, lam)
    lo, hi, weight = graph
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
    # each distinct weight is formatted once (by its bits: -0.0 keeps its sign)
    _, first, weight_of = np.unique(d.weight.view(np.int64), return_index=True, return_inverse=True)
    weight_text = [f"{w:.17g}" for w in d.weight[first].tolist()]
    lines = [f"UG {u.num_labels} {u.num_vertices} {u.num_edges}"]
    lines += [f"{v} {w} {weight_text[i]} {perm_text[p]}" for v, w, i, p in
              zip(d.v.tolist(), d.w.tolist(), weight_of.tolist(), d.table_of.tolist())]
    return "\n".join(lines) + "\n"


def ug_from_text(text: str) -> UGInstance:
    """Inverse of `ug_to_text`; an empty file, a bad header (integer counts
    with 1 <= N <= EXACT_LABEL_LIMIT, |V| >= 1, |E| >= 0), a missing or
    extra edge line, an edge line with the wrong number of fields or an
    unparsable number, or a permutation that is not one raises ValueError
    naming the first line that holds any of these (the field count and
    numbers are checked before the permutation on a line)."""
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
    if n > EXACT_LABEL_LIMIT:
        raise ValueError(f"line {no}: {n} labels exceed the limit {EXACT_LABEL_LIMIT}")
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
    return UGInstance(nv, n, v, w, weight, perms)


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
