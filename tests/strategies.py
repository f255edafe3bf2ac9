"""Hypothesis strategies for the property tests that compare production
kernels with their oracles in `tests/oracles.py`.

- `lps`: small dense programs min c.x, A x <= b, x >= 0 with a working set
  to start from, the inputs of `cutgap.simplex.solve_lp`.
- `ug_instances`, `sign_tables`, `CUT_EPSILONS` and `TEST_EPSILONS`: small
  UG instances with general permutations, +/-1 tables over them and the
  noise rates of a separator and of the two-query test, the inputs of
  `cutgap.unique_games.EdgeDistribution.probabilities`.
- `search_instances`: UG instances of a given label count for the relabel
  search of `cutgap.unique_games.opt_search`, with tied weights and an
  isolated vertex as often as not.
- `slab_inputs`: UG instances of 3 or 4 labels whose v ends read more
  distinct +/-1 rows than one slab of `EdgeDistribution.level_sums` holds
  as often as not, with those tables.
- `quotient_instances`: the quotiented noisy-hypercube gap instances at
  k <= 2, with eta and the window drawn, the inputs of the separator SDP
  of `cutgap.separator`.
- `correlation_rows`, `int8_tables` and `repeated_rows`: table rows whose
  Grams C . row the separator's triangle certificate sweeps, square int8
  tables for the UG triangle sweep, and 2-D arrays with repeated rows for
  `cutgap.unique_games.distinct_rows`.
- `demand_graphs`: GRAPH (weights, demands) pairs of up to 256 vertices
  with dyadic, tied values, zero-demand vertices, diagonal pairs and a
  vertex that a sparse cut isolates, the inputs of
  `cutgap.metrics.local_search_sparsest_cut`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cutgap.quotient import build_kv_instance
from cutgap.unique_games import UGInstance

# small integers, or quarters: every entry, and most sums of their
# products, is exact in float64, so ties in the ratio test and zero-level
# rows are real. Every array's elements come from a tuple (sampled_from fills
# arrays several times faster than integers()).
INTEGERS = (0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0)
QUARTERS = INTEGERS + tuple(k / 4 for k in range(-12, 13) if k % 4)
# edge weights before they are scaled to sum to 1: zero, dyadic, and values
# up to 2^1074 apart, down to the least subnormal
RAW_WEIGHTS = (0.0, 1.0, 0.5, 0.25, 3.0, 1 / 3, 0.1, 7e-12, 1e-300, 5e-324)
# a separator's epsilon lies in (0, 1/2); the test's in [0, 1]
CUT_EPSILONS = (st.sampled_from((0.1, 0.3, 0.45, 2.0**-30, 0.5 - 2.0**-40))
                | st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
TEST_EPSILONS = st.sampled_from((0.0, 0.5, 1.0, 0.77)) | st.floats(0.0, 1.0)
# values of float rows: both zeros, which compare equal, and near-ties
ROW_FLOATS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-30, 1.0 + 2.0**-52, 3.0, -1e300)
# GRAPH weights and demands: dyadic values, so many trial cuts tie, and
# a few that are not, so the running sums round
DYADIC_PAIRS = (0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0)
ROUNDING_PAIRS = DYADIC_PAIRS + (0.1, 1 / 3, 0.7)


@st.composite
def lps(draw, max_rows: int = 10, max_cols: int = 16):
    """(c, A, b, start) with 1..max_rows rows and 1..max_cols columns, the
    entries of A small integers or quarters.

    Half of the programs are feasible by construction (b = A x0 + s for
    small x0, s >= 0) and half take b as drawn; either way b mixes signs and
    zeros, so phase 1 runs on the negative rows. Some rows are copies of
    others, rhs included (redundant rows, artificials at zero level), and
    some programs get a positive row that bounds every variable. `start` is
    None (every column) or a subset of the columns in any order.
    """
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    entries = st.sampled_from(draw(st.sampled_from((INTEGERS, QUARTERS))))
    A = draw(arrays(np.float64, (m, n), elements=entries))
    if draw(st.booleans()):
        x0 = draw(arrays(np.float64, n, elements=st.sampled_from((0.0, 1.0, 2.0))))
        s = draw(arrays(np.float64, m, elements=st.sampled_from((0.0, 1.0))))
        b = A @ x0 + s
    else:
        b = draw(arrays(np.float64, m, elements=entries))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                  max_size=m)):
        A[dst], b[dst] = A[src], b[src]
    if draw(st.booleans()):
        row = draw(st.integers(0, m - 1))
        A[row] = draw(arrays(np.float64, n, elements=st.sampled_from((1.0, 2.0, 3.0))))
        b[row] = draw(st.integers(0, 4))
    c = draw(arrays(np.float64, n, elements=st.sampled_from(INTEGERS)))
    start = draw(st.none() | st.lists(st.integers(0, n - 1), unique=True))
    return c, A, b, start


@st.composite
def ug_instances(draw, max_labels: int = 4, max_vertices: int = 5, max_edges: int = 8,
                 min_labels: int = 1):
    """UG instances of min_labels..max_labels labels on 1..max_vertices
    vertices: endpoints drawn freely (loops and isolated vertices
    included), a drawn permutation per edge, and weights drawn from
    RAW_WEIGHTS, one of them nonzero, over their sum. No degree regularity
    is asked for."""
    n = draw(st.integers(min_labels, max_labels))
    m = draw(st.integers(1, max_vertices))
    e = draw(st.integers(1, max_edges))
    ends = st.lists(st.integers(0, m - 1), min_size=e, max_size=e)
    v, w = draw(ends), draw(ends)
    perm = draw(st.lists(st.permutations(range(n)), min_size=e, max_size=e))
    raw = np.array(draw(st.lists(st.sampled_from(RAW_WEIGHTS), min_size=e, max_size=e)))
    raw[draw(st.integers(0, e - 1))] = draw(st.sampled_from(RAW_WEIGHTS[1:]))
    return UGInstance(m, n, v, w, raw / raw.sum(), perm, regularity_tol=np.inf)


@st.composite
def search_instances(draw, num_labels: int):
    """`ug_instances` of num_labels labels on 1..8 vertices with up to 16
    edges, loops included; half of them with every weight equal, so that
    gains tie, and as often as not with one more vertex that no edge
    touches."""
    u = draw(ug_instances(num_labels, max_vertices=8, max_edges=16, min_labels=num_labels))
    weight = np.full(u.num_edges, 1 / u.num_edges) if draw(st.booleans()) else u.weight
    return UGInstance(u.num_vertices + draw(st.integers(0, 1)), u.num_labels, u.v, u.w, weight,
                      u.perm, regularity_tol=np.inf)


@st.composite
def sign_tables(draw, num_vertices: int, num_labels: int):
    """+/-1 tables of 2^N entries, one per vertex, each a copy of one of
    1..num_vertices drawn rows, so rows repeat as often as not."""
    rows = draw(arrays(np.int8, (draw(st.integers(1, num_vertices)), 1 << num_labels),
                       elements=st.sampled_from((-1, 1))))
    row_of = draw(st.lists(st.integers(0, len(rows) - 1), min_size=num_vertices,
                           max_size=num_vertices))
    return rows[row_of]


@st.composite
def slab_inputs(draw, slab: int):
    """(instance, tables): N in {3, 4} labels (so more than `slab` distinct
    rows exist) on slab + 1 to 3 slab vertices, each the v end of one edge,
    plus up to 2 |V| edges drawn freely; a few loops forced among them,
    each edge's permutation one of 1..6 drawn ones and its weight one of
    1..3 drawn nonzero classes. The tables copy 1..|V| distinct rows, each
    read by some vertex, more than `slab` of them as often as not."""
    n = draw(st.sampled_from((3, 4)))
    m = draw(st.integers(slab + 1, 3 * slab))
    e = m + draw(st.integers(0, 2 * m))
    v = np.concatenate([np.arange(m), draw(arrays(np.int64, e - m, elements=st.integers(0, m - 1)))])
    w = draw(arrays(np.int64, e, elements=st.integers(0, m - 1)))
    loops = draw(st.lists(st.integers(0, e - 1), max_size=4))
    w[loops] = v[loops]
    perms = np.array(draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6)))
    perm = perms[draw(arrays(np.int64, e, elements=st.integers(0, len(perms) - 1)))]
    classes = np.array(draw(st.lists(st.sampled_from(RAW_WEIGHTS[1:]), min_size=1, max_size=3)))
    raw = classes[draw(arrays(np.int64, e, elements=st.integers(0, len(classes) - 1)))]
    u = UGInstance(m, n, v, w, raw / raw.sum(), perm, regularity_tol=np.inf)
    count = draw(st.integers(slab + 1, m) | st.integers(1, m))
    codes = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=count, max_size=count,
                          unique=True))
    rows = (1 - 2 * ((np.array(codes)[:, None] >> np.arange(1 << n)) & 1)).astype(np.int8)
    row_of = np.concatenate([np.arange(count),
                             draw(arrays(np.int64, m - count, elements=st.integers(0, count - 1)))])
    return u, rows[row_of[draw(st.permutations(range(m)))]]


@st.composite
def quotient_instances(draw, max_k: int = 2):
    """(k, eta, window, (instance, quotient)) from `build_kv_instance`: k in
    1..max_k, the window typical or none, eta in (0, 1/2), from 1/(2N) on
    for the typical window, which is empty below (an eta whose window is
    empty all the same is rejected)."""
    k = draw(st.integers(1, max_k))
    window = draw(st.sampled_from(("typical", "none")))
    low = 1 / (2 << k) if window == "typical" else 0.0
    eta = draw(st.sampled_from((0.3, 0.45)) | st.floats(low, 0.5, exclude_min=low == 0.0,
                                                         exclude_max=True))
    try:
        u, quot, _ = build_kv_instance(k, eta, window=window)
    except ValueError:
        assume(False)
    return k, eta, window, (u, quot)


@st.composite
def correlation_rows(draw):
    """(N, rows): N in {1, 2, 4, 8} and three integer rows of N entries in
    [-9, 9], the second a copy of the first as often as not."""
    n = draw(st.sampled_from((1, 2, 4, 8)))
    rows = draw(arrays(np.int64, (3, n), elements=st.sampled_from(tuple(range(-9, 10)))))
    if draw(st.booleans()):
        rows[1] = rows[0]
    return n, rows


@st.composite
def int8_tables(draw, max_size: int = 24):
    """Square int8 tables of 1..max_size rows with entries in [-42, 42],
    so three of them sum within int8; symmetric as often as not."""
    size = draw(st.integers(1, max_size))
    table = draw(arrays(np.int8, (size, size), elements=st.sampled_from(tuple(range(-42, 43)))))
    if draw(st.booleans()):
        table = np.triu(table) + np.triu(table, 1).T
    return table


@st.composite
def repeated_rows(draw, values, max_rows: int = 12, max_cols: int = 5):
    """2-D arrays of 1..max_cols columns whose rows, as many as 3 *
    max_rows, are copies of 1..max_rows rows drawn from `values`. In float
    arrays some copies have the sign of each zero flipped, so rows that
    compare equal differ in their bytes."""
    dtype = np.asarray(values).dtype
    rows = draw(arrays(dtype, (draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))),
                       elements=st.sampled_from(values)))
    row_of = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3 * max_rows))
    out = rows[row_of]
    if dtype.kind == "f":
        flip = draw(st.lists(st.integers(0, len(out) - 1), unique=True))
        out[flip] = np.where(out[flip] == 0, -out[flip], out[flip])
    return out


@st.composite
def demand_graphs(draw, max_vertices: int = 256):
    """(weights, demands): symmetric n x n matrices, n in 1..max_vertices
    (at most 12 as often as not), as the GRAPH reader returns them. Their
    pairs are filled from a drawn seed: weights at a drawn density, demands
    dense or in blocks of 16, both from DYADIC_PAIRS or ROUNDING_PAIRS. As
    often as not some vertices have no demand, the demands are all zero, the
    diagonal holds pairs (`i i w d` lines), or vertex 0 is joined to the rest
    by one light edge and demands, so that a sparse cut has it alone on one
    side."""
    n = draw(st.integers(1, 12) | st.integers(13, max_vertices))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from((DYADIC_PAIRS, ROUNDING_PAIRS)))
    density = draw(st.sampled_from((0.05, 0.3, 1.0)))
    weights = rng.choice(values, (n, n)) * (rng.random((n, n)) < density)
    demands = rng.choice(values, (n, n))
    if draw(st.booleans()):
        blocks = np.arange(n) // 16
        demands *= blocks[:, None] == blocks
    if draw(st.booleans()):
        idle = rng.random(n) < 0.3
        demands[idle] = demands[:, idle] = 0.0
    if draw(st.booleans()):
        demands[:] = 0.0
    weights, demands = (np.triu(m, 1) + np.triu(m, 1).T for m in (weights, demands))
    if draw(st.booleans()):
        loops = rng.random(n) < 0.5
        weights[loops, loops] = rng.choice(values, int(loops.sum()))
        demands[loops, loops] = rng.choice(values, int(loops.sum()))
    if n > 1 and draw(st.booleans()):
        weights[0, 1:] = weights[1:, 0] = 0.0
        weights[0, 1] = weights[1, 0] = 0.25
        demands[0, 1:] = demands[1:, 0] = 1.0
    return weights, demands
