"""Hypothesis strategies for the property tests that compare production
kernels with their oracles in `tests/oracles.py`.

- `lps`: small dense programs min c.x, A x <= b, x >= 0 with a working set
  to start from, the inputs of `cutgap.simplex.solve_lp`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

# small integers, or quarters: every entry, and most sums of their
# products, is exact in float64, so ties in the ratio test and zero-level
# rows are real. Every array's elements come from a tuple (sampled_from fills
# arrays several times faster than integers()).
INTEGERS = (0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0)
QUARTERS = INTEGERS + tuple(k / 4 for k in range(-12, 13) if k % 4)


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
