"""Dense two-phase primal simplex with column generation, for small LPs.

Solves  minimize c.x  subject to  A x <= b,  x >= 0  on a dense tableau
(most-negative reduced cost enters, Bland's rule as the anti-cycling
fallback). Meant for the cut-cone distortion programs: a few hundred rows
and a few thousand columns at most. Its speed comes from less work around
the same float operations: the tests' full-tableau simplex pins every float.

The tableau holds only a working set of the columns of A, besides the
slacks and the artificials. Whenever the restricted program is optimal, in
either phase, every column of A is priced in one product with the
objective row's slack block (the tableau's slack block is B^-1 up to row
signs, so that row holds the duals), and at most PRICE_BATCH columns of
most negative reduced cost are appended to the tableau and pivoting
resumes from the same basis (Gilmore-Gomory column generation). The solve
stops when no column prices below -PRICE_TOL. A start holding every column
solves the program without pricing.

The tableau is kept in dictionary form: only its non-basic columns and
the rhs are stored, each basic column being implicitly the unit column of
its row (on the 12-point distortion LP, 108 of the 240 columns a full
tableau would hold, on average over the pivots). Every pivot is the plain
dense rank-1 update of those columns, formed in work arrays the tableau
keeps (`_Tableau.pivot`), and its decisions are exactly those of the full
tableau's update: each stored float equals the full tableau's
(see `_Tableau`), every tie is broken by the full tableau's column order,
and phase 2 leaves out the artificial columns, which have all left the
basis, are zero and never enter.

The result carries the optimal basis's dual vector and reduced costs over
every column of A, so callers can certify optimality of the full program
through complementary slackness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "solve_lp"]

PIVOT_TOL = 1e-9
PRICE_TOL = 1e-10
PRICE_BATCH = 8
MAX_ITER = 500_000  # pivots each phase of a solve may take


@dataclass
class SimplexResult:
    status: str  # optimal | infeasible | unbounded | stalled
    x: np.ndarray | None = None
    objective: float | None = None
    dual: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    iterations: int = 0
    basis: np.ndarray | None = None
    working_columns: int = 0  # columns of A the final tableau held

    def certificate_residuals(self, c, A, b):
        """Max primal/dual feasibility and complementary slackness residuals.

        Conventions: dual y satisfies reduced_cost_j = c_j - y.A_j >= 0 and
        y_i <= 0 for binding-able <= rows; CS pairs are y_i (b - A x)_i and
        x_j rc_j; strong duality compares c.x with y.b.
        """
        if self.x is None or self.dual is None:
            raise ValueError("no optimal solution to certify")
        c = np.asarray(c, dtype=np.float64)
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        slack = b - A @ self.x
        rc = c - A.T @ self.dual
        return {
            "primal_feasibility": float(max(np.max(-slack, initial=0.0),
                                            np.max(-self.x, initial=0.0))),
            "dual_feasibility": float(max(np.max(-rc, initial=0.0),
                                          np.max(self.dual, initial=0.0))),
            "comp_slack_rows": float(np.max(np.abs(self.dual * slack), initial=0.0)),
            "comp_slack_cols": float(np.max(np.abs(self.x * rc), initial=0.0)),
            "duality_gap": float(abs(c @ self.x - b @ self.dual)),
        }


def _bland_iterate(t: _Tableau, max_iter: int) -> tuple[str, int]:
    """Dantzig pivoting with Bland's rule as the anti-cycling fallback.

    Most-negative reduced cost enters while the objective makes progress;
    after 2m+16 degenerate pivots in a row the iteration switches to Bland's
    rule (lowest eligible index) until progress resumes, which rules out
    cycling while keeping the usual pivot counts on degenerate programs.
    Every tie goes to the lowest tableau column index (`_Tableau.ids`), as
    `argmin` over the full tableau would break it: the basic columns'
    reduced costs are 0, so they never enter. The leaving row is always the
    lowest-basis-index exact minimum-ratio row (degenerate rows are clamped
    to exact zeros, keeping the tie set real).
    """
    it = 0
    # pricing replaces the tableau and its work arrays only between calls
    tab, rhs, entering_column = t.tab, t.rhs, t.column[:, 0]
    m = len(rhs)
    obj, col = tab[-1, :-1], entering_column[:m]
    bland_mode = False
    stall = 0
    stall_limit = 2 * m + 16
    last_obj = tab[-1, -1]
    while it < max_iter:
        # ndarray methods rather than the np. wrappers: a pivot is short
        # enough for the wrappers' call overhead to show
        if bland_mode:
            ties = (obj < -PIVOT_TOL).nonzero()[0]
            if len(ties) == 0:
                return "optimal", it
            entering = int(ties[t.ids[ties].argmin()])
        else:
            if len(obj) == 0:
                return "optimal", it
            entering = int(obj.argmin())
            if obj[entering] >= -PIVOT_TOL:
                return "optimal", it
            ties = (obj == obj[entering]).nonzero()[0]
            if len(ties) > 1:
                entering = int(ties[t.ids[ties].argmin()])
        entering_column[:] = tab[:, entering]
        eligible = (col > PIVOT_TOL).nonzero()[0]
        if len(eligible) == 0:
            return "unbounded", it
        ratios = rhs[eligible] / col[eligible]
        ties = eligible[ratios <= np.minimum.reduce(ratios)]
        best_row = int(ties[t.basis[ties].argmin()])
        t.pivot(best_row, entering)
        it += 1
        if tab[-1, -1] > last_obj + PIVOT_TOL:
            last_obj = tab[-1, -1]
            stall = 0
            bland_mode = False
        else:
            stall += 1
            if stall >= stall_limit:
                bland_mode = True
    return "stalled", it


def _price_batch(rc: np.ndarray) -> np.ndarray:
    """The at most PRICE_BATCH columns pricing below -PRICE_TOL, most negative
    first, ties by index: the stable sort's head, sorting the negative alone."""
    new = np.flatnonzero(rc < -PRICE_TOL)
    return new[np.argsort(rc[new], kind="stable")[:PRICE_BATCH]]


class _Tableau:
    """The rows B^-1 D [A_W | I | I_art | b] and the objective row, where W
    is the working set and D negates the rows with negative rhs, in
    dictionary form (Chvatal, Linear Programming, 1983): only the non-basic
    columns and the rhs are stored, each basic column being the unit
    column of its row.

    Tableau column j stands for column cols[j] of the full program
    [A | I | I_art]: j < len(start) are the start columns, then come the m
    slacks, the artificials and the columns appended by pricing. Stored
    column s is tableau column ids[s], and basis[i] is the tableau column
    basic in row i. The slots are in no particular order, so every tie that
    the full tableau breaks by position is broken by the lowest id.

    The stored floats equal the full tableau's, column for column. Every
    basic column of the full tableau is the unit column of its row with a
    +0.0 reduced cost: written as 0 and 1 when it enters, after which its
    pivot-row entry is a zero, and `x - f*0` leaves each of its entries as
    it is. The rank-1 update treats each column on its own, so a stored
    column goes through the same operations as in the full tableau, and the
    column that leaves the basis is stored as the update computes it from
    its unit column. Only the sign of some zeros can differ: a drive-out
    pivot on a negative entry writes -0.0 into the pivot row of the basic
    columns, which the full tableau keeps when such a column leaves and the
    dictionary form writes as 0.0. No decision reads the sign of a zero
    (costs, ratios and the clamped rhs are compared by value), and the
    update adds every product to 0.0 (as the full tableau's einsum), so a
    zero product is +0.0 and that sign never reaches another entry: the
    pivots, the rhs and so every result are bit for bit the full tableau's.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, start: np.ndarray):
        m, n = A.shape
        w = len(start)
        neg = b < 0
        negative = np.flatnonzero(neg)
        n_art = len(negative)
        # the start columns and the slacks of the negated rows; every other
        # slack and every artificial starts basic
        tab = np.zeros((m + 1, w + n_art + 1))
        tab[:m, :w] = np.where(neg[:, None], -A[:, start], A[:, start])
        tab[negative, w + np.arange(n_art)] = -1.0
        tab[:m, -1] = np.abs(b)
        self._keep(tab)
        self.A = A
        self.ids = np.concatenate([np.arange(w), w + negative])
        self.slack0 = w  # the tableau column of slack 0
        self.cols = np.concatenate([start, n + np.arange(m + n_art)])
        self.basis = w + np.arange(m)
        self.basis[neg] = w + m + np.arange(n_art)

    def _keep(self, tab: np.ndarray) -> None:
        """Hold `tab` as the tableau, and the pivot's work arrays at its size."""
        self.tab = tab
        self.rhs = tab[:-1, -1]
        self.column = np.empty((tab.shape[0], 1))
        self.product = np.empty(tab.shape)

    def pivot(self, row: int, slot: int) -> None:
        """The full tableau's pivot on stored column `slot`, which the caller
        has copied into `column`: the rank-1 update of the stored columns,
        and the leaving column stored in the entering column's slot, each
        entry computed as the update computes it from a unit column (1/p in
        the pivot row, 0 - f/p elsewhere)."""
        tab, column = self.tab, self.column
        p = column[row, 0]
        tab[row] /= p
        column[row, 0] = 0.0
        # formed in the kept buffer by a product of inner dimension 1: each
        # entry is the one product f_i r_j added to 0.0, a zero always +0.0
        np.dot(column, tab[row][None, :], out=self.product)
        tab -= self.product
        # degenerate rows must stay exactly zero or Bland's tie set (and with it
        # the anti-cycling guarantee) dissolves into float dust
        self.rhs[np.abs(self.rhs) < 1e-11] = 0.0
        # 0.0 - (...) rather than -(...): zeros come out +0.0, as the full
        # update's do
        inverse = 1.0 / p
        np.subtract(0.0, np.multiply(column, inverse, out=column), out=tab[:, slot:slot + 1])
        tab[row, slot] = inverse
        self.ids[slot], self.basis[row] = self.basis[row], self.ids[slot]

    def retire_artificials(self) -> None:
        """Zero the objective row and delete the stored artificial columns:
        after phase 1 they cost nothing and never enter. The drive-out has
        left no artificial basic, so none is left anywhere: the slack of an
        artificial's row is, entry for entry, the negated artificial column
        (the pivots' float operations are symmetric in sign), so while the
        artificial is basic in row i that slack holds -1 in row i and the
        drive-out can pivot on it."""
        n = self.A.shape[1]
        self.tab[-1] = 0.0
        real = self.cols[self.ids] < n + len(self.basis)
        # compress keeps the tableau row-major, and the pricing products'
        # last bits depend on the layout BLAS is handed
        self._keep(self.tab.compress(np.append(real, True), axis=1))
        self.ids = self.ids[real]

    def optimize(self, cost: np.ndarray) -> tuple[str, int]:
        """Pivot to an optimum of the restricted program, price every column
        of A against the objective row (whose costs on A are `cost`), append
        the best and resume, until none prices below -PRICE_TOL."""
        total = 0
        while True:
            status, it = _bland_iterate(self, MAX_ITER - total)
            total += it
            if status != "optimal" or not self._append_priced(cost):
                return status, total

    def _append_priced(self, cost: np.ndarray) -> bool:
        """The duals are the objective row's entries on the slacks (0 on the
        basic ones), and the appended columns are B^-1 D A_j, B^-1 D being
        the slack block, assembled row-major with the basic slacks' unit
        columns."""
        m, n = self.A.shape
        slots = np.flatnonzero((self.ids >= self.slack0) & (self.ids < self.slack0 + m))
        slacks = self.ids[slots] - self.slack0
        duals = np.zeros(m)
        duals[slacks] = self.tab[-1, slots]
        rc = cost + duals @ self.A
        rc[self.cols[self.cols < n]] = np.inf
        new = _price_batch(rc)
        if len(new) == 0:
            return False
        slack_block = np.zeros((m, m))
        slack_block[:, slacks] = self.tab[:m, slots]
        rows = np.flatnonzero((self.basis >= self.slack0) & (self.basis < self.slack0 + m))
        slack_block[rows, self.basis[rows] - self.slack0] = 1.0
        block = np.empty((m + 1, len(new)))
        block[:m] = slack_block @ self.A[:, new]
        block[-1] = rc[new]
        self._keep(np.concatenate([self.tab[:, :-1], block, self.tab[:, -1:]], axis=1))
        self.ids = np.concatenate([self.ids, len(self.cols) + np.arange(len(new))])
        self.cols = np.concatenate([self.cols, new])
        return True


def solve_lp(c, A, b, start=None) -> SimplexResult:
    """minimize c.x subject to A x <= b, x >= 0.

    `start` names the columns of A the tableau begins with (default: all of
    them); the rest enter through pricing. Heavily degenerate programs (the
    cut-cone LPs tie almost every ratio) are solved through a deterministic
    right-hand-side perturbation b_i -> b_i + delta (i+1)/m sign(b_i), which
    makes ratio tests strict; the optimal basis is then repaired exactly to
    the original b (reduced costs are b-independent, so optimality
    transfers). Any repair failure falls back to the unperturbed solve.
    """
    c = np.asarray(c, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,):
        raise ValueError("inconsistent LP shapes")
    start = np.arange(n) if start is None else np.asarray(start, dtype=np.int64)
    if start.ndim != 1 or len(np.unique(start)) != len(start) or np.any((start < 0) | (start >= n)):
        raise ValueError("start must list distinct column indices of A")
    scale = max(1.0, float(np.max(np.abs(b))))
    sign = np.where(b < 0, -1.0, 1.0)
    delta = 1e-6 * scale * (np.arange(m) + 1) / m * sign
    rough = _solve_core(c, A, b + delta, start)
    if rough.status == "optimal":
        repaired = _repair_basis(c, A, b, rough)
        if repaired is not None:
            return repaired
    # rare path: perturbation failed to help or changed the status
    res = _solve_core(c, A, b, start)
    if res.status == "optimal":
        res.dual, res.reduced_costs = _duals(c, A, res.basis)
    return res


def _columns(A, columns):
    """Columns `columns` of [A | I] (n + i is slack i), gathered into a
    C-contiguous array without forming [A | I]."""
    m, n = A.shape
    B = np.zeros((m, len(columns)))
    structural = columns < n
    B[:, structural] = A[:, columns[structural]]
    slacks = np.flatnonzero(~structural)
    B[columns[slacks] - n, slacks] = 1.0
    return B


def _duals(c, A, basis):
    """Dual y solving B^T y = c_B over the basic columns, structural and
    slack (the drive-out leaves no artificial basic), and the reduced costs
    c - A^T y of every column of A."""
    m, n = A.shape
    cost = np.concatenate([c, np.zeros(m)])[basis]
    y = np.linalg.solve(_columns(A, basis).T, cost)
    return y, c - A.T @ y


def _repair_basis(c, A, b, rough: SimplexResult) -> SimplexResult | None:
    """Exact solution for the original rhs from the perturbed optimal basis."""
    m, n = A.shape
    basis = rough.basis
    try:
        x_basic = np.linalg.solve(_columns(A, basis), b)
    except np.linalg.LinAlgError:
        return None
    tol = 1e-7 * max(1.0, float(np.max(np.abs(b))))
    if np.min(x_basic) < -tol:
        return None
    try:
        y, rc = _duals(c, A, basis)
    except np.linalg.LinAlgError:
        return None
    x_full = np.zeros(n + m)
    x_full[basis] = np.maximum(x_basic, 0.0)
    x = x_full[:n]
    return SimplexResult(
        status="optimal",
        x=x,
        objective=float(c @ x),
        dual=y,
        reduced_costs=rc,
        iterations=rough.iterations,
        basis=basis,
        working_columns=rough.working_columns,
    )


def _solve_core(c, A, b, start) -> SimplexResult:
    """Two-phase solve from the working set `start`; an optimal result
    carries x and the basis in full column indices (n + i is slack i,
    n + m + r artificial r) but no duals."""
    m, n = A.shape
    t = _Tableau(A, b, start)

    total_iters = 0
    artificial_rows = np.flatnonzero(b < 0)
    if len(artificial_rows):
        # phase 1: minimize the artificial sum
        for i in artificial_rows:
            t.tab[-1] -= t.tab[i]
        status, iters = t.optimize(np.zeros(n))
        total_iters += iters
        if status != "optimal":
            return SimplexResult(status="stalled", iterations=total_iters)
        if -t.tab[-1, -1] > 1e-7:
            return SimplexResult(status="infeasible", iterations=total_iters)
        # drive the artificials left at zero level out of the basis
        for i in range(m):
            if t.cols[t.basis[i]] >= n + m:
                hits = ((t.cols[t.ids] < n + m) & (np.abs(t.tab[i, :-1]) > PIVOT_TOL)).nonzero()[0]
                if len(hits):
                    slot = int(hits[t.ids[hits].argmin()])
                    t.column[:, 0] = t.tab[:, slot]
                    t.pivot(i, slot)
        t.retire_artificials()

    # phase 2 objective row
    structural = np.flatnonzero(t.cols[t.ids] < n)
    t.tab[-1, structural] = c[t.cols[t.ids[structural]]]
    for i in range(m):
        if t.cols[t.basis[i]] < n:
            t.tab[-1] -= c[t.cols[t.basis[i]]] * t.tab[i]
    status, iters = t.optimize(c)
    total_iters += iters
    if status != "optimal":
        return SimplexResult(status=status, iterations=total_iters)

    basis = t.cols[t.basis]
    x = np.zeros(n)
    basic = basis < n  # the basic columns of A
    x[basis[basic]] = t.tab[:m, -1][basic]
    return SimplexResult(
        status="optimal",
        x=x,
        objective=float(c @ x),
        iterations=total_iters,
        basis=basis,
        working_columns=int(np.sum(t.cols < n)),
    )
