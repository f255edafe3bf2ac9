"""Dense two-phase primal simplex with column generation, for small LPs.

Solves  minimize c.x  subject to  A x <= b,  x >= 0  on a dense tableau
(most-negative reduced cost enters, Bland's rule as the anti-cycling
fallback). Meant for the cut-cone distortion programs: a few hundred rows
and a few thousand columns at most; robustness over speed.

The tableau holds only a working set of the columns of A, besides the
slacks and the artificials. Whenever the restricted program is optimal, in
either phase, every column of A is priced in one product with the
objective row's slack block (the tableau's slack block is B^-1 up to row
signs, so that row holds the duals), and at most PRICE_BATCH columns of
most negative reduced cost are appended to the tableau and pivoting
resumes from the same basis (Gilmore-Gomory column generation). The solve
stops when no column prices below -PRICE_TOL. A start holding every column
is the plain full-tableau solve.

Every pivot is the plain dense rank-1 update of the whole tableau, and its
decisions and floats are exactly those of that update: the outer product
is formed by `np.einsum`, whose entries are the same single products as
`np.outer`'s, and phase 2 leaves out only the artificial columns that left
the basis, which are zero, never enter and break no tie.

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


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    # each entry is the one product f_i r_j, as in np.outer, which takes
    # about twice as long to form them
    tab -= np.einsum("i,j->ij", factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col
    # degenerate rows must stay exactly zero or Bland's tie set (and with it
    # the anti-cycling guarantee) dissolves into float dust
    rhs = tab[:-1, -1]
    rhs[np.abs(rhs) < 1e-11] = 0.0


def _bland_iterate(tab: np.ndarray, basis: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Dantzig pivoting with Bland's rule as the anti-cycling fallback.

    Most-negative reduced cost enters while the objective makes progress;
    after 2m+16 degenerate pivots in a row the iteration switches to Bland's
    rule (lowest eligible index) until progress resumes, which rules out
    cycling while keeping the usual pivot counts on degenerate programs.
    The leaving row is always the lowest-basis-index exact minimum-ratio row
    (degenerate rows are clamped to exact zeros, keeping the tie set real).
    Retired artificial columns have an exact zero cost, so they would never
    enter; phase 2 keeps only those still basic.
    """
    it = 0
    m = tab.shape[0] - 1
    bland_mode = False
    stall = 0
    stall_limit = 2 * m + 16
    last_obj = tab[-1, -1]
    while it < max_iter:
        obj = tab[-1, :-1]
        # ndarray methods rather than the np. wrappers: a pivot is short
        # enough for the wrappers' call overhead to show
        if bland_mode:
            negative = (obj < -PIVOT_TOL).nonzero()[0]
            if len(negative) == 0:
                return "optimal", it
            entering = int(negative[0])
        else:
            entering = int(obj.argmin())
            if obj[entering] >= -PIVOT_TOL:
                return "optimal", it
        col = tab[:m, entering]
        rhs = tab[:m, -1]
        eligible = (col > PIVOT_TOL).nonzero()[0]
        if len(eligible) == 0:
            return "unbounded", it
        ratios = rhs[eligible] / col[eligible]
        ties = eligible[ratios <= ratios.min()]
        best_row = int(ties[basis[ties].argmin()])
        _pivot(tab, basis, best_row, entering)
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


class _Tableau:
    """Rows B^-1 D [A_W | I | I_art | b] and the objective row, where W is
    the working set and D negates the rows with negative rhs.

    Tableau column j stands for column cols[j] of the full program
    [A | I | I_art]: j < len(start) are the start columns, then come the m
    slacks, the artificials (in phase 2 only those still basic) and the
    columns appended by pricing.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, start: np.ndarray):
        m, n = A.shape
        w = len(start)
        neg = b < 0
        n_art = int(np.sum(neg))
        tab = np.zeros((m + 1, w + m + n_art + 1))
        tab[:m, :w] = np.where(neg[:, None], -A[:, start], A[:, start])
        tab[:m, w:w + m] = np.diag(np.where(neg, -1.0, 1.0))
        self.arts = w + m + np.arange(n_art)
        tab[np.flatnonzero(neg), self.arts] = 1.0
        tab[:m, -1] = np.abs(b)
        self.tab = tab
        self.A = A
        self.slack = slice(w, w + m)
        self.cols = np.concatenate([start, n + np.arange(m + n_art)])
        self.basis = w + np.arange(m)
        self.basis[neg] = self.arts

    def retire_artificials(self) -> None:
        """Zero the objective row and every artificial column, and delete the
        artificial columns outside the basis: after phase 1 they cost
        nothing and never enter. An artificial still basic at zero level (a
        redundant row) keeps its zero column. Every kept column keeps its
        relative order, so the leaving row's tie-break on the basis is the
        same."""
        m = self.tab.shape[0] - 1
        self.tab[-1, :] = 0.0
        self.tab[:m, self.arts] = 0.0
        keep = np.ones(self.tab.shape[1], dtype=bool)
        keep[self.arts] = False
        keep[self.basis] = True
        index = np.cumsum(keep) - 1
        # compress keeps the tableau row-major, where tab[:, keep] would
        # return it column-major, and the pricing products' last bits
        # depend on the layout BLAS is handed
        self.tab = self.tab.compress(keep, axis=1)
        self.cols = self.cols[keep[:-1]]
        self.arts = index[self.arts[keep[self.arts]]]
        self.basis = index[self.basis]

    def optimize(self, cost: np.ndarray) -> tuple[str, int]:
        """Pivot to an optimum of the restricted program, price every column
        of A against the objective row (whose costs on A are `cost`), append
        the best and resume, until none prices below -PRICE_TOL."""
        total = 0
        while True:
            status, it = _bland_iterate(self.tab, self.basis, MAX_ITER - total)
            total += it
            if status != "optimal" or not self._append_priced(cost):
                return status, total

    def _append_priced(self, cost: np.ndarray) -> bool:
        m, n = self.A.shape
        rc = cost + self.tab[-1, self.slack] @ self.A
        rc[self.cols[self.cols < n]] = np.inf
        new = np.argsort(rc, kind="stable")[:PRICE_BATCH]
        new = new[rc[new] < -PRICE_TOL]
        if len(new) == 0:
            return False
        block = np.empty((m + 1, len(new)))
        block[:m] = self.tab[:m, self.slack] @ self.A[:, new]
        block[-1] = rc[new]
        self.tab = np.concatenate([self.tab[:, :-1], block, self.tab[:, -1:]], axis=1)
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


def _duals(c, A, basis):
    """Dual y solving B^T y = c_B over the basic structural and slack
    columns (least squares when zero-level artificials leave fewer than m
    of them), and the reduced costs c - A^T y of every column of A."""
    m, n = A.shape
    kept = basis[basis < n + m]
    B = np.hstack([A, np.eye(m)])[:, kept]
    cost = np.concatenate([c, np.zeros(m)])[kept]
    if len(kept) < m:
        y = np.linalg.lstsq(B.T, cost, rcond=None)[0]
    else:
        y = np.linalg.solve(B.T, cost)
    return y, c - A.T @ y


def _repair_basis(c, A, b, rough: SimplexResult) -> SimplexResult | None:
    """Exact solution for the original rhs from the perturbed optimal basis."""
    m, n = A.shape
    basis = rough.basis
    if np.any(basis >= n + m):
        return None
    try:
        x_basic = np.linalg.solve(np.hstack([A, np.eye(m)])[:, basis], b)
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
    if len(t.arts):
        # phase 1: minimize the artificial sum
        t.tab[-1, t.arts] = 1.0
        for i in range(m):
            if t.basis[i] in t.arts:
                t.tab[-1] -= t.tab[i]
        status, iters = t.optimize(np.zeros(n))
        total_iters += iters
        if status != "optimal":
            return SimplexResult(status="stalled", iterations=total_iters)
        if -t.tab[-1, -1] > 1e-7:
            return SimplexResult(status="infeasible", iterations=total_iters)
        # drive leftover artificials out of the basis where possible
        real = np.flatnonzero(t.cols < n + m)
        for i in range(m):
            if t.basis[i] in t.arts:
                hits = real[np.abs(t.tab[i, real]) > PIVOT_TOL]
                if len(hits):
                    _pivot(t.tab, t.basis, i, int(hits[0]))
        t.retire_artificials()

    # phase 2 objective row
    structural = np.flatnonzero(t.cols < n)
    t.tab[-1, structural] = c[t.cols[structural]]
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
