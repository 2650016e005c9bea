"""Exact linear programming over the rationals, for programs feasible at the
origin.

Every program maximizes c.x over free variables x subject to rows a.x <= b
with b >= 0.  So x = 0 is feasible, the all-slack basis starts the simplex,
and there is one phase: no program here can be infeasible.  A primal simplex
on Fraction tableaus selects pivots by Bland's rule (smallest eligible
index), which cannot cycle, so termination is unconditional.  Problem sizes
are desk scale (a few hundred columns), and the payoff for exact pivots is
that optimality and unboundedness come back as theorems about the input
data, not verdicts at a tolerance.

Unbounded problems return the improving ray that witnesses unboundedness: a
direction d with a.d <= 0 on every row and c.d > 0.

Its programs are the one-step and box programs of `arbitrage` that are not
closed form (`arbitrage._atom_program` says which), built at the end of this
module from the lifted ints `arbitrage` hands over, and the whole-tree
program of `utility.finite_utility_check`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class LPResult:
    def __init__(self, status: str, x: Optional[list[Fraction]] = None,
                 value: Optional[Fraction] = None,
                 ray: Optional[list[Fraction]] = None):
        self.status = status
        self.x = x
        self.value = value
        self.ray = ray


class LinearProgram:
    """Maximize c.x over free x subject to rows a.x <= b, each with b >= 0.

    Column layout: a +/- pair per variable, then one slack per row in row
    order; the slacks are the starting basis at x = 0.  Results are reported
    in the original variables."""

    def __init__(self, n_vars: int,
                 objective: Optional[dict[int, Fraction]] = None,
                 rows: Optional[list[tuple[dict[int, Fraction], Fraction]]] = None):
        self.n_vars = n_vars
        self.objective = {} if objective is None else objective
        self.rows = [] if rows is None else rows

    def set_objective(self, coeffs: dict[int, Fraction]) -> None:
        self.objective = {j: Fraction(v) for j, v in coeffs.items() if v != 0}

    def add_le(self, coeffs, rhs) -> None:
        rhs = Fraction(rhs)
        if rhs < 0:
            raise ValueError(f"row a.x <= {rhs} excludes x = 0; "
                             f"every row must hold at the origin")
        self.rows.append(({j: Fraction(v) for j, v in coeffs.items() if v != 0},
                          rhs))

    def add_ge(self, coeffs, rhs) -> None:
        self.add_le({j: -Fraction(v) for j, v in coeffs.items()}, -Fraction(rhs))

    def solve(self) -> LPResult:
        n = self.n_vars
        n_cols = 2 * n + len(self.rows)
        tab_rows = []
        for i, (coeffs, rhs) in enumerate(self.rows):
            row = [ZERO] * (n_cols + 1)
            for j, v in coeffs.items():
                row[2 * j] = v
                row[2 * j + 1] = -v
            row[2 * n + i] = ONE
            row[-1] = rhs
            tab_rows.append(row)
        cost = [ZERO] * n_cols
        for j, v in self.objective.items():
            cost[2 * j] = v
            cost[2 * j + 1] = -v

        tab = _Tableau(tab_rows, list(range(2 * n, n_cols)), n_cols)
        status, value, enter = tab.run(cost)

        # column c < 2n is +/- variable c // 2; the rest are slacks
        if status == UNBOUNDED:
            ray = [ZERO] * n
            if enter < 2 * n:
                ray[enter // 2] += _sign(enter)
            for row, b in zip(tab.rows, tab.basis):
                if b < 2 * n and row[enter] != 0:
                    ray[b // 2] -= _sign(b) * row[enter]
            return LPResult(status=UNBOUNDED, ray=ray)
        x = [ZERO] * n
        for row, b in zip(tab.rows, tab.basis):
            if b < 2 * n:
                x[b // 2] += _sign(b) * row[-1]
        return LPResult(status=OPTIMAL, x=x, value=value)


def _sign(col: int) -> Fraction:
    return ONE if col % 2 == 0 else -ONE


class _Tableau:
    """Dense simplex tableau with an explicit basis and Bland pivoting."""

    def __init__(self, rows: list[list[Fraction]], basis: list[int], n_cols: int):
        self.rows = rows          # each row: n_cols coefficients then the rhs
        self.basis = basis
        self.n_cols = n_cols

    def reduced_costs(self, cost: list[Fraction]) -> tuple[list[Fraction], Fraction]:
        red = list(cost)
        value = ZERO
        for b, row in zip(self.basis, self.rows):
            coef = cost[b]
            if coef == 0:
                continue
            value += coef * row[-1]
            for j in range(self.n_cols):
                if row[j] != 0:
                    red[j] -= coef * row[j]
        return red, value

    def pivot(self, row_i: int, col_j: int) -> None:
        rows = self.rows
        prow = rows[row_i]
        piv = prow[col_j]
        if piv != 1:
            inv = ONE / piv
            rows[row_i] = prow = [a * inv for a in prow]
        # every row is its own list (see `solve`), so rows update in place,
        # and only where the pivot row is nonzero
        support = [(k, p) for k, p in enumerate(prow) if p != 0]
        for i, row in enumerate(rows):
            if i == row_i:
                continue
            f = row[col_j]
            if f != 0:
                for k, p in support:
                    row[k] -= f * p
        self.basis[row_i] = col_j

    def run(self, cost: list[Fraction]) -> tuple[str, Fraction, Optional[int]]:
        """Maximize `cost`; returns (status, value, entering column if unbounded)."""
        while True:
            red, value = self.reduced_costs(cost)
            enter = next((j for j in range(self.n_cols) if red[j] > 0), -1)
            if enter < 0:
                return OPTIMAL, value, None
            leave = -1
            best: Optional[Fraction] = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED, value, enter
            self.pivot(leave, enter)


# -- the programs of `arbitrage` at two or more assets ---------------------------


def _one_step_simplex(n: Sequence[int],
                      incs: Sequence[tuple[int, Sequence[int]]]) -> LPResult:
    """The one-step program of `arbitrage._atom_program`, at any number of
    assets: maximize sum_c n_c h.dS_c subject to 1 + h.dS_c >= 0 on every
    child c.

    n holds each child's P(c) w_c as ints over one denominator D, and
    incs[k] = (L, e) the increments of asset k as ints e_c over L.  Each
    child with dS_c != 0 adds the row -dS_c.h <= 1.  The objective is D
    P(node) > 0 times the conditional program's gain: Bland's rule then picks
    the same entering columns and ratio tests, so the vertex and the ray are
    the conditional program's."""
    lp = LinearProgram(len(incs))
    for c in range(len(n)):
        row = {k: Fraction(-e[c], scale)
               for k, (scale, e) in enumerate(incs) if e[c]}
        if row:
            lp.add_le(row, ONE)
    lp.set_objective({k: Fraction(sum(map(operator.mul, n, e)), scale)
                      for k, (scale, e) in enumerate(incs)})
    return lp.solve()


def _box_simplex(dim: int, increments: Sequence[Sequence[Fraction]]
                 ) -> LPResult:
    """max of sum_c h.dS_c subject to h.dS_c >= 0 for every child's
    increment dS_c and |h|_inf <= 1, over h of `dim` assets: bounded, and
    positive exactly when the atom admits a one-step arbitrage, which the
    maximizer then is."""
    lp = LinearProgram(dim)
    objective: dict[int, Fraction] = {}
    for ds in increments:
        row = {i: x for i, x in enumerate(ds) if x != 0}
        for i, x in row.items():
            objective[i] = objective.get(i, ZERO) + x
        if row:
            lp.add_ge(row, ZERO)
    for i in range(dim):
        lp.add_le({i: ONE}, ONE)
        lp.add_ge({i: ONE}, -ONE)
    lp.set_objective(objective)
    return lp.solve()
