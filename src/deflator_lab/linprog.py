"""Exact linear programming over the rationals.

A two-phase primal simplex on Fraction tableaus.  Pivot selection follows
Bland's rule (smallest eligible index), which cannot cycle, so termination is
unconditional.  Problem sizes here are desk scale (a few hundred columns), and
the payoff for exact pivots is that optimality, unboundedness and
infeasibility come back as theorems about the input data, not verdicts at a
tolerance.

Unbounded problems return the improving ray that witnesses unboundedness.
Infeasible problems return the exact phase-one residual together with a
Farkas vector y, checked before returning: y has nonnegative pairing with
every column of the standardized system but negative pairing with the right
hand side, so no nonnegative solution can exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass
class LPResult:
    status: str
    x: Optional[list[Fraction]] = None
    value: Optional[Fraction] = None
    ray: Optional[list[Fraction]] = None
    duals: Optional[list[Fraction]] = None
    infeasibility: Optional[Fraction] = None
    farkas: Optional[list[Fraction]] = None


@dataclass
class LinearProgram:
    """Maximize c.x subject to <=, >= and == rows; variables are free unless
    listed in `nonneg`.  Free variables are split internally and slack and
    artificial columns are appended as needed; results are reported in the
    original variables."""

    n_vars: int
    objective: dict[int, Fraction] = field(default_factory=dict)
    rows: list[tuple[dict[int, Fraction], str, Fraction]] = field(default_factory=list)
    nonneg: set[int] = field(default_factory=set)

    def set_objective(self, coeffs: dict[int, Fraction]) -> None:
        self.objective = {j: Fraction(v) for j, v in coeffs.items() if v != 0}

    def add_constraint(self, coeffs: dict[int, Fraction], op: str, rhs) -> None:
        if op not in ("<=", ">=", "=="):
            raise ValueError(f"unknown constraint op {op!r}")
        self.rows.append(({j: Fraction(v) for j, v in coeffs.items() if v != 0},
                          op, Fraction(rhs)))

    def add_le(self, coeffs, rhs) -> None:
        self.add_constraint(coeffs, "<=", rhs)

    def add_ge(self, coeffs, rhs) -> None:
        self.add_constraint(coeffs, ">=", rhs)

    def add_eq(self, coeffs, rhs) -> None:
        self.add_constraint(coeffs, "==", rhs)

    def set_nonneg(self, indices) -> None:
        self.nonneg.update(indices)

    def solve(self, want_duals: bool = False) -> LPResult:
        return _solve(self, want_duals)


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
        for i, row in enumerate(rows):
            if i == row_i:
                continue
            f = row[col_j]
            if f != 0:
                rows[i] = [a - f * p for a, p in zip(row, prow)]
        self.basis[row_i] = col_j

    def run(self, cost: list[Fraction], blocked: Optional[set[int]] = None
            ) -> tuple[str, Fraction, Optional[int]]:
        """Maximize `cost`; returns (status, value, entering column if unbounded)."""
        while True:
            red, value = self.reduced_costs(cost)
            enter = -1
            for j in range(self.n_cols):
                if red[j] > 0 and (blocked is None or j not in blocked):
                    enter = j
                    break
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


def _solve(lp: LinearProgram, want_duals: bool) -> LPResult:
    n = lp.n_vars

    # Column layout: one column per nonnegative variable, a +/- pair per free
    # variable, then one slack per inequality row, then artificials.
    cols: list[tuple[int, int]] = []   # (original variable, +1 or -1)
    plus_col: dict[int, int] = {}
    minus_col: dict[int, int] = {}
    for j in range(n):
        plus_col[j] = len(cols)
        cols.append((j, +1))
        if j not in lp.nonneg:
            minus_col[j] = len(cols)
            cols.append((j, -1))
    n_struct = len(cols)
    n_slack = sum(1 for _, op, _ in lp.rows if op != "==")
    n_real = n_struct + n_slack

    tab_rows: list[list[Fraction]] = []
    flipped: list[bool] = []
    init_col: list[int] = []          # column that starts as e_i, per row
    basis: list[int] = []
    art_cols: list[int] = []
    slack_idx = 0
    for coeffs, op, rhs in lp.rows:
        neg = op == ">="              # normalize to <= so slacks enter with +1
        row = [ZERO] * (n_real + 1)
        for j, v in coeffs.items():
            if neg:
                v = -v
            row[plus_col[j]] += v
            if j in minus_col:
                row[minus_col[j]] -= v
        row[-1] = -rhs if neg else rhs
        s_col = None
        if op != "==":
            s_col = n_struct + slack_idx
            row[s_col] = ONE
            slack_idx += 1
        flip = row[-1] < 0
        if flip:
            row = [-a for a in row]
        flipped.append(flip != neg)   # net sign between stored and tableau row
        tab_rows.append(row)
        basis.append(s_col if s_col is not None and row[s_col] == ONE else -1)
        init_col.append(basis[-1])

    n_art = sum(1 for b in basis if b < 0)
    k = 0
    for i, row in enumerate(tab_rows):
        row[-1:-1] = [ZERO] * n_art
        if basis[i] < 0:
            col = n_real + k
            row[col] = ONE
            basis[i] = col
            init_col[i] = col
            art_cols.append(col)
            k += 1
    total_cols = n_real + n_art

    tab = _Tableau(tab_rows, basis, total_cols)

    if art_cols:
        cost1 = [ZERO] * total_cols
        for c in art_cols:
            cost1[c] = -ONE
        status, value, _ = tab.run(cost1)
        assert status == OPTIMAL, "phase one is bounded by construction"
        if value < 0:
            y = _multipliers(tab, cost1, init_col)
            y_rows = [-yi if f else yi for yi, f in zip(y, flipped)]
            _check_farkas(lp, y_rows)
            return LPResult(status=INFEASIBLE, infeasibility=-value, farkas=y_rows)
        _expel_artificials(tab, set(art_cols), n_real)

    cost2 = [ZERO] * total_cols
    for j, v in lp.objective.items():
        cost2[plus_col[j]] += v
        if j in minus_col:
            cost2[minus_col[j]] -= v
    status, value, enter = tab.run(cost2, blocked=set(art_cols) if art_cols else None)

    if status == UNBOUNDED:
        direction = [ZERO] * n
        if enter < n_struct:
            var, s = cols[enter]
            direction[var] += Fraction(s)
        for i, b in enumerate(tab.basis):
            if b < n_struct and tab.rows[i][enter] != 0:
                var, s = cols[b]
                direction[var] -= Fraction(s) * tab.rows[i][enter]
        return LPResult(status=UNBOUNDED, ray=direction)

    x = [ZERO] * n
    for i, b in enumerate(tab.basis):
        if b < n_struct:
            var, s = cols[b]
            x[var] += Fraction(s) * tab.rows[i][-1]
    duals = None
    if want_duals:
        y = _multipliers(tab, cost2, init_col)
        duals = [-yi if f else yi for yi, f in zip(y, flipped)]
    return LPResult(status=OPTIMAL, x=x, value=value, duals=duals)


def _multipliers(tab: _Tableau, cost: list[Fraction], init_col: list[int]
                 ) -> list[Fraction]:
    """Row multipliers y = c_B B^{-1}: column init_col[i] starts as the i-th
    identity column, so after pivoting it holds B^{-1} e_i."""
    cb = [cost[b] for b in tab.basis]
    out = []
    for i in range(len(tab.rows)):
        col = init_col[i]
        out.append(sum((c * row[col] for c, row in zip(cb, tab.rows)), ZERO))
    return out


def _check_farkas(lp: LinearProgram, y: list[Fraction]) -> None:
    """Verify the infeasibility certificate against the original rows.

    The aggregated row sum_i y_i a_i must pair to zero with every free
    variable and nonnegatively with every sign-constrained one, the
    multipliers must respect the row senses (>= 0 on <=, <= 0 on >=), and the
    aggregated right-hand side must be negative.  Together these exclude any
    feasible point, whatever its sign pattern.
    """
    agg = [ZERO] * lp.n_vars
    rhs = ZERO
    for yi, (coeffs, op, b) in zip(y, lp.rows):
        if op == "<=":
            assert yi >= 0, "certificate multiplier has the wrong sign on a <= row"
        elif op == ">=":
            assert yi <= 0, "certificate multiplier has the wrong sign on a >= row"
        rhs += yi * b
        if yi != 0:
            for j, v in coeffs.items():
                agg[j] += yi * v
    assert rhs < 0, "certificate lost the right-hand side sign"
    for j, v in enumerate(agg):
        if j in lp.nonneg:
            assert v >= 0, f"certificate fails on nonnegative variable {j}"
        else:
            assert v == 0, f"certificate fails on free variable {j}"


def _expel_artificials(tab: _Tableau, art_cols: set[int], n_real: int) -> None:
    """Pivot basic artificials (at level zero) onto real columns; degenerate
    rows that admit no pivot are structurally redundant and harmless."""
    for i, b in enumerate(list(tab.basis)):
        if b in art_cols:
            for j in range(n_real):
                if tab.rows[i][j] != 0:
                    tab.pivot(i, j)
                    break
