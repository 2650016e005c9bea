"""Whole-tree linear programs for (NA) and (NA1): a differential oracle.

The library decides both notions with a backward pass of one-step programs.
These programs decide them over the whole strategy space at once, one LP
per question, sharing only the gain rows and the exact simplex with it.
"""

from __future__ import annotations

from fractions import Fraction

from deflator_lab.arbitrage import ArbitrageReport, WealthProblem, _gain_rows
from deflator_lab.filtered_space import Strategy
from deflator_lab.linprog import OPTIMAL, UNBOUNDED, LinearProgram

ZERO = Fraction(0)
ONE = Fraction(1)


def _strategy_from(problem: WealthProblem, x: list[Fraction],
                   var_index: dict[tuple[int, int], int]) -> Strategy:
    d = problem.tree.asset_dim
    steps = {
        v.id: tuple(x[var_index[(v.id, i)]] for i in range(d))
        for v in problem.tree.non_leaf_nodes()
    }
    return Strategy(steps, d)


def check_na(problem: WealthProblem) -> ArbitrageReport:
    """Decide (NA): no admissible terminal wealth X >= 1 with P(X > 1) > 0.

    Maximizes the plain sum of terminal gains subject to gains >= 0 at every
    node and |H|_inf <= 1.  Zero optimum is exactly (NA); a positive optimum
    yields a witness strategy whose wealth 1 + (H.S) lies in W1.
    """
    problem.require_positive()
    rows, var_index = _gain_rows(problem)
    lp = LinearProgram(len(var_index))
    objective: dict[int, Fraction] = {}
    for leaf in problem.tree.leaves:
        for j, coef in rows[leaf].items():
            objective[j] = objective.get(j, ZERO) + coef
    lp.set_objective(objective)
    for v in problem.tree.nodes:
        if v.parent is not None and rows[v.id]:
            lp.add_ge(rows[v.id], ZERO)
    for j in range(len(var_index)):
        lp.add_le({j: ONE}, ONE)
        lp.add_ge({j: ONE}, -ONE)
    res = lp.solve()
    assert res.status == OPTIMAL, "the NA program is bounded by the box constraint"
    report = ArbitrageReport(na_optimum=res.value)
    report.na_holds = res.value == 0
    if not report.na_holds:
        report.witness = _strategy_from(problem, res.x, var_index)
    return report


def check_na1(problem: WealthProblem) -> ArbitrageReport:
    """Decide (NA1): boundedness of sup E[1 + (H.S)_n] over 1-admissible H.

    On a finite tree with strictly positive P, boundedness in probability of
    K1, uniform boundedness, and finiteness of this supremum all coincide
    (each leaf carries mass at least min P > 0), so the LP value decides the
    verdict and doubles as the tightest wealth bound.  Unboundedness returns
    the improving ray: a strategy direction along which expected wealth grows
    without ever breaching admissibility.
    """
    problem.require_positive()
    rows, var_index = _gain_rows(problem)
    lp = LinearProgram(len(var_index))
    objective: dict[int, Fraction] = {}
    for leaf in problem.tree.leaves:
        mass = problem.P.mass(leaf)
        for j, coef in rows[leaf].items():
            objective[j] = objective.get(j, ZERO) + mass * coef
    lp.set_objective(objective)
    for v in problem.tree.nodes:
        if v.parent is not None and rows[v.id]:
            lp.add_ge(rows[v.id], -ONE)
    res = lp.solve()
    if res.status == UNBOUNDED:
        return ArbitrageReport(na1_holds=False, unbounded=True,
                               witness=_strategy_from(problem, res.ray, var_index))
    assert res.status == OPTIMAL
    return ArbitrageReport(na1_holds=True, optimal_value=ONE + res.value)
