"""Whole-tree linear programs for (NA), (NA1) and the insider's missing
equivalent martingale measure: a differential oracle.

The library decides (NA) and (NA1) with a backward pass of one-step
programs, and certifies the insider's missing martingale measure by the
insider's explicit arbitrage.  These programs decide each question over the
whole tree at once, one LP per question, sharing only the gain rows and the
exact simplex with the library.  Like every program that simplex solves,
each holds at the origin (no holdings, no weights), so each is feasible and
its verdict is an optimum or an improving ray, never an infeasibility.
"""

from __future__ import annotations

from fractions import Fraction

from deflator_lab.arbitrage import ArbitrageReport, WealthProblem
from deflator_lab.enlargement import EnlargementSpec
from deflator_lab.filtered_space import AdaptedProcess, Strategy
from deflator_lab.linprog import OPTIMAL, UNBOUNDED, LinearProgram, LPResult
from deflator_lab.utility import _gain_rows

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


def _equivalent_slice_measure_program(spec: EnlargementSpec, S: AdaptedProcess
                                      ) -> LPResult:
    """max epsilon over leaf weights q >= 0 with q_leaf >= epsilon on every
    leaf, sum q <= 1, epsilon <= 1, and every charged slice atom a
    martingale.  Every row holds at the origin, and the martingale equalities
    are homogeneous, so a positive optimum rescales to an equivalent insider
    martingale measure, and an optimum of 0 certifies that none exists."""
    tree = spec.tree
    d = tree.asset_dim
    leaves = list(tree.leaves)
    idx = {leaf: j for j, leaf in enumerate(leaves)}
    eps = len(leaves)
    lp = LinearProgram(len(leaves) + 1)
    lp.set_objective({eps: ONE})
    lp.add_le({idx[leaf]: ONE for leaf in leaves}, ONE)
    lp.add_le({eps: ONE}, ONE)
    for leaf in leaves:
        lp.add_ge({idx[leaf]: ONE}, ZERO)
        lp.add_ge({idx[leaf]: ONE, eps: -ONE}, ZERO)
    for lab in spec.label_set:
        slices = spec.slice_masses(lab)
        for v in tree.non_leaf_nodes():
            if slices[v.id] == 0:
                continue
            charged = [leaf for leaf in tree.leaves_below(v.id)
                       if spec.labels[leaf] == lab]
            for i in range(d):
                row = {}
                for leaf in charged:
                    child = tree.ancestor_at(leaf, v.time + 1)
                    ds = S[child][i] - S[v.id][i]
                    if ds != 0:
                        row[idx[leaf]] = row.get(idx[leaf], ZERO) + ds
                if row:
                    lp.add_le(row, ZERO)
                    lp.add_ge(row, ZERO)
    return lp.solve()
