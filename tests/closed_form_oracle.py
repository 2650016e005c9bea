"""The `Fraction` one-step programs: the differential oracle of the
library's int kernel.

The library solves one-step programs on reduced (numerator, denominator)
int pairs (`arbitrage._atom_program`), and runs the backward pass and the
deflation certificate on them.  This module keeps the `Fraction` code they
replaced: `one_step_program`, closed form at one asset and the normalized
P(c)/P(node) w_c program on `LinearProgram` with more, the backward pass
over `ProbMeasure.node_masses`, and the certificate that calls
`one_step_program` once per atom of positive mass, returning its
violations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from deflator_lab.arbitrage import Na1FailsOnAtom, WealthProblem
from deflator_lab.filtered_space import AdaptedProcess, EventTree
from deflator_lab.linprog import OPTIMAL, UNBOUNDED, LinearProgram

ZERO = Fraction(0)
ONE = Fraction(1)


def one_step_program(tree: EventTree, P_masses: dict[int, Fraction],
                     S: AdaptedProcess, node: int,
                     weights: Optional[dict[int, Fraction]] = None
                     ) -> tuple[Fraction, tuple[Fraction, ...]]:
    """With pw_c = P(c)/P(node) * w_c the program maximizes sum(pw_c) + a*h,
    a = sum(pw_c * ds_c), over the interval max(-1/ds_c : ds_c > 0) <= h <=
    min(-1/ds_c : ds_c < 0) that keeps 1 + h*ds_c >= 0 on every child,
    whatever its weight or mass.  The sign of a picks the endpoint (h = 0
    when a = 0), and a missing endpoint is the ray (1,) or (-1,).  With more
    assets the same program, rows -dS_c.h <= 1, goes to the simplex."""
    atom_mass = P_masses[node]
    if atom_mass == 0:
        raise ValueError(f"one-step program on null atom {node}")
    if S.dim != 1:
        return _simplex_program(tree, P_masses, S, node, weights)
    s = S[node][0]
    total = gain = ZERO     # P(node) times sum(pw_c) and a
    ds_min = ds_max = ZERO
    for c in tree.children_of(node):
        ds = S[c][0] - s
        pw = P_masses[c] if weights is None else P_masses[c] * weights[c]
        total += pw
        if ds:
            gain += pw * ds
            if ds < ds_min:
                ds_min = ds
            elif ds > ds_max:
                ds_max = ds
    if gain > 0:
        if not ds_min:
            raise Na1FailsOnAtom(node, (ONE,))
        h = -ONE / ds_min
    elif gain < 0:
        if not ds_max:
            raise Na1FailsOnAtom(node, (-ONE,))
        h = -ONE / ds_max
    else:
        h = ZERO
    return (total + gain * h) / atom_mass, (h,)


def _simplex_program(tree: EventTree, P_masses: dict[int, Fraction],
                     S: AdaptedProcess, node: int,
                     weights: Optional[dict[int, Fraction]] = None
                     ) -> tuple[Fraction, tuple[Fraction, ...]]:
    d = S.dim
    atom_mass = P_masses[node]
    lp = LinearProgram(d)
    objective: dict[int, Fraction] = {}
    const = ZERO
    for c in tree.children_of(node):
        w = ONE if weights is None else weights[c]
        pw = P_masses[c] / atom_mass * w
        const += pw
        ds = tuple(a - b for a, b in zip(S[c], S[node]))
        for i in range(d):
            if ds[i] != 0:
                objective[i] = objective.get(i, ZERO) + pw * ds[i]
        row = {i: -ds[i] for i in range(d) if ds[i] != 0}
        if row:
            lp.add_le(row, ONE)            # 1 + h.dS >= 0 on this child
    lp.set_objective(objective)
    res = lp.solve()
    if res.status == UNBOUNDED:
        raise Na1FailsOnAtom(node, tuple(res.ray))
    assert res.status == OPTIMAL
    return const + res.value, tuple(res.x)


def backward_pass(problem: WealthProblem) -> dict[int, Fraction]:
    """Optimal value of every atom, bottom-up, leaves worth 1."""
    problem.require_positive()
    tree, S = problem.tree, problem.S
    masses = problem.P.node_masses(tree)
    z: dict[int, Fraction] = {}
    for v in reversed(tree.nodes):
        if v.children:
            z[v.id], _ = one_step_program(tree, masses, S, v.id, z)
        else:
            z[v.id] = ONE
    return z


def verify_deflation(problem: WealthProblem, Z: AdaptedProcess
                     ) -> list[tuple[int, Fraction]]:
    """The violations (atom, excess over Z) of the deflation certificate:
    one closed-form program per atom of positive mass, excess -1 when it is
    unbounded."""
    tree, P, S = problem.tree, problem.P, problem.S
    masses = P.node_masses(tree)
    violations: list[tuple[int, Fraction]] = []
    for v in tree.non_leaf_nodes():
        if masses[v.id] == 0:
            continue
        try:
            value, _ = one_step_program(tree, masses, S, v.id,
                                        {c: Z.at(c) for c in v.children})
        except Na1FailsOnAtom:
            violations.append((v.id, Fraction(-1)))
            continue
        if value > Z.at(v.id):
            violations.append((v.id, value - Z.at(v.id)))
    return violations
