"""The `Fraction` closed form of the one-asset one-step program: the
differential oracle of the library's int kernel.

The library solves one-asset one-step programs on reduced (numerator,
denominator) int pairs (`arbitrage._atom_program`), and runs the backward
pass and the deflation certificate on them.  This module keeps the
`Fraction` code they replaced: `one_step_program`'s closed form, the
backward pass over `ProbMeasure.node_masses`, and the certificate that
calls the closed form once per atom of positive mass, returning its
violations.  All three are one asset only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from deflator_lab.arbitrage import Na1FailsOnAtom, WealthProblem
from deflator_lab.filtered_space import AdaptedProcess, EventTree

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
    when a = 0), and a missing endpoint is the ray (1,) or (-1,)."""
    atom_mass = P_masses[node]
    if atom_mass == 0:
        raise ValueError(f"one-step program on null atom {node}")
    assert S.dim == 1
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
