"""Leaf-sum reference for the Kunita-Yoeurp mass accounting.

These are the per-atom sums that `DominatingMeasure` and the checks in
`kunita_yoeurp` used before they read one backward pass: every alive or dead
mass re-sums the leaves below the atom over the death slices, straight from
`dm.Q`.  They cost O(leaves below x horizon) per atom, so they serve only as
the oracle of `test_ky_single_pass.py`.  The stopping-time helpers are the
recursive hitting walk and the per-leaf ancestor scan of `StoppingTime`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from deflator_lab.arbitrage import WealthProblem
from deflator_lab.deflator import verify_deflation
from deflator_lab.filtered_space import AdaptedProcess

ZERO = Fraction(0)
ONE = Fraction(1)


def alive_mass(dm, node: int) -> Fraction:
    """Q(atom(node) x {zeta > time(node)})."""
    t = dm.tree.time_of(node)
    out = ZERO
    for leaf in dm.tree.leaves_below(node):
        out += dm.Q.get((leaf, None), ZERO)
        for j in range(t + 1, dm.tree.horizon + 1):
            out += dm.Q.get((leaf, j), ZERO)
    return out


def dead_mass(dm, node: int, j: int) -> Fraction:
    return sum((dm.Q.get((leaf, j), ZERO)
                for leaf in dm.tree.leaves_below(node)), ZERO)


def gamma(dm) -> dict:
    out = {}
    masses = dm.space.P.node_masses(dm.tree)
    for k in range(dm.tree.horizon + 1):
        for v, j in dm.space.atoms_at(k):
            q = alive_mass(dm, v) if j is None else dead_mass(dm, v, j)
            if q > 0:
                p = masses[v] if j is None else ZERO
                out[(v, j)] = p / q
    return out


def verify_ky_failures(dm, stopping_times=()) -> list[str]:
    tree, P = dm.tree, dm.space.P
    masses = P.node_masses(tree)
    failures: list[str] = []

    p_at_infinity = sum((dm.space.p_bar(leaf, None) for leaf in tree.leaves), ZERO)
    if p_at_infinity != 1:
        failures.append(f"property 1: P_bar(T = infinity) = {p_at_infinity}")

    for t in range(tree.horizon + 1):
        dead_q = ZERO
        for v, j in dm.space.atoms_at(t):
            if j is not None:
                dead_q += dead_mass(dm, v, j)
        direct = sum((dm.Q.get((leaf, j), ZERO) for leaf in tree.leaves
                      for j in range(1, t + 1)), ZERO)
        if dead_q != direct:
            failures.append(f"property 2: dead mass mismatch at t = {t}")

    for t in range(tree.horizon + 1):
        for v in tree.nodes_at(t):
            lhs = alive_mass(dm, v)
            rhs = masses[v] * dm.Z.at(v)
            if lhs != rhs:
                failures.append(
                    f"property 3: atom {v} at t = {t}: Q(alive) = {lhs}, "
                    f"E[1_A Z_t] = {rhs}")

    for idx, tau in enumerate(stopping_times):
        for u in tau.stop_at:
            lhs = alive_mass(dm, u)
            rhs = masses[u] * dm.Z.at(u)
            if lhs != rhs:
                failures.append(
                    f"stopping time {idx}: atom {u}: Q(A, T > tau) = {lhs} "
                    f"!= E_P[1_A Z_tau] = {rhs}")
    return failures


def stopped_price(dm, S: AdaptedProcess):
    """(violations, deflation certified) of the pre-death price check."""
    tree = dm.tree
    violations = []
    for v in tree.non_leaf_nodes():
        q_here = alive_mass(dm, v.id)
        if q_here == 0:
            continue
        drift = tuple(ZERO for _ in range(S.dim))
        for c in v.children:
            q_c = alive_mass(dm, c)
            if q_c != 0:
                ds = tuple(a - b for a, b in zip(S[c], S[v.id]))
                drift = tuple(a + q_c * x for a, x in zip(drift, ds))
        if any(x != 0 for x in drift):
            violations.append((v.id, tuple(x / q_here for x in drift)))

    g_all = gamma(dm)
    z_from_gamma = {}
    for v in tree.nodes:
        g = g_all.get((v.id, None))
        z_from_gamma[v.id] = ONE / g if g not in (None, ZERO) else dm.Z.at(v.id)
    problem = WealthProblem(tree, dm.space.P, S)
    deflation = verify_deflation(problem, AdaptedProcess.of_scalars(z_from_gamma))
    return violations, deflation.certified


def hitting_stop_set(tree, X: AdaptedProcess, level: Fraction,
                     component: int = 0) -> list[int]:
    stop: list[int] = []

    def walk(node: int) -> None:
        if X[node][component] >= level:
            stop.append(node)
            return
        for c in tree.children_of(node):
            walk(c)

    walk(tree.root)
    return stop


def stopped_nodes(tree, stop_at) -> dict[int, Optional[int]]:
    """The first stop on each leaf's path, after the pairwise antichain test."""
    for v in stop_at:
        for w in stop_at:
            if v != w and tree.is_ancestor(v, w):
                raise ValueError("stop set must be an antichain")
    out: dict[int, Optional[int]] = {}
    for leaf in tree.leaves:
        hit = None
        for k in range(tree.horizon + 1):
            anc = tree.ancestor_at(leaf, k)
            if anc in stop_at:
                hit = anc
                break
        out[leaf] = hit
    return out
