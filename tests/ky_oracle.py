"""Leaf-sum and Fraction references for the Kunita-Yoeurp mass accounting.

These are the per-atom sums that `DominatingMeasure` and the checks in
`kunita_yoeurp` used before they read one backward pass: every alive or dead
mass re-sums the leaves below the atom over the death slices, straight from
`dm.Q`.  They cost O(leaves below x horizon) per atom, so they serve only as
the oracle of `test_ky_single_pass.py`.  `verify_ky_failures` also checks
the stopped identity of each given stopping time on its own; production
leaves it to property 3, of which it is a reading.  The stopping-time
helpers are the recursive hitting walk and the per-leaf ancestor scan of
`StoppingTime`.

`doob_decomposition`, `alive_masses` and `dead_masses` are the backward
passes as they ran in `Fraction` arithmetic.  Production now keeps Q's
tables as reduced int pairs and sums them once per measure, each atom over
the lcm of its own terms' denominators, and computes the compensator steps
atom by atom from the reduced int pairs of `filtered_space._mass_pairs`,
with no martingale part.

`build_by_points` is the dominating measure built point by point, as
production built it before it filled its node tables from Z: the reference
of `test_ky_node_build.py`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from deflator_lab.arbitrage import WealthProblem
from deflator_lab.deflator import verify_deflation
from deflator_lab.filtered_space import AdaptedProcess, Strategy
from deflator_lab.kunita_yoeurp import DominatingMeasure, EnlargedSpace

ZERO = Fraction(0)
ONE = Fraction(1)


def doob_decomposition(tree, P, Z):
    """(M, dA) of Z = Z_0 + M - A by Fraction sums: dA is Z minus the
    conditional mean of the next value, and A and M are its path sums."""
    masses = P.node_masses(tree)
    dA: dict[int, Fraction] = {}
    for v in tree.non_leaf_nodes():
        exp_next = sum((masses[c] * Z.at(c) for c in v.children), ZERO)
        dA[v.id] = Z.at(v.id) - exp_next / masses[v.id]
    M: dict[int, Fraction] = {tree.root: ZERO}
    A: dict[int, Fraction] = {tree.root: ZERO}
    z0 = Z.at(tree.root)
    for v in tree.nodes:
        if v.parent is None:
            continue
        A[v.id] = A[v.parent] + dA[v.parent]
        M[v.id] = Z.at(v.id) - z0 + A[v.id]
    return AdaptedProcess.of_scalars(M), Strategy.of_scalars(dA)


def build_by_points(tree, P, Z):
    """Q point by point: P(w) dA on each death slice (w, j) whose step is
    nonzero, found by one walk up w's path, and P(w) Z_n(w) at infinity,
    in leaf order, then j = 1..n, then infinity; entered through the point
    constructor of `DominatingMeasure`, with the `Fraction` compensator."""
    _, dA = doob_decomposition(tree, P, Z)
    Q: dict = {}
    for leaf in tree.leaves:
        path = tree.path(leaf)
        for j in range(1, tree.horizon + 1):
            step = dA.at(path[j - 1])
            if step:
                Q[(leaf, j)] = P.mass(leaf) * step
        Q[(leaf, None)] = P.mass(leaf) * Z.at(leaf)
    return DominatingMeasure(EnlargedSpace(tree, P), Q, Z, dA)


def alive_masses(dm) -> list[Fraction]:
    """Every node's alive mass by one backward pass of Fraction sums."""
    tree = dm.tree
    alive = [ZERO] * len(tree.nodes)
    dying = [ZERO] * len(tree.nodes)
    for (leaf, zeta), mass in dm.Q.items():
        if not dm.space.is_point(leaf, zeta):
            continue
        if zeta is None:
            alive[leaf] += mass
        else:
            dying[tree.path(leaf)[zeta]] += mass
    for v in reversed(tree.nodes):
        if v.children:
            alive[v.id] = sum((alive[c] + dying[c] for c in v.children), ZERO)
    return alive


def dead_masses(dm) -> list[dict[int, Fraction]]:
    """Every node's death slices by one backward merge of Fraction sums."""
    tree = dm.tree
    dead: list[dict[int, Fraction]] = [{} for _ in tree.nodes]
    for (leaf, zeta), mass in dm.Q.items():
        if zeta is not None and dm.space.is_point(leaf, zeta):
            dead[leaf][zeta] = mass
    for v in reversed(tree.nodes):
        if v.children:
            merged: dict[int, Fraction] = {}
            for c in v.children:
                for j, mass in dead[c].items():
                    if j <= v.time:
                        merged[j] = merged.get(j, ZERO) + mass
            dead[v.id] = merged
    return dead


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
