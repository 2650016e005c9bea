"""Dominating measures on the death-time extension of an event tree.

A supermartingale density Z cannot in general be the density of a measure on
the original leaves: once Z loses mass, the new measure must charge events the
old one cannot see.  The resolution is to extend each outcome w with a death
index zeta in {1..n, infinity} and put

    Q({w} x {k})        = P(w) * dA_k(w),      k = 1..n,
    Q({w} x {infinity}) = P(w) * Z_n(w),

where dA are the steps of the compensator A of Z, the predictable part of
its additive decomposition Z = Z_0 + M - A.  The original
measure embeds as P_bar = P x delta_infinity.  Telescoping M's martingale
property gives the progressive Lebesgue decomposition of Q against P_bar: Q
restricted to {T > t} has density Z_t on F_t, and the part that has already
died is singular to P_bar.  The death time is the coordinate T(w, zeta) =
zeta.

Expectations under Q of stopped or pre-death processes reduce to P
expectations against Z and dA; both sides are computed and compared exactly
here.  The pre-death price S^{T-} freezes S at its last value before death,
and its Q-drift on each still-alive atom is E_P[Z_{k+1} dS | atom] up to
positive normalization, which is what `check_stopped_price` reports.

Q stays a public dict of Fractions, and every check reads the current Q.
Inside each call Q's point masses are lifted onto one common denominator,
the lcm of theirs, so its tables are lists of int numerators.  P's atom
masses are the reduced int pairs of `filtered_space._mass_pairs`, and the
build computes the compensator from them atom by atom, never M.  Fractions
are built only for returned values and failure messages.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional

from .filtered_space import (AdaptedProcess, EventTree, ProbMeasure,
                             Strategy, _compensator, _mass_pairs, _over_lcm)

# The deflation certificate loads with `check_stopped_price`, its only user,
# so building and verifying a measure never compiles the arbitrage layer.
if TYPE_CHECKING:
    from .deflator import Deflator, DeflationReport

ZERO = Fraction(0)

# A death index is 1..n, or None for "never dies" (the embedded original world).
Death = Optional[int]


class EnlargedSpace:
    """Leaves x death indices, filtered by (atom of F_k) x (dead at j <= k, or
    still alive).  The embedding w -> (w, infinity) carries P to P_bar."""

    def __init__(self, tree: EventTree, P: ProbMeasure):
        self.tree = tree
        self.P = P

    def points(self) -> Iterable[tuple[int, Death]]:
        for leaf in self.tree.leaves:
            for zeta in range(1, self.tree.horizon + 1):
                yield (leaf, zeta)
            yield (leaf, None)

    def is_point(self, leaf: int, zeta: Death) -> bool:
        """Whether (leaf, zeta) is one of `points()`; Q mass on any other key
        lies outside the space and enters none of its atoms."""
        tree = self.tree
        return (0 <= leaf < len(tree.nodes) and tree.time_of(leaf) == tree.horizon
                and (zeta is None or 1 <= zeta <= tree.horizon))

    def p_bar(self, leaf: int, zeta: Death) -> Fraction:
        return self.P.mass(leaf) if zeta is None else ZERO

    def atoms_at(self, time: int) -> Iterable[tuple[int, Death]]:
        """F_bar_t atoms as (node, death) pairs; death None means alive."""
        for v in self.tree.nodes_at(time):
            for j in range(1, time + 1):
                yield (v, j)
            yield (v, None)


class KyError(ValueError):
    """Input cannot be the Kunita-Yoeurp data of a dominating measure."""


class DominatingMeasure:
    def __init__(self, space: EnlargedSpace, Q: dict[tuple[int, Death], Fraction],
                 Z: AdaptedProcess, dA: Strategy):
        self.space = space
        self.Q = Q
        self.Z = Z
        self.dA = dA
        d, nums = _over_lcm(list(Q.values()))
        total = sum(nums)
        if total != d:
            raise KyError(f"enlarged masses sum to {Fraction(total, d)}, not 1")

    @property
    def tree(self) -> EventTree:
        return self.space.tree

    def _points(self) -> tuple[list[tuple[int, Death]], int, list[int]]:
        """(keys, D, nums): the keys of the current Q that are points of the
        space, and their masses as numerators over one common denominator D,
        the lcm of theirs."""
        keys = [key for key in self.Q if self.space.is_point(*key)]
        d, nums = _over_lcm([self.Q[key] for key in keys])
        return keys, d, nums

    def _alive(self, keys: list[tuple[int, Death]], nums: list[int]) -> list[int]:
        """Q(atom(v) x {zeta > time(v)}) for every node v, by id, as a
        numerator over the D of `_points`: each point's mass lands on the
        leaf (zeta None) or on the node where it dies, and alive(v) sums
        alive + dying over v's children in one backward pass."""
        tree = self.tree
        alive = [0] * len(tree.nodes)
        dying = [0] * len(tree.nodes)
        paths: dict[int, list[int]] = {}
        for (leaf, zeta), mass in zip(keys, nums):
            if zeta is None:
                alive[leaf] += mass
            else:
                if leaf not in paths:
                    paths[leaf] = tree.path(leaf)
                dying[paths[leaf][zeta]] += mass
        for v in reversed(tree.nodes):
            if v.children:
                alive[v.id] = sum(alive[c] + dying[c] for c in v.children)
        return alive

    def _dead(self, keys: list[tuple[int, Death]], nums: list[int]
              ) -> list[dict[int, int]]:
        """{j: Q(atom(v) x {j})} for every node v and 1 <= j <= time(v), by
        id, as numerators over the D of `_points`: the leaves' death slices,
        merged upward over the children in one backward pass.  Slices without
        a point of Q are absent.  Its size is the number of dead atoms, so
        only `gamma` and `dead_masses` build it."""
        tree = self.tree
        dead: list[dict[int, int]] = [{} for _ in tree.nodes]
        for (leaf, zeta), mass in zip(keys, nums):
            if zeta is not None:
                dead[leaf][zeta] = mass
        for v in reversed(tree.nodes):
            if v.children:
                merged: dict[int, int] = {}
                for c in v.children:
                    for j, mass in dead[c].items():
                        if j <= v.time:
                            merged[j] = merged.get(j, 0) + mass
                dead[v.id] = merged
        return dead

    def alive_masses(self) -> list[Fraction]:
        """Q(atom(v) x {zeta > time(v)}) for every node v, by id, from the
        current Q."""
        keys, d, nums = self._points()
        return [Fraction(a, d) for a in self._alive(keys, nums)]

    def dead_masses(self) -> list[dict[int, Fraction]]:
        """{j: Q(atom(v) x {j})} for every node v and 1 <= j <= time(v), by
        id, from the current Q; slices without a point of Q are absent."""
        keys, d, nums = self._points()
        return [{j: Fraction(x, d) for j, x in slices.items()}
                for slices in self._dead(keys, nums)]

    def alive_mass(self, node: int) -> Fraction:
        """Q(atom(node) x {zeta > time(node)})."""
        return self.alive_masses()[node]

    def dead_mass(self, node: int, j: int) -> Fraction:
        """Q(atom(node) x {j}), on the dead atoms 1 <= j <= time(node)."""
        if not 1 <= j <= self.tree.time_of(node):
            raise ValueError(f"({node}, {j}) is not a dead atom")
        return self.dead_masses()[node].get(j, ZERO)

    def gamma(self) -> dict[tuple[int, Death], Fraction]:
        """Density dP_bar/dQ on the F_bar_k atoms of positive Q mass; atoms Q
        does not charge are omitted (0/0 stays undefined, not 0).  P_bar does
        not charge a dead atom, so gamma is 0 there."""
        out: dict[tuple[int, Death], Fraction] = {}
        masses = _mass_pairs(self.tree, self.space.P.leaf_mass)
        keys, dq, nums = self._points()
        alive, dead = self._alive(keys, nums), self._dead(keys, nums)
        for k in range(self.tree.horizon + 1):
            for v, j in self.space.atoms_at(k):
                if j is None:
                    if alive[v] > 0:
                        pn, pd = masses[v]
                        out[(v, j)] = Fraction(pn * dq, pd * alive[v])
                elif dead[v].get(j, 0) > 0:
                    out[(v, j)] = ZERO
        return out


def build_dominating_measure(tree: EventTree, P: ProbMeasure,
                             Z: "AdaptedProcess | Deflator") -> DominatingMeasure:
    """Solve the Kunita-Yoeurp problem for Z: place the compensator mass on
    the death slices and the surviving density mass at infinity.  Z is a
    process or a `Deflator`.  Z_0 = 1 and Z > 0 are checked first; then the
    compensator steps dA come from `_compensator`, one Fraction per atom,
    and the martingale part of Z is never built."""
    Zp = Z if isinstance(Z, AdaptedProcess) else Z.Z
    if not P.strictly_positive:
        raise KyError("the base measure must be strictly positive")
    if Zp.at(tree.root) != 1:
        raise KyError(
            f"normalization error: E[Z_0] = {Zp.at(tree.root)}, expected 1 "
            "(rescale by the root value first)")
    if any(Zp.at(v.id) <= 0 for v in tree.nodes):
        raise KyError("density must be strictly positive")
    dA = _compensator(tree, P, Zp)
    for v, step in dA.items():
        if step < 0:
            raise KyError(f"not a supermartingale: compensator step at node "
                          f"{v} is {step}")
    # P(w) dA and P(w) Z_n from numerators and denominators: one Fraction
    # per point, and P(w) > 0, so a point has mass exactly when its step does
    steps = {u: (x.numerator, x.denominator)
             for u, x in dA.items() if x != 0}
    Q: dict[tuple[int, Death], Fraction] = {}
    for leaf in tree.leaves:
        p = P.mass(leaf)
        pn, pd = p.numerator, p.denominator
        path = tree.path(leaf)
        for j in range(1, tree.horizon + 1):
            step = steps.get(path[j - 1])
            if step is not None:
                Q[(leaf, j)] = Fraction(pn * step[0], pd * step[1])
        z = Zp.at(leaf)
        Q[(leaf, None)] = Fraction(pn * z.numerator, pd * z.denominator)
    return DominatingMeasure(EnlargedSpace(tree, P), Q, Zp,
                             Strategy.of_scalars(dA))


class KyReport:
    def __init__(self, passed: bool, failures: list[str]):
        self.passed = passed
        self.failures = failures


def verify_ky(dm: DominatingMeasure) -> KyReport:
    """Exact check of the three decomposition properties.  Q's point masses
    are summed as numerators over their lcm, and P's atom masses are the
    reduced pairs of `_mass_pairs`; Fractions are built only for failure
    messages.

    The stopped identity Q(A n {T > tau}) = E_P[1_{A, tau < inf} Z_tau] of a
    stopping time tau is property 3 read on tau's stop nodes, so it needs no
    check of its own."""
    tree = dm.tree
    masses = _mass_pairs(tree, dm.space.P.leaf_mass)
    keys, dq, nums = dm._points()
    alive = dm._alive(keys, nums)
    failures: list[str] = []

    # (1) the embedded measure never dies: P_bar(T = infinity) = P(root)
    pn, pd = masses[tree.root]
    if pn != pd:
        failures.append(f"property 1: P_bar(T = infinity) = {Fraction(pn, pd)}")

    # (2) mutual singularity on each layer: every dead atom is P_bar-null (by
    # construction of the embedding), and the dead mass of Q all sits on
    # those atoms.  Every leaf lies below exactly one time-t atom, so the dead
    # mass of layer t is Q's total minus that layer's alive masses; it must
    # equal the running total of the death slices 1..t summed point by point.
    slices = [0] * (tree.horizon + 1)
    for (_, zeta), mass in zip(keys, nums):
        if zeta is not None:
            slices[zeta] += mass
    total = sum(nums)
    direct = 0
    for t in range(tree.horizon + 1):
        direct += slices[t]
        dead_q = total - sum(alive[v] for v in tree.nodes_at(t))
        if dead_q != direct:
            failures.append(f"property 2: dead mass mismatch at t = {t}")

    # (3) the density relation Q(alive) = P(A) Z_t on every atom and layer,
    # cross-multiplied: alive/dq = (pn/pd) (Z's numerator/denominator)
    for v in tree.nodes:
        z = dm.Z.at(v.id)
        pn, pd = masses[v.id]
        if alive[v.id] * pd * z.denominator != pn * z.numerator * dq:
            failures.append(
                f"property 3: atom {v.id} at t = {v.time}: Q(alive) = "
                f"{Fraction(alive[v.id], dq)}, E[1_A Z_t] = "
                f"{Fraction(pn, pd) * z}")
    return KyReport(passed=not failures, failures=failures)


def yoeurp_expectation(dm: DominatingMeasure, Y: "Strategy | AdaptedProcess"
                       ) -> tuple[Fraction, Fraction]:
    """Both sides of the transfer formula, asserted equal.

    For a predictable Y (a Strategy), the Q side is E_Q[Y_{T and n}] and the P
    side is E_P[Y_n Z_n + sum_k Y_k dA_k].  For an adapted Y (a process), the
    pre-death version uses the left limit Y_{zeta-1} at death, and the P-side
    integrand picks up Y_{k-1} against dA_k.
    """
    tree = dm.tree
    P = dm.space.P
    n = tree.horizon

    paths: dict[int, list[int]] = {}

    def path(leaf: int) -> list[int]:
        if leaf not in paths:
            paths[leaf] = tree.path(leaf)
        return paths[leaf]

    # In both forms the value carried into the death slice j, and the P-side
    # integrand against dA_k, sit on the time-(j-1) ancestor: the step decided
    # there for a predictable Y, the left limit there for an adapted Y.
    def before(leaf: int, j: int) -> Fraction:
        return Y.at(path(leaf)[j - 1])

    def terminal(leaf: int) -> Fraction:
        if isinstance(Y, Strategy):
            return Y.at(path(leaf)[n - 1])
        return Y.at(leaf)

    q_side = ZERO
    for (leaf, zeta), mass in dm.Q.items():
        q_side += mass * (terminal(leaf) if zeta is None else before(leaf, zeta))
    p_side = ZERO
    for leaf in tree.leaves:
        inner = terminal(leaf) * dm.Z.at(leaf)
        for k in range(1, n + 1):
            inner += before(leaf, k) * dm.dA.at(path(leaf)[k - 1])
        p_side += P.mass(leaf) * inner
    if q_side != p_side:
        raise AssertionError(
            f"transfer formula out of balance: Q side {q_side}, P side {p_side}")
    return q_side, p_side


class StoppedPriceReport:
    def __init__(self, is_martingale: bool,
                 violations: list[tuple[int, tuple[Fraction, ...]]],
                 deflation: DeflationReport):
        self.is_martingale = is_martingale
        self.violations = violations        # (atom, drift vector)
        self.deflation = deflation


def check_stopped_price(dm: DominatingMeasure, S: AdaptedProcess
                        ) -> StoppedPriceReport:
    """Q-martingale test of the pre-death price, atom by atom.

    On a dead atom the frozen price cannot move, so only alive atoms matter:
    death at the next step freezes S at its current value (increment zero),
    and survival moves it by dS, so the conditional Q-drift is

        sum_children dS(child) * Q(child alive) / Q(atom alive).

    The report also runs the converse direction: the density recovered from
    gamma = dP_bar/dQ on the alive atoms must deflate every 1-admissible
    wealth, certified per atom.  Where property 3 holds that density is Z,
    and certifying Z would repeat `deflate`'s certificate; but the round trip
    reads Q's own density, so it is the only check that sees a Q edited
    after its build whose density fails to deflate.  Over certifying Z it
    adds only P's node masses and one Fraction per node.
    """
    tree = dm.tree
    keys, dq, nums = dm._points()
    alive = dm._alive(keys, nums)
    # S over one denominator ds too, s[v] the numerators of S_v: the drift
    # sum_c alive_c (s_c - s_v) is an int over dq ds, and divided by the
    # alive mass it is a Fraction over alive_v ds
    ds, flat = _over_lcm([x for v in tree.nodes for x in S[v.id]])
    s = [flat[i:i + S.dim] for i in range(0, len(flat), S.dim)]
    violations: list[tuple[int, tuple[Fraction, ...]]] = []
    for v in tree.non_leaf_nodes():
        q_here = alive[v.id]
        if q_here == 0:
            continue
        drift = [0] * S.dim
        for c in v.children:
            q_c = alive[c]
            if q_c != 0:
                for k, (a, b) in enumerate(zip(s[c], s[v.id])):
                    drift[k] += q_c * (a - b)
        if any(drift):
            violations.append(
                (v.id, tuple(Fraction(x, q_here * ds) for x in drift)))

    # gamma = masses / alive on the alive atoms of positive mass inverts back
    # to alive / masses = Z; feed it through the exact deflation certificate
    # as the converse-direction check, as (numerator, denominator) pairs, so
    # no Fraction is built per node.  Only alive atoms enter, so the dead
    # table is never built here.
    from .arbitrage import WealthProblem
    from .deflator import _certify_pairs

    masses = _mass_pairs(tree, dm.space.P.leaf_mass)
    z_from_gamma = []
    for v in tree.nodes:
        q, (pn, pd) = alive[v.id], masses[v.id]
        if q > 0 and pn != 0:
            z_from_gamma.append((q * pd, pn * dq))
        else:
            z = dm.Z.at(v.id)
            z_from_gamma.append((z.numerator, z.denominator))
    problem = WealthProblem(tree, dm.space.P, S)
    return StoppedPriceReport(is_martingale=not violations,
                              violations=violations,
                              deflation=_certify_pairs(problem, z_from_gamma))
