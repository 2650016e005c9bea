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

Each measure keeps its point masses in one private table of reduced int
pairs and sums it once, bottom up, into the alive and dying mass of every
atom, with the arithmetic of `filtered_space`'s pair section, so no sum
runs over one common denominator of all of Q.  Every check reads these
tables, so it verifies the measure as it was made.  The build computes the
compensator atom by atom, never M, and Fractions are built only for
returned values and failure messages.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .filtered_space import (ZERO_PAIR, AdaptedProcess, EventTree, Pair,
                             ProbMeasure, Strategy, _compensator, _increments,
                             _lift_pairs, _process_pairs, _sum_pairs)

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
        P.validate_for(tree)
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
    """Q on the points of `space`, with the Z and dA it was built from.
    Its point masses are converted once into a table of pairs, which every
    check reads; `Q` is a read-only mapping of Fractions over it."""

    def __init__(self, space: EnlargedSpace, Q: Mapping[tuple[int, Death], Fraction],
                 Z: AdaptedProcess, dA: Strategy):
        points = {key: x.as_integer_ratio() for key, x in Q.items()}
        self._setup(space, points, Z, dA, frozenset(
            key for key in points if not space.is_point(*key)))

    @classmethod
    def _of_pairs(cls, space: EnlargedSpace, points: dict[tuple[int, Death], Pair],
                  Z: AdaptedProcess, dA: Strategy) -> "DominatingMeasure":
        """The measure of a table of reduced pairs keyed by points of
        `space` only, taken as it is."""
        dm = cls.__new__(cls)
        dm._setup(space, points, Z, dA, frozenset())
        return dm

    def _setup(self, space: EnlargedSpace, points: dict[tuple[int, Death], Pair],
               Z: AdaptedProcess, dA: Strategy,
               outside: frozenset[tuple[int, Death]]) -> None:
        self.space = space
        self.Z = Z
        self.dA = dA
        # `outside` holds the keys that are no point of the space: they count
        # in the total and enter no atom
        self._points = points
        self._outside = outside
        self._Q: Optional[Mapping[tuple[int, Death], Fraction]] = None
        self._dead: Optional[list[dict[int, Pair]]] = None
        self._alive, self._dying = self._sum()
        total = _sum_pairs([self._alive[self.tree.root],
                            *(points[key] for key in outside)])
        if total != (1, 1):
            raise KyError(f"enlarged masses sum to {Fraction(*total)}, not 1")

    @property
    def tree(self) -> EventTree:
        return self.space.tree

    @property
    def Q(self) -> Mapping[tuple[int, Death], Fraction]:
        """The point masses as Fractions, read-only; built on first access."""
        if self._Q is None:
            self._Q = MappingProxyType(
                {key: Fraction(n, d) for key, (n, d) in self._points.items()})
        return self._Q

    def _point_items(self) -> Iterable[tuple[tuple[int, Death], Pair]]:
        if not self._outside:
            return self._points.items()
        return [(key, x) for key, x in self._points.items()
                if key not in self._outside]

    def _sum(self) -> tuple[list[Pair], list[Pair]]:
        """(alive, dying) by node id: alive(v) = Q(atom(v) x {zeta >
        time(v)}), and dying(v) the mass of the points below v with zeta =
        time(v), which die on v.  A point with zeta None is its leaf's alive
        mass; one walk up its leaf's path finds where the others die.  Then
        alive(v) sums alive + dying over v's children, in one backward
        pass."""
        tree = self.tree
        alive = [ZERO_PAIR] * len(tree.nodes)
        dying = [ZERO_PAIR] * len(tree.nodes)
        groups: list[Optional[list[Pair]]] = [None] * len(tree.nodes)
        leaf, path = None, []
        for (at, zeta), x in self._point_items():
            if zeta is None:
                alive[at] = x
                continue
            if at != leaf:
                leaf, path = at, tree.path(at)
            group = groups[path[zeta]]
            if group is None:
                groups[path[zeta]] = [x]
            else:
                group.append(x)
        for v in reversed(tree.nodes):
            if v.children:
                terms = []
                for c in v.children:
                    terms.append(alive[c])
                    if dying[c][0]:
                        terms.append(dying[c])
                alive[v.id] = _sum_pairs(terms)
            group = groups[v.id]
            if group is not None:
                dying[v.id] = _sum_pairs(group)
                groups[v.id] = None
        return alive, dying

    def _dead_pairs(self) -> list[dict[int, Pair]]:
        """{j: Q(atom(v) x {j})} for every node v and 1 <= j <= time(v), by
        id: the leaves' death slices, merged upward over the children.
        Slices without a point of Q are absent.  Its size is the number of
        dead atoms, so it is summed on the first call of `gamma`,
        `dead_masses` or `dead_mass`, and kept."""
        if self._dead is None:
            tree = self.tree
            dead: list[dict[int, Pair]] = [{} for _ in tree.nodes]
            for (leaf, zeta), x in self._point_items():
                if zeta is not None:
                    dead[leaf][zeta] = x
            for v in reversed(tree.nodes):
                if v.children:
                    merged: dict[int, list[Pair]] = {}
                    for c in v.children:
                        for j, x in dead[c].items():
                            if j <= v.time:
                                merged.setdefault(j, []).append(x)
                    dead[v.id] = {j: _sum_pairs(xs) for j, xs in merged.items()}
            self._dead = dead
        return self._dead

    def alive_masses(self) -> list[Fraction]:
        """Q(atom(v) x {zeta > time(v)}) for every node v, by id."""
        return [Fraction(n, d) for n, d in self._alive]

    def dead_masses(self) -> list[dict[int, Fraction]]:
        """{j: Q(atom(v) x {j})} for every node v and 1 <= j <= time(v), by
        id; slices without a point of Q are absent."""
        return [{j: Fraction(n, d) for j, (n, d) in slices.items()}
                for slices in self._dead_pairs()]

    def alive_mass(self, node: int) -> Fraction:
        """Q(atom(node) x {zeta > time(node)})."""
        return Fraction(*self._alive[node])

    def dead_mass(self, node: int, j: int) -> Fraction:
        """Q(atom(node) x {j}), on the dead atoms 1 <= j <= time(node)."""
        if not 1 <= j <= self.tree.time_of(node):
            raise ValueError(f"({node}, {j}) is not a dead atom")
        return Fraction(*self._dead_pairs()[node].get(j, ZERO_PAIR))

    def gamma(self) -> dict[tuple[int, Death], Fraction]:
        """Density dP_bar/dQ on the F_bar_k atoms of positive Q mass; atoms Q
        does not charge are omitted (0/0 stays undefined, not 0).  P_bar does
        not charge a dead atom, so gamma is 0 there."""
        out: dict[tuple[int, Death], Fraction] = {}
        masses = self.space.P._atom_pairs(self.tree)
        alive, dead = self._alive, self._dead_pairs()
        for k in range(self.tree.horizon + 1):
            for v, j in self.space.atoms_at(k):
                if j is None:
                    an, ad = alive[v]
                    if an > 0:
                        pn, pd = masses[v]
                        out[(v, j)] = Fraction(pn * ad, pd * an)
                elif dead[v].get(j, ZERO_PAIR)[0] > 0:
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
    values = Zp.values
    if any(values[v.id][0].numerator <= 0 for v in tree.nodes):
        raise KyError("density must be strictly positive")
    dA = _compensator(tree, P, Zp)
    # P(w) dA and P(w) Z_n as reduced pairs: the product of two reduced
    # fractions reduces by two cross gcds, as Fraction.__mul__ does.  P(w) >
    # 0, so a point has mass exactly when its step does.
    steps: dict[int, Pair] = {}
    for v, step in dA.items():
        if step.numerator < 0:
            raise KyError(f"not a supermartingale: compensator step at node "
                          f"{v} is {step}")
        if step.numerator:
            steps[v] = step.as_integer_ratio()
    gcd = math.gcd
    points: dict[tuple[int, Death], Pair] = {}
    for leaf in tree.leaves:
        pn, pd = P.leaf_mass[leaf].as_integer_ratio()
        path = tree.path(leaf)
        for j in range(1, tree.horizon + 1):
            step = steps.get(path[j - 1])
            if step is not None:
                sn, sd = step
                g, h = gcd(pn, sd), gcd(sn, pd)
                points[(leaf, j)] = (pn // g * (sn // h), pd // h * (sd // g))
        zn, zd = values[leaf][0].as_integer_ratio()
        g, h = gcd(pn, zd), gcd(zn, pd)
        points[(leaf, None)] = (pn // g * (zn // h), pd // h * (zd // g))
    return DominatingMeasure._of_pairs(
        EnlargedSpace(tree, P), points, Zp,
        Strategy.of_vectors({v: (step,) for v, step in dA.items()}, 1))


class KyReport:
    def __init__(self, passed: bool, failures: list[str]):
        self.passed = passed
        self.failures = failures


def verify_ky(dm: DominatingMeasure) -> KyReport:
    """Exact check of the decomposition properties, on the measure's alive
    table and the reduced pairs of `_mass_pairs`; Fractions are built only
    for failure messages.

    Of the three properties, the construction guarantees the first two, so
    only the third is checked:

    1. P_bar(T = infinity) = P(root) = 1: `ProbMeasure` forces its leaf
       masses to sum to 1, and `EnlargedSpace` ties them to the tree's
       leaves.
    2. Each layer's dead mass, Q's total minus the layer's alive masses,
       equals the death slices 1..t: `DominatingMeasure._sum` builds each
       alive mass from its children's alive and dying masses, so both sides
       are the same additions.
    3. The density relation Q(alive) = P(A) Z_t on every atom and layer.

    The stopped identity Q(A n {T > tau}) = E_P[1_{A, tau < inf} Z_tau] of a
    stopping time tau is property 3 read on tau's stop nodes, so it needs no
    check of its own."""
    tree = dm.tree
    masses = dm.space.P._atom_pairs(tree)
    alive = dm._alive
    failures: list[str] = []

    # property 3, cross-multiplied: an/ad = (pn/pd) (Z's numerator/denominator)
    for v in tree.nodes:
        z = dm.Z.at(v.id)
        (an, ad), (pn, pd) = alive[v.id], masses[v.id]
        if an * pd * z.denominator != pn * z.numerator * ad:
            failures.append(
                f"property 3: atom {v.id} at t = {v.time}: Q(alive) = "
                f"{Fraction(an, ad)}, E[1_A Z_t] = {Fraction(pn, pd) * z}")
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
    reads Q's own density, so it is the only check that sees a measure made
    from points whose density fails to deflate.  Over certifying Z it adds
    one pair per node.
    """
    from .arbitrage import WealthProblem
    from .deflator import _certify_pairs

    tree = dm.tree
    WealthProblem(tree, dm.space.P, S)      # validates S against the tree
    alive = dm._alive
    # the drift sum_c alive_c (s_c - s_v) is an int over the lift of the
    # children's alive masses times the scale of `_increments`; divided by
    # the alive mass it is one Fraction
    prices = [_process_pairs(tree, S, k) for k in range(S.dim)]
    violations: list[tuple[int, tuple[Fraction, ...]]] = []
    for v in tree.non_leaf_nodes():
        vn, vd = alive[v.id]
        if vn == 0:
            continue
        d, weights = _lift_pairs([alive[c] for c in v.children])
        drift = []
        for s in prices:
            scale, e = _increments(s, v.id, v.children)
            drift.append((sum([w * x for w, x in zip(weights, e)]), scale))
        if any(x for x, _ in drift):
            violations.append((v.id, tuple(Fraction(x * vd, d * scale * vn)
                                           for x, scale in drift)))

    # gamma = masses / alive on the alive atoms of positive mass inverts back
    # to alive / masses = Z; feed it as pairs through the exact deflation
    # certificate as the converse-direction check.  Only alive atoms enter,
    # so the dead table is never built here.
    masses = dm.space.P._atom_pairs(tree)
    z_from_gamma = [(an * pd, ad * pn) if an > 0 and pn != 0
                    else dm.Z.at(v).as_integer_ratio()
                    for v, ((an, ad), (pn, pd)) in enumerate(zip(alive, masses))]
    return StoppedPriceReport(
        is_martingale=not violations, violations=violations,
        deflation=_certify_pairs(tree, masses, prices, z_from_gamma))
