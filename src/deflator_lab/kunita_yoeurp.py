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

Every check reads two node tables of reduced int pairs, each atom's alive
and dying mass, summed once bottom up with `filtered_space`'s pair section,
so no sum runs over one common denominator of all of Q.  A measure given by
its points groups them into the tables; a built one fills them from Z's
nodes, since both are node quantities, and derives its points only where
they are read (`Q`, the points file).  The build computes the compensator
atom by atom, never M, and Fractions are built only for returned values and
failure messages.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional

from .filtered_space import (ZERO_PAIR, AdaptedProcess, EventTree, Pair,
                             ProbMeasure, Strategy, _compensator, _increments,
                             _lift_pairs, _process_pairs, _product, _sum_pairs)

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
    """Q on the points of `space`, with the Z and dA it was built from, as
    the node tables alive(v) = Q(atom(v) x {zeta > time(v)}) and dying(v),
    the mass of the points below v with zeta = time(v)."""

    def __init__(self, space: EnlargedSpace, Q: Mapping[tuple[int, Death], Fraction],
                 Z: AdaptedProcess, dA: Strategy):
        """The measure of its point masses.  A point with zeta None is its
        leaf's alive mass; one walk up its leaf's path finds where the
        others die.  Keys that are no point of the space count in the total
        and enter no atom."""
        tree = space.tree
        points = {key: x.as_integer_ratio() for key, x in Q.items()}
        alive = [ZERO_PAIR] * len(tree.nodes)
        groups: list[list[Pair]] = [[] for _ in tree.nodes]
        outside: list[Pair] = []
        leaf, path = None, []
        for (at, zeta), x in points.items():
            if not space.is_point(at, zeta):
                outside.append(x)
            elif zeta is None:
                alive[at] = x
            else:
                if at != leaf:
                    leaf, path = at, tree.path(at)
                groups[path[zeta]].append(x)
        self._setup(space, Z, dA, alive,
                    [_sum_pairs(group) for group in groups], points, None)
        total = _sum_pairs([alive[tree.root], *outside])
        if total != (1, 1):
            raise KyError(f"enlarged masses sum to {Fraction(*total)}, not 1")

    def _setup(self, space: EnlargedSpace, Z: AdaptedProcess, dA: Strategy,
               alive: list[Pair], dying: list[Pair],
               points: Optional[dict[tuple[int, Death], Pair]],
               steps: Optional[dict[int, Pair]]) -> None:
        """Keep the tables and finish `alive` by the one backward pass of both
        kinds of measure, alive(v) = sum of alive(c) + dying(c) over v's
        children; so property 2 holds by the same additions."""
        self.space, self.Z, self.dA = space, Z, dA
        self._alive, self._dying = alive, dying
        # point -> reduced pair, and for a built measure the nonzero
        # compensator steps from which that table is derived on first use
        self._table, self._steps = points, steps
        self._Q: Optional[Mapping[tuple[int, Death], Fraction]] = None
        self._dead: Optional[list[dict[int, Pair]]] = None
        for v in reversed(space.tree.nodes):
            if v.children:
                terms = []
                for c in v.children:
                    terms.append(alive[c])
                    if dying[c][0]:
                        terms.append(dying[c])
                alive[v.id] = _sum_pairs(terms)

    @property
    def tree(self) -> EventTree:
        return self.space.tree

    @property
    def _points(self) -> dict[tuple[int, Death], Pair]:
        """The point masses as reduced pairs, in `_records` order for a
        built measure."""
        if self._table is None:
            self._table = {(leaf, zeta): x for leaf, zeta, x in self._records()}
        return self._table

    def _records(self) -> Iterator[tuple[int, Death, Pair]]:
        """(leaf, zeta, mass) of every point of a built measure, by leaf,
        then zeta = 1..n, then None: the points file's order.  One walk up
        each leaf's path finds the steps; a point has mass exactly where
        its step does, since P(w) > 0."""
        tree, steps = self.tree, self._steps
        masses = self.space.P._atom_pairs(tree)
        for leaf in tree.leaves:
            for j, at in enumerate(tree.path(leaf)[:-1], 1):
                step = steps.get(at)
                if step is not None:
                    yield leaf, j, _product(masses[leaf], step)
            yield leaf, None, self._alive[leaf]

    @property
    def Q(self) -> Mapping[tuple[int, Death], Fraction]:
        """The point masses as Fractions, read-only; built on first access."""
        if self._Q is None:
            self._Q = MappingProxyType(
                {key: Fraction(n, d) for key, (n, d) in self._points.items()})
        return self._Q

    def _dead_pairs(self) -> list[dict[int, Pair]]:
        """{j: Q(atom(v) x {j})} for every node v and 1 <= j <= time(v), by
        id: the leaves' death slices, merged upward over the children.
        Slices without a point of Q are absent.  Its size is the number of
        dead atoms, so it is summed on the first call of `gamma` or
        `dead_mass`, and kept."""
        if self._dead is None:
            tree, space = self.tree, self.space
            dead: list[dict[int, Pair]] = [{} for _ in tree.nodes]
            for (leaf, zeta), x in self._points.items():
                if zeta is not None and space.is_point(leaf, zeta):
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
    compensator steps dA come from `_compensator`, one reduced pair per
    atom, and the martingale part of Z is never built.

    Both tables are node quantities: alive(leaf) = P(leaf) Z(leaf), and
    every point that dies on v carries P(w) dA(parent(v)), so dying(v) =
    P(v) dA(parent(v)).  Each is one product of reduced pairs, and no point
    is made.  Q's total is alive(root), which property 3 compares with
    P(root) Z_0 = 1, so a wrong compensator shows there."""
    Zp = Z if isinstance(Z, AdaptedProcess) else Z.Z
    if not P.strictly_positive:
        raise KyError("the base measure must be strictly positive")
    if Zp.at(tree.root) != 1:
        raise KyError(
            f"normalization error: E[Z_0] = {Zp.at(tree.root)}, expected 1 "
            "(rescale by the root value first)")
    z = _process_pairs(tree, Zp)
    if any(n <= 0 for n, _ in z):
        raise KyError("density must be strictly positive")
    dA = _compensator(tree, P, Zp)
    steps: dict[int, Pair] = {}
    for v, step in dA.items():
        if step[0] < 0:
            raise KyError(f"not a supermartingale: compensator step at node "
                          f"{v} is {Fraction(*step)}")
        if step[0]:
            steps[v] = step
    masses = P._atom_pairs(tree)
    alive = [ZERO_PAIR] * len(tree.nodes)
    dying = [ZERO_PAIR] * len(tree.nodes)
    for v in tree.nodes[1:]:
        step = steps.get(v.parent)
        if step is not None:
            dying[v.id] = _product(masses[v.id], step)
    for leaf in tree.leaves:
        alive[leaf] = _product(masses[leaf], z[leaf])
    dm = DominatingMeasure.__new__(DominatingMeasure)
    dm._setup(EnlargedSpace(tree, P), Zp,
              Strategy({v: (step,) for v, step in dA.items()}, 1, _pairs=True),
              alive, dying, None, steps)
    return dm


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
       equals the death slices 1..t: `DominatingMeasure._setup` builds each
       alive mass from its children's alive and dying masses, so both sides
       are the same additions.
    3. The density relation Q(alive) = P(A) Z_t on every atom and layer.

    The stopped identity Q(A n {T > tau}) = E_P[1_{A, tau < inf} Z_tau] of a
    stopping time tau is property 3 read on tau's stop nodes, so it needs no
    check of its own."""
    tree = dm.tree
    masses = dm.space.P._atom_pairs(tree)
    alive = dm._alive
    z = _process_pairs(tree, dm.Z)
    failures: list[str] = []

    # property 3, cross-multiplied: an/ad = (pn/pd) (zn/zd)
    for v in tree.nodes:
        (an, ad), (pn, pd), (zn, zd) = alive[v.id], masses[v.id], z[v.id]
        if an * pd * zd != pn * zn * ad:
            failures.append(
                f"property 3: atom {v.id} at t = {v.time}: Q(alive) = "
                f"{Fraction(an, ad)}, E[1_A Z_t] = {Fraction(pn * zn, pd * zd)}")
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
    paths = {leaf: tree.path(leaf) for leaf in tree.leaves}

    # In both forms the value carried into the death slice j, and the P-side
    # integrand against dA_k, sit on the time-(j-1) ancestor: the step decided
    # there for a predictable Y, the left limit there for an adapted Y.
    def before(leaf: int, j: int) -> Fraction:
        return Y.at(paths[leaf][j - 1])

    def terminal(leaf: int) -> Fraction:
        if isinstance(Y, Strategy):
            return Y.at(paths[leaf][n - 1])
        return Y.at(leaf)

    q_side = ZERO
    for (leaf, zeta), mass in dm.Q.items():
        q_side += mass * (terminal(leaf) if zeta is None else before(leaf, zeta))
    p_side = ZERO
    for leaf in tree.leaves:
        inner = terminal(leaf) * dm.Z.at(leaf)
        for k in range(1, n + 1):
            inner += before(leaf, k) * dm.dA.at(paths[leaf][k - 1])
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
    z = _process_pairs(tree, dm.Z)
    z_from_gamma = [(an * pd, ad * pn) if an > 0 and pn != 0 else z[v]
                    for v, ((an, ad), (pn, pd)) in enumerate(zip(alive, masses))]
    return StoppedPriceReport(
        is_martingale=not violations, violations=violations,
        deflation=_certify_pairs(tree, masses, prices, z_from_gamma))
