"""Initial enlargement of the tree filtration by a finite label.

An insider observes a leaf-measurable label L from time 0 on.  The enlarged
filtration is carried by label slices: the G-atoms are pairs (tree atom,
label value).  All conditional structure lives in one table per label, the
slice masses P(atom n {L = l}) as reduced int pairs: the kernel
P_t(atom, l) = P(L = l | atom) is a slice mass over the atom's mass and the
marginal P_L(l) is the slice mass at the root.  The density Y_t = P_t / P_L
always exists here because L takes finitely many values, and its reciprocal
on the realized label,

    Z_t = 1 / Y_t(atom, l)    on the slice where Y_t > 0,

multiplies every nonnegative supermartingale of the small filtration into a
supermartingale of the enlarged one.

Slices that die (a label whose conditional probability vanishes along a
branch) are retained as structural states of the enlarged market: wealth
constraints continue to bind there, mirroring the product-space picture in
which the label coordinate is decoupled from the path coordinate.  Without
those constraints the insider could lever up unboundedly on a fully revealed
branch and no enlargement statement would survive; with them, one-step
admissibility agrees with the small market's, which is what makes the
no-unbounded-profit property carry over to the insider and gives the
log-utility identity its exact meaning.  Under the decoupling weights
P x P_L each label slice replays the base market's one-step programs, so the
insider's (NA1) verdict and optimal value are the base market's:
`check_na1(WealthProblem(spec.tree, spec.P, S))` decides them, and a failing
witness is a strategy on the base tree's nodes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .filtered_space import (AdaptedProcess, EventTree, Pair, ProbMeasure,
                             Strategy, _mass_pairs, _process_pairs,
                             _sum_pairs, as_fraction, stochastic_integral)

# The arbitrage layer and the deflator load with the two functions that run
# them, so `enlarge jacod` and `enlarge universal-z` compile neither.
if TYPE_CHECKING:
    from .arbitrage import ArbitrageReport

ZERO = Fraction(0)
ONE = Fraction(1)


class EnlargementSpec:
    """Base market filtration plus the label revealed at time zero."""

    def __init__(self, tree: EventTree, P: ProbMeasure, labels: dict[int, str]):
        self.tree = tree
        self.P = P
        self.labels = labels
        P.validate_for(tree)
        leaves = set(tree.leaves)
        stray = sorted(set(labels) - leaves)
        if stray:
            raise ValueError(
                f"key {_first_of(stray)} names no leaf of the tree")
        missing = sorted(leaves - set(labels))
        if missing:
            raise ValueError(f"every leaf needs a label: leaf "
                             f"{_first_of(missing)} has none")
        if not P.strictly_positive:
            raise ValueError("enlargement analysis needs a strictly positive base")
        self.label_set: tuple[str, ...] = tuple(sorted(set(labels.values())))
        self._pairs: dict[str, list[Pair]] = {}

    def _slice_pairs(self, label: str) -> list[Pair]:
        """Reduced pair of P(atom(v) n {L = label}) for every node v, by
        id: `_mass_pairs` once per label.  Every label names a leaf of
        positive mass, so the root's pair, P_L(label), is positive."""
        if label not in self._pairs:
            mass, labels = self.P.leaf_mass, self.labels
            self._pairs[label] = _mass_pairs(self.tree, {
                leaf: mass[leaf] if labels[leaf] == label else ZERO
                for leaf in self.tree.leaves})
        return self._pairs[label]

    def slice_masses(self, label: str) -> dict[int, Fraction]:
        """P(atom(v) n {L = label}) for every node v, as Fractions of
        `_slice_pairs`."""
        return {v: Fraction(n, d)
                for v, (n, d) in enumerate(self._slice_pairs(label))}


def _first_of(nodes: list[int]) -> str:
    """The first node of a sorted list, and how many follow it."""
    more = len(nodes) - 1
    return f"{nodes[0]}" + (f" (and {more} more)" if more else "")


class JacodReport:
    def __init__(self, holds: bool, reverse_holds: bool, equivalent: bool,
                 reverse_by_time: dict[int, bool],
                 Y: dict[tuple[int, str], Fraction]):
        self.holds = holds                  # P_t << P_L on every atom (true here)
        self.reverse_holds = reverse_holds  # P_t >> P_L on every atom and time
        self.equivalent = equivalent
        self.reverse_by_time = reverse_by_time
        self.Y = Y


def jacod_check(spec: EnlargementSpec) -> JacodReport:
    """Verify the density criterion and emit Y_t = dP_t/dP_L (0/0 = 0).

    Y(v, l) = slice_l(v) / (P(v) P_L(l)), one Fraction from three pairs.
    With finitely many label values the criterion cannot fail: every label
    names a leaf of positive mass, so P_L > 0.  The reverse direction (the
    kernel still charges every label the marginal charges, i.e. no label has
    been ruled out yet) is informative and reported per time layer: for a
    leaf-measurable label it must fail by the terminal time unless the label
    is constant.
    """
    tree = spec.tree
    m = spec.P._atom_pairs(tree)
    tables = [(lab, spec._slice_pairs(lab)) for lab in spec.label_set]
    y: dict[tuple[int, str], Fraction] = {}
    reverse_by_time = {t: True for t in range(tree.horizon + 1)}
    for v, (mn, md) in enumerate(m):
        for lab, s in tables:
            sn, sd = s[v]
            if sn:
                ln, ld = s[tree.root]
                y[(v, lab)] = Fraction(sn * md * ld, sd * mn * ln)
            else:
                y[(v, lab)] = ZERO
                reverse_by_time[tree.time_of(v)] = False
    reverse = all(reverse_by_time.values())
    return JacodReport(holds=True, reverse_holds=reverse, equivalent=reverse,
                       reverse_by_time=reverse_by_time, Y=y)


class GProcess:
    """A value per (node, label) slice of the enlarged filtration."""

    def __init__(self, values: dict[tuple[int, str], Fraction]):
        self.values = values

    def at(self, node: int, label: str) -> Fraction:
        return self.values[(node, label)]


def universal_density(spec: EnlargementSpec) -> GProcess:
    """The reciprocal-density process 1 / Y on realized slices, zero on dead
    ones.  A slice of positive mass has Y > 0, so its value is finite and
    strictly positive: exactly where conditioning is meaningful."""
    return GProcess({key: ONE / y if y else ZERO
                     for key, y in jacod_check(spec).Y.items()})


def g_supermartingale_check(spec: EnlargementSpec, Zg: GProcess,
                            M: AdaptedProcess) -> list[tuple[int, str, Fraction]]:
    """Per-slice supermartingale inequality for Zg * M, M a process of the
    small filtration.  Returns the violations (node, label, excess)."""
    violations: list[tuple[int, str, Fraction]] = []
    for lab in spec.label_set:
        slices = spec.slice_masses(lab)
        for v in spec.tree.non_leaf_nodes():
            if slices[v.id] == 0:
                continue
            lhs = sum((slices[c] * Zg.at(c, lab) * M.at(c) for c in v.children),
                      ZERO) / slices[v.id]
            rhs = Zg.at(v.id, lab) * M.at(v.id)
            if lhs > rhs:
                violations.append((v.id, lab, lhs - rhs))
    return violations


# -- deflation for the insider --------------------------------------------------


def g_deflation_certificate(spec: EnlargementSpec, S: AdaptedProcess,
                            Zg: GProcess) -> list[tuple[int, str, Fraction]]:
    """Exact insider-deflation certificate for a slice process Zg.

    Each label is one `deflator._certify_pairs` run on that label's slice
    table, with that label's column of Zg as the density.  The table is the
    slice law P( . | L = label) times P_L(label), which gives the same
    verdicts and excesses (see `_certify_pairs`).  Atoms the slice does not
    charge are skipped, while every structural child keeps its
    admissibility constraint (dead slices still constrain the insider); the
    optimum must not exceed Zg on the slice.  Returns the violations (node,
    label, excess).
    """
    from .arbitrage import WealthProblem
    from .deflator import _certify_pairs

    tree = spec.tree
    WealthProblem(tree, spec.P, S)          # validates S against the tree
    prices = [_process_pairs(tree, S, k) for k in range(S.dim)]
    violations = []
    for lab in spec.label_set:
        column = [as_fraction(Zg.at(v.id, lab)).as_integer_ratio()
                  for v in tree.nodes]
        report = _certify_pairs(tree, spec._slice_pairs(lab), prices, column)
        violations += [(v, lab, excess) for v, excess in report.violations]
    return violations


def multiply(spec: EnlargementSpec, Zg: GProcess, Y: AdaptedProcess) -> GProcess:
    """Slice-wise product of a slice process with a base process."""
    return GProcess({(v, lab): z * Y.at(v)
                     for (v, lab), z in Zg.values.items()})


# -- generalized density condition for arbitrary refinements --------------------


class GeneralizedJacodReport:
    def __init__(self, holds: bool, reverse_holds: bool,
                 failures: list[tuple[int, int, int, frozenset]],
                 reverse_failures: list[tuple[int, int, int, frozenset]]):
        self.holds = holds              # later conditional laws << earlier, per path
        self.reverse_holds = reverse_holds
        self.failures = failures        # (t, u, atom, cell)
        self.reverse_failures = reverse_failures


def generalized_jacod_check(tree: EventTree, P: ProbMeasure,
                            g_layers: Sequence[Iterable[frozenset]]
                            ) -> GeneralizedJacodReport:
    """Absolute-continuity relations between conditional laws restricted to an
    arbitrary refining filtration, cell by cell.

    The forward relation (null cells of the time-t conditional law stay null
    under later conditioning along the same path) is the discrete rendering of
    the criterion associated with universal densities; on a finite tree with a
    strictly positive base it holds by monotonicity of nested masses, and the
    verifier confirms it exhaustively.  The informative failure mode on trees
    is the reverse relation: a cell charged at time t whose mass vanishes
    under a later atom on the same path -- the verdict reports those
    separately with the offending (t, u, atom, cell).
    """
    P.validate_for(tree)
    n = tree.horizon
    layers = [list(cells) for cells in g_layers]
    if len(layers) != n + 1:
        raise ValueError(f"need {n + 1} layer partitions, got {len(layers)}")
    leaf_set = set(tree.leaves)
    for t, cells in enumerate(layers):
        seen: set[int] = set()
        for cell in cells:
            if not cell or not cell <= leaf_set:
                raise ValueError(f"layer {t}: cells must be nonempty leaf sets")
            if seen & cell:
                raise ValueError(f"layer {t}: cells overlap")
            seen |= cell
        if seen != leaf_set:
            raise ValueError(f"layer {t}: cells must partition the leaves")
        for cell in cells:
            atoms = {tree.ancestor_at(leaf, t) for leaf in cell}
            if len(atoms) > 1:
                raise ValueError(
                    f"layer {t}: cell {sorted(cell)} is not inside one atom")
        if t > 0:
            prev = layers[t - 1]
            for cell in cells:
                if not any(cell <= big for big in prev):
                    raise ValueError(f"layer {t}: partitions must be nested in time")

    def charged(leaves: Iterable[int]) -> bool:     # the sign of their mass
        return _sum_pairs([P.leaf_mass[x].as_integer_ratio()
                           for x in leaves])[0] > 0

    atom_mass = P.node_masses(tree)
    failures = []
    reverse_failures = []
    for t in range(n + 1):
        for cell in layers[t]:
            anchor = tree.ancestor_at(next(iter(cell)), t)
            below = tree.leaves_below(anchor)
            cell_charged = charged(cell)
            for u in range(t + 1, n + 1):
                for b in {tree.ancestor_at(leaf, u) for leaf in below}:
                    if atom_mass[b] == 0:
                        continue
                    b_charged = charged(cell.intersection(tree.leaves_below(b)))
                    if not cell_charged and b_charged:
                        failures.append((t, u, b, cell))
                    if cell_charged and not b_charged:
                        reverse_failures.append((t, u, b, cell))
    return GeneralizedJacodReport(
        holds=not failures, reverse_holds=not reverse_failures,
        failures=failures, reverse_failures=reverse_failures)


# -- the insider impossibility example ------------------------------------------


class IncompleteMarketError(ValueError):
    """The construction needs a complete base market (unique pricing rule)."""


class CompleteMarket:
    """Unique strictly positive pricing measure of a complete base market."""

    def __init__(self, q_leaf: dict[int, Fraction], q_step: dict[int, Fraction]):
        self.q_leaf = q_leaf            # unique martingale measure
        self.q_step = q_step            # one-step weights q(child | parent)


def complete_market_measure(tree: EventTree, S: AdaptedProcess) -> CompleteMarket:
    """Check completeness atom by atom and return the pricing measure.

    A one-step market with children increments dS(c) replicates every payoff
    iff the vectors (1, dS(c)) are linearly independent across children, and
    prices it by the unique solution of sum q = 1, sum q dS = 0; the market is
    viable only if that solution is strictly positive.  Uniqueness makes the
    exact linear solve the whole certificate.
    """
    d = tree.asset_dim
    q_step: dict[int, Fraction] = {}
    for v in tree.non_leaf_nodes():
        children = v.children
        c = len(children)
        if c > d + 1:
            raise IncompleteMarketError(
                f"atom {v.id}: {c} children exceed the {d + 1} independent "
                "payoffs one step can span")
        # sum_j q_j = 1 and sum_j q_j dS_i(j) = 0, one column per child (1, dS)
        sys_rows = [[ONE] * c] + [[S[ch][i] - S[v.id][i] for ch in children]
                                  for i in range(d)]
        rank, q = _eliminate(sys_rows, [ONE] + [ZERO] * d)
        if rank < c:
            raise IncompleteMarketError(
                f"atom {v.id}: one-step payoffs are linearly dependent")
        if q is None:
            raise IncompleteMarketError(
                f"atom {v.id}: no one-step pricing weights exist")
        if any(x <= 0 for x in q):
            raise IncompleteMarketError(
                f"atom {v.id}: pricing weights are not strictly positive")
        for j, ch in enumerate(children):
            q_step[ch] = q[j]
    # node ids are breadth first, so every parent comes before its children
    q_node = {tree.root: ONE}
    for v in tree.nodes[1:]:
        q_node[v.id] = q_node[v.parent] * q_step[v.id]
    return CompleteMarket({leaf: q_node[leaf] for leaf in tree.leaves}, q_step)


def replicate(tree: EventTree, S: AdaptedProcess, market: CompleteMarket,
              payoff: dict[int, Fraction]) -> tuple[AdaptedProcess, Strategy]:
    """Value process and hedge for a terminal payoff in a complete market."""
    d = tree.asset_dim
    value: dict[int, Fraction] = {leaf: payoff[leaf] for leaf in tree.leaves}
    hedge: dict[int, tuple[Fraction, ...]] = {}
    for v in reversed(tree.nodes):
        if not v.children:
            continue
        children = v.children
        value[v.id] = sum((market.q_step[c] * value[c] for c in children), ZERO)
        rows = [[S[c][i] - S[v.id][i] for i in range(d)] for c in children]
        rhs = [value[c] - value[v.id] for c in children]
        _, h = _eliminate(rows, rhs)
        if h is None:
            raise IncompleteMarketError("replication system is inconsistent")
        hedge[v.id] = tuple(h)
    return AdaptedProcess.of_scalars(value), Strategy(hedge, d)


def _eliminate(rows: list[list[Fraction]], rhs: list[Fraction]
               ) -> tuple[int, Optional[list[Fraction]]]:
    """Exact Gauss-Jordan elimination of rows . x = rhs.

    Returns the rank of `rows` and a solution with every free variable zero
    (unique under the completeness rank condition), or None in its place when
    the system is inconsistent."""
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = ONE / aug[r][col]
        aug[r] = [a * inv for a in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
    if any(aug[i][-1] != 0 for i in range(r, m)):
        return r, None
    x = [ZERO] * cols
    for row, col in pivots:
        x[col] = aug[row][-1]
    return r, x


class InsiderReport:
    """The insider example's certificates.  `na1_product` is the enlarged
    market's (NA1) report under P x P_L, read off the base market's backward
    pass (see the module docstring)."""

    def __init__(self, hedge: Strategy, value_process: AdaptedProcess,
                 arbitrage_gain: dict[tuple[int, str], Fraction],
                 emm_infeasible: bool, na1_product: ArbitrageReport,
                 deflator_violations: list[tuple[int, str, Fraction]]):
        self.hedge = hedge                        # replicates the label event
        self.value_process = value_process
        self.arbitrage_gain = arbitrage_gain      # terminal insider wealth
        self.emm_infeasible = emm_infeasible
        self.na1_product = na1_product
        self.deflator_violations = deflator_violations

    @property
    def contradiction_certified(self) -> bool:
        return self.emm_infeasible and bool(self.na1_product.na1_holds) \
            and not self.deflator_violations


def insider_example(spec: EnlargementSpec, S: AdaptedProcess,
                    event_labels: set[str]) -> InsiderReport:
    """Replicate the label event, exhibit the insider's arbitrage, and certify
    that no equivalent insider pricing measure exists while the insider still
    cannot make unbounded profits.

    The hedge H replicates 1_{L in A} at cost q*(A).  Holding -H on the
    complementary slices earns q*(A) there from zero initial wealth and never
    falls below q*(A) - 1: an arbitrage for the insider.  Its terminal gains,
    computed from the strategy itself, are nonnegative on every realized
    slice and positive on one; under an equivalent insider martingale
    measure they would have mean zero, so none exists (on a finite space the
    arbitrage is the exact dual certificate, Dalang-Morton-Willinger).
    Unbounded profit remains impossible: the enlarged market stays (NA1),
    witnessed both by the backward pass of its one-step programs and by the
    slice density (universal density times the base deflator that pass
    builds) passing the exact deflation certificate.
    """
    from .arbitrage import ArbitrageReport, WealthProblem
    from .deflator import construct_deflator

    if not event_labels or not set(event_labels) <= set(spec.label_set):
        raise ValueError("event labels must be a nonempty subset of the labels")
    tree = spec.tree
    # P(L in A) = num / den: the label marginals at the slice tables' roots
    num, den = _sum_pairs([spec._slice_pairs(lab)[tree.root]
                           for lab in sorted(event_labels)])
    if not 0 < num < den:
        raise ValueError("the label event needs probability strictly in (0, 1)")

    market = complete_market_measure(tree, S)
    payoff = {leaf: ONE if spec.labels[leaf] in event_labels else ZERO
              for leaf in tree.leaves}
    value, hedge = replicate(tree, S, market, payoff)

    hedge_gain = stochastic_integral(tree, S, hedge)
    gains: dict[tuple[int, str], Fraction] = {}
    for leaf in tree.leaves:
        for lab in spec.label_set:
            gains[(leaf, lab)] = (ZERO if lab in event_labels
                                  else -hedge_gain.at(leaf))
    realized = [gains[(leaf, spec.labels[leaf])] for leaf in tree.leaves]
    emm_infeasible = (all(g >= 0 for g in realized)
                      and any(g > 0 for g in realized))

    # Strictly positive pricing weights leave no atom a one-step arbitrage,
    # so the base pass succeeds: that is (NA1) for the insider, and Z_0 is
    # the optimal value.
    base = construct_deflator(WealthProblem(tree, spec.P, S))
    na1 = ArbitrageReport(na1_holds=True, optimal_value=base.Z.at(tree.root))
    z_slice = multiply(spec, universal_density(spec), base.Z)
    violations = g_deflation_certificate(spec, S, z_slice)
    return InsiderReport(
        hedge=hedge, value_process=value, arbitrage_gain=gains,
        emm_infeasible=emm_infeasible,
        na1_product=na1, deflator_violations=violations,
    )


# -- log-utility identity --------------------------------------------------------


class LogUtilityReport:
    FLOAT_TOLERANCE = 1e-9

    def __init__(self, u_base: float, u_insider: float,
                 mutual_information: float, identity_gap: float):
        self.u_base = u_base
        self.u_insider = u_insider
        self.mutual_information = mutual_information
        self.identity_gap = identity_gap    # u_insider - u_base - mutual_information


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def log_utility_identity(spec: EnlargementSpec, S: AdaptedProcess
                         ) -> LogUtilityReport:
    """Growth-optimal log utility with and without the label, and the exact
    information accounting between them.

    In a complete market the optimal terminal wealth is the reciprocal pricing
    density, so u = E log(dP/dq*); per label the same formula runs under the
    conditional law (the pricing rule does not move: death slices still
    constrain the insider, so the market structure is shared).  The identity
    u_insider = u_base + I(label; terminal information) is then an algebraic
    rearrangement; `identity_gap` is its float residual, which the caller
    judges against FLOAT_TOLERANCE, as it judges `mutual_information`, a
    mutual information and so nonnegative up to that tolerance.
    """
    tree = spec.tree
    # Strictly positive pricing weights leave no atom a one-step arbitrage,
    # so once this returns the insider has the (NA1) that log utility needs.
    market = complete_market_measure(tree, S)

    u_base = 0.0
    for leaf in tree.leaves:
        p = spec.P.mass(leaf)
        if p > 0:
            u_base += float(p) * (_log_fraction(p) -
                                  _log_fraction(market.q_leaf[leaf]))
    u_insider = 0.0
    information = 0.0
    for lab in spec.label_set:
        pl = Fraction(*spec._slice_pairs(lab)[tree.root])
        for leaf in tree.leaves:
            if spec.labels[leaf] != lab:
                continue
            p = spec.P.mass(leaf)
            cond = p / pl
            if cond > 0:
                u_insider += float(pl) * float(cond) * (
                    _log_fraction(cond) - _log_fraction(market.q_leaf[leaf]))
                information += float(p) * (_log_fraction(cond) - _log_fraction(p))
    gap = u_insider - u_base - information
    return LogUtilityReport(u_base=u_base, u_insider=u_insider,
                            mutual_information=information, identity_gap=gap)
