"""Exact arbitrage verdicts on event trees, and utility functions built from
tail bounds.

Both no-arbitrage notions are decided atom by atom, by `check_na1`.  A
wealth path 1 + (H.S) is affine in the holdings H, and 1-admissibility is
one linear inequality per node, so on a finite tree with strictly positive P:

* (NA1), boundedness in probability of terminal wealths, collapses to
  finiteness of sup E[terminal wealth] over 1-admissible strategies.  Wealth
  scales with its level, so that supremum is the root value of a backward
  pass of one-step programs, each weighted by the values of the atom's
  children; an unbounded one-step program is an unbounded-profit ray.
* (NA) fails iff some atom admits a one-step arbitrage (Dalang, Morton and
  Willinger), which under strictly positive P is exactly an unbounded
  one-step program, so the two verdicts coincide.  A sup-norm box |h| <= 1
  keeps the failing atom's arbitrage program bounded.

Every one-step program is solved by one kernel, `_atom_program`, on the
reduced int pairs of `filtered_space`'s pair section: it serves
`one_step_program`, the backward pass and `deflator.verify_deflation`, and
its docstring says how it solves a program at each number of assets.

The utility builder turns a tail-probability envelope F into a concave,
unbounded U = integral of a step function g with diverging sum(g_k) but
convergent sum(g_k F(k-1)), by the blockwise construction driven by Cesaro
averages of F.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .filtered_space import (ZERO_PAIR, AdaptedProcess, EventTree, Pair,
                             ProbMeasure, Strategy, _increments, _lift_pairs,
                             _process_pairs, _sum_pairs, as_fraction)

# `linprog` is imported by the three programs that run the simplex (two or
# more assets, and `finite_utility_check`), so a one-asset command never
# compiles or loads it.

ZERO = Fraction(0)
ONE = Fraction(1)


class WealthProblem:
    """A priced tree: the implicit objects are the 1-admissible wealth family
    W1 = {1 + (H.S)} and its terminal values K1."""

    def __init__(self, tree: EventTree, P: ProbMeasure, S: AdaptedProcess):
        self.tree = tree
        self.P = P
        self.S = S
        P.validate_for(tree)
        S.validate_for(tree)
        if S.dim != tree.asset_dim:
            raise ValueError("price process dimension must equal the tree's asset_dim")

    def require_positive(self) -> None:
        if not self.P.strictly_positive:
            raise ValueError(
                "arbitrage verdicts need a strictly positive measure: null "
                "leaves would change the admissibility constraint set")


class ArbitrageReport:
    def __init__(self, na_holds: Optional[bool] = None,
                 na1_holds: Optional[bool] = None,
                 witness: Optional[Strategy] = None,
                 optimal_value: Optional[Fraction] = None,
                 unbounded: bool = False,
                 na_optimum: Optional[Fraction] = None):
        self.na_holds = na_holds
        self.na1_holds = na1_holds
        self.witness = witness
        self.optimal_value = optimal_value     # sup E[terminal wealth]
        self.unbounded = unbounded             # marks optimal_value = +infinity
        self.na_optimum = na_optimum           # box one-step NA optimum, failing atom


def _gain_rows(problem: WealthProblem) -> tuple[dict[int, dict[int, Fraction]], dict[tuple[int, int], int]]:
    """Linear form of the gain (H.S) at every node, in holdings coordinates.

    Returns (rows, var_index): rows[node] maps LP variable -> coefficient, and
    var_index[(node, component)] numbers the holdings decided at each
    non-leaf node.
    """
    tree, S = problem.tree, problem.S
    d = tree.asset_dim
    var_index: dict[tuple[int, int], int] = {}
    for v in tree.non_leaf_nodes():
        for i in range(d):
            var_index[(v.id, i)] = len(var_index)
    rows: dict[int, dict[int, Fraction]] = {tree.root: {}}
    for v in tree.nodes:
        if v.parent is None:
            continue
        row = dict(rows[v.parent])
        for i in range(d):
            ds = S[v.id][i] - S[v.parent][i]
            if ds != 0:
                j = var_index[(v.parent, i)]
                row[j] = row.get(j, ZERO) + ds
        rows[v.id] = row
    return rows, var_index


class Na1FailsOnAtom(ValueError):
    """A one-step program is unbounded: the atom supports an arbitrage ray."""

    def __init__(self, atom: int, ray: tuple[Fraction, ...]):
        self.atom = atom
        self.ray = ray
        super().__init__(f"NA1 fails on atom {atom}: unbounded ray {ray}")


def one_step_program(tree: EventTree, P_masses: dict[int, Fraction],
                     S: AdaptedProcess, node: int,
                     weights: Optional[dict[int, Fraction]] = None
                     ) -> tuple[Fraction, tuple[Fraction, ...]]:
    """sup over one-step admissible h of E[w * (1 + h.dS) | node].

    `weights` carries the later density values (default 1).  Returns the
    optimum and a maximizing h, as `_atom_program` solves them; which
    vertex comes back when the maximizer is not unique is an artifact of
    pivoting order and not part of the contract.  Raises Na1FailsOnAtom
    with the improving ray when unbounded.
    """
    atom_mass = P_masses[node]
    if atom_mass == 0:
        raise ValueError(f"one-step program on null atom {node}")
    children = tree.children_of(node)
    masses = [P_masses[c] for c in children]
    x = ([m.as_integer_ratio() for m in masses] if weights is None
         else [(m.numerator * w.numerator, m.denominator * w.denominator)
               for m, w in zip(masses, (weights[c] for c in children))])
    s = [{v: S[v][k].as_integer_ratio() for v in (node, *children)}
         for k in range(S.dim)]
    num, den, h = _atom_program(node, children, x, s)
    return (Fraction(num * atom_mass.denominator, den * atom_mass.numerator),
            tuple(Fraction(a, b) for a, b in h))


# -- the one-step kernel on reduced (numerator, denominator) int pairs --------


def _atom_program(node: int, children: Sequence[int], x: list[Pair],
                  s: Sequence[Sequence[Pair]]
                  ) -> tuple[int, int, tuple[Pair, ...]]:
    """The one-step program at `node`, in ints, at any number of assets.

    x holds (numerator, denominator) of P(c) w_c for each child c, and s[k]
    the pairs of price component k by node id.  The program maximizes

        sum_c P(c) w_c (1 + h.dS_c)

    over the h that keep 1 + h.dS_c >= 0 on every child, whatever its
    weight or mass.  Returns (num, den, h): the optimum num/den with
    den > 0, P(node) times the conditional optimum and not reduced, and a
    maximizing h as one unreduced int pair per asset.  An unbounded program
    raises Na1FailsOnAtom with its improving ray.  This is the one place
    that picks the method by the number of assets:

    * At one asset the program is closed form, one pass over the children
      with no tableau.  The increments dS_c are ints e_c over one scale L
      (`_increments`) and the children's pairs lift onto the lcm D of their
      own denominators, so the objective is (T + G h / L) / D with T and G
      the lifted sums of P(c) w_c and P(c) w_c e_c.  h ranges over
      max(-L/e_c : e_c > 0) <= h <= min(-L/e_c : e_c < 0), and the sign of
      G picks the endpoint: the most negative e when G > 0, the most
      positive when G < 0, and h = 0 when G = 0, where the optimum is T/D.
      At an endpoint it is (T - G/e)/D, so L cancels.  A missing endpoint is
      the ray (1,) or (-1,).  These are the vertex and ray the simplex
      returns.
    * With more assets the exact simplex of `linprog` solves it
      (`_one_step_simplex`).
    """
    if len(s) != 1:
        return _one_step_simplex(node, children, x, s)
    scale, e = _increments(s[0], node, children)
    d, lifted = _lift_pairs(x)
    total = gain = e_min = e_max = 0
    for n, ds in zip(lifted, e):
        total += n
        if ds:
            gain += n * ds
            if ds < e_min:
                e_min = ds
            elif ds > e_max:
                e_max = ds
    if gain > 0:
        if not e_min:
            raise Na1FailsOnAtom(node, (ONE,))
        return gain - total * e_min, -d * e_min, ((scale, -e_min),)
    if gain < 0:
        if not e_max:
            raise Na1FailsOnAtom(node, (-ONE,))
        return total * e_max - gain, d * e_max, ((-scale, e_max),)
    return total, d, (ZERO_PAIR,)


def _one_step_simplex(node: int, children: Sequence[int], x: list[Pair],
                      s: Sequence[Sequence[Pair]]
                      ) -> tuple[int, int, tuple[Pair, ...]]:
    """`_atom_program` by the Bland simplex, at any number of assets.

    Each child with dS_c != 0 adds the row -dS_c.h <= 1.  The objective is
    the lifted sum_c x_c dS_c, which is D P(node) > 0 times the conditional
    program's: Bland's rule then picks the same entering columns and ratio
    tests, so the vertex and the ray are the conditional program's."""
    from .linprog import OPTIMAL, UNBOUNDED, LinearProgram

    d, n = _lift_pairs(x)
    incs = [_increments(sk, node, children) for sk in s]
    lp = LinearProgram(len(s))
    for c in range(len(n)):
        row = {k: Fraction(-e[c], scale)
               for k, (scale, e) in enumerate(incs) if e[c]}
        if row:
            lp.add_le(row, ONE)
    lp.set_objective({k: Fraction(sum(map(operator.mul, n, e)), scale)
                      for k, (scale, e) in enumerate(incs)})
    res = lp.solve()
    if res.status == UNBOUNDED:
        raise Na1FailsOnAtom(node, tuple(res.ray))
    assert res.status == OPTIMAL
    a, b = res.value.as_integer_ratio()
    return sum(n) * b + a, d * b, tuple(h.as_integer_ratio() for h in res.x)


def _backward_pairs(problem: WealthProblem) -> tuple[list[Pair], list[Pair]]:
    """(y, m) of the backward pass: m[v] is the mass of atom v and
    y[v] = m[v] z[v] its mass-weighted value, both reduced pairs.

    With weights z_c the program at v maximizes sum_c m_c z_c (1 + h.dS_c),
    which is y_v and needs the children's y only: leaves have y = m, and
    each atom costs one `_atom_program` and one gcd.
    """
    tree, S = problem.tree, problem.S
    s = [_process_pairs(tree, S, k) for k in range(S.dim)]
    m = problem.P._atom_pairs(tree)
    y = list(m)
    for v in reversed(tree.nodes):
        kids = v.children
        if kids:
            num, den, _ = _atom_program(v.id, kids, [y[c] for c in kids], s)
            g = math.gcd(num, den)
            y[v.id] = (num // g, den // g)
    return y, m


def _ratio(y: Pair, m: Pair) -> Fraction:
    """The value z = y/m of two reduced pairs of `_backward_pairs`: once
    their cross gcds cancel z is in lowest terms, so Fraction's own gcd runs
    at z's size only."""
    (yn, yd), (mn, md) = y, m
    g, h = math.gcd(yn, mn), math.gcd(yd, md)
    return Fraction(yn // g * (md // h), yd // h * (mn // g))


def backward_pass(problem: WealthProblem) -> dict[int, Fraction]:
    """Optimal value of every atom, bottom-up.

    Node ids are breadth-first, so reversed id order visits every child
    before its parent.  Each non-leaf atom solves the one-step program
    weighted by its children's values, leaves are worth 1, and the first
    unbounded atom raises Na1FailsOnAtom.  The root value is
    sup E[1 + (H.S)_n] over 1-admissible H.  The pass runs on int pairs
    (`_backward_pairs`), and each value z = y/m is the one Fraction built
    per node.
    """
    problem.require_positive()
    y, m = _backward_pairs(problem)
    return {v: _ratio(y[v], m[v]) for v in range(len(y) - 1, -1, -1)}


def _box_simplex(tree: EventTree, S: AdaptedProcess, node: int
                 ) -> tuple[Fraction, tuple[Fraction, ...]]:
    """max of sum over children of h.dS subject to h.dS >= 0 on every child
    and |h|_inf <= 1, by the simplex: positive exactly when the atom admits a
    one-step arbitrage, and then the maximizer is one."""
    from .linprog import OPTIMAL, LinearProgram

    d = S.dim
    lp = LinearProgram(d)
    objective: dict[int, Fraction] = {}
    for c in tree.children_of(node):
        ds = (a - b for a, b in zip(S[c], S[node]))
        row = {i: x for i, x in enumerate(ds) if x != 0}
        for i, x in row.items():
            objective[i] = objective.get(i, ZERO) + x
        if row:
            lp.add_ge(row, ZERO)
    for i in range(d):
        lp.add_le({i: ONE}, ONE)
        lp.add_ge({i: ONE}, -ONE)
    lp.set_objective(objective)
    res = lp.solve()
    assert res.status == OPTIMAL, "the box program is bounded"
    return res.value, tuple(res.x)


def _lift(tree: EventTree, atom: int, h: tuple[Fraction, ...]) -> Strategy:
    """The global strategy holding h on `atom` and nothing anywhere else."""
    zero = (ZERO,) * tree.asset_dim
    return Strategy({v.id: h if v.id == atom else zero
                     for v in tree.non_leaf_nodes()}, tree.asset_dim)


def check_na1(problem: WealthProblem) -> ArbitrageReport:
    """Decide (NA1), and with it (NA), by one backward pass.

    (NA1) is boundedness in probability of the terminal wealths K1 of
    1 + (H.S) over 1-admissible H.  On a finite tree with strictly positive P
    that coincides with uniform boundedness and with finiteness of
    sup E[1 + (H.S)_n] (each leaf carries mass at least min P > 0).  The
    supremum is the root value of the backward pass, so it is finite exactly
    when every one-step program is bounded.

    (NA), no admissible terminal wealth X >= 1 with P(X > 1) > 0, fails on a
    finite tree exactly when some atom admits a one-step arbitrage
    (Dalang-Morton-Willinger), and under strictly positive P an atom's
    one-step program is unbounded exactly when the atom admits one.  So the
    two verdicts coincide.  On failure the box program at the first
    unbounded atom gives `na_optimum` and the witness, held on that atom
    only: its wealth 1 + (H.S) lies in W1, never falls below 1 and exceeds 1
    on some leaf.  When both hold `na_optimum` is 0.

    At one asset the pass's ray is that maximizer: the one-step program is
    unbounded with ray (1,) or (-1,) exactly when every nonzero dS_c has the
    ray's sign, and then h = ray gives the largest sum of h dS_c over
    |h| <= 1.  With more assets the box program goes to the simplex.
    """
    root = problem.tree.root
    try:
        problem.require_positive()
        y, m = _backward_pairs(problem)
    except Na1FailsOnAtom as exc:
        tree, S = problem.tree, problem.S
        if S.dim == 1:
            h = exc.ray
            value = sum((h[0] * (S[c][0] - S[exc.atom][0])
                         for c in tree.children_of(exc.atom)), ZERO)
        else:
            value, h = _box_simplex(tree, S, exc.atom)
        return ArbitrageReport(na_holds=False, na1_holds=False, unbounded=True,
                               witness=_lift(tree, exc.atom, h),
                               na_optimum=value)
    return ArbitrageReport(na_holds=True, na1_holds=True,
                           optimal_value=_ratio(y[root], m[root]),
                           na_optimum=ZERO)


# -- de la Vallee-Poussin style utility construction ----------------------------

DEFAULT_N_SUM = 20_000
DEFAULT_PROBE_LIMIT = 1_000_000


class Slope(Fraction):
    """An exact slope that carries its correctly rounded float.

    Rounding to nearest is monotone, so fl(a) < fl(b) implies a < b.  A
    comparison with a Slope or an int therefore returns at once for the same
    object, answers from the floats when they differ, and cross-multiplies
    only when they are equal: an exact floating-point filter (Shewchuk, 1997)
    for slopes whose denominators run to tens of thousands of bits.
    Arithmetic returns plain Fractions.
    """

    __slots__ = ("_float",)

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        self._float = _rounded(self.numerator, self.denominator)
        return self

    __hash__ = Fraction.__hash__

    def _filter(self, other, op):
        """op on the floats when they decide it, else None."""
        if self is other:
            return op(0, 0)
        if isinstance(other, Slope):
            theirs = other._float
        elif isinstance(other, int):
            theirs = _rounded(other, 1)
        else:
            return None
        return None if self._float == theirs else op(self._float, theirs)

    def __eq__(self, other):
        verdict = self._filter(other, operator.eq)
        return Fraction.__eq__(self, other) if verdict is None else verdict

    def __lt__(self, other):
        verdict = self._filter(other, operator.lt)
        return Fraction.__lt__(self, other) if verdict is None else verdict

    def __le__(self, other):
        verdict = self._filter(other, operator.le)
        return Fraction.__le__(self, other) if verdict is None else verdict

    def __gt__(self, other):
        verdict = self._filter(other, operator.gt)
        return Fraction.__gt__(self, other) if verdict is None else verdict

    def __ge__(self, other):
        verdict = self._filter(other, operator.ge)
        return Fraction.__ge__(self, other) if verdict is None else verdict


def _rounded(numerator: int, denominator: int) -> float:
    """numerator / denominator correctly rounded, overflowing to +-inf."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


class TailError(ValueError):
    """The tail envelope is invalid or does not decay within the probe range."""


class UtilityCurve:
    """Slopes g_k of a concave piecewise-linear U with U(0) = 0, U' = g_k on
    [k-1, k), built so that sum(g_k) diverges while sum(g_k F(k-1)) stays
    below pi^2/6.

    Infinite inner sums are truncated at n_sum terms; `remainder_bound` is an
    exact rational that dominates every truncated remainder (the dropped part
    of each g_k), so [g_k, g_k + remainder_bound] encloses the untruncated
    slope.  Aggregates over k <= K are computed by exchanging the two
    (finite, nonnegative) summations, which is exact for the truncated array.
    """

    def __init__(self, K: int, n_sum: int, K_n: list[int], n_k: list[int],
                 g: list[Fraction], remainder_bound: Fraction,
                 sum_g: Fraction, sum_g_tail: Fraction,
                 harmonic_lower_bound: Fraction,
                 tail: Optional[Callable[[int], Fraction]] = None):
        self.K = K
        self.n_sum = n_sum
        self.K_n = K_n                 # K_n for n = 1..n_sum
        self.n_k = n_k                 # n_k for k = 1..K
        self.g = g                     # truncated slopes, k = 1..K
        self.remainder_bound = remainder_bound
        self.sum_g = sum_g             # sum of the emitted g_k, k <= K
        self.sum_g_tail = sum_g_tail   # sum of g_k * tail(k-1), k <= K
        # sum of 1/n over {n: K_n <= K}, <= sum_g
        self.harmonic_lower_bound = harmonic_lower_bound
        self.tail = tail

    @classmethod
    def from_slopes(cls, slopes) -> "UtilityCurve":
        """Wrap explicit nonincreasing slopes as a utility curve (no tail)."""
        g = [as_fraction(s) for s in slopes]
        if not g:
            raise ValueError("need at least one slope")
        if any(a < b for a, b in zip(g, g[1:])):
            raise ValueError("slopes must be nonincreasing for concavity")
        return cls(K=len(g), n_sum=0, K_n=[], n_k=[], g=g,
                   remainder_bound=ZERO, sum_g=sum(g, ZERO), sum_g_tail=ZERO,
                   harmonic_lower_bound=ZERO)

    def value(self, x: Fraction) -> Fraction:
        """U(x) for 0 <= x <= K: integral of the step slopes."""
        x = as_fraction(x) if not isinstance(x, Fraction) else x
        if x < 0 or x > self.K:
            raise ValueError(f"U is built on [0, {self.K}]")
        whole = int(x)
        out = sum(self.g[:whole], ZERO)
        if x > whole:
            out += self.g[whole] * (x - whole)
        return out

    def pieces(self) -> list[tuple[Fraction, Fraction]]:
        """(slope, intercept) per linear piece; U(x) = min over pieces."""
        out = []
        level = ZERO
        for k, gk in enumerate(self.g, start=1):
            out.append((gk, level - gk * (k - 1)))
            level += gk
        return out


def build_utility(tail: Callable[[int], Fraction], K: int,
                  n_sum: int = DEFAULT_N_SUM,
                  probe_limit: int = DEFAULT_PROBE_LIMIT) -> UtilityCurve:
    """Construct the utility slopes from a nonincreasing tail envelope.

    tail(k) plays the role of sup P(|X| >= k) over the family of interest.
    The block sizes K_n are the smallest values >= max(n, K_{n-1}) whose
    Cesaro average of tail(0..K_n-1) is at most 1/n; the slope g_k adds up
    1/(n K_n) over all blocks with K_n >= k, truncated at n = n_sum.
    """
    if K < 1:
        raise ValueError("need at least one slope")
    if n_sum < 1:
        raise ValueError("n_sum must be positive")

    # One walk over k: K_n is the smallest k >= max(n, K_{n-1}) whose Cesaro
    # sum passes, n * prefix[k] <= k, so each tail(k) is read once.  Only
    # prefix[k] for k <= K is kept: the sums below need no more.
    prefix: list[Fraction] = [ZERO]  # prefix[m] = sum of tail(j), j < m
    total, last = ZERO, ONE          # prefix[k] and tail(k - 1)
    K_n: list[int] = []
    k = 0
    for n in range(1, n_sum + 1):
        while k < n or n * total.numerator > k * total.denominator:
            if k >= probe_limit:
                raise TailError(
                    f"cannot certify Cesaro bound: no K_{n} <= {probe_limit} "
                    f"with average tail <= 1/{n}")
            t = as_fraction(tail(k))
            if t < 0 or t > 1:
                raise TailError(f"tail({k}) = {t} outside [0, 1]")
            if t > last:
                raise TailError(f"tail not nonincreasing at k = {k}")
            total += t
            last = t
            k += 1
            if k <= K:
                prefix.append(total)
        K_n.append(k)

    if K_n[-1] < K:
        raise TailError(
            f"K = {K} slopes need blocks up to K_n >= {K}; raise n_sum "
            f"(largest block at n_sum = {n_sum} is {K_n[-1]})")

    n_k = []
    n = 1
    for k in range(1, K + 1):   # n_k is nondecreasing, so sweep both indices once
        while K_n[n - 1] < k:
            n += 1
        n_k.append(n)

    # Every truncated slope is g_k = s_{n_k}, where s_N is the sum over
    # N <= n <= n_sum of 1/(n K_n).  Every block from n_top = n_K on has
    # K_n >= K, so s_{n_top} is one reduced sum, the smaller s_N follow by a
    # backward pass, and those blocks add K s_{n_top} to sum_g and
    # prefix[K] s_{n_top} to sum_g_tail.
    n_top = n_k[-1]
    suffix = {n_top: Fraction(*_sum_pairs([(1, n * K_n[n - 1])
                                           for n in range(n_top, n_sum + 1)]))}
    for n in range(n_top - 1, 0, -1):
        suffix[n] = suffix[n + 1] + Fraction(1, n * K_n[n - 1])
    slopes = {n: Slope(suffix[n]) for n in set(n_k)}
    g = [slopes[n] for n in n_k]

    sum_g = (Fraction(*_sum_pairs([(1, n) for n in range(1, n_top)]))
             + K * suffix[n_top])
    tail_terms = [(prefix[K_n[n - 1]] / (n * K_n[n - 1])).as_integer_ratio()
                  for n in range(1, n_top)]
    sum_g_tail = Fraction(*_sum_pairs(tail_terms)) + prefix[K] * suffix[n_top]
    harmonic = Fraction(*_sum_pairs([(1, n) for n in range(1, n_sum + 1)
                                     if K_n[n - 1] <= K]))
    return UtilityCurve(
        K=K, n_sum=n_sum, K_n=K_n, n_k=n_k, g=g,
        remainder_bound=Fraction(1, n_sum),
        sum_g=sum_g, sum_g_tail=sum_g_tail,
        harmonic_lower_bound=harmonic, tail=tail,
    )


def finite_utility_check(problem: WealthProblem, U: UtilityCurve
                         ) -> tuple[bool, Optional[Fraction]]:
    """sup E[U(X)] over terminal wealths X in K1, as one exact LP.

    U is concave piecewise linear, so U(x) = min over pieces of (slope x +
    intercept); the hypograph variables u_leaf <= each piece linearize the
    objective.  They are measured from U(1), the utility of the initial
    wealth, so that every row holds at the origin.  Beyond the last
    breakpoint U is extended with its final slope.  Returns (finite, value);
    (False, None) means the supremum is +infinity, which can only happen when
    (NA1) fails and the terminal slope is positive.
    """
    from .linprog import OPTIMAL, UNBOUNDED, LinearProgram

    problem.require_positive()
    rows, var_index = _gain_rows(problem)
    tree = problem.tree
    leaves = tree.leaves
    n_h = len(var_index)
    lp = LinearProgram(n_h + len(leaves))
    lp.set_objective({n_h + i: problem.P.mass(leaf)
                      for i, leaf in enumerate(leaves)})
    for v in tree.nodes:
        if v.parent is not None and rows[v.id]:
            lp.add_ge(rows[v.id], -ONE)
    pieces = U.pieces()
    u_one = min(slope + intercept for slope, intercept in pieces)   # U(1)
    for i, leaf in enumerate(leaves):
        for slope, intercept in pieces:
            # u_one + u <= slope * (1 + gain) + intercept
            row = {n_h + i: ONE}
            for j, coef in rows[leaf].items():
                row[j] = -slope * coef
            lp.add_le(row, slope + intercept - u_one)
    res = lp.solve()
    if res.status == UNBOUNDED:
        return False, None
    assert res.status == OPTIMAL
    return True, u_one + res.value
