"""Utility functions built from tail bounds, and the expected-utility
program over a priced tree's terminal wealths.

The utility builder turns a tail-probability envelope F into a concave,
unbounded U = integral of a step function g with diverging sum(g_k) but
convergent sum(g_k F(k-1)), by the blockwise construction driven by Cesaro
averages of F.  `finite_utility_check` decides whether sup E[U(X)] over the
1-admissible terminal wealths X of an `arbitrage.WealthProblem` is finite, as
one exact whole-tree program of `linprog`.  No command runs this layer, so
it lives apart from the (NA1) verdicts that every priced command compiles.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional

from .filtered_space import _sum_pairs, as_fraction
from .linprog import OPTIMAL, UNBOUNDED, LinearProgram

if TYPE_CHECKING:
    from .arbitrage import WealthProblem

ZERO = Fraction(0)
ONE = Fraction(1)

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


# -- the expected-utility program ------------------------------------------------


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
