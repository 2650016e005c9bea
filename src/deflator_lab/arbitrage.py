"""Exact arbitrage verdicts on event trees.

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

The utility functions built from tail bounds, and the expected-utility
program over terminal wealths, are in `utility`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .filtered_space import (ZERO_PAIR, AdaptedProcess, EventTree, Pair,
                             ProbMeasure, Strategy, _increments, _lift_pairs,
                             _process_pairs)

# `linprog`, which holds the one-step and box programs at two or more
# assets, is imported where those run, so a one-asset command never
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
      (`linprog._one_step_simplex`) on the same lifted sums, and its value
      v is the lifted gain, so the optimum is (T + v)/D.
    """
    d, lifted = _lift_pairs(x)
    if len(s) != 1:
        from .linprog import UNBOUNDED, _one_step_simplex

        res = _one_step_simplex(
            lifted, [_increments(sk, node, children) for sk in s])
        if res.status == UNBOUNDED:
            raise Na1FailsOnAtom(node, tuple(res.ray))
        a, b = res.value.as_integer_ratio()
        return (sum(lifted) * b + a, d * b,
                tuple(h.as_integer_ratio() for h in res.x))
    scale, e = _increments(s[0], node, children)
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
            from .linprog import OPTIMAL, _box_simplex

            res = _box_simplex(S.dim, [
                tuple(a - b for a, b in zip(S[c], S[exc.atom]))
                for c in tree.children_of(exc.atom)])
            assert res.status == OPTIMAL, "the box program is bounded"
            value, h = res.value, tuple(res.x)
        return ArbitrageReport(na_holds=False, na1_holds=False, unbounded=True,
                               witness=_lift(tree, exc.atom, h),
                               na_optimum=value)
    return ArbitrageReport(na_holds=True, na1_holds=True,
                           optimal_value=_ratio(y[root], m[root]),
                           na_optimum=ZERO)
