"""The closed-form one-step programs at one asset against the simplex.

`one_step_program` solves one-asset atoms without a tableau, and
`linprog._one_step_simplex`, the kernel's method with more assets, is the
same program on the Bland simplex.  Both must
agree on the value, on boundedness, on the maximizer h and on the ray, since
reports print all four.  At one asset `check_na1` takes the ray as the box
program's maximizer, so on every unbounded program `(sum of ray.dS_c, ray)`
must be what `linprog._box_simplex` returns.
"""

import random
from fractions import Fraction as F

import pytest

from deflator_lab.arbitrage import Na1FailsOnAtom, one_step_program
from deflator_lab.filtered_space import (AdaptedProcess, EventTree, _increments,
                                         _lift_pairs)
from deflator_lab.linprog import OPTIMAL, UNBOUNDED, _box_simplex, _one_step_simplex

SEED = 20_261_018
N_PROGRAMS = 400          # per increment pattern
PATTERNS = ("positive", "negative", "zero", "mixed", "sparse", "balanced")


def star(n_children: int) -> EventTree:
    """An atom (node 0) with `n_children` children at time 1."""
    return EventTree(1, 1, [None] + [0] * n_children, [0] + [1] * n_children)


def rational(rng: random.Random, lo: int = 1, hi: int = 9) -> F:
    return F(rng.randint(lo, hi), rng.randint(1, 6))


def increments(rng: random.Random, pattern: str, n: int) -> list[F]:
    if pattern == "positive":
        return [rational(rng) for _ in range(n)]
    if pattern == "negative":
        return [-rational(rng) for _ in range(n)]
    if pattern == "zero":
        return [F(0)] * n
    if pattern == "sparse":
        return [rng.choice((1, -1)) * rational(rng) if rng.random() < 0.2
                else F(0) for _ in range(n)]
    return [rng.choice((1, -1, 0)) * rational(rng) for _ in range(n)]


def random_program(rng: random.Random, pattern: str):
    """(tree, masses, S, weights) of one atom; children may carry zero mass
    or zero weight, as on an insider slice or under a stopped density.  The
    "balanced" pattern sets the last child's weight so that a = 0 exactly
    with nonzero increments."""
    n = rng.choice((1, 1, 2, 3, 5, 8))
    if pattern == "balanced":
        n = max(n, 2)
    ds = increments(rng, pattern, n)
    masses = {c: F(0) if rng.random() < 0.15 else rational(rng, 1, 4)
              for c in range(1, n + 1)}
    masses[0] = sum(masses.values(), F(0)) or F(1, 3)
    weights = {c: F(0) if rng.random() < 0.15 else rational(rng)
               for c in range(1, n + 1)}
    if pattern == "balanced":
        rest = sum(masses[c] * weights[c] * ds[c - 1] for c in range(1, n))
        last = rational(rng) * (-1 if rest > 0 else 1)
        ds[-1] = last
        masses[n] = rational(rng, 1, 4)
        masses[0] += masses[n]
        weights[n] = abs(rest) / (masses[n] * abs(last))
    s0 = rational(rng, 0, 20)
    S = AdaptedProcess({0: (s0,), **{c: (s0 + ds[c - 1],)
                                     for c in range(1, n + 1)}})
    if pattern != "balanced" and rng.random() < 0.2:
        weights = None
    return star(n), masses, S, weights


def simplex_program(tree, masses, S, node, weights=None):
    """(value, h) of `_one_step_simplex` on the pairs that
    `one_step_program` hands the kernel, lifted as the kernel lifts them:
    the LP's value is the lifted gain, so the conditional optimum is
    (sum of the lifted masses + value) / (D P(node))."""
    children = tree.children_of(node)
    x = [(masses[c] * (1 if weights is None else weights[c]))
         .as_integer_ratio() for c in children]
    s = {v: S[v][0].as_integer_ratio() for v in (node, *children)}
    d, n = _lift_pairs(x)
    res = _one_step_simplex(n, [_increments(s, node, children)])
    if res.status == UNBOUNDED:
        raise Na1FailsOnAtom(node, tuple(res.ray))
    return (sum(n) + res.value) / d / masses[node], tuple(res.x)


def box_simplex(tree, S, node=0):
    """(value, h) of `_box_simplex` on the atom's increments."""
    res = _box_simplex(S.dim, [tuple(a - b for a, b in zip(S[c], S[node]))
                               for c in tree.children_of(node)])
    assert res.status == OPTIMAL
    return res.value, tuple(res.x)


def box_from_ray(tree, S, ray, node=0):
    """(value, h) of the box program as `check_na1` reads it off the ray."""
    return sum((ray[0] * (S[c][0] - S[node][0])
                for c in tree.children_of(node)), F(0)), ray


def solve(program, node=0):
    """(status, value, h, ray) of a one-step solver, for comparison."""
    try:
        value, h = program(node)
    except Na1FailsOnAtom as exc:
        assert exc.atom == node
        return "unbounded", None, None, exc.ray
    return "optimal", value, h, None


@pytest.mark.parametrize("pattern", PATTERNS)
def test_closed_form_matches_simplex(pattern):
    rng = random.Random(f"{SEED}-{pattern}")
    statuses = set()
    for _ in range(N_PROGRAMS):
        tree, masses, S, weights = random_program(rng, pattern)
        closed = solve(lambda v: one_step_program(tree, masses, S, v, weights))
        simplex = solve(lambda v: simplex_program(tree, masses, S, v, weights))
        assert closed == simplex, (S.values, masses, weights)
        assert all(type(x) is F for x in closed[2] or closed[3])
        if closed[0] == "unbounded":
            assert box_from_ray(tree, S, closed[3]) == box_simplex(tree, S), \
                S.values
        statuses.add(closed[0])
        if pattern == "balanced":
            assert closed[2] == (0,)
    expected = {"zero": {"optimal"}, "balanced": {"optimal"},
                "positive": {"optimal", "unbounded"},
                "negative": {"optimal", "unbounded"}}
    assert statuses == expected.get(pattern, {"optimal", "unbounded"})


def test_closed_form_on_a_single_child():
    tree = star(1)
    masses = {0: F(1, 2), 1: F(1, 2)}
    for ds, weight in [(F(3), F(2)), (F(-1, 4), F(1)), (F(0), F(5)),
                       (F(2), F(0))]:
        S = AdaptedProcess({0: (F(1),), 1: (1 + ds,)})
        for w in (None, {1: weight}):
            closed = solve(lambda v: one_step_program(tree, masses, S, v, w))
            assert closed == solve(
                lambda v: simplex_program(tree, masses, S, v, w))
            if closed[0] == "unbounded":
                assert box_from_ray(tree, S, closed[3]) == box_simplex(
                    tree, S)
    # a zero-weight child still bounds h: a = 0 there, so h = 0 and value 0
    S = AdaptedProcess({0: (F(1),), 1: (F(3),)})
    assert one_step_program(tree, masses, S, 0, {1: F(0)}) == (F(0), (F(0),))
    # a single rise is an unbounded ray, and the box program holds it at 1
    with pytest.raises(Na1FailsOnAtom) as exc:
        one_step_program(tree, masses, S, 0)
    assert exc.value.ray == (F(1),)
    assert box_from_ray(tree, S, exc.value.ray) == box_simplex(tree, S) \
        == (F(2), (F(1),))


def test_zero_mass_children_keep_their_bounds():
    """A child with zero mass adds nothing to the objective but its
    admissibility constraint still caps h."""
    tree = star(2)
    masses = {0: F(1, 3), 1: F(1, 3), 2: F(0)}
    S = AdaptedProcess({0: (F(2),), 1: (F(3),), 2: (F(1, 2),)})
    # a = 1 > 0, and the null child's ds = -3/2 gives h <= 2/3
    assert one_step_program(tree, masses, S, 0) == (F(5, 3), (F(2, 3),))
    assert simplex_program(tree, masses, S, 0) == (F(5, 3), (F(2, 3),))


def test_null_atom_is_rejected():
    tree = star(2)
    S = AdaptedProcess({0: (F(1),), 1: (F(2),), 2: (F(1, 2),)})
    with pytest.raises(ValueError, match="null atom 0"):
        one_step_program(tree, {0: F(0), 1: F(0), 2: F(0)}, S, 0)
