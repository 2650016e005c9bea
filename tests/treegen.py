"""Seeded random trees, measures and prices shared across the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from deflator_lab.arbitrage import WealthProblem
from deflator_lab.filtered_space import AdaptedProcess, EventTree, ProbMeasure


def random_tree(rng: random.Random, max_steps: int = 4, max_branch: int = 3,
                asset_dim: int = 1) -> EventTree:
    horizon = rng.randint(1, max_steps)
    branching = []
    width = 1
    for _ in range(horizon):
        counts = [rng.randint(1, max_branch) for _ in range(width)]
        branching.append(counts)
        width = sum(counts)
    return EventTree.from_branching(branching, asset_dim)


def random_measure(rng: random.Random, tree: EventTree) -> ProbMeasure:
    weights = {leaf: rng.randint(1, 6) for leaf in tree.leaves}
    total = sum(weights.values())
    return ProbMeasure({leaf: Fraction(w, total) for leaf, w in weights.items()})


def random_prices(rng: random.Random, tree: EventTree,
                  lo: int = -16, hi: int = 16, den: int = 4) -> AdaptedProcess:
    """Rational prices in [lo/den, hi/den] (default [-4, 4]), iid per node."""
    d = tree.asset_dim
    return AdaptedProcess(
        {v.id: tuple(Fraction(rng.randint(lo, hi), den) for _ in range(d))
         for v in tree.nodes},
        d,
    )


def martingale_prices(rng: random.Random, tree: EventTree,
                      P: ProbMeasure) -> AdaptedProcess:
    """Prices in [-4, 4] with zero conditional increments: random leaf values
    closed backward by conditional expectation (convexity keeps the range)."""
    from deflator_lab.martingale import martingale_closure

    terminal = AdaptedProcess.of_scalars(
        {leaf: Fraction(rng.randint(-16, 16), 4) for leaf in tree.leaves})
    return martingale_closure(tree, P, terminal)


def straddling_prices(rng: random.Random, tree: EventTree) -> AdaptedProcess:
    """Prices in [-4, 4] whose increments take both signs on every multi-child
    atom (and freeze on single-child atoms): (NA1) holds, and the conditional
    means are generally nonzero, so the constructed densities are strict
    supermartingales."""
    values = {tree.root: Fraction(rng.randint(-4, 4), 4)}
    for v in tree.nodes:
        if not v.children:
            continue
        base = values[v.id]
        kids = list(v.children)
        if len(kids) == 1:
            values[kids[0]] = base
            continue
        rng.shuffle(kids)
        values[kids[0]] = base + Fraction(rng.randint(1, 3), 4)
        values[kids[1]] = base - Fraction(rng.randint(1, 3), 4)
        for c in kids[2:]:
            values[c] = base + Fraction(rng.randint(-3, 3), 4)
    return AdaptedProcess.of_scalars(values)


def random_problem(rng: random.Random, max_steps: int = 4, max_branch: int = 3,
                   asset_dim: int = 1) -> WealthProblem:
    """Random market over three price styles, so (NA1) verdicts, trivial and
    strict supermartingale densities all occur with healthy frequency."""
    tree = random_tree(rng, max_steps, max_branch, asset_dim)
    P = random_measure(rng, tree)
    style = rng.random()
    if asset_dim != 1 or style < Fraction(1, 3):
        S = random_prices(rng, tree)
    elif style < Fraction(2, 3):
        S = martingale_prices(rng, tree, P)
    else:
        S = straddling_prices(rng, tree)
    return WealthProblem(tree, P, S)


# 0 is a positive combination of these three increments, so no holding gains
# on all three children of an atom that moves along them
ARBITRAGE_FREE_MOVES = ((2, -1), (-1, 2), (-1, -1))


def arbitrage_free_two_asset_problem(rng: random.Random,
                                     horizon: int) -> WealthProblem:
    """A ternary two-asset tree whose every atom is arbitrage free: each
    atom's children move the prices by positive rational multiples of the
    three `ARBITRAGE_FREE_MOVES`, so (NA1) holds and the backward pass
    builds a density through every layer."""
    tree = EventTree.uniform(horizon, 3, asset_dim=2)
    values = {tree.root: tuple(Fraction(rng.randint(-4, 4), 4)
                               for _ in range(2))}
    for v in tree.non_leaf_nodes():
        x, y = values[v.id]
        for c, (dx, dy) in zip(v.children, ARBITRAGE_FREE_MOVES):
            a = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            values[c] = (x + a * dx, y + a * dy)
    return WealthProblem(tree, random_measure(rng, tree),
                         AdaptedProcess(values, 2))


def one_step_arbitrage_free(tree: EventTree, S: AdaptedProcess) -> bool:
    """Independent (NA1) oracle for scalar prices: a one-step market on an atom
    admits no arbitrage ray iff its increments are all zero or take both
    signs, and on a finite tree (NA1) holds iff that is true on every atom."""
    assert tree.asset_dim == 1
    for v in tree.non_leaf_nodes():
        ds = [S.at(c) - S.at(v.id) for c in v.children]
        if any(x != 0 for x in ds):
            if min(ds) >= 0 or max(ds) <= 0:
                return False
    return True


def binomial_problem(steps: int = 1, up: Fraction = Fraction(2),
                     down: Fraction = Fraction(1, 2), p_up: Fraction = Fraction(1, 2),
                     s0: Fraction = Fraction(1)) -> WealthProblem:
    """Multiplicative binomial tree: child prices are parent * up / parent * down."""
    tree = EventTree.uniform(steps, 2)
    prices: dict[int, Fraction] = {tree.root: s0}
    mass: dict[int, Fraction] = {tree.root: Fraction(1)}
    for v in tree.nodes:
        if not v.children:
            continue
        u, d = v.children
        prices[u] = prices[v.id] * up
        prices[d] = prices[v.id] * down
        mass[u] = mass[v.id] * p_up
        mass[d] = mass[v.id] * (1 - p_up)
    P = ProbMeasure({leaf: mass[leaf] for leaf in tree.leaves})
    return WealthProblem(tree, P, AdaptedProcess.of_scalars(prices))


def two_leaf_problem(s_up, s_down, p_up=Fraction(1, 2), s0=Fraction(1)) -> WealthProblem:
    tree = EventTree.uniform(1, 2)
    P = ProbMeasure({1: p_up, 2: 1 - p_up})
    S = AdaptedProcess.of_scalars({0: s0, 1: s_up, 2: s_down})
    return WealthProblem(tree, P, S)


def first_primes(count: int, after: int) -> list[int]:
    """The first `count` primes greater than `after`."""
    out, k = [], after
    while len(out) < count:
        k += 1
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            out.append(k)
    return out


def coprime_problem(horizon: int, seed: int) -> WealthProblem:
    """A binary tree whose leaf masses are 1/p for distinct primes p, except
    the last leaf, which takes the rest: P's common denominator is the
    product of all the primes, and every node mass has its own large
    denominator.  Prices straddle."""
    tree = EventTree.uniform(horizon, 2)
    leaves = tree.leaves
    masses = {leaf: Fraction(1, p) for leaf, p in
              zip(leaves, first_primes(len(leaves) - 1, 4 * len(leaves)))}
    masses[leaves[-1]] = 1 - sum(masses.values())
    return WealthProblem(tree, ProbMeasure(masses),
                         straddling_prices(random.Random(seed), tree))


def overlong_density_tree(seed: int = 7):
    """A two-step binary tree whose file fits Python's default int-to-str
    limit (4,300 digits) while its Jacod density does not: leaf masses 1/4
    + 1/q0, 1/4 - 1/q1, 1/4 + 1/q2 and the rest, each q a random odd
    1,400-digit int, so the largest denominator has about 4,200 digits.
    The labels A, B, A, B make Y = slice / (P(v) P_L) the product of three
    sums with unrelated denominators.  Returns (tree, P, labels)."""
    rng = random.Random(seed)
    q = [rng.randrange(10 ** 1399, 10 ** 1400) | 1 for _ in range(3)]
    quarter = Fraction(1, 4)
    masses = [quarter + Fraction(1, q[0]), quarter - Fraction(1, q[1]),
              quarter + Fraction(1, q[2])]
    masses.append(1 - sum(masses))
    tree = EventTree.uniform(2, 2)
    return (tree, ProbMeasure(dict(zip(tree.leaves, masses))),
            dict(zip(tree.leaves, "ABAB")))
