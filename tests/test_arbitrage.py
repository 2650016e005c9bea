"""(NA)/(NA1) verdicts, the utility builder, and the finite-utility check."""

import operator
import random
from fractions import Fraction as F

import pytest

from deflator_lab.arbitrage import WealthProblem, check_na1
from deflator_lab.filtered_space import (AdaptedProcess, EventTree, ProbMeasure,
                                         stochastic_integral)
from deflator_lab.utility import (Slope, TailError, UtilityCurve, build_utility,
                                  finite_utility_check)
from treegen import (binomial_problem, one_step_arbitrage_free, random_problem,
                     two_leaf_problem)

N_RANDOM_TREES = 120
SEED = 20_240_817


def test_na_fails_with_witness_on_one_signed_step():
    problem = two_leaf_problem(F(2), F(1))
    report = check_na1(problem)
    assert report.na_holds is False
    assert report.na_optimum == 1           # sum of leaf gains at |H| <= 1
    wealth = stochastic_integral(problem.tree, problem.S, report.witness)
    values = [1 + wealth.at(leaf) for leaf in problem.tree.leaves]
    assert all(x >= 1 for x in values) and any(x > 1 for x in values)


def test_na_holds_on_two_signed_step():
    report = check_na1(two_leaf_problem(F(2), F(1, 2)))
    assert report.na_holds is True and report.na_optimum == 0


def test_na_holds_on_constant_price():
    problem = two_leaf_problem(F(1), F(1))
    report = check_na1(problem)
    assert report.na_holds is True and report.na_optimum == 0


def test_na1_unbounded_on_deterministic_drift():
    tree = EventTree.singleton_path(1)
    problem = WealthProblem(tree, ProbMeasure({1: F(1)}),
                            AdaptedProcess.of_scalars({0: F(1), 1: F(2)}))
    report = check_na1(problem)
    assert report.na1_holds is False and report.unbounded
    ray = report.witness
    gain = stochastic_integral(tree, problem.S, ray)
    assert gain.at(1) > 0                    # profit grows along the ray
    assert all(gain.at(v.id) >= 0 for v in tree.nodes)


def test_na1_one_step_optimum():
    report = check_na1(two_leaf_problem(F(2), F(1, 2)))
    assert report.na1_holds is True
    assert report.optimal_value == F(3, 2)


def test_na1_two_step_compounds():
    report = check_na1(binomial_problem(steps=2))
    assert report.optimal_value == F(9, 4)


def test_na1_optimum_at_least_one():
    rng = random.Random(SEED + 1)
    for _ in range(25):
        problem = random_problem(rng)
        report = check_na1(problem)
        if report.na1_holds:
            assert report.optimal_value >= 1


def test_na_na1_random_verdicts_match_sign_oracle():
    rng = random.Random(SEED)
    seen_fail = seen_hold = 0
    for _ in range(N_RANDOM_TREES):
        problem = random_problem(rng)
        expected = one_step_arbitrage_free(problem.tree, problem.S)
        report = check_na1(problem)
        assert report.na1_holds == expected
        assert report.na_holds == expected   # the two notions agree on finite trees
        seen_fail += not expected
        seen_hold += expected
    assert seen_fail > 10 and seen_hold > 10


def test_scale_invariance_of_verdicts():
    rng = random.Random(SEED + 2)
    for _ in range(20):
        problem = random_problem(rng, max_steps=3)
        c = F(rng.randint(1, 7), rng.randint(1, 7))
        scaled = WealthProblem(
            problem.tree, problem.P,
            AdaptedProcess.of_scalars(
                {v.id: c * problem.S.at(v.id) for v in problem.tree.nodes}))
        a = check_na1(problem)
        b = check_na1(scaled)
        assert (a.na_holds, a.na1_holds) == (b.na_holds, b.na1_holds)
        if a.na1_holds:
            assert a.optimal_value == b.optimal_value


def _truncate(problem: WealthProblem, m: int) -> WealthProblem:
    """Restrict the market to times 0..m (strategies lose the later steps)."""
    tree = problem.tree
    keep = [v for v in tree.nodes if v.time <= m]
    parents = [v.parent for v in keep]
    times = [v.time for v in keep]
    small = EventTree(m, tree.asset_dim, parents, times)
    masses = problem.P.node_masses(tree)
    P = ProbMeasure({v: masses[v] for v in small.leaves})
    S = AdaptedProcess({v.id: problem.S[v.id] for v in small.nodes}, tree.asset_dim)
    return WealthProblem(small, P, S)


def test_removing_a_step_never_increases_the_optimum():
    rng = random.Random(SEED + 3)
    for _ in range(20):
        problem = random_problem(rng, max_steps=3)
        if problem.tree.horizon < 2:
            continue
        full = check_na1(problem)
        part = check_na1(_truncate(problem, problem.tree.horizon - 1))
        if full.na1_holds:
            assert part.na1_holds
            assert part.optimal_value <= full.optimal_value


# -- utility builder -------------------------------------------------------------


def geometric_tail(k: int) -> F:
    return F(1, 2 ** k)


def test_block_sizes_for_geometric_tail():
    curve = build_utility(geometric_tail, K=12, n_sum=40)
    assert curve.K_n[0] == 1
    assert curve.K_n[1:6] == [4, 6, 8, 10, 12]   # smallest valid choice is 2n
    assert curve.n_k[0] == 1
    assert all(a <= b for a, b in zip(curve.n_k, curve.n_k[1:]))


def test_slopes_nonincreasing_and_positive():
    curve = build_utility(geometric_tail, K=12, n_sum=40)
    assert all(g > 0 for g in curve.g)
    assert all(a >= b for a, b in zip(curve.g, curve.g[1:]))


def test_sum_bounds_certified_exactly():
    curve = build_utility(geometric_tail, K=20, n_sum=200)
    # aggregates agree with direct summation of the emitted slopes
    assert curve.sum_g == sum(curve.g, F(0))
    direct = sum((g * geometric_tail(k) for k, g in enumerate(curve.g)), F(0))
    assert curve.sum_g_tail == direct
    assert curve.sum_g >= curve.harmonic_lower_bound
    # term-wise Cesaro bound: each block contributes at most 1/n^2
    assert curve.sum_g_tail <= sum((F(1, n * n) for n in range(1, 201)), F(0))


def test_degenerate_tail_blocks_are_minimal():
    def tail(k: int) -> F:
        return F(1) if k == 0 else F(0)

    curve = build_utility(tail, K=6, n_sum=12)
    assert curve.K_n == list(range(1, 13))       # K_n = n
    assert curve.n_k == list(range(1, 7))        # n_k = k
    for k in range(1, 7):
        assert curve.g[k - 1] == sum((F(1, n * n) for n in range(k, 13)), F(0))
    assert curve.sum_g_tail == curve.g[0]        # only F(0) = 1 contributes


def test_non_decaying_tail_is_rejected():
    with pytest.raises(TailError, match="Cesaro"):
        build_utility(lambda k: F(1), K=3, n_sum=5, probe_limit=50)
    with pytest.raises(TailError, match="nonincreasing"):
        build_utility(lambda k: F(1, k + 1) if k != 3 else F(1), K=3, n_sum=5)


def test_utility_curve_values_and_concavity():
    curve = build_utility(geometric_tail, K=8, n_sum=30)
    assert curve.value(F(0)) == 0
    xs = [F(i, 2) for i in range(0, 17)]
    vals = [curve.value(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))          # nondecreasing
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert all(a >= b for a, b in zip(diffs, diffs[1:]))        # concave
    assert vals == [min(g * x + c for g, c in curve.pieces()) for x in xs]


def test_slope_order_matches_fraction_order():
    """The float filter of `Slope` against exact `Fraction` comparisons, on
    pairs the floats cannot tell apart and on pairs they can."""
    third = F(1, 3)
    big = 2 ** 2000                        # beyond float range: rounds to inf
    values = [third, third + F(1, 2 ** 200), third - F(1, 2 ** 200),
              F(-5, 2), F(-2), F(0), F(7), F(big) + F(1, 2), F(-big) - 1,
              F(1, 2 ** 1100)]             # below float range: rounds to 0
    ints = [-3, -2, 0, 7, big, -big]
    slopes = [Slope(v) for v in values]
    twins = [Slope(v) for v in values]     # equal values, different objects
    ops = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
           operator.ge]
    for a, fa in zip(slopes, values):
        for b, fb in [*zip(slopes, values), *zip(twins, values),
                      *zip(values, values), *((i, F(i)) for i in ints)]:
            for op in ops:
                assert op(a, b) is op(fa, fb), (op, fa, fb)
                assert op(b, a) is op(fb, fa), (op, fb, fa)
    assert sorted(slopes + ints) == sorted(values + ints)
    assert {hash(a) for a in slopes} == {hash(v) for v in values}
    assert type(slopes[0] + slopes[1]) is F and type(-slopes[0]) is F


def test_built_slopes_are_filtered_and_exact():
    curve = build_utility(geometric_tail, K=200, n_sum=400)
    assert all(type(g) is Slope and g._float == float(g) for g in curve.g)
    # a move far below float resolution still breaks monotonicity
    g = list(curve.g)
    g[100] = Slope(g[99] + F(1, 2 ** 200_000))
    assert float(g[100]) == float(g[99])
    assert not all(a >= b for a, b in zip(g, g[1:]))


def test_finite_utility_bounded_u():
    curve = UtilityCurve.from_slopes([F(1), F(0)])   # U(x) = min(x, 1)
    finite, value = finite_utility_check(two_leaf_problem(F(2), F(1, 2)), curve)
    assert finite and value <= 1


def test_finite_utility_linear_u_equals_na1_optimum():
    curve = UtilityCurve.from_slopes([F(1)])         # U(x) = x
    problem = two_leaf_problem(F(2), F(1, 2))
    finite, value = finite_utility_check(problem, curve)
    assert finite and value == check_na1(problem).optimal_value


def test_finite_utility_constant_price():
    curve = build_utility(geometric_tail, K=4, n_sum=20)
    problem = two_leaf_problem(F(1), F(1))
    finite, value = finite_utility_check(problem, curve)
    assert finite and value == curve.value(F(1))


def test_finite_utility_with_negative_slopes():
    # U(1) < 0: the hypograph rows are measured from U(1), and it is added
    # back to the value
    problem = binomial_problem(steps=1, p_up=F(1, 2))
    finite, value = finite_utility_check(problem, UtilityCurve.from_slopes([-1]))
    assert finite and value == F(-3, 4)
    finite, value = finite_utility_check(problem,
                                         UtilityCurve.from_slopes([1, -2]))
    assert finite and value == 1


def test_utility_curve_needs_a_slope():
    with pytest.raises(ValueError, match="need at least one slope"):
        UtilityCurve.from_slopes([])


def test_finite_utility_infinite_marker_when_na1_fails():
    tree = EventTree.singleton_path(1)
    problem = WealthProblem(tree, ProbMeasure({1: F(1)}),
                            AdaptedProcess.of_scalars({0: F(1), 1: F(2)}))
    curve = UtilityCurve.from_slopes([F(1)])
    finite, value = finite_utility_check(problem, curve)
    assert not finite and value is None


def test_two_asset_market_verdicts():
    tree = EventTree.uniform(1, 3, asset_dim=2)
    P = ProbMeasure({leaf: F(1, 3) for leaf in tree.leaves})
    # increments span the plane with a strictly positive pricing vector
    S = AdaptedProcess({0: (F(1), F(1)), 1: (F(2), F(1)),
                        2: (F(1, 2), F(2)), 3: (F(1), F(1, 4))}, dim=2)
    problem = WealthProblem(tree, P, S)
    report = check_na1(problem)
    assert report.na_holds and report.na1_holds
    # rotate one column so both assets drift up on every branch: arbitrage
    S2 = AdaptedProcess({0: (F(1), F(1)), 1: (F(2), F(1)),
                         2: (F(3, 2), F(2)), 3: (F(1), F(5, 4))}, dim=2)
    report2 = check_na1(WealthProblem(tree, P, S2))
    assert not report2.na_holds and not report2.na1_holds


def test_finite_utility_matches_grid_oracle_on_one_step():
    import numpy as np
    from scipy.optimize import minimize_scalar

    curve = build_utility(geometric_tail, K=6, n_sum=60)
    problem = two_leaf_problem(F(2), F(1, 2))
    finite, value = finite_utility_check(problem, curve)
    assert finite

    def u(x: float) -> float:
        # piecewise-linear extension with the final slope
        total, level = 0.0, 0.0
        for k, g in enumerate(curve.g, start=1):
            step = min(max(x - (k - 1), 0.0), 1.0)
            total += float(g) * step
        total += float(curve.g[-1]) * max(x - curve.K, 0.0)
        return total

    def neg(h: float) -> float:
        return -(0.5 * u(1.0 + h) + 0.5 * u(1.0 - 0.5 * h))

    grid = np.linspace(-1.0, 2.0, 3001)
    best = min(grid, key=neg)
    res = minimize_scalar(neg, bounds=(max(-1.0, best - 0.01),
                                       min(2.0, best + 0.01)),
                          method="bounded", options={"xatol": 1e-12})
    oracle = -min(neg(best), res.fun)
    assert abs(float(value) - oracle) < 1e-9


def test_non_positive_measure_is_rejected():
    tree = EventTree.uniform(1, 2)
    P = ProbMeasure({1: F(1), 2: F(0)})
    S = AdaptedProcess.of_scalars({0: F(1), 1: F(2), 2: F(1, 2)})
    with pytest.raises(ValueError, match="strictly positive"):
        check_na1(WealthProblem(tree, P, S))
