"""The backward-pass verdicts against whole-tree programs: those of
lp_oracle, and the expected-utility program `finite_utility_check`.

`check_na1` reads its value off the same backward pass that builds the
deflator, so `Z_0 == optimal_value` holds by construction; this corpus keeps
the verdicts and values checked by an independent formulation.
"""

import random
from fractions import Fraction

import lp_oracle
from deflator_lab.arbitrage import check_na1
from deflator_lab.filtered_space import stochastic_integral
from deflator_lab.utility import (UtilityCurve, build_utility,
                                  finite_utility_check)
from treegen import random_problem

SEED = 20_261_017
N_PROBLEMS = 402


def assert_lifted_arbitrage(problem, witness):
    """Holds a position on one atom only; gains never negative, and positive
    on some leaf."""
    witness.validate_for(problem.tree)
    assert sum(any(h) for h in witness.steps.values()) == 1
    gain = stochastic_integral(problem.tree, problem.S, witness)
    assert all(gain.at(v.id) >= 0 for v in problem.tree.nodes)
    assert any(gain.at(leaf) > 0 for leaf in problem.tree.leaves)


def test_backward_pass_matches_whole_tree_programs():
    rng = random.Random(SEED)
    holds = fails = 0
    for n in range(N_PROBLEMS):
        problem = random_problem(rng, max_steps=3, asset_dim=2 if n % 3 == 0 else 1)
        want_na = lp_oracle.check_na(problem)
        want_na1 = lp_oracle.check_na1(problem)
        got = check_na1(problem)

        assert got.na_holds == want_na.na_holds
        assert got.na1_holds == want_na1.na1_holds
        assert (got.na_optimum == 0) == got.na_holds
        if want_na1.na1_holds:
            holds += 1
            assert got.optimal_value == want_na1.optimal_value
            assert got.witness is None
        else:
            fails += 1
            assert got.unbounded and got.na_optimum > 0
            assert_lifted_arbitrage(problem, got.witness)
    assert holds > 100 and fails > 100


def test_finite_utility_is_finite_exactly_under_na1():
    """A utility with positive terminal slope has a finite supremum exactly
    when (NA1) holds (Karatzas and Kardaras 2007), and under U(x) = x that
    supremum is the backward pass's optimal value."""
    curve = build_utility(lambda k: Fraction(1, 2 ** k), K=4, n_sum=20)
    assert curve.g[-1] > 0
    linear = UtilityCurve.from_slopes([1])
    rng = random.Random(SEED)
    holds = 0
    for n in range(100):
        problem = random_problem(rng, max_steps=3, asset_dim=2 if n % 3 == 0 else 1)
        verdict = check_na1(problem)
        finite, _ = finite_utility_check(problem, curve)
        assert finite == verdict.na1_holds, n
        finite, value = finite_utility_check(problem, linear)
        assert finite == verdict.na1_holds, n
        if finite:
            holds += 1
            assert value == verdict.optimal_value, n
    assert 20 < holds < 80
