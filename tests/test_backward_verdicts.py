"""The backward-pass verdicts against the whole-tree programs of lp_oracle.

`check_na1` reads its value off the same backward pass that builds the
deflator, so `Z_0 == optimal_value` holds by construction; this corpus keeps
the verdicts and values checked by an independent formulation.
"""

import random

import lp_oracle
from deflator_lab.arbitrage import check_both, check_na, check_na1
from deflator_lab.filtered_space import stochastic_integral
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
        both = check_both(problem)
        na = check_na(problem)
        na1 = check_na1(problem)

        assert both.na_holds == na.na_holds == want_na.na_holds
        assert both.na1_holds == na1.na1_holds == want_na1.na1_holds
        assert na.na1_holds is None and na1.na_holds is None
        assert (both.na_optimum == 0) == both.na_holds
        assert na.na_optimum == both.na_optimum
        if want_na1.na1_holds:
            holds += 1
            assert both.optimal_value == na1.optimal_value == want_na1.optimal_value
            assert both.witness is None and na.witness is None and na1.witness is None
        else:
            fails += 1
            assert both.unbounded and na1.unbounded
            assert both.na_optimum > 0
            for report in (both, na, na1):
                assert_lifted_arbitrage(problem, report.witness)
    assert holds > 100 and fails > 100

