"""The backward-pass verdicts against the whole-tree programs of lp_oracle.

`check_na1` reads its value off the same backward pass that builds the
deflator, so `Z_0 == optimal_value` holds by construction; this corpus keeps
the verdicts and values checked by an independent formulation.
"""

import random

import lp_oracle
from deflator_lab.arbitrage import check_na1
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

