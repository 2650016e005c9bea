"""The insider's (NA1) on the base tree against the label product tree.

`check_na1` on the base market decides the insider's verdict.  The oracle
builds the enlarged market as an event tree of its own (one copy of the base
per label under a label-drawing root, weighted by P x P_L) and runs the same
pass there; verdicts and optimal values must agree exactly.
"""

import random

from deflator_lab.arbitrage import check_na1
from deflator_lab.enlargement import EnlargementSpec
from product_oracle import product_market
from test_backward_verdicts import assert_lifted_arbitrage
from treegen import random_problem

SEED = 20_261_018
N_PROBLEMS = 300


def test_base_pass_matches_the_product_tree():
    rng = random.Random(SEED)
    holds = fails = 0
    for n in range(N_PROBLEMS):
        problem = random_problem(rng, max_steps=3,
                                 asset_dim=2 if n % 3 == 0 else 1)
        labs = "abc"[:rng.randint(1, 3)]
        labels = {leaf: rng.choice(labs) for leaf in problem.tree.leaves}
        spec = EnlargementSpec(problem.tree, problem.P, labels)
        got = check_na1(problem)
        want = check_na1(product_market(spec, problem.S).problem())
        assert got.na1_holds == want.na1_holds
        assert got.unbounded == want.unbounded
        assert got.optimal_value == want.optimal_value
        if got.na1_holds:
            holds += 1
            assert got.witness is None
        else:
            fails += 1
            assert_lifted_arbitrage(problem, got.witness)
    assert holds > 50 and fails > 50
