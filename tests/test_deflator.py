"""Density construction by one-period programs and backward induction."""

import random
from fractions import Fraction as F

import pytest

from deflator_lab.arbitrage import WealthProblem, check_na1
from deflator_lab.deflator import (
    Na1FailsOnAtom, construct_deflator, one_period_density, verify_deflation,
)
from deflator_lab.filtered_space import AdaptedProcess, EventTree, ProbMeasure
from deflator_lab.martingale import expectation
import deflation_oracle
from treegen import binomial_problem, random_problem, two_leaf_problem

SEED = 77_003


def test_one_period_value_on_asymmetric_step():
    problem = two_leaf_problem(F(2), F(1, 2))
    Z0 = one_period_density(problem.tree, problem.P, problem.S)
    assert Z0.at(0) == F(3, 2)               # maximizer h = 2


def test_one_period_value_flat_and_symmetric():
    flat = two_leaf_problem(F(1), F(1))
    assert one_period_density(flat.tree, flat.P, flat.S).at(0) == 1
    sym = two_leaf_problem(F(2), F(0))       # increments +1 / -1
    assert one_period_density(sym.tree, sym.P, sym.S).at(0) == 1


def test_one_period_unbounded_names_the_atom():
    tree = EventTree.singleton_path(1)
    P = ProbMeasure({1: F(1)})
    S = AdaptedProcess.of_scalars({0: F(1), 1: F(2)})
    with pytest.raises(Na1FailsOnAtom) as err:
        one_period_density(tree, P, S)
    assert err.value.atom == 0
    assert err.value.ray[0] > 0


def test_one_period_density_needs_an_interior_layer():
    problem = binomial_problem(steps=2)
    assert one_period_density(problem.tree, problem.P, problem.S,
                              at_time=1).at(1) == F(3, 2)
    for at_time in (-1, 2, 3):
        with pytest.raises(ValueError, match="at_time"):
            one_period_density(problem.tree, problem.P, problem.S,
                               at_time=at_time)


def test_constructed_deflator_on_martingale_is_one():
    problem = two_leaf_problem(F(2), F(0))   # E[dS] = 0
    deflator = construct_deflator(problem)
    assert all(deflator.Z.at(v.id) == 1 for v in problem.tree.nodes)


def test_two_period_deflator_compounds_per_step_optimum():
    problem = binomial_problem(steps=2)
    deflator = construct_deflator(problem)
    assert deflator.Z.at(0) == F(9, 4)
    assert all(deflator.Z.at(v) == F(3, 2) for v in problem.tree.nodes_at(1))
    assert all(deflator.Z.at(leaf) == 1 for leaf in problem.tree.leaves)


def test_deterministic_drift_fails_construction():
    tree = EventTree.singleton_path(2)
    P = ProbMeasure({2: F(1)})
    S = AdaptedProcess.of_scalars({0: F(1), 1: F(2), 2: F(4)})
    with pytest.raises(Na1FailsOnAtom):
        construct_deflator(WealthProblem(tree, P, S))


def test_certificate_accepts_constructed_and_rejects_lazy_density():
    problem = two_leaf_problem(F(2), F(1, 2))
    deflator = construct_deflator(problem)
    report = deflation_oracle.verify_deflation(problem, deflator, trials=20,
                                               seed=5)
    assert report.certified and report.passed
    assert report.worst_slack is not None and report.worst_slack >= 0
    # Z = 1 does not deflate a market with trading gains: one atom convicts it
    ones = AdaptedProcess.constant(problem.tree, F(1))
    bad = verify_deflation(problem, ones)
    assert not bad.certified
    assert bad.violations[0][0] == 0 and bad.violations[0][1] == F(1, 2)


def test_certificate_accepts_unit_density_on_martingale():
    problem = two_leaf_problem(F(2), F(0))
    ones = AdaptedProcess.constant(problem.tree, F(1))
    assert deflation_oracle.verify_deflation(problem, ones, trials=10,
                                             seed=1).passed


def test_equivalence_with_na1_and_value_match():
    rng = random.Random(SEED)
    built = failed = 0
    for _ in range(120):
        problem = random_problem(rng)
        verdict = check_na1(problem)
        try:
            deflator = construct_deflator(problem)
        except Na1FailsOnAtom:
            failed += 1
            assert verdict.na1_holds is False
            continue
        built += 1
        assert verdict.na1_holds is True
        # both are values of the same dynamic program
        assert deflator.Z.at(0) == verdict.optimal_value
        assert all(deflator.Z.at(v.id) >= 1 for v in problem.tree.nodes)
        assert verify_deflation(problem, deflator).certified
    assert built > 10 and failed > 10


def endpoint_oracle(tree, masses, S, v, weights):
    """Exact independent optimum of the scalar one-step program.

    The objective is affine in h and the admissible set is an interval, so
    the supremum sits at an endpoint (or at infinity when the interval is
    unbounded on the improving side).  Returns None for unbounded.
    """
    children = tree.children_of(v)
    atom = masses[v]
    const = sum((masses[c] / atom * weights[c] for c in children), F(0))
    slope = sum((masses[c] / atom * weights[c] * (S.at(c) - S.at(v))
                 for c in children), F(0))
    lo = hi = None
    for c in children:
        ds = S.at(c) - S.at(v)
        if ds > 0:
            bound = -1 / ds
            lo = bound if lo is None else max(lo, bound)
        elif ds < 0:
            bound = -1 / ds
            hi = bound if hi is None else min(hi, bound)
    if slope > 0:
        return None if hi is None else const + slope * hi
    if slope < 0:
        return None if lo is None else const + slope * lo
    return const


def test_backward_induction_matches_endpoint_oracle():
    rng = random.Random(SEED + 9)
    checked = 0
    while checked < 40:
        problem = random_problem(rng, max_steps=3)
        masses = problem.P.node_masses(problem.tree)
        try:
            deflator = construct_deflator(problem)
        except Na1FailsOnAtom as err:
            # the oracle must agree that some atom is unbounded
            weights = {}  # recompute the partial layer values up to the failure
            z = {leaf: F(1) for leaf in problem.tree.leaves}
            unbounded_somewhere = False
            for k in range(problem.tree.horizon - 1, -1, -1):
                for v in problem.tree.nodes_at(k):
                    val = endpoint_oracle(problem.tree, masses, problem.S, v,
                                          z)
                    if val is None:
                        unbounded_somewhere = True
                        val = F(1)  # placeholder to keep the sweep moving
                    z[v] = val
            assert unbounded_somewhere
            continue
        checked += 1
        z = {leaf: F(1) for leaf in problem.tree.leaves}
        for k in range(problem.tree.horizon - 1, -1, -1):
            for v in problem.tree.nodes_at(k):
                val = endpoint_oracle(problem.tree, masses, problem.S, v, z)
                assert val is not None
                assert val == deflator.Z.at(v), \
                    f"atom {v}: oracle {val}, program {deflator.Z.at(v)}"
                z[v] = val


def test_normalized_deflator_has_unit_initial_value():
    problem = binomial_problem(steps=2)
    deflator = construct_deflator(problem).normalized(problem.tree)
    assert deflator.Z.at(0) == 1
    assert expectation(problem.tree, problem.P, deflator.Z)[0] <= 1
    assert verify_deflation(problem, deflator).certified


def test_deflated_wealth_expectations_bounded_by_program_value():
    # for every admissible wealth Y and every time k, E[Z_k Y_k] stays below
    # the supremum of expected wealth over the whole family
    from deflation_oracle import _random_admissible
    from deflator_lab.filtered_space import stochastic_integral

    rng = random.Random(SEED + 17)
    checked = 0
    while checked < 15:
        problem = random_problem(rng, max_steps=3)
        try:
            deflator = construct_deflator(problem)
        except Na1FailsOnAtom:
            continue
        checked += 1
        bound = check_na1(problem).optimal_value
        masses = problem.P.node_masses(problem.tree)
        for _ in range(10):
            H = _random_admissible(rng, problem.tree, problem.S)
            wealth = stochastic_integral(problem.tree, problem.S, H)
            for k in range(problem.tree.horizon + 1):
                e_zy = sum((masses[v] * deflator.Z.at(v) * (1 + wealth.at(v))
                            for v in problem.tree.nodes_at(k)), F(0))
                assert e_zy <= bound
