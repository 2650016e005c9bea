"""Dominating-measure construction, decomposition properties, transfer
formulas, and the pre-death price check."""

import random
from fractions import Fraction as F

import pytest

from deflator_lab.deflator import construct_deflator
from deflator_lab.filtered_space import (
    AdaptedProcess, EventTree, ProbMeasure, StoppingTime, Strategy,
)
from deflator_lab.martingale import conditional_expectation, martingale_closure
from deflator_lab.kunita_yoeurp import (
    DominatingMeasure, KyError, build_dominating_measure, check_stopped_price,
    verify_ky, yoeurp_expectation,
)
import ky_oracle
from treegen import binomial_problem, random_measure, random_problem, random_tree

SEED = 555_001


def singleton_half():
    """One path, one step, density dropping to 1/2."""
    tree = EventTree.singleton_path(1)
    P = ProbMeasure({1: F(1)})
    Z = AdaptedProcess.of_scalars({0: F(1), 1: F(1, 2)})
    return tree, P, Z


def survival_fixture():
    """Two-step single path: price doubles while alive, density halves.

    This is the death-time resolution of a density no measure on the bare
    path could have: under Q the killed price is a martingale, but its
    pre-death freeze drifts up and is compensated only by death.
    """
    tree = EventTree.singleton_path(2)
    P = ProbMeasure({2: F(1)})
    S = AdaptedProcess.of_scalars({0: F(1), 1: F(2), 2: F(4)})
    Z = AdaptedProcess.of_scalars({0: F(1), 1: F(1, 2), 2: F(1, 4)})
    return tree, P, S, Z


def long_path(horizon):
    """One path of the given length: density 1/(t+1), so every step moves
    1/((t+1)(t+2)) into a death slice, and price t, which grows riskless."""
    tree = EventTree.singleton_path(horizon)
    P = ProbMeasure({horizon: F(1)})
    Z = AdaptedProcess.of_scalars({t: F(1, t + 1) for t in range(horizon + 1)})
    S = AdaptedProcess.of_scalars({t: F(t) for t in range(horizon + 1)})
    return tree, P, S, Z


def test_singleton_masses():
    tree, P, Z = singleton_half()
    dm = build_dominating_measure(tree, P, Z)
    assert dm.Q[(1, 1)] == F(1, 2)
    assert dm.Q[(1, None)] == F(1, 2)


def test_unit_density_gives_embedded_measure():
    problem = binomial_problem(steps=2)
    tree, P = problem.tree, problem.P
    dm = build_dominating_measure(tree, P, AdaptedProcess.constant(tree, F(1)))
    for leaf in tree.leaves:
        assert dm.Q[(leaf, None)] == P.mass(leaf)
    assert all(zeta is None for (_, zeta) in dm.Q)


def test_martingale_density_is_pure_density_change():
    rng = random.Random(SEED)
    tree = random_tree(rng, max_steps=3)
    P = random_measure(rng, tree)
    terminal = AdaptedProcess.of_scalars(
        {leaf: F(rng.randint(1, 9), 1) for leaf in tree.leaves})
    Z = martingale_closure(tree, P, terminal)
    scale = Z.at(0)
    Z = AdaptedProcess.of_scalars({v.id: Z.at(v.id) / scale for v in tree.nodes})
    dm = build_dominating_measure(tree, P, Z)
    for leaf in tree.leaves:
        assert dm.Q.get((leaf, None), F(0)) == P.mass(leaf) * Z.at(leaf)
    assert all(zeta is None for (_, zeta) in dm.Q)


def test_normalization_and_supermartingale_guards():
    tree, P, Z = singleton_half()
    bad = AdaptedProcess.of_scalars({0: F(2), 1: F(1)})
    with pytest.raises(KyError, match="normalization"):
        build_dominating_measure(tree, P, bad)
    sub = AdaptedProcess.of_scalars({0: F(1), 1: F(3, 2)})   # submartingale
    with pytest.raises(KyError, match="not a supermartingale"):
        build_dominating_measure(tree, P, sub)


def test_verify_ky_passes_on_construction_and_catches_corruption():
    tree, P, S, Z = survival_fixture()
    dm = build_dominating_measure(tree, P, Z)
    taus = [StoppingTime(tree, [1]), StoppingTime(tree, [2]), StoppingTime(tree, [])]
    report = verify_ky(dm)
    assert report.passed, report.failures
    assert ky_oracle.verify_ky_failures(dm, taus) == []
    # a measure is checked as it was made, so Q is read-only
    with pytest.raises(TypeError):
        dm.Q[(2, 1)] = F(0)
    # move mass between death slices: property 3 must name the touched atom
    Q2 = dict(dm.Q)
    Q2[(2, 1)] -= F(1, 8)
    Q2[(2, 2)] += F(1, 8)
    broken = verify_ky(DominatingMeasure(dm.space, Q2, dm.Z, dm.dA))
    assert not broken.passed
    assert any("property 3" in f for f in broken.failures)


def test_verify_ky_on_random_constructed_deflators():
    rng = random.Random(SEED + 1)
    checked = 0
    while checked < 15:
        problem = random_problem(rng, max_steps=3)
        try:
            deflator = construct_deflator(problem)
        except Exception:
            continue
        checked += 1
        normalized = deflator.normalized(problem.tree)
        dm = build_dominating_measure(problem.tree, problem.P, normalized)
        taus = []
        for _ in range(5):
            level = F(rng.randint(-8, 8), 4)
            taus.append(StoppingTime.hitting_time(problem.tree, problem.S, level))
        assert verify_ky(dm).passed
        assert ky_oracle.verify_ky_failures(dm, taus) == []


def test_yoeurp_constant_process():
    tree, P, Z = singleton_half()
    dm = build_dominating_measure(tree, P, Z)
    c = F(7, 3)
    q, p = yoeurp_expectation(dm, Strategy.constant(tree, c, dim=1))
    assert q == p == c


def test_yoeurp_singleton_predictable():
    tree, P, Z = singleton_half()
    dm = build_dominating_measure(tree, P, Z)
    y1 = F(5, 2)
    q, p = yoeurp_expectation(dm, Strategy.of_scalars({0: y1}))
    assert q == y1 and p == y1


def test_yoeurp_death_indicator_via_left_limit():
    tree, P, Z = singleton_half()
    dm = build_dominating_measure(tree, P, Z)
    # adapted Y = (1, 0): the pre-death value is 1 exactly when death happened
    Y = AdaptedProcess.of_scalars({0: F(1), 1: F(0)})
    q, p = yoeurp_expectation(dm, Y)
    assert q == F(1, 2) and p == F(1, 2)


def test_yoeurp_random_predictable_and_adapted():
    rng = random.Random(SEED + 2)
    checked = 0
    while checked < 10:
        problem = random_problem(rng, max_steps=3)
        try:
            deflator = construct_deflator(problem)
        except Exception:
            continue
        checked += 1
        dm = build_dominating_measure(
            problem.tree, problem.P,
            deflator.normalized(problem.tree))
        for _ in range(50):
            Y = Strategy.of_scalars(
                {v.id: F(rng.randint(-9, 9), rng.randint(1, 4))
                 for v in problem.tree.non_leaf_nodes()})
            yoeurp_expectation(dm, Y)     # raises on imbalance
            A = AdaptedProcess.of_scalars(
                {v.id: F(rng.randint(-9, 9), rng.randint(1, 4))
                 for v in problem.tree.nodes})
            yoeurp_expectation(dm, A)


def test_domination_when_terminal_density_positive():
    rng = random.Random(SEED + 3)
    checked = 0
    while checked < 10:
        problem = random_problem(rng, max_steps=3)
        try:
            deflator = construct_deflator(problem)
        except Exception:
            continue
        checked += 1
        dm = build_dominating_measure(
            problem.tree, problem.P,
            deflator.normalized(problem.tree))
        # terminal density positive: every Q-null point is embedded-null
        for point in dm.space.points():
            if dm.Q.get(point, F(0)) == 0:
                assert dm.space.p_bar(*point) == 0


def test_stopped_price_trivial_when_density_is_one():
    problem = binomial_problem(steps=2, up=F(2), down=F(1, 2), p_up=F(1, 3))
    # up-probability 1/3 makes S a martingale: E[dS] = (1/3)S + (2/3)(-S/2)... = 0
    tree, P, S = problem.tree, problem.P, problem.S
    dm = build_dominating_measure(tree, P, AdaptedProcess.constant(tree, F(1)))
    report = check_stopped_price(dm, S)
    assert report.is_martingale
    assert report.deflation.certified


def test_stopped_price_detects_survival_drift():
    tree, P, S, Z = survival_fixture()
    dm = build_dominating_measure(tree, P, Z)
    report = verify_ky(dm)
    assert report.passed
    stopped = check_stopped_price(dm, S)
    assert not stopped.is_martingale
    # the root atom drifts up: death freezes at 1, survival doubles
    atoms = dict(stopped.violations)
    assert 0 in atoms and atoms[0][0] > 0
    # the embedded measure is dominated: P_bar only charges the never-death
    # point, which Q charges too
    assert dm.Q[(2, None)] > 0


def test_strict_supermartingale_density_spoils_the_martingale_property():
    problem = binomial_problem(steps=1)      # up 2, down 1/2, fair coin
    deflator = construct_deflator(problem).normalized(problem.tree)
    dm = build_dominating_measure(problem.tree, problem.P, deflator)
    assert verify_ky(dm).passed
    report = check_stopped_price(dm, problem.S)
    # the growth-optimal holding sits on the admissibility boundary, so the
    # first-order condition fails and the pre-death price keeps a drift
    assert not report.is_martingale
    assert report.deflation.certified  # yet Z deflates: both can be true


def test_girsanov_consistency_for_martingale_densities():
    rng = random.Random(SEED + 4)
    agree = 0
    for _ in range(25):
        tree = random_tree(rng, max_steps=3)
        P = random_measure(rng, tree)
        terminal = AdaptedProcess.of_scalars(
            {leaf: F(rng.randint(1, 9)) for leaf in tree.leaves})
        Z = martingale_closure(tree, P, terminal)
        scale = Z.at(0)
        Z = AdaptedProcess.of_scalars(
            {v.id: Z.at(v.id) / scale for v in tree.nodes})
        S = AdaptedProcess.of_scalars(
            {v.id: F(rng.randint(-8, 8), 2) for v in tree.nodes})
        dm = build_dominating_measure(tree, P, Z)
        verdict = check_stopped_price(dm, S).is_martingale
        # brute force: Z*S must be a P-martingale atom by atom
        masses = P.node_masses(tree)
        brute = True
        for v in tree.non_leaf_nodes():
            lhs = sum((masses[c] * Z.at(c) * S.at(c) for c in v.children), F(0))
            if lhs != masses[v.id] * Z.at(v.id) * S.at(v.id):
                brute = False
        assert verdict == brute
        agree += 1
    assert agree == 25


def test_long_path_needs_no_recursion():
    # 1500 levels is past the default recursion limit of 1000
    horizon = 1500
    tree, P, S, Z = long_path(horizon)
    tau = StoppingTime.hitting_time(tree, S, F(1200))
    assert tau.stop_at == {1200} and tau.value(horizon) == 1200
    never = StoppingTime.hitting_time(tree, S, F(horizon + 1))
    assert never.stop_at == frozenset() and never.value(horizon) is None
    assert conditional_expectation(tree, P, S, 0).at(0) == horizon
    assert conditional_expectation(tree, P, S, 3, at_time=7).at(3) == 7
    dm = build_dominating_measure(tree, P, Z)
    assert dm.Q[(horizon, 1)] == F(1, 2) and dm.Q[(horizon, None)] == Z.at(horizon)
    assert verify_ky(dm).passed
    report = check_stopped_price(dm, S)
    # the alive mass shrinks from 1/(t+1) to 1/(t+2) while the price gains 1
    assert report.violations[0] == (0, (F(1, 2),))
    assert len(report.violations) == horizon
    assert not report.deflation.certified  # a riskless gain is an arbitrage


def test_tree_side_ky_pipeline_makes_no_per_atom_tree_walks(monkeypatch):
    """The mass tables, the stopping times and the transfer formula each walk
    a leaf's path at most once.  A call to one of these per-node queries
    inside a loop over slices is what made them quadratic on long paths; a
    count of calls, not a clock, keeps them out."""
    tree, P, S, Z = long_path(400)
    calls = {}
    for name in ("ancestor_at", "is_ancestor", "leaves_below"):
        original = getattr(EventTree, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(self, *args)

        monkeypatch.setattr(EventTree, name, counted)
    tau = StoppingTime.hitting_time(tree, S, F(300))
    dm = build_dominating_measure(tree, P, Z)
    assert verify_ky(dm).passed
    check_stopped_price(dm, S)
    yoeurp_expectation(dm, Strategy.constant(tree, F(2), dim=1))
    yoeurp_expectation(dm, S)
    assert calls == {}


def test_mass_lookups_are_defined_on_atoms():
    tree, P, S, Z = survival_fixture()
    dm = build_dominating_measure(tree, P, Z)
    assert [dm.alive_mass(v) for v in range(3)] == [F(1), F(1, 2), F(1, 4)]
    assert dm.dead_mass(1, 1) == dm.dead_mass(2, 1) == F(1, 2)
    assert dm.dead_mass(2, 2) == F(1, 4)
    with pytest.raises(ValueError, match="not a dead atom"):
        dm.dead_mass(1, 2)        # time-1 atoms have died at most at 1
