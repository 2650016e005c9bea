"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` for one pass/fail line per
criterion.  Everything tree-side is exact rational equality; the Monte Carlo
criteria state their confidence allowances explicitly.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from deflator_lab.arbitrage import WealthProblem, check_na1
from deflator_lab.deflator import (Na1FailsOnAtom, construct_deflator,
                                   verify_deflation)
from deflator_lab.enlargement import (
    EnlargementSpec, g_supermartingale_check, insider_example,
    log_utility_identity, universal_density,
)
from deflator_lab.filtered_space import AdaptedProcess, StoppingTime, Strategy
from deflator_lab.kunita_yoeurp import (build_dominating_measure,
                                        check_stopped_price, verify_ky,
                                        yoeurp_expectation)
from deflator_lab.martingale import martingale_closure
from deflator_lab.utility import build_utility
from deflator_lab.montecarlo import (DiffusionScenario, LevyScenario,
                                     analytic_frozen_mean, deflated_price_test,
                                     density_mean_test,
                                     simulate_levy_counterexample)
from deflator_lab.scenarios import exponential_death, insider_binomial
import ky_oracle
from product_oracle import product_market
from treegen import binomial_problem, random_problem

CORPUS_SEED = 93_170_001
CORPUS_SIZE = 500
ENLARGEMENT_TREES = 200
YOEURP_DRAWS = 1000
HITTING_TIMES = 10


def ok(num: int, message: str) -> None:
    print(f"criterion {num:2d} PASS - {message}")


@pytest.fixture(scope="module")
def corpus():
    """Criterion 1's randomized markets with their verdicts and densities."""
    rng = random.Random(CORPUS_SEED)
    t0 = time.perf_counter()
    entries = []
    for _ in range(CORPUS_SIZE):
        problem = random_problem(rng, max_steps=4, max_branch=3)
        verdict = check_na1(problem)
        try:
            deflator = construct_deflator(problem)
        except Na1FailsOnAtom:
            deflator = None
        entries.append((problem, verdict, deflator))
    elapsed = time.perf_counter() - t0
    return entries, elapsed


def test_criterion_01_deflator_iff_na1(corpus):
    entries, elapsed = corpus
    t0 = time.perf_counter()
    held = failed = 0
    for problem, verdict, deflator in entries:
        assert verdict.na1_holds == (deflator is not None), \
            "density construction and the arbitrage program disagree"
        if deflator is None:
            failed += 1
            continue
        held += 1
        report = verify_deflation(problem, deflator)
        assert report.certified, f"deflation certificate failed: {report.violations}"
        assert deflator.Z.at(0) == verdict.optimal_value
    runtime = elapsed + time.perf_counter() - t0
    assert runtime < 60.0, f"criterion 1 took {runtime:.1f}s"
    ok(1, f"equivalence and certificates on {CORPUS_SIZE} trees "
          f"({held} admit densities, {failed} refuse) in {runtime:.1f}s")


def test_criterion_02_kunita_yoeurp_properties(corpus):
    entries, _ = corpus
    rng = random.Random(CORPUS_SEED + 1)
    measures = 0
    for problem, _, deflator in entries:
        if deflator is None:
            continue
        normalized = deflator.normalized(problem.tree)
        dm = build_dominating_measure(problem.tree, problem.P, normalized)
        taus = []
        for _ in range(HITTING_TIMES):
            level = F(rng.randint(-16, 16), 4)
            taus.append(StoppingTime.hitting_time(problem.tree, problem.S, level))
        report = verify_ky(dm)
        assert report.passed, report.failures
        # the stopped identities are property 3 on each stop set; the
        # leaf-sum oracle checks them as identities of their own
        assert ky_oracle.verify_ky_failures(dm, taus) == []
        measures += 1
    ok(2, f"three decomposition properties plus {HITTING_TIMES} stopped "
          f"identities exact on {measures} dominating measures")


def _fixture_measures():
    out = []
    tf = exponential_death()
    out.append(("exponential-death",
                build_dominating_measure(tf.tree, tf.P, tf.processes["Z"])))
    tf = insider_binomial()[0]
    problem = WealthProblem(tf.tree, tf.P, tf.processes["S"])
    deflator = construct_deflator(problem).normalized(tf.tree)
    out.append(("insider-binomial",
                build_dominating_measure(tf.tree, tf.P, deflator)))
    two_step = binomial_problem(steps=2)
    deflator = construct_deflator(two_step).normalized(two_step.tree)
    out.append(("two-step-binomial",
                build_dominating_measure(two_step.tree, two_step.P, deflator)))
    return out


def test_criterion_03_yoeurp_transfer_formula():
    rng = random.Random(CORPUS_SEED + 2)
    for name, dm in _fixture_measures():
        tree = dm.tree
        for _ in range(YOEURP_DRAWS):
            Y = Strategy.of_scalars(
                {v.id: F(rng.randint(-24, 24), rng.randint(1, 6))
                 for v in tree.non_leaf_nodes()})
            q_side, p_side = yoeurp_expectation(dm, Y)   # raises on imbalance
            assert q_side == p_side
    ok(3, f"{YOEURP_DRAWS} random predictable processes balance exactly on "
          f"{len(_fixture_measures())} fixture measures")


def test_criterion_04_domination(corpus):
    entries, _ = corpus
    checked = 0
    for problem, _, deflator in entries:
        if deflator is None:
            continue
        normalized = deflator.normalized(problem.tree)
        assert all(normalized.Z.at(leaf) > 0 for leaf in problem.tree.leaves)
        dm = build_dominating_measure(problem.tree, problem.P, normalized)
        for point in dm.space.points():
            if dm.Q.get(point, F(0)) == 0:
                assert dm.space.p_bar(*point) == 0, \
                    f"extension charges {point} that the measure misses"
        checked += 1
    ok(4, f"null sets of the dominating measure stay null for the embedded "
          f"measure on {checked} extensions")


def test_criterion_05_exponential_death_fixture():
    tf = exponential_death()
    dm = build_dominating_measure(tf.tree, tf.P, tf.processes["Z"])
    assert verify_ky(dm).passed
    report = check_stopped_price(dm, tf.processes["S"])
    assert not report.is_martingale
    atoms = dict(report.violations)
    assert atoms, "no drift atom reported"
    assert all(drift[0] > 0 for drift in atoms.values()), \
        "expected strictly positive survival drift"
    # the survival measure is dominated: every embedded-positive point is charged
    for point in dm.space.points():
        if dm.space.p_bar(*point) > 0:
            assert dm.Q.get(point, F(0)) > 0
    ok(5, f"pre-death price drifts up on atoms {sorted(atoms)} and the "
          f"survival measure is dominated")


def test_criterion_06_levy_counterexample():
    t0 = time.perf_counter()
    sc = LevyScenario(a=2.0, b=1.0, horizon=1.0, paths=100_000, seed=20_240)
    raw, corrected = simulate_levy_counterexample(sc)
    analytic = analytic_frozen_mean(sc)
    assert abs(analytic - 0.43233235838169365) < 1e-12
    assert raw.rejects, f"frozen process not rejected: z = {raw.z:.2f}"
    assert abs(raw.mean - analytic) <= 3.0 * raw.se, \
        f"frozen mean {raw.mean:.5f} further than 3 SE from {analytic:.5f}"
    assert corrected.consistent, \
        f"repaired process rejected: z = {corrected.z:.2f}"
    runtime = time.perf_counter() - t0
    assert runtime < 30.0, f"criterion 6 took {runtime:.1f}s"
    ok(6, f"frozen mean {raw.mean:.5f} ~ {analytic:.5f} rejects at 3 sigma, "
          f"repair consistent (z = {corrected.z:.2f}) in {runtime:.1f}s")


def test_criterion_07_structure_condition_deflator():
    steps = 2 ** 9
    for mu in (0.0, 0.2):
        sc = DiffusionScenario(mu=mu, sigma=1.0, horizon=1.0, steps=steps,
                               paths=100_000, seed=20_241)
        density = density_mean_test(sc)
        assert abs(density.mean) <= 3.0 * density.se or density.se == 0.0, \
            f"mu={mu}: |E[Z]-1| = {abs(density.mean):.5f} > 3 SE"
        price = deflated_price_test(sc)
        allowance = 3.0 * price.se + 2.0 / steps
        assert abs(price.mean) <= allowance, \
            f"mu={mu}: |E[ZS]-S0| = {abs(price.mean):.5f} > {allowance:.5f}"
    ok(7, "exponential density has unit mean and prices the asset at both "
          "drift levels (3 SE + 2/m)")


def test_criterion_08_universal_density_and_na1_preservation():
    rng = random.Random(CORPUS_SEED + 3)
    preserved = 0
    for _ in range(ENLARGEMENT_TREES):
        problem = random_problem(rng, max_steps=3, max_branch=3)
        tree, P = problem.tree, problem.P
        labels = {leaf: rng.choice("abc"[: rng.randint(1, 3)])
                  for leaf in tree.leaves}
        spec = EnlargementSpec(tree, P, labels)
        Z = universal_density(spec)
        for leaf in tree.leaves:                       # full spanning set
            indicator = AdaptedProcess.of_scalars(
                {x: F(1) if x == leaf else F(0) for x in tree.leaves})
            M = martingale_closure(tree, P, indicator)
            assert g_supermartingale_check(spec, Z, M) == []
        masses = P.node_masses(tree)
        for _ in range(50):                            # random supermartingales
            values = {leaf: F(rng.randint(0, 9), rng.randint(1, 3))
                      for leaf in tree.leaves}
            for v in sorted(tree.non_leaf_nodes(), key=lambda nd: -nd.time):
                cond = sum((masses[c] * values[c] for c in v.children),
                           F(0)) / masses[v.id]
                values[v.id] = cond + F(rng.randint(0, 3), 4)
            M = AdaptedProcess.of_scalars(values)
            assert g_supermartingale_check(spec, Z, M) == []
        base = check_na1(problem)
        if base.na1_holds:
            enlarged = check_na1(product_market(spec, problem.S).problem())
            assert enlarged.na1_holds, "label enlargement broke (NA1)"
            preserved += 1
    ok(8, f"universal density deflates the spanning set and 50 random "
          f"supermartingales on {ENLARGEMENT_TREES} trees; (NA1) preserved "
          f"on all {preserved} viable ones")


def test_criterion_09_insider_impossibility():
    one = binomial_problem(steps=1)
    spec1 = EnlargementSpec(one.tree, one.P, {1: "u", 2: "d"})
    report1 = insider_example(spec1, one.S, {"u"})
    two = binomial_problem(steps=2)
    labels = {leaf: ("hi" if two.S.at(leaf) >= 2 else "lo")
              for leaf in two.tree.leaves}
    spec2 = EnlargementSpec(two.tree, two.P, labels)
    report2 = insider_example(spec2, two.S, {"hi"})
    for name, report in (("one-step", report1), ("two-step", report2)):
        assert report.emm_infeasible, f"{name}: pricing program not infeasible"
        assert report.na1_product.na1_holds, f"{name}: (NA1) lost"
        assert report.deflator_violations == [], f"{name}: density certificate"
        assert report.contradiction_certified
    ok(9, "no equivalent insider pricing measure exists while unbounded "
          "profit stays impossible, on both binomial fixtures")


def test_criterion_10_log_utility_identity():
    from test_enlargement import grid_log_utility

    one = binomial_problem(steps=1)
    spec1 = EnlargementSpec(one.tree, one.P, {1: "u", 2: "d"})
    two = binomial_problem(steps=2)
    labels = {leaf: ("hi" if two.S.at(leaf) >= 2 else "lo")
              for leaf in two.tree.leaves}
    spec2 = EnlargementSpec(two.tree, two.P, labels)
    for name, spec, S in (("one-step", spec1, one.S), ("two-step", spec2, two.S)):
        report = log_utility_identity(spec, S)
        gap = report.u_insider - report.u_base - report.mutual_information
        assert abs(gap) <= 1e-6, f"{name}: identity gap {gap:.2e}"
        oracle_base = grid_log_utility(spec, S, labelled=False)
        oracle_insider = grid_log_utility(spec, S, labelled=True)
        assert abs(report.u_base - oracle_base) <= 1e-4, \
            f"{name}: base utility off the grid oracle"
        assert abs(report.u_insider - oracle_insider) <= 1e-4, \
            f"{name}: insider utility off the grid oracle"
    ok(10, "insider log utility = base + mutual information (1e-6), "
           "grid oracle agrees (1e-4)")


def test_criterion_11_utility_builder_bounds():
    K = 10_000
    n_sum = 20_000
    curve = build_utility(lambda k: F(1, 1 << k), K=K, n_sum=n_sum)
    # diverging lower bound: every block with K_n <= K contributes 1/n fully
    harmonic_half = sum((F(1, n) for n in range(1, K // 2 + 1)), F(0)) / 2
    assert curve.sum_g >= harmonic_half, "harmonic lower bound violated"
    assert curve.sum_g >= curve.harmonic_lower_bound
    # the weighted sum obeys the blockwise Cesaro bound term by term, whose
    # total is a partial sum of sum 1/n^2 and hence strictly below pi^2/6
    basel_partial = sum((F(1, n * n) for n in range(1, n_sum + 1)), F(0))
    assert curve.sum_g_tail <= basel_partial
    assert float(basel_partial) < math.pi ** 2 / 6
    assert float(curve.sum_g_tail) < math.pi ** 2 / 6
    assert all(a >= b for a, b in zip(curve.g, curve.g[1:]))
    assert curve.remainder_bound == F(1, n_sum)
    ok(11, f"sum g = {float(curve.sum_g):.3f} >= H({K // 2})/2 = "
           f"{float(harmonic_half):.3f}; weighted sum "
           f"{float(curve.sum_g_tail):.5f} < pi^2/6 with 1/{n_sum} enclosures")
