"""Monte Carlo engine: reproducibility, exact trivial cases, statistical
behavior of the deflator and counterexample simulations at small path counts
(the acceptance suite runs the full-size versions)."""

import numpy as np
import pytest

from deflator_lab.montecarlo import (
    DiffusionScenario, InsiderDriftScenario, LevyScenario,
    analytic_frozen_mean, deflated_price_test, density_mean_test,
    information_drift_deflator, pairwise_sum,
    simulate_deflated_wealth, simulate_levy_counterexample,
    simulate_survival_measure, summarize,
)

PATHS = 4000


def test_pairwise_sum_matches_and_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(10_001)
    s1 = pairwise_sum(x)
    s2 = pairwise_sum(x)
    assert s1 == s2
    assert abs(s1 - float(np.sum(x))) < 1e-9


def test_summarize_flags_small_samples():
    t = summarize(np.array([0.1, -0.2, 0.05]))
    assert t.insufficient and t.verdict == "insufficient"
    assert not t.consistent and not t.rejects


@pytest.mark.parametrize("paths", [200, 256, 300, 1000, 4095, 4096])
def test_a_sample_without_spread_is_judged_exactly(paths):
    """With se 0 the z statistic reads 0, so the verdict compares the mean
    with the target exactly: e^-2 - 1 on every path rejects the target 0.
    Summed, that value rounds away by an ulp at 300 and 4,095 paths; the
    report still gives the value itself with se 0, not se ~ 1e-18."""
    value = float(np.exp(-2.0)) - 1.0
    sc = LevyScenario(a=2.0, b=1.0, steps=4, paths=paths, seed=1)
    t = simulate_survival_measure(sc, 0.0)
    assert t.se == 0.0 and t.z == 0.0 and t.mean == value
    assert t.rejects and not t.consistent and t.verdict == "reject"
    for common in (0.5, value):
        on_target = summarize(np.full(paths, common), target=common)
        assert on_target.se == 0.0 and on_target.mean == common
        assert on_target.consistent and not on_target.rejects


def test_bit_identical_across_runs():
    sc = DiffusionScenario(mu=0.2, sigma=1.0, steps=64, paths=PATHS, seed=11)
    one = simulate_deflated_wealth(sc, 1.0)
    two = simulate_deflated_wealth(sc, 1.0)
    assert one.mean == two.mean
    assert one.se == two.se


def test_driftless_wealth_is_exact():
    sc = DiffusionScenario(mu=0.0, sigma=1.0, steps=32, paths=500, seed=2)
    flat = simulate_deflated_wealth(sc, 0.0)
    assert flat.mean == 0.0 and flat.se == 0.0         # Z = 1 and no trading
    assert density_mean_test(sc).mean == 0.0


def test_euler_consistency_on_driftless_case():
    # the exact answer is zero at every grid size; refining cannot move it
    for steps in (16, 32):
        sc = DiffusionScenario(mu=0.0, sigma=1.0, steps=steps, paths=500, seed=2)
        assert density_mean_test(sc).mean == 0.0
    sc1 = DiffusionScenario(mu=0.0, sigma=1.0, steps=16, paths=PATHS, seed=9)
    sc2 = DiffusionScenario(mu=0.0, sigma=1.0, steps=32, paths=PATHS, seed=9)
    t1 = simulate_deflated_wealth(sc1, 1.0)
    t2 = simulate_deflated_wealth(sc2, 1.0)
    allowance = 3.0 * (t1.se + t2.se)
    assert abs(t1.mean - t2.mean) <= allowance


def test_exponential_density_integrates_to_one():
    sc = DiffusionScenario(mu=0.2, sigma=1.0, steps=128, paths=PATHS, seed=42)
    t = density_mean_test(sc)
    assert t.consistent, f"|z| = {abs(t.z):.2f} at 3 sigma"


def test_deflated_price_recovers_initial_value():
    sc = DiffusionScenario(mu=0.2, sigma=1.0, steps=128, paths=PATHS, seed=43)
    t = deflated_price_test(sc)
    assert t.consistent, f"|z| = {abs(t.z):.2f} at 3 sigma"


def test_deflated_wealth_for_bounded_strategies():
    sc = DiffusionScenario(mu=0.3, sigma=0.8, steps=64, paths=PATHS, seed=44)
    pi = np.tile([1.0, -0.5], 32)
    t = simulate_deflated_wealth(sc, pi)
    assert t.consistent, f"|z| = {abs(t.z):.2f} at 3 sigma"
    with pytest.raises(ValueError, match="bounded"):
        simulate_deflated_wealth(sc, [np.inf] * sc.steps)


def test_levy_scenario_validates_intensity():
    with pytest.raises(ValueError, match=r"^a: "):
        LevyScenario(a=1.0, b=1.0)


def test_levy_counterexample_detects_and_repairs_the_drift():
    sc = LevyScenario(a=2.0, b=1.0, paths=20_000, seed=101)
    raw, corrected = simulate_levy_counterexample(sc)
    assert raw.rejects, f"frozen process z = {raw.z:.2f}"
    assert raw.within(target=analytic_frozen_mean(sc))
    assert corrected.consistent, f"repaired process z = {corrected.z:.2f}"


def test_levy_counterexample_trivial_without_drift():
    sc = LevyScenario(a=2.0, b=0.0, paths=5000, seed=5)
    raw, corrected = simulate_levy_counterexample(sc)
    assert raw.consistent and corrected.consistent
    assert raw.mean == corrected.mean                 # repair subtracts nothing


def test_survival_gap_exact_without_trading():
    sc = LevyScenario(a=2.0, b=1.0, paths=200, steps=8, seed=6)
    t = simulate_survival_measure(sc, 0.0)
    assert t.mean == np.exp(-2.0) - 1.0 and t.se == 0.0


def test_survival_gap_negative_for_full_and_alternating_positions():
    sc = LevyScenario(a=2.0, b=1.0, paths=PATHS, steps=16, seed=7)
    full = simulate_survival_measure(sc, 1.0)
    assert full.mean < 0.0
    alternating = simulate_survival_measure(sc, [1.0, -1.0] * 8)
    assert alternating.mean < 0.0


def test_survival_rejects_inadmissible_strategy():
    sc = LevyScenario(a=2.0, b=1.0, paths=200, steps=4, seed=6)
    with pytest.raises(ValueError, match="admissibility"):
        simulate_survival_measure(sc, 1.5)


def test_insider_scenario_guards_the_singularity():
    with pytest.raises(ValueError, match="horizon"):
        InsiderDriftScenario(horizon=1.0, steps=64)
    with pytest.raises(ValueError, match="horizon"):
        InsiderDriftScenario(horizon=0.999, steps=64)


def test_scenarios_need_at_least_one_path():
    for make in (lambda n: DiffusionScenario(mu=0.1, sigma=1.0, paths=n),
                 lambda n: LevyScenario(a=2.0, b=1.0, paths=n),
                 lambda n: InsiderDriftScenario(paths=n)):
        for paths in (0, -3):
            with pytest.raises(ValueError, match="paths"):
                make(paths)
        assert make(1).paths == 1


def test_scenarios_reject_non_finite_and_boolean_fields():
    for make, field in (
            (lambda: DiffusionScenario(mu=np.nan, sigma=1.0), "mu"),
            (lambda: LevyScenario(a=2.0, b=-np.inf), "b"),
            (lambda: LevyScenario(a=True, b=0.5), "a"),
            (lambda: InsiderDriftScenario(seed=True), "seed"),
            (lambda: InsiderDriftScenario(steps=64.0), "steps")):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make()
    sc = LevyScenario(a=2.0, b=1.0, paths=200, steps=4)
    for pi in (np.nan, [0.5, np.nan, 0.5, 0.5], [True] * 4):
        with pytest.raises(ValueError, match="^pi"):
            simulate_survival_measure(sc, pi)


def test_sampled_paths_are_deterministic_and_consistent():
    from deflator_lab.montecarlo import (sample_diffusion_paths,
                                         sample_insider_paths,
                                         sample_levy_paths)

    sc = DiffusionScenario(mu=0.1, sigma=2.0, steps=16, paths=500, seed=21)
    batch = sample_diffusion_paths(sc, 5)
    again = sample_diffusion_paths(sc, 5)
    assert np.array_equal(batch.values["motion"], again.values["motion"])
    assert batch.stream_ids == [(21, i) for i in range(5)]
    assert batch.values["price"][0, 0] == sc.s0
    rows = batch.summary_rows()
    assert rows[0]["path"] == 0 and "density_end" in rows[0]

    lb = sample_levy_paths(LevyScenario(a=2.0, b=1.0, steps=8, paths=200,
                                        seed=3), 4)
    assert lb.values["frozen"].shape == (4, 9)
    ib = sample_insider_paths(InsiderDriftScenario(horizon=0.5, steps=32,
                                                   paths=200, seed=3), 4)
    assert np.allclose(ib.values["density"][:, 0], 1.0)


def test_insider_drift_deflator_statistics():
    sc = InsiderDriftScenario(horizon=0.5, steps=512, paths=PATHS, seed=13)
    report = information_drift_deflator(sc)
    # Z_t's mean has no verdict (infinite variance from t = 1/4 on); log Z_t's
    # grid mean is exact, so its test takes no allowance, while the Euler
    # grid deflator's E[Z_t W_t] takes 2/steps
    assert report.log_density.consistent, report.log_density
    assert report.deflated_motion.within(bias=2.0 / sc.steps), \
        report.deflated_motion
