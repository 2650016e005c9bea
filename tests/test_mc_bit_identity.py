"""The Monte Carlo estimators against mc_oracle, the per-path-seeded code
they replaced: every reported test must be identical (`repr`, so every bit
of every float), at several seeds, path counts on both sides of a block
edge, scalar and per-cell strategies, and one or two threads.  The block
keys themselves are checked against numpy's SeedSequence."""

import numpy as np
import pytest

import mc_oracle
from deflator_lab import montecarlo as mc

SEEDS = (0, 7, 20111115, 2 ** 32 + 3)
# Every seed at the small path counts; the counts at and past the block edge
# (PATH_BLOCK is 4096: one full block, a block plus one path, three blocks)
# once each, which covers the threaded path and keeps the oracle's
# per-path seeding to about ten seconds.
CASES = ([(seed, paths) for seed in SEEDS for paths in (1, 99)]
         + [(0, 4096), (2 ** 32 + 3, 4097), (20111115, 9000)])
THREADS = (1, 2)


def outcome(estimator, *args):
    """repr of the result, or of the failure, so raising counts as a result."""
    try:
        return repr(estimator(*args))
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def cases(seed, paths):
    """(name, oracle call, production call taking threads) per estimator."""
    diff = mc.DiffusionScenario(mu=0.3, sigma=0.8, steps=8, paths=paths,
                                seed=seed)
    levy = mc.LevyScenario(a=2.0, b=1.0, steps=4, paths=paths, seed=seed)
    insider = mc.InsiderDriftScenario(horizon=0.5, steps=8, paths=paths,
                                      seed=seed)
    diff_pi = [1.0, -0.5, 0.25, 2.0, 0.0, -1.0, 0.5, 1.5]
    levy_pi = [0.5, -1.0, 1.0, -0.25]
    return [
        ("density_mean_test", (mc_oracle.density_mean_test, diff),
         (mc.density_mean_test, diff)),
        ("deflated_price_test", (mc_oracle.deflated_price_test, diff),
         (mc.deflated_price_test, diff)),
        ("simulate_deflated_wealth scalar",
         (mc_oracle.simulate_deflated_wealth, diff, 0.7),
         (mc.simulate_deflated_wealth, diff, 0.7)),
        ("simulate_deflated_wealth array",
         (mc_oracle.simulate_deflated_wealth, diff, diff_pi),
         (mc.simulate_deflated_wealth, diff, diff_pi)),
        ("simulate_levy_counterexample",
         (mc_oracle.simulate_levy_counterexample, levy),
         (mc.simulate_levy_counterexample, levy)),
        ("simulate_survival_measure scalar",
         (mc_oracle.simulate_survival_measure, levy, 1.0),
         (mc.simulate_survival_measure, levy, 1.0)),
        ("simulate_survival_measure array",
         (mc_oracle.simulate_survival_measure, levy, levy_pi),
         (mc.simulate_survival_measure, levy, levy_pi)),
        ("information_drift_deflator",
         (mc_oracle.information_drift_deflator, insider),
         (mc.information_drift_deflator, insider)),
    ]


@pytest.mark.parametrize("seed, paths", CASES)
def test_estimators_match_the_per_path_oracle(seed, paths):
    for name, oracle, production in cases(seed, paths):
        want = outcome(*oracle)
        for threads in THREADS:
            got = outcome(*production, threads)
            assert got == want, (name, threads)


@pytest.mark.parametrize("seed", SEEDS)
def test_diffusion_report_matches_the_three_estimators(seed):
    sc = mc.DiffusionScenario(mu=0.2, sigma=1.0, steps=16, paths=1000,
                              seed=seed)
    pi = [0.5, -1.0] * 8
    report = mc.diffusion_report(sc, pi, threads=2)
    assert repr(report.density_mean) == repr(mc_oracle.density_mean_test(sc))
    assert repr(report.deflated_price) == \
        repr(mc_oracle.deflated_price_test(sc))
    assert repr(report.deflated_wealth) == \
        repr(mc_oracle.simulate_deflated_wealth(sc, pi))
    with pytest.raises(ValueError, match="bounded"):
        mc.diffusion_report(sc, [np.nan] * sc.steps)


def test_block_keys_match_seed_sequence():
    seeds = (0, 1, 7, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 3, 20111115,
             2 ** 64 + 5, 2 ** 128 + 11, 3 ** 100)
    edge = mc.PATH_BLOCK
    ranges = ((0, 400), (edge - 300, edge + 300), (2 * edge - 5, 2 * edge + 5),
              (2 ** 32 - 50, 2 ** 32))
    pairs = 0
    for seed in seeds:
        for start, stop in ranges:
            keys = mc._path_keys(seed, start, stop)
            assert keys.dtype == np.uint64 and keys.shape == (stop - start, 2)
            for i in range(start, stop):
                want = np.random.SeedSequence(
                    entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
                assert np.array_equal(keys[i - start], want), (seed, i)
                pairs += 1
    assert pairs >= 10_000


def test_block_keys_reject_negative_seeds_and_wide_indices():
    for seed in (-1, -4, -2 ** 40):
        with pytest.raises(ValueError, match="non-negative"):
            mc._path_keys(seed, 0, 4)
    with pytest.raises(TypeError):
        mc._path_keys(1.5, 0, 4)
    with pytest.raises(ValueError, match="path indices"):
        mc._path_keys(0, 2 ** 32 - 1, 2 ** 32 + 1)


def test_rekeyed_generator_draws_like_path_rng():
    """Every variate kind the estimators draw.  Each path ends on a 32-bit
    draw that leaves half a word cached and the Philox buffer part-used, so
    the next path sees them only if re-keying failed to reset them."""
    draws = []

    def draw(rng, i):
        draws.append((rng.standard_normal(5), rng.poisson(1.0),
                      rng.uniform(0.0, 1.0, 2), rng.exponential(0.5),
                      rng.integers(0, 2 ** 31, dtype=np.uint32)))
        return 0.0

    mc._run_paths(5, 3, draw)
    assert len(draws) == 3
    for i, (normals, count, unif, expo, small) in enumerate(draws):
        ref = mc.path_rng(5, i)
        assert np.array_equal(normals, ref.standard_normal(5))
        assert count == ref.poisson(1.0)
        assert np.array_equal(unif, ref.uniform(0.0, 1.0, 2))
        assert expo == ref.exponential(0.5)
        assert small == ref.integers(0, 2 ** 31, dtype=np.uint32)
