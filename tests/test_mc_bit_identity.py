"""Stream version 2, bit for bit: every reported test is pinned by its `repr`
(every bit of every float) at two seeds, one of them a block plus one path;
results are the same across thread counts and repeated calls; and a holding
that is constant on every step is one cell, whichever way it is written."""

import numpy as np
import pytest

from deflator_lab import montecarlo as mc


def outcome(estimator, *args):
    """repr of the result, or of the failure, so raising counts as a result."""
    try:
        return repr(estimator(*args))
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def cases(seed, paths):
    """(name, estimator, arguments) for every estimator and the report."""
    diff = mc.DiffusionScenario(mu=0.3, sigma=0.8, steps=8, paths=paths,
                                seed=seed)
    levy = mc.LevyScenario(a=2.0, b=1.0, steps=4, paths=paths, seed=seed)
    insider = mc.InsiderDriftScenario(horizon=0.5, steps=8, paths=paths,
                                      seed=seed)
    diff_pi = [1.0, -0.5, 0.25, 2.0, 0.0, -1.0, 0.5, 1.5]
    levy_pi = [0.5, -1.0, 1.0, -0.25]
    return [
        ("density_mean_test", mc.density_mean_test, (diff,)),
        ("deflated_price_test", mc.deflated_price_test, (diff,)),
        ("simulate_deflated_wealth scalar", mc.simulate_deflated_wealth,
         (diff, 0.7)),
        ("simulate_deflated_wealth array", mc.simulate_deflated_wealth,
         (diff, diff_pi)),
        ("diffusion_report array", mc.diffusion_report, (diff, diff_pi)),
        ("simulate_levy_counterexample", mc.simulate_levy_counterexample,
         (levy,)),
        ("simulate_survival_measure scalar", mc.simulate_survival_measure,
         (levy, 1.0)),
        ("simulate_survival_measure array", mc.simulate_survival_measure,
         (levy, levy_pi)),
        ("information_drift_deflator", mc.information_drift_deflator,
         (insider,)),
    ]


GOLDEN = {
    (7, 300): {
        'density_mean_test':
            'MartingaleTest(mean=-0.011884026670020425, se=0.023423184646319237, z=-0.5073616952376244, n_paths=300, target=0.0, crit=3.0, insufficient=False)',
        'deflated_price_test':
            'MartingaleTest(mean=-0.003801896365380184, se=0.03196245870377775, z=-0.11894880805683529, n_paths=300, target=0.0, crit=3.0, insufficient=False)',
        'simulate_deflated_wealth scalar':
            'MartingaleTest(mean=-0.006226535456772269, se=0.016176686195720234, z=-0.384907970732571, n_paths=300, target=0.0, crit=3.0, insufficient=False)',
        'simulate_deflated_wealth array':
            'MartingaleTest(mean=0.055512696519574155, se=0.044830416077657184, z=1.2382819830048568, n_paths=300, target=0.0, crit=3.0, insufficient=False)',
        'diffusion_report array':
            'DiffusionReport(density_mean=MartingaleTest(mean=-0.013383374845576779, se=0.02119546353317729, z=-0.6314263816230186, n_paths=300, target=0.0, crit=3.0, insufficient=False), deflated_price=MartingaleTest(mean=0.02536674846953206, se=0.02748925889690517, z=0.9227876446093616, n_paths=300, target=0.0, crit=3.0, insufficient=False), deflated_wealth=MartingaleTest(mean=0.055512696519574155, se=0.044830416077657184, z=1.2382819830048568, n_paths=300, target=0.0, crit=3.0, insufficient=False))',
        'simulate_levy_counterexample':
            '(MartingaleTest(mean=0.43988602829587026, se=0.06470265636396358, z=6.798577570315438, n_paths=300, target=0.0, crit=3.0, insufficient=False), MartingaleTest(mean=-0.0017806383707964695, se=0.06751326408377534, z=-0.0263746449673493, n_paths=300, target=0.0, crit=3.0, insufficient=False))',
        'simulate_survival_measure scalar':
            'MartingaleTest(mean=-0.41752421814521623, se=0.16589474385183994, z=-2.516801970037735, n_paths=300, target=0.0, crit=3.0, insufficient=False)',
        'simulate_survival_measure array':
            'MartingaleTest(mean=-0.8567954705322507, se=0.010546145902359473, z=-81.24252010780177, n_paths=300, target=0.0, crit=3.0, insufficient=False)',
        'information_drift_deflator':
            'InsiderDriftReport(density_mean=MartingaleTest(mean=-0.13315604524308705, se=0.04306489167002566, z=-3.091986072166699, n_paths=300, target=0.0, crit=3.0, insufficient=False), deflated_motion=MartingaleTest(mean=0.07322699654125098, se=0.0448595572688039, z=1.6323611065188617, n_paths=300, target=0.0, crit=3.0, insufficient=False))',
    },
    (20111115, 4097): {
        'density_mean_test':
            'MartingaleTest(mean=0.0020198050163910968, se=0.006042551690003263, z=0.3342635892933513, n_paths=4097, target=0.0, crit=3.0, insufficient=False)',
        'deflated_price_test':
            'MartingaleTest(mean=-0.0012157722957880349, se=0.00836923858370226, z=-0.14526677470463742, n_paths=4097, target=0.0, crit=3.0, insufficient=False)',
        'simulate_deflated_wealth scalar':
            'MartingaleTest(mean=-0.00024509910213431845, se=0.004262950523319065, z=-0.05749517870160225, n_paths=4097, target=0.0, crit=3.0, insufficient=False)',
        'simulate_deflated_wealth array':
            'MartingaleTest(mean=-0.008975831643984787, se=0.012831054608895734, z=-0.6995396650998483, n_paths=4097, target=0.0, crit=3.0, insufficient=False)',
        'diffusion_report array':
            'DiffusionReport(density_mean=MartingaleTest(mean=0.007551141733304166, se=0.006137689917603225, z=1.2302905221143683, n_paths=4097, target=0.0, crit=3.0, insufficient=False), deflated_price=MartingaleTest(mean=-0.009950505974875477, se=0.008755741286478535, z=-1.1364550012735088, n_paths=4097, target=0.0, crit=3.0, insufficient=False), deflated_wealth=MartingaleTest(mean=-0.008975831643984787, se=0.012831054608895734, z=-0.6995396650998483, n_paths=4097, target=0.0, crit=3.0, insufficient=False))',
        'simulate_levy_counterexample':
            '(MartingaleTest(mean=0.4773701844514608, se=0.015628066950067014, z=30.545696148903033, n_paths=4097, target=0.0, crit=3.0, insufficient=False), MartingaleTest(mean=0.04644511732917616, se=0.016484926920682496, z=2.817429373672545, n_paths=4097, target=0.0, crit=3.0, insufficient=False))',
        'simulate_survival_measure scalar':
            'MartingaleTest(mean=-0.6171252289101709, se=0.01677429386096444, z=-36.78993786714841, n_paths=4097, target=0.0, crit=3.0, insufficient=False)',
        'simulate_survival_measure array':
            'MartingaleTest(mean=-0.8545572151956619, se=0.0033744120269400394, z=-253.24625693993434, n_paths=4097, target=0.0, crit=3.0, insufficient=False)',
        'information_drift_deflator':
            'InsiderDriftReport(density_mean=MartingaleTest(mean=-0.08632555156659785, se=0.01486343353168036, z=-5.807914529479412, n_paths=4097, target=0.0, crit=3.0, insufficient=False), deflated_motion=MartingaleTest(mean=-0.01807484970658401, se=0.014322232969800407, z=-1.2620133846933157, n_paths=4097, target=0.0, crit=3.0, insufficient=False))',
    },
}


@pytest.mark.parametrize("seed, paths", sorted(GOLDEN))
def test_estimators_match_the_stream_2_goldens(seed, paths):
    got = {name: outcome(estimator, *args)
           for name, estimator, args in cases(seed, paths)}
    assert got == GOLDEN[seed, paths]


def test_same_bits_across_threads_and_calls():
    for name, estimator, args in cases(20111115, 9000):
        once = outcome(estimator, *args, 1)
        assert outcome(estimator, *args, 2) == once, name
        assert outcome(estimator, *args, 1) == once, name


def test_a_holding_constant_on_every_step_is_one_cell():
    diff = mc.DiffusionScenario(mu=0.3, sigma=0.8, steps=16, paths=500,
                                seed=3)
    levy = mc.LevyScenario(a=2.0, b=1.0, steps=16, paths=500, seed=3)
    for estimator, sc in ((mc.simulate_deflated_wealth, diff),
                          (mc.diffusion_report, diff),
                          (mc.simulate_survival_measure, levy)):
        assert repr(estimator(sc, [0.7] * sc.steps)) == \
            repr(estimator(sc, 0.7))


@pytest.mark.parametrize("seed", (0, 7, 20111115, 2 ** 32 + 3))
def test_diffusion_report_matches_the_three_estimators(seed):
    sc = mc.DiffusionScenario(mu=0.2, sigma=1.0, steps=16, paths=1000,
                              seed=seed)
    report = mc.diffusion_report(sc, -0.5, threads=2)
    assert repr(report.density_mean) == repr(mc.density_mean_test(sc))
    assert repr(report.deflated_price) == repr(mc.deflated_price_test(sc))
    assert repr(report.deflated_wealth) == \
        repr(mc.simulate_deflated_wealth(sc, [-0.5] * sc.steps))
    with pytest.raises(ValueError, match="bounded"):
        mc.diffusion_report(sc, [np.nan] * sc.steps)
