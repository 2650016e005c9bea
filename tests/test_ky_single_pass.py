"""The backward-pass mass tables of `kunita_yoeurp` against the leaf sums of
ky_oracle, on a seeded corpus of constructed and deliberately corrupted
dominating measures.  Equality is exact: same gamma dicts, same failure
lists in the same order, same stopped-price violations and verdicts."""

import random
import re
from fractions import Fraction as F

import pytest

import ky_oracle
from deflator_lab.arbitrage import Na1FailsOnAtom
from deflator_lab.deflator import construct_deflator
from deflator_lab.filtered_space import AdaptedProcess, StoppingTime
from deflator_lab.kunita_yoeurp import (DominatingMeasure, build_dominating_measure,
                                        check_stopped_price, verify_ky)
from treegen import random_problem

SEED = 20_261_018
N_PROBLEMS = 200
SHIFT = F(1, 97)


def random_supermartingale(rng, tree, P):
    """A strictly positive density with E[Z_0] = 1 whose compensator steps
    are random and often nonzero, so every death slice can carry mass."""
    masses = P.node_masses(tree)
    z = {leaf: F(rng.randint(1, 9)) for leaf in tree.leaves}
    for v in reversed(tree.nodes):
        if v.children:
            mean = sum((masses[c] * z[c] for c in v.children), F(0)) / masses[v.id]
            z[v.id] = mean + F(rng.randint(0, 3), 4)
    root = z[tree.root]
    return AdaptedProcess.of_scalars({v: x / root for v, x in z.items()})


def corrupted(rng, dm):
    """A copy of dm with SHIFT moved between two death indices of one leaf."""
    tree = dm.tree
    leaf = rng.choice(tree.leaves)
    a, b = rng.sample([*range(1, tree.horizon + 1), None], 2)
    Q = dict(dm.Q)
    Q[(leaf, a)] = Q.get((leaf, a), F(0)) - SHIFT
    Q[(leaf, b)] = Q.get((leaf, b), F(0)) + SHIFT
    return DominatingMeasure(dm.space, Q, dm.Z, dm.dA)


def stopping_times(rng, problem):
    """Hitting times of the price, each checked against the recursive walk
    and the per-leaf ancestor scan."""
    tree, S = problem.tree, problem.S
    taus = []
    for _ in range(3):
        level = F(rng.randint(-16, 16), 4)
        tau = StoppingTime.hitting_time(tree, S, level)
        assert tau.stop_at == frozenset(ky_oracle.hitting_stop_set(tree, S, level))
        taus.append(tau)
    for tau in taus:
        want = ky_oracle.stopped_nodes(tree, tau.stop_at)
        assert {leaf: tau.stopped_node(leaf) for leaf in tree.leaves} == want
    return taus


def check_antichain_test(rng, tree):
    stop = rng.sample(range(len(tree.nodes)), min(3, len(tree.nodes)))
    try:
        want = ky_oracle.stopped_nodes(tree, frozenset(stop))
    except ValueError:
        with pytest.raises(ValueError, match="antichain"):
            StoppingTime(tree, stop)
        return False
    tau = StoppingTime(tree, stop)
    assert {leaf: tau.stopped_node(leaf) for leaf in tree.leaves} == want
    return True


def failing_atoms(report, kind):
    return {int(m[1]) for f in report.failures
            if (m := re.match(kind + r": atom (\d+)\b", f))}


def assert_matches_oracle(dm, S, taus):
    tree = dm.tree
    alive = dm.alive_masses()
    dead = dm.dead_masses()
    for k in range(tree.horizon + 1):
        for v, j in dm.space.atoms_at(k):
            if j is None:
                assert alive[v] == ky_oracle.alive_mass(dm, v)
            else:
                assert dead[v].get(j, F(0)) == ky_oracle.dead_mass(dm, v, j)
    assert dm.gamma() == ky_oracle.gamma(dm)
    report = verify_ky(dm, taus)
    assert report.failures == ky_oracle.verify_ky_failures(dm, taus)
    # a stopped identity at u is property 3 at u, so no stopping time can
    # name a failing atom that property 3 does not
    assert failing_atoms(report, r"stopping time \d+") <= failing_atoms(
        report, "property 3")
    stopped = check_stopped_price(dm, S)
    violations, deflation_ok = ky_oracle.stopped_price(dm, S)
    assert stopped.violations == violations
    assert stopped.deflation.certified == deflation_ok
    return report


def test_single_pass_matches_leaf_sums():
    rng = random.Random(SEED)
    measures = deflators = antichains = 0
    for n in range(N_PROBLEMS):
        problem = random_problem(rng, max_steps=3, asset_dim=2 if n % 4 == 0 else 1)
        tree, P = problem.tree, problem.P
        taus = stopping_times(rng, problem)
        antichains += check_antichain_test(rng, tree)
        densities = [random_supermartingale(rng, tree, P)]
        try:
            densities.append(construct_deflator(problem).normalized(tree))
            deflators += 1
        except Na1FailsOnAtom:
            pass
        for Z in densities:
            dm = build_dominating_measure(tree, P, Z)
            assert assert_matches_oracle(dm, problem.S, taus).passed
            broken = assert_matches_oracle(corrupted(rng, dm), problem.S, taus)
            assert any(f.startswith("property 3") for f in broken.failures)
            measures += 2
    assert deflators > 50 and 0 < antichains < N_PROBLEMS
    assert measures >= 2 * (N_PROBLEMS + deflators)
