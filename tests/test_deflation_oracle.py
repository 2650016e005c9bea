"""One deflation certificate: the insider's slice certificate and the plain
one both run `deflator._certify_pairs`, checked here against the loops they
replaced.

`g_deflation_certificate` runs it once per label on the label's unnormalized
slice pair table; `deflation_oracle.g_deflation_certificate` is the old
`Fraction` loop over labels and atoms with the same slice masses.  On a
seeded corpus the two return the same violations, in the same order, for
constructed slice densities (which pass), for copies of them perturbed on one
slice atom (which fail), and for arbitrary slice processes.
"""

import random
from fractions import Fraction as F

import pytest

import deflation_oracle
from deflator_lab import arbitrage
from deflator_lab.arbitrage import Na1FailsOnAtom, check_na1
from deflator_lab.deflator import construct_deflator, verify_deflation
from deflator_lab.enlargement import (EnlargementSpec, GProcess,
                                      g_deflation_certificate, insider_example,
                                      multiply, universal_density)
from deflator_lab.filtered_space import AdaptedProcess
from treegen import binomial_problem, random_problem

SEED = 61_018
N_PROBLEMS = 200


def random_spec(rng, problem):
    labs = "abc"[:rng.randint(1, 3)]
    labels = {leaf: rng.choice(labs) for leaf in problem.tree.leaves}
    return EnlargementSpec(problem.tree, problem.P, labels)


def charged_atoms(spec):
    """(node, label) slice atoms of positive mass."""
    return [(v.id, lab) for lab in spec.label_set for v in spec.tree.nodes
            if spec.slice_masses(lab)[v.id] > 0]


def perturbed(rng, spec, Zg):
    """Zg moved on one charged slice atom so that the certificate fails.  An
    interior value drops to half its conditional mean of the next values,
    the h = 0 lower bound of its one-step optimum; a leaf value rises until
    its share of the parent's mean alone exceeds the parent's value."""
    node, lab = rng.choice(charged_atoms(spec))
    tree, slices = spec.tree, spec.slice_masses(lab)
    values = dict(Zg.values)
    if tree.children_of(node):
        mean = sum((slices[c] * Zg.at(c, lab) for c in tree.children_of(node)),
                   F(0)) / slices[node]
        values[(node, lab)] = mean / 2
    else:
        parent = tree.parent_of(node)
        values[(node, lab)] = (Zg.at(parent, lab) * slices[parent]
                               / slices[node] + 1)
    return GProcess(values)


def arbitrary(rng, spec):
    return GProcess({(v.id, lab): F(rng.randint(1, 9), 3)
                     for v in spec.tree.nodes for lab in spec.label_set})


def assert_same_certificate(spec, S, Zg):
    """Both certificates give the same violations; where the old loop raises
    on an unbounded slice program, the new one reports that atom first with
    excess -1."""
    got = g_deflation_certificate(spec, S, Zg)
    try:
        want = deflation_oracle.g_deflation_certificate(spec, S, Zg)
    except Na1FailsOnAtom as exc:
        first = next(i for i, (_, _, excess) in enumerate(got) if excess == -1)
        assert got[first][0] == exc.atom
        return None
    assert got == want
    return got


def test_slice_certificate_matches_the_slice_loop():
    rng = random.Random(SEED)
    counts = dict.fromkeys(("constructed", "perturbed", "arbitrary_fail",
                            "arbitrary_pass", "unbounded", "dead_slices"), 0)
    for n in range(N_PROBLEMS):
        problem = random_problem(rng, max_steps=3,
                                 asset_dim=2 if n % 4 == 0 else 1)
        spec = random_spec(rng, problem)
        S = problem.S
        if len(charged_atoms(spec)) < len(spec.tree.nodes) * len(spec.label_set):
            counts["dead_slices"] += 1
        got = assert_same_certificate(spec, S, arbitrary(rng, spec))
        if got is None:
            counts["unbounded"] += 1
        else:
            counts["arbitrary_fail" if got else "arbitrary_pass"] += 1
        try:
            base = construct_deflator(problem)
        except Na1FailsOnAtom:
            continue
        Zg = multiply(spec, universal_density(spec), base.Z)
        assert assert_same_certificate(spec, S, Zg) == []
        counts["constructed"] += 1
        assert assert_same_certificate(spec, S, perturbed(rng, spec, Zg))
        counts["perturbed"] += 1
    assert counts["constructed"] > 60 and counts["perturbed"] > 60
    assert counts["arbitrary_fail"] > 30 and counts["arbitrary_pass"] > 5
    assert counts["unbounded"] > 10 and counts["dead_slices"] > 60


def test_plain_certificate_matches_the_sampling_oracle():
    """Under a strictly positive P no atom is skipped, and the certificate
    is the oracle's part (a) atom for atom; a certified Z never shows a
    sampled violation."""
    rng = random.Random(SEED + 1)
    certified = failed = 0
    for _ in range(80):
        problem = random_problem(rng, max_steps=3)
        densities = [AdaptedProcess.of_scalars(
            {v.id: F(rng.randint(1, 9), 3) for v in problem.tree.nodes})]
        try:
            densities.append(construct_deflator(problem).Z)
        except Na1FailsOnAtom:
            pass
        for Z in densities:
            got = verify_deflation(problem, Z)
            want = deflation_oracle.verify_deflation(problem, Z, trials=3,
                                                     seed=rng.randint(0, 99))
            assert (got.certified, got.violations) == (want.certified,
                                                       want.violations)
            if got.certified:
                certified += 1
                assert want.passed
            else:
                failed += 1
    assert certified > 20 and failed > 20


@pytest.fixture()
def backward_passes(monkeypatch):
    """Counts runs of the one-asset backward pass, `_backward_pairs`, which
    `backward_pass` and `check_na1` both run."""
    calls = []
    original = arbitrage._backward_pairs

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(arbitrage, "_backward_pairs", counted)
    return calls


def test_insider_example_runs_one_backward_pass(backward_passes):
    problem = binomial_problem(steps=2)
    labels = {leaf: ("hi" if problem.S.at(leaf) >= 2 else "lo")
              for leaf in problem.tree.leaves}
    spec = EnlargementSpec(problem.tree, problem.P, labels)
    report = insider_example(spec, problem.S, {"hi"})
    assert len(backward_passes) == 1
    assert report.contradiction_certified
    base = check_na1(problem)
    assert len(backward_passes) == 2
    assert report.na1_product.na1_holds is base.na1_holds is True
    assert report.na1_product.optimal_value == base.optimal_value
