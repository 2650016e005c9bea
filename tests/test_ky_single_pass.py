"""The backward-pass mass tables of `kunita_yoeurp` against the leaf sums of
ky_oracle, on a seeded corpus of constructed and deliberately corrupted
dominating measures.  Equality is exact: same gamma dicts, same failure
lists in the same order, same stopped-price violations and verdicts.  The
stopped identities of hitting times are property 3 on their stop nodes, so
production does not check them apart; the oracle does, and may name only
atoms where production's property 3 fails.  Q's
tables of reduced int pairs, the per-atom compensator the build stores and
`doob_decomposition` are also held to the Fraction recurrences they
replaced, value and type alike, on pairwise-coprime trees too."""

import importlib
import math
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
from deflator_lab.martingale import doob_decomposition
from treegen import coprime_problem, random_problem

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


def alive_masses(dm):
    """The measure's alive table, as Fractions by node id."""
    return [F(n, d) for n, d in dm._alive]


def dead_masses(dm):
    """The measure's death slices {j: Q(atom(v) x {j})}, as Fractions."""
    return [{j: F(n, d) for j, (n, d) in slices.items()}
            for slices in dm._dead_pairs()]


def failing_atoms(failures, kind):
    return {int(m[1]) for f in failures
            if (m := re.match(kind + r": atom (\d+)\b", f))}


def assert_matches_oracle(dm, S, taus):
    tree = dm.tree
    alive = alive_masses(dm)
    dead = dead_masses(dm)
    for k in range(tree.horizon + 1):
        for v, j in dm.space.atoms_at(k):
            if j is None:
                assert alive[v] == ky_oracle.alive_mass(dm, v)
            else:
                assert dead[v].get(j, F(0)) == ky_oracle.dead_mass(dm, v, j)
    assert dm.gamma() == ky_oracle.gamma(dm)
    report = verify_ky(dm)
    want = ky_oracle.verify_ky_failures(dm, taus)
    identities = [f for f in want if f.startswith("stopping time")]
    assert report.failures == want[:len(want) - len(identities)]
    # a stopped identity at u is property 3 at u, so the oracle's stopping
    # times name no failing atom that production's property 3 does not
    assert failing_atoms(identities, r"stopping time \d+") <= failing_atoms(
        report.failures, "property 3")
    stopped = check_stopped_price(dm, S)
    violations, deflation_ok = ky_oracle.stopped_price(dm, S)
    assert stopped.violations == violations
    assert stopped.deflation.certified == deflation_ok
    return report


def corpus():
    """The seeded corpus, one problem at a time, drawn in a fixed order:
    (problem, stopping times, whether the random stop set was an antichain,
    [(built measure, corrupted copy)] for a random supermartingale and, when
    (NA1) holds, the constructed deflator)."""
    rng = random.Random(SEED)
    for n in range(N_PROBLEMS):
        problem = random_problem(rng, max_steps=3, asset_dim=2 if n % 4 == 0 else 1)
        tree, P = problem.tree, problem.P
        taus = stopping_times(rng, problem)
        antichain = check_antichain_test(rng, tree)
        densities = [random_supermartingale(rng, tree, P)]
        try:
            densities.append(construct_deflator(problem).normalized(tree))
        except Na1FailsOnAtom:
            pass
        measures = []
        for Z in densities:
            dm = build_dominating_measure(tree, P, Z)
            measures.append((dm, corrupted(rng, dm)))
        yield problem, taus, antichain, measures


def test_single_pass_matches_leaf_sums():
    measures = deflators = antichains = 0
    for problem, taus, antichain, pairs in corpus():
        antichains += antichain
        deflators += len(pairs) - 1
        for dm, broken in pairs:
            assert assert_matches_oracle(dm, problem.S, taus).passed
            report = assert_matches_oracle(broken, problem.S, taus)
            assert any(f.startswith("property 3") for f in report.failures)
            measures += 2
    assert deflators > 50 and 0 < antichains < N_PROBLEMS
    assert measures >= 2 * (N_PROBLEMS + deflators)


def assert_same(got, want):
    """Equal, and of the same types all the way down: a Fraction where the
    Fraction recurrence has one, never an int or a float."""
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    else:
        assert got == want


def assert_matches_fraction_recurrences(dm):
    tree, P = dm.tree, dm.space.P
    M, dA = doob_decomposition(tree, P, dm.Z)
    M_want, dA_want = ky_oracle.doob_decomposition(tree, P, dm.Z)
    assert_same(M.values, M_want.values)
    assert_same(dA.steps, dA_want.steps)
    assert_same(dm.dA.steps, dA_want.steps)
    assert_same(alive_masses(dm), ky_oracle.alive_masses(dm))
    assert_same(dead_masses(dm), ky_oracle.dead_masses(dm))
    assert_same(dm.gamma(), ky_oracle.gamma(dm))


def test_integer_masses_match_fraction_recurrences():
    measures = 0
    for _, _, _, pairs in corpus():
        for dm, broken in pairs:
            assert_matches_fraction_recurrences(dm)
            assert_matches_fraction_recurrences(broken)
            measures += 2
    assert measures > 2 * N_PROBLEMS


def assert_coprime_problem_matches(problem):
    """The constructed deflator and a random supermartingale of `problem`,
    built, corrupted and held to both oracles; P's and Q's common
    denominators exceed 80 bits."""
    tree, P = problem.tree, problem.P
    assert math.lcm(*(m.denominator for m in P.leaf_mass.values())).bit_length() > 80
    rng = random.Random(SEED)
    densities = [random_supermartingale(rng, tree, P),
                 construct_deflator(problem).normalized(tree)]
    taus = stopping_times(rng, problem)
    for Z in densities:
        dm = build_dominating_measure(tree, P, Z)
        broken = corrupted(rng, dm)
        assert math.lcm(*(q.denominator for q in dm.Q.values())).bit_length() > 80
        for m in (dm, broken):
            assert_matches_fraction_recurrences(m)
        assert assert_matches_oracle(dm, problem.S, taus).passed
        report = assert_matches_oracle(broken, problem.S, taus)
        assert any(f.startswith("property 3") for f in report.failures)


def test_pairwise_coprime_leaf_denominators():
    assert_coprime_problem_matches(coprime_problem(horizon=4, seed=7))


def test_pairwise_coprime_tree_of_255_nodes():
    """The size at which the global-lcm Doob decomposition grew cubically:
    the per-atom compensator must still agree with both oracles."""
    problem = coprime_problem(horizon=7, seed=1)
    assert len(problem.tree.nodes) == 255
    assert_coprime_problem_matches(problem)


@pytest.fixture()
def lcm_calls(monkeypatch):
    """The bit length of every lcm taken through `math.lcm`, and the calls
    of `_over_lcm` (the lift of Q's points onto the lcm of all their
    denominators) under every name it is bound to, where it still exists."""
    calls = {"bits": [], "over_lcm": 0}
    lcm = math.lcm

    def recorded(*args):
        out = lcm(*args)
        calls["bits"].append(out.bit_length())
        return out

    monkeypatch.setattr(math, "lcm", recorded)
    for name in ("filtered_space", "arbitrage", "deflator", "kunita_yoeurp"):
        module = importlib.import_module(f"deflator_lab.{name}")
        original = getattr(module, "_over_lcm", None)
        if original is not None:
            def counted(*args, _original=original):
                calls["over_lcm"] += 1
                return _original(*args)

            monkeypatch.setattr(module, "_over_lcm", counted)
    return calls


def test_no_sum_over_one_lcm_of_all_points(lcm_calls):
    """The build, both checks and every mass table lift each sum onto the
    lcm of its own terms only: on a pairwise-coprime tree of 127 nodes no
    lcm they take has half the bits of the lcm of all of Q's denominators
    (about a third here, and the share falls as the tree grows)."""
    problem = coprime_problem(horizon=6, seed=1)
    tree, P = problem.tree, problem.P
    Z = construct_deflator(problem).normalized(tree)
    lcm_calls["bits"].clear()
    dm = build_dominating_measure(tree, P, Z)
    assert verify_ky(dm).passed
    check_stopped_price(dm, problem.S)
    dm.gamma()
    alive_masses(dm)
    dead_masses(dm)
    assert lcm_calls["over_lcm"] == 0
    taken = max(lcm_calls["bits"])
    whole = math.lcm(*{q.denominator for q in dm.Q.values()}).bit_length()
    assert 2 * taken < whole
