"""The int kernel against the `Fraction` programs it replaced.

`backward_pass`, `verify_deflation` and `one_step_program` run every atom on
reduced (numerator, denominator) int pairs; `closed_form_oracle` keeps their
`Fraction` code, closed form at one asset and the simplex with more.  Both
must give the same values (as Fractions, in the same key order), the same
first failing atom and ray, and the same violations with the same excesses,
on:

* the 402-problem backward-verdict corpus, a third of it two-asset, with the
  constructed density, a perturbed copy and the constant density 1;
* ternary two-asset trees of horizon 1 to 4 that are arbitrage free at
  every atom, so the two-asset pass builds values through every layer;
* binary trees whose leaf masses are 1/p for distinct primes, where every
  node mass has its own large denominator;
* the insider's slice laws, which vanish off a label's leaves while every
  child keeps its admissibility bound.

The pair section of `filtered_space` that these kernels share (process
pairs, the lift, the reduced sum and price increments) is held to
`Fraction` on seeded lists, and `math.lcm` may be called only there.
"""

import ast
import math
import pathlib
import random
from fractions import Fraction as F

import closed_form_oracle as oracle
import deflator_lab
from deflator_lab.arbitrage import (Na1FailsOnAtom, WealthProblem,
                                    backward_pass, check_na1, one_step_program)
from deflator_lab.deflator import construct_deflator, verify_deflation
from deflator_lab.enlargement import (EnlargementSpec, multiply,
                                      universal_density)
from deflator_lab.filtered_space import (AdaptedProcess, ProbMeasure,
                                         _increments, _lift_pairs,
                                         _process_pairs, _sum_pairs)
from treegen import (arbitrage_free_two_asset_problem, coprime_problem,
                     first_primes, random_prices, random_problem, random_tree)

SEED = 20_261_017           # the corpus of test_backward_verdicts
N_PROBLEMS = 402


def outcome(run, problem):
    """('values', z) or ('unbounded', atom, ray) of a backward pass."""
    try:
        z = run(problem)
    except Na1FailsOnAtom as exc:
        return "unbounded", exc.atom, exc.ray
    assert all(type(x) is F for x in z.values())
    return "values", list(z.items())


def assert_same_certificate(problem, Z):
    got = verify_deflation(problem, Z)
    want = oracle.verify_deflation(problem, Z)
    assert got.violations == want, (got.violations, want)
    assert all(type(excess) is F for _, excess in got.violations)
    assert got.certified == (not want)
    return want


def assert_same_programs(problem, z):
    """Every atom's one-step program, unweighted and weighted by z: the same
    value, maximizer and ray."""
    tree, S = problem.tree, problem.S
    masses = problem.P.node_masses(tree)

    def solve(program, v, weights):
        try:
            return program(tree, masses, S, v, weights)
        except Na1FailsOnAtom as exc:
            return exc.atom, exc.ray
    for v in tree.non_leaf_nodes():
        if masses[v.id] == 0:
            continue
        for weights in (None, z):
            got = solve(one_step_program, v.id, weights)
            assert got == solve(oracle.one_step_program, v.id, weights)
            assert all(type(x) is F for x in got[1])


def perturbed(rng, tree, z):
    """z lowered to half on one random interior atom, so it no longer
    deflates there."""
    values = dict(z)
    v = rng.choice([v.id for v in tree.non_leaf_nodes()])
    values[v] /= 2
    return AdaptedProcess.of_scalars(values)


def test_backward_corpus_matches_the_fraction_oracle():
    rng = random.Random(SEED)
    seen = dict.fromkeys(("values", "unbounded", "violations"), 0)
    for n in range(N_PROBLEMS):
        problem = random_problem(rng, max_steps=3,
                                 asset_dim=2 if n % 3 == 0 else 1)
        got = outcome(backward_pass, problem)
        assert got == outcome(oracle.backward_pass, problem), n
        seen[got[0]] += 1
        tree = problem.tree
        ones = assert_same_certificate(problem,
                                       AdaptedProcess.constant(tree, 1))
        if got[0] == "values":
            z = dict(got[1])
            assert check_na1(problem).optimal_value == z[tree.root]
            assert assert_same_certificate(problem,
                                           AdaptedProcess.of_scalars(z)) == []
            if assert_same_certificate(problem, perturbed(rng, tree, z)):
                seen["violations"] += 1
        else:
            z = {v.id: F(1) for v in tree.nodes}
            # an unbounded atom is a violation with excess -1
            assert (got[1], F(-1)) in ones
        assert_same_programs(problem, z)
    assert seen["values"] > 100 and seen["unbounded"] > 60
    assert seen["violations"] > 100


def test_arbitrage_free_two_asset_trees_match_the_fraction_oracle():
    rng = random.Random(SEED + 2)
    for horizon in (1, 2, 3, 4):
        for _ in range(3):
            problem = arbitrage_free_two_asset_problem(rng, horizon)
            tree = problem.tree
            got = outcome(backward_pass, problem)
            assert got[0] == "values"
            assert got == outcome(oracle.backward_pass, problem)
            z = dict(got[1])
            assert check_na1(problem).optimal_value == z[tree.root]
            Z = AdaptedProcess.of_scalars(z)
            assert assert_same_certificate(problem, Z) == []
            assert assert_same_certificate(problem, perturbed(rng, tree, z))
            assert_same_certificate(problem, AdaptedProcess.constant(tree, 1))
            assert_same_programs(problem, z)


def test_pairwise_coprime_trees_match_the_fraction_oracle():
    rng = random.Random(SEED)
    for horizon, seed in [(7, 1), (7, 2), (8, 3)]:
        problem = coprime_problem(horizon, seed)
        tree = problem.tree
        assert len(tree.nodes) >= 255
        got = outcome(backward_pass, problem)
        assert got == outcome(oracle.backward_pass, problem)
        z = dict(got[1])
        assert z[tree.root].denominator.bit_length() > 200
        Z = AdaptedProcess.of_scalars(z)
        assert assert_same_certificate(problem, Z) == []
        assert assert_same_certificate(problem, Z.divided_by(tree.root)) == []
        assert assert_same_certificate(problem, perturbed(rng, tree, z))
        assert_same_programs(problem, z)


def slice_problems(rng, problem):
    """(sliced problem, density column) pairs, per label of a random
    labelling of the leaves: the problem under P( . | L = label), which
    vanishes off the label's leaves, with the label's column of the
    insider's constructed density (when the base has one), and with a random
    positive column."""
    tree = problem.tree
    labs = "abc"[:rng.randint(2, 3)]
    spec = EnlargementSpec(tree, problem.P, {leaf: rng.choice(labs)
                                             for leaf in tree.leaves})
    try:
        Zg = multiply(spec, universal_density(spec),
                      construct_deflator(problem).Z)
    except Na1FailsOnAtom:
        Zg = None
    for lab in spec.label_set:
        slices = spec.slice_masses(lab)
        sliced = WealthProblem(tree, ProbMeasure(
            {leaf: slices[leaf] / slices[tree.root] for leaf in tree.leaves}),
            problem.S)
        if Zg is not None:
            yield sliced, AdaptedProcess.of_scalars(
                {v.id: Zg.at(v.id, lab) for v in tree.nodes})
        yield sliced, AdaptedProcess.of_scalars(
            {v.id: F(rng.randint(1, 9), rng.randint(1, 4))
             for v in tree.nodes})


def test_slice_laws_match_the_fraction_oracle():
    rng = random.Random(SEED + 1)
    dead = passed = failed = 0
    for _ in range(150):
        problem = random_problem(rng, max_steps=3)
        for sliced, column in slice_problems(rng, problem):
            masses = sliced.P.node_masses(sliced.tree)
            dead += any(m == 0 for m in masses.values())
            if assert_same_certificate(sliced, column):
                failed += 1
            else:
                passed += 1
            assert_same_programs(sliced, {v: x for v, (x,)
                                          in column.values.items()})
    assert dead > 100 and passed > 100 and failed > 100


# -- the shared pair arithmetic against Fraction ------------------------------

LENGTHS = (0, 1, 2, 3, 16, 17, 256, 257)
PRIMES = first_primes(300, 1000)


def denominators(rng, kind, size):
    """`size` denominators that are all equal, that divide one another (all
    powers of one base), or that are pairwise coprime (distinct primes)."""
    if kind == "equal":
        return [rng.choice([1, 12, 3 ** 40])] * size
    if kind == "dividing":
        base = rng.randint(2, 7)
        return [base ** rng.randint(0, 30) for _ in range(size)]
    return rng.sample(PRIMES, size)


def pairs_over(rng, dens, reduced):
    """A pair over each denominator, zero and negative numerators among
    them; when `reduced`, each numerator is coprime to its denominator and
    a zero is (0, 1)."""
    out = []
    for q in dens:
        n = rng.choice([0, rng.randint(-10 ** 12, 10 ** 12)])
        if reduced and n == 0:
            q = 1
        while reduced and math.gcd(n, q) != 1:
            n = rng.randint(-10 ** 12, 10 ** 12)
        out.append((n, q))
    return out


def is_reduced(pair):
    n, d = pair
    return d > 0 and math.gcd(n, d) == 1


def test_pair_lift_and_sum_match_fractions():
    rng = random.Random(SEED)
    for size in LENGTHS:
        for kind in ("equal", "dividing", "coprime"):
            for reduced in (False, True):
                pairs = pairs_over(rng, denominators(rng, kind, size), reduced)
                d, nums = _lift_pairs(pairs)
                assert d == math.lcm(*[q for _, q in pairs])
                assert [F(n, d) for n in nums] == [F(n, q) for n, q in pairs]
                if reduced:
                    total = _sum_pairs(pairs)
                    assert is_reduced(total), (size, kind)
                    assert F(*total) == sum((F(*x) for x in pairs), F(0))
                    # a sum that cancels reduces to zero over 1
                    n, d = total
                    assert _sum_pairs([total, (-n, d)]) == (0, 1)


def test_process_pairs_and_increments_match_fractions():
    rng = random.Random(SEED + 3)
    for _ in range(50):
        tree = random_tree(rng, max_steps=3, max_branch=4)
        S = random_prices(rng, tree, den=rng.choice([4, 30, 77]))
        s = _process_pairs(tree, S)
        assert s == [(S.at(v.id).numerator, S.at(v.id).denominator)
                     for v in tree.nodes]
        for v in tree.non_leaf_nodes():
            scale, e = _increments(s, v.id, v.children)
            assert scale == math.lcm(*[s[u][1] for u in (v.id, *v.children)])
            assert [F(x, scale) for x in e] == [S.at(c) - S.at(v.id)
                                                for c in v.children]


def test_math_lcm_is_called_only_in_filtered_space():
    """Every lcm of the package is taken in `filtered_space`'s pair section,
    through the `math` module, so a patched `math.lcm` sees each one."""
    callers = set()
    for path in sorted(pathlib.Path(deflator_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                assert "lcm" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.Attribute) and node.attr == "lcm":
                assert isinstance(node.value, ast.Name), path.name
                assert node.value.id == "math", path.name
                callers.add(path.stem)
    assert callers == {"filtered_space"}
