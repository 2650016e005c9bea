"""Event-tree core: structure, conditional expectations, integrals, Doob."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflator_lab.filtered_space import (
    AdaptedProcess, EventTree, ProbMeasure, StoppingTime, Strategy,
    stochastic_integral,
)
from deflator_lab.martingale import (
    NullAtomError, conditional_expectation, doob_decomposition, expectation,
    martingale_closure,
)
from deflator_lab.enlargement import EnlargementSpec
import average_oracle as oracle
from treegen import random_measure, random_tree


def test_tree_structure_basics():
    tree = EventTree.uniform(2, 2)
    assert tree.horizon == 2
    assert tree.leaves == (3, 4, 5, 6)
    assert tree.nodes_at(1) == (1, 2)
    assert tree.children_of(0) == (1, 2)
    assert tree.leaves_below(1) == (3, 4)
    assert tree.ancestor_at(5, 1) == 2
    assert tree.is_ancestor(2, 6) and not tree.is_ancestor(1, 6)


def test_tree_validation_rejects_broken_shapes():
    with pytest.raises(ValueError):
        EventTree(1, 1, [None, None], [0, 1])           # two roots
    with pytest.raises(ValueError):
        EventTree(2, 1, [None, 0], [0, 1])              # interior node childless
    with pytest.raises(ValueError):
        EventTree(1, 1, [None, 0, 1], [0, 1, 1])        # parent not one step up


def test_measure_validation():
    tree = EventTree.uniform(1, 2)
    with pytest.raises(ValueError):
        ProbMeasure({1: F(1, 2), 2: F(1, 3)})
    P = ProbMeasure({1: F(1), 2: F(0)})
    assert not P.strictly_positive
    P.validate_for(tree)
    assert P.node_masses(tree)[0] == 1


def leaf_sums(tree, mass):
    """The Fraction sum of `mass` over the leaves below each node."""
    return {v.id: sum((mass[leaf] for leaf in tree.leaves_below(v.id)), F(0))
            for v in tree.nodes}


def test_node_and_slice_masses_are_leaf_sums():
    """Both public mass tables are views of one int-pair table; each must
    equal the plain leaf sum, zero-mass leaves and atoms included."""
    rng = random.Random(20_261_019)
    zero_atoms = 0
    for _ in range(150):
        tree = random_tree(rng, max_steps=4)
        weights = {leaf: rng.choice((0, 0, 1, 2, 3)) for leaf in tree.leaves}
        weights[rng.choice(tree.leaves)] += 1
        total = sum(weights.values())
        P = ProbMeasure({leaf: F(w, total) for leaf, w in weights.items()})
        masses = P.node_masses(tree)
        assert masses == leaf_sums(tree, P.leaf_mass)
        assert all(type(m) is F for m in masses.values())
        zero_atoms += any(m == 0 for m in masses.values())

        positive = random_measure(rng, tree)
        labels = {leaf: rng.choice("ab") for leaf in tree.leaves}
        spec = EnlargementSpec(tree, positive, labels)
        for lab in spec.label_set:
            want = leaf_sums(tree, {leaf: positive.mass(leaf) if labels[leaf] == lab
                                    else F(0) for leaf in tree.leaves})
            slices = spec.slice_masses(lab)
            assert slices == want
            assert all(type(m) is F for m in slices.values())
    assert zero_atoms > 50


def test_conditional_expectation_two_leaves():
    tree = EventTree.uniform(1, 2)
    P = ProbMeasure({1: F(1, 2), 2: F(1, 2)})
    X = AdaptedProcess.of_scalars({0: F(0), 1: F(2), 2: F(1, 2)})
    out = conditional_expectation(tree, P, X, 0)
    assert out.at(0) == F(5, 4)


def test_conditional_expectation_constant_and_indicator():
    tree = EventTree.uniform(2, 2)
    P = random_measure(random.Random(7), tree)
    C = AdaptedProcess.constant(tree, F(3, 7))
    for j in (0, 1):
        out = conditional_expectation(tree, P, C, j)
        assert all(out.at(v) == F(3, 7) for v in tree.nodes_at(j))
    leaf = tree.leaves[2]
    ind = AdaptedProcess.of_scalars(
        {x: F(1) if x == leaf else F(0) for x in tree.leaves})
    out = conditional_expectation(tree, P, ind, 0)
    assert out.at(0) == P.mass(leaf)


def test_conditioning_on_null_atom_raises():
    tree = EventTree.uniform(1, 2)
    P = ProbMeasure({1: F(0), 2: F(1)})
    # the null leaf is its own time-1 atom; conditioning at time 0 is fine
    X = AdaptedProcess.of_scalars({0: F(0), 1: F(5), 2: F(1)})
    assert conditional_expectation(tree, P, X, 0).at(0) == F(1)
    tree2 = EventTree.from_branching([[2], [1, 1]])
    P2 = ProbMeasure({3: F(0), 4: F(1)})
    X2 = AdaptedProcess.of_scalars({0: F(0), 1: F(0), 2: F(0), 3: F(5), 4: F(1)})
    with pytest.raises(NullAtomError):
        conditional_expectation(tree2, P2, X2, 1, at_time=2)


def test_stochastic_integral_examples():
    tree = EventTree.uniform(1, 2)
    S = AdaptedProcess.of_scalars({0: F(1), 1: F(2), 2: F(1, 2)})
    zero = stochastic_integral(tree, S, Strategy.constant(tree, 0))
    assert all(zero.at(v.id) == 0 for v in tree.nodes)
    one = stochastic_integral(tree, S, Strategy.constant(tree, 1))
    assert (one.at(1), one.at(2)) == (F(1), F(-1, 2))


def test_stochastic_integral_telescopes():
    tree = EventTree.singleton_path(2)
    S = AdaptedProcess.of_scalars({0: F(1), 1: F(7, 3), 2: F(-2)})
    gain = stochastic_integral(tree, S, Strategy.constant(tree, 1))
    assert gain.at(2) == S.at(2) - S.at(0)


def test_doob_singleton():
    tree = EventTree.singleton_path(1)
    P = ProbMeasure({1: F(1)})
    Z = AdaptedProcess.of_scalars({0: F(1), 1: F(1, 2)})
    M, dA = doob_decomposition(tree, P, Z)
    assert dA.at(0) == F(1, 2)
    assert M.at(0) == 0 and M.at(1) == 0


def test_doob_on_martingale_is_trivial():
    tree = EventTree.uniform(1, 2)
    P = ProbMeasure({1: F(1, 2), 2: F(1, 2)})
    # E[Z_1] = 7/8 = Z_0, so the compensator vanishes and M = Z - Z_0
    Z = AdaptedProcess.of_scalars({0: F(7, 8), 1: F(3, 2), 2: F(1, 4)})
    M, dA = doob_decomposition(tree, P, Z)
    assert dA.at(0) == 0
    assert M.at(1) == Z.at(1) - Z.at(0)


def test_doob_supermartingale_example():
    tree = EventTree.uniform(1, 2)
    P = ProbMeasure({1: F(1, 2), 2: F(1, 2)})
    Z = AdaptedProcess.of_scalars({0: F(1), 1: F(3, 2), 2: F(1, 4)})
    M, dA = doob_decomposition(tree, P, Z)
    assert dA.at(0) == F(1, 8)


@st.composite
def seeded_tree_and_processes(draw):
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    tree = random_tree(rng, max_steps=3, max_branch=3)
    P = random_measure(rng, tree)
    X = AdaptedProcess.of_scalars(
        {v.id: F(rng.randint(-12, 12), rng.randint(1, 5)) for v in tree.nodes})
    return tree, P, X


@given(seeded_tree_and_processes())
@settings(max_examples=60, deadline=None)
def test_tower_property_exact(data):
    tree, P, X = data
    n = tree.horizon
    for j in range(n):
        direct = conditional_expectation(tree, P, X, j)
        for mid in range(j + 1, n):
            step = conditional_expectation(tree, P, X, mid)
            two = conditional_expectation(tree, P, step, j, at_time=mid)
            assert all(two.at(v) == direct.at(v) for v in tree.nodes_at(j))


@given(seeded_tree_and_processes())
@settings(max_examples=60, deadline=None)
def test_doob_identity_and_predictability(data):
    tree, P, Z = data
    M, dA = doob_decomposition(tree, P, Z)
    # Z_k = Z_0 + M_k - A_k node-wise, exactly
    for v in tree.nodes:
        a = F(0)
        w = v.id
        while tree.parent_of(w) is not None:
            w = tree.parent_of(w)
            a += dA.at(w)
        assert Z.at(v.id) == Z.at(0) + M.at(v.id) - a
    # E[dM | F_{k-1}] = 0 exactly
    masses = P.node_masses(tree)
    for v in tree.non_leaf_nodes():
        drift = sum((masses[c] * (M.at(c) - M.at(v.id)) for c in v.children), F(0))
        assert drift == 0


@given(seeded_tree_and_processes())
@settings(max_examples=40, deadline=None)
def test_integral_is_bilinear(data):
    tree, P, X = data
    rng = random.Random(99)
    S1 = X
    S2 = AdaptedProcess.of_scalars(
        {v.id: F(rng.randint(-9, 9), 2) for v in tree.nodes})
    H1 = Strategy.of_scalars(
        {v.id: F(rng.randint(-6, 6), 3) for v in tree.non_leaf_nodes()})
    H2 = Strategy.of_scalars(
        {v.id: F(rng.randint(-6, 6), 3) for v in tree.non_leaf_nodes()})
    c = F(5, 3)
    Ssum = AdaptedProcess.of_scalars(
        {v.id: S1.at(v.id) + c * S2.at(v.id) for v in tree.nodes})
    Hsum = Strategy.of_scalars(
        {v.id: H1.at(v.id) + c * H2.at(v.id) for v in tree.non_leaf_nodes()})
    left = stochastic_integral(tree, Ssum, H1)
    right1 = stochastic_integral(tree, S1, H1)
    right2 = stochastic_integral(tree, S2, H1)
    for v in tree.nodes:
        assert left.at(v.id) == right1.at(v.id) + c * right2.at(v.id)
    left = stochastic_integral(tree, S1, Hsum)
    right2 = stochastic_integral(tree, S1, H2)
    for v in tree.nodes:
        assert left.at(v.id) == right1.at(v.id) + c * right2.at(v.id)


def test_martingale_closure_matches_conditional_expectation():
    rng = random.Random(3)
    tree = random_tree(rng, max_steps=3, max_branch=3)
    P = random_measure(rng, tree)
    X = AdaptedProcess.of_scalars({leaf: F(rng.randint(0, 9)) for leaf in tree.leaves})
    closed = martingale_closure(tree, P, X)
    for j in range(tree.horizon):
        cond = conditional_expectation(tree, P, closed, j)
        for v in tree.nodes_at(j):
            assert closed.at(v) == cond.at(v)
    assert expectation(tree, P, closed)[0] == closed.at(0)


def test_stopping_time_antichain_and_hitting():
    tree = EventTree.uniform(2, 2)
    with pytest.raises(ValueError):
        StoppingTime(tree, [1, 3])    # 1 is an ancestor of 3
    S = AdaptedProcess.of_scalars(
        {0: F(1), 1: F(2), 2: F(1, 2), 3: F(4), 4: F(1), 5: F(3), 6: F(1, 4)})
    tau = StoppingTime.hitting_time(tree, S, F(2))
    assert tau.stop_at == {1, 5}
    assert tau.value(3) == 1 and tau.value(4) == 1
    assert tau.value(5) == 2 and tau.value(6) is None


def outcome(average, *args, **kwargs):
    """What an averaging call gives: its dimension and values in node order,
    or the NullAtomError it raises."""
    try:
        result = average(*args, **kwargs)
    except NullAtomError as exc:
        return "null atom", str(exc)
    return result.dim, list(result.values.items())


def test_averages_match_the_layer_walks_on_null_atoms():
    """The one backward pass behind conditional_expectation,
    martingale_closure and expectation gives exactly the values and the
    NullAtomError, naming the same atom, of the three walks it replaced.
    The trees carry zero-mass leaves and whole null subtrees; the processes
    vanish under the null subtree half of the time, so both null-atom
    branches run: zero where X vanishes below, the error where it does not."""
    rng = random.Random(20_261_020)
    seen = {"null zero": 0, "null raises": 0, "closure raises": 0,
            "closure null zero": 0, "dim 2": 0}
    for _ in range(300):
        tree = random_tree(rng, max_steps=4)
        null_root = rng.choice(tree.nodes[1:]).id
        null = set(tree.leaves_below(null_root))
        weights = {leaf: 0 if leaf in null else rng.choice((0, 1, 2, 3))
                   for leaf in tree.leaves}
        outside = [leaf for leaf in tree.leaves if leaf not in null]
        weights[rng.choice(outside or tree.leaves)] += 1
        total = sum(weights.values())
        P = ProbMeasure({leaf: F(w, total) for leaf, w in weights.items()})
        masses = P.node_masses(tree)
        quiet = rng.random() < 0.5      # X vanishes under the null subtree
        dim = rng.choice((1, 2))
        seen["dim 2"] += dim == 2

        def value(v):
            if quiet and tree.is_ancestor(null_root, v):
                return F(0)
            return rng.choice((0, 1, -2, F(1, 3), F(-5, 7)))

        X = AdaptedProcess({v.id: tuple(value(v.id) for _ in range(dim))
                            for v in tree.nodes}, dim)
        for k in range(1, tree.horizon + 1):
            for j in range(k):
                got = outcome(conditional_expectation, tree, P, X, j, at_time=k)
                assert got == outcome(oracle.conditional_expectation,
                                      tree, P, X, j, at_time=k)
                if any(masses[v] == 0 for v in tree.nodes_at(j)):
                    seen["null zero" if got[0] == dim else "null raises"] += 1
        got = outcome(martingale_closure, tree, P, X)
        assert got == outcome(oracle.martingale_closure, tree, P, X)
        if got[0] == "null atom":
            seen["closure raises"] += 1
        elif any(m == 0 for m in masses.values()):
            seen["closure null zero"] += 1
        assert expectation(tree, P, X) == oracle.expectation(tree, P, X)
    assert min(seen.values()) > 20, seen


def test_leaves_below_is_the_old_table():
    """`leaves_below` walks the subtree on demand and returns the tuple the
    table built at construction held, in the same order, also on a tree
    whose children blocks are not in parent order."""
    tree = EventTree(2, 1, [None, 0, 0, 2, 1, 2], [0, 1, 1, 2, 2, 2])
    assert tree.leaves_below(0) == (4, 3, 5)
    trees = [tree, EventTree.singleton_path(3)]
    rng = random.Random(20_261_021)
    trees += [random_tree(rng, max_steps=5) for _ in range(100)]
    for tree in trees:
        table = oracle.leaves_below_table(tree)
        assert [tree.leaves_below(v.id) for v in tree.nodes] == table
