"""The dominating measure built from Z's nodes against the same measure
built point by point (`ky_oracle.build_by_points`) and re-entered through
the point constructor: equal node tables, points, Q, dead masses and gamma,
exactly.  Property 3 still sees a wrong compensator, and the commands that
read only node tables make no path walk and derive no point."""

import random
from fractions import Fraction as F

import pytest

import ky_oracle
from deflator_lab import kunita_yoeurp, treeio
from deflator_lab.arbitrage import Na1FailsOnAtom, WealthProblem
from deflator_lab.cli import run
from deflator_lab.deflator import construct_deflator
from deflator_lab.filtered_space import AdaptedProcess, EventTree, ProbMeasure
from deflator_lab.kunita_yoeurp import (DominatingMeasure, build_dominating_measure,
                                        verify_ky)
from test_ky_single_pass import (SEED, corpus, failing_atoms,
                                 random_supermartingale)
from treegen import coprime_problem, random_measure, straddling_prices


def split_chain(horizon, split_times):
    """A deep narrow tree: each node splits in two at the listed times and
    has one child at every other time."""
    branching, width = [], 1
    for t in range(horizon):
        branching.append([2 if t in split_times else 1] * width)
        width *= 2 if t in split_times else 1
    return EventTree.from_branching(branching)


def assert_same_measure(dm, want):
    """Equal tables, keys in the same order, and the same dead masses and
    gamma on every atom."""
    assert dm._alive == want._alive
    assert dm._dying == want._dying
    assert list(dm._points.items()) == list(want._points.items())
    assert list(dm.Q.items()) == list(want.Q.items())
    assert dm.gamma() == want.gamma()
    for k in range(dm.tree.horizon + 1):
        for v, j in dm.space.atoms_at(k):
            if j is not None:
                assert dm.dead_mass(v, j) == want.dead_mass(v, j)


def assert_node_build_matches(tree, P, Z):
    dm = build_dominating_measure(tree, P, Z)
    reference = ky_oracle.build_by_points(tree, P, Z)
    assert dm.dA.steps == reference.dA.steps
    # the tables come first: the checks read them before any point exists
    assert (dm._alive, dm._dying, dm._table) == (
        reference._alive, reference._dying, None)
    assert_same_measure(dm, reference)
    assert list(dm._records()) == [(leaf, zeta, x) for (leaf, zeta), x
                                   in reference._points.items()]
    assert_same_measure(dm, DominatingMeasure(dm.space, dm.Q, dm.Z, dm.dA))
    assert verify_ky(dm).passed
    return dm


def test_node_build_matches_the_point_build_on_the_corpus():
    measures = 0
    for problem, _, _, pairs in corpus():
        for dm, _ in pairs:
            assert_node_build_matches(problem.tree, problem.P, dm.Z)
            measures += 1
    assert measures > 250


def test_node_build_matches_on_the_coprime_tree_of_255_nodes():
    problem = coprime_problem(horizon=7, seed=1)
    tree, P = problem.tree, problem.P
    assert len(tree.nodes) == 255
    for Z in (random_supermartingale(random.Random(SEED), tree, P),
              construct_deflator(problem).normalized(tree).Z):
        assert_node_build_matches(tree, P, Z)


@pytest.mark.parametrize("horizon, splits", [
    (12, {0, 5, 11}), (40, {3, 17, 18, 39}), (30, set())])
def test_node_build_matches_on_split_chains(horizon, splits):
    rng = random.Random(horizon)
    tree = split_chain(horizon, splits)
    assert len(tree.leaves) == 2 ** len(splits)
    P = random_measure(rng, tree)
    densities = [random_supermartingale(rng, tree, P)]
    try:
        problem = WealthProblem(tree, P, straddling_prices(rng, tree))
        densities.append(construct_deflator(problem).normalized(tree).Z)
    except Na1FailsOnAtom:
        pass
    dying = [any(zeta is not None for _, zeta in
                 assert_node_build_matches(tree, P, Z).Q) for Z in densities]
    assert dying[0]


def deflated_tree(tmp_path, horizon, seed=3):
    """A binary tree with straddling prices S and its normalized deflator Z,
    written to a tree file; returns (path, tree, P, Z)."""
    rng = random.Random(seed)
    tree = EventTree.uniform(horizon, 2)
    P = random_measure(rng, tree)
    problem = WealthProblem(tree, P, straddling_prices(rng, tree))
    Z = construct_deflator(problem).normalized(tree).Z
    path = str(tmp_path / "deflated.json")
    treeio.save(treeio.TreeFile(tree, P, {"S": problem.S, "Z": Z}), path)
    return path, tree, P, Z


def test_property_3_sees_a_wrong_compensator(monkeypatch, tmp_path):
    """One compensator step shifted by 1/97 moves P(v)/97 of mass into the
    death slices below v: property 3 fails on v and each of its ancestors,
    and nowhere else, and ky-verify exits 1."""
    path, tree, P, Z = deflated_tree(tmp_path, horizon=4)
    atom = tree.nodes_at(2)[1]
    original = kunita_yoeurp._compensator

    def shifted(*args):
        dA = original(*args)                # reduced pairs by atom
        dA[atom] = (F(*dA[atom]) + F(1, 97)).as_integer_ratio()
        return dA

    monkeypatch.setattr(kunita_yoeurp, "_compensator", shifted)
    report = verify_ky(build_dominating_measure(tree, P, Z))
    assert not report.passed
    assert failing_atoms(report.failures, "property 3") == set(tree.path(atom))
    out = str(tmp_path / "ky.json")
    assert run(["ky-verify", "--tree", path, "--out", out]) == 1
    monkeypatch.undo()
    assert run(["ky-verify", "--tree", path, "--out", out]) == 0


def test_commands_on_node_tables_walk_no_path(monkeypatch, tmp_path):
    """On a 2,047-node tree, ky-verify and stopped-check make no path walk
    and derive no point; foellmer walks each leaf's path once."""
    path, tree, _, _ = deflated_tree(tmp_path, horizon=10)
    assert len(tree.nodes) == 2047
    calls = {"path": 0, "records": 0}
    walk, records = EventTree.path, DominatingMeasure._records

    def counted_path(self, node):
        calls["path"] += 1
        return walk(self, node)

    def counted_records(self):
        calls["records"] += 1
        return records(self)

    monkeypatch.setattr(EventTree, "path", counted_path)
    monkeypatch.setattr(DominatingMeasure, "_records", counted_records)
    out = str(tmp_path / "r.json")
    for argv, code in ((["ky-verify", "--tree", path, "--out", out], 0),
                       (["stopped-check", "--tree", path, "--out", out], None)):
        assert run(argv) in ((0, 1) if code is None else (code,))
        assert calls == {"path": 0, "records": 0}, argv
    assert run(["foellmer", "--tree", path, "--out", str(tmp_path / "q.json"),
                "--report", out]) == 0
    assert calls == {"path": len(tree.leaves), "records": 1}


def test_foellmer_refuses_a_mass_too_long_to_write(tmp_path, capsys,
                                                   int_str_limit):
    """P and Z fit the int-to-str limit, but their product on the first
    point does not: foellmer exits 2 with the writer's one line naming that
    point, and leaves neither the points file nor a temp file."""
    p, q = 3 ** 4610, 2 ** 7309        # about 2,200 digits each, coprime
    tree = EventTree.uniform(1, 2)
    P = ProbMeasure({1: F(1, p), 2: 1 - F(1, p)})
    Z = AdaptedProcess.of_scalars({0: 1, 1: F(1, q), 2: F(1, q)})
    source = tmp_path / "src"
    source.mkdir()
    path = str(source / "tree.json")
    treeio.save(treeio.TreeFile(tree, P, {"Z": Z}), path)
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    assert run(["foellmer", "--tree", path, "--out", str(out / "q.json"),
                "--report", str(out / "r.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: points[leaf 1, zeta 1]: cannot be written: a numerator or "
        "denominator has more digits than Python converts to text, so the "
        "reader would refuse it (PYTHONINTMAXSTRDIGITS raises the limit)"]
    assert list(out.iterdir()) == []
