"""Tree file format: canonical rationals, strict parsing, round trips."""

import random
from fractions import Fraction as F

import pytest

from deflator_lab import treeio
from deflator_lab.filtered_space import EventTree, ProbMeasure, Strategy
from deflator_lab.treeio import TreeFile, TreeFileError, parse_rational
from treegen import random_measure, random_prices, random_tree


def test_parse_rational_accepts_canonical_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational("0") == 0


@pytest.mark.parametrize("bad", ["2/4", "1/1", "0.5", "1e-3", "+1", "1/-2",
                                 " 1/2", "1/2 ", "1 / 2", "", "inf", None, 0.5, 2,
                                 "1/0"])
def test_parse_rational_rejects_noncanonical_and_floats(bad):
    with pytest.raises(TreeFileError):
        parse_rational(bad)


def fraction_parse(text):
    """The parser before int-based parsing: the same pattern and canonical
    check around the Fraction string parser; None for a rejected string."""
    if not isinstance(text, str) or not treeio._RATIONAL_RE.match(text):
        return None
    value = F(text)
    return value if str(value) == text else None


PARSER_CASES = ["2/4", "4/1", "-0", "007", "1/0", "+1", "1.0", "1/-2", "0/5",
                "0", "-3/4", "12", "-12/35", "1/01", "3/007", "-1/1"]


def test_parse_rational_matches_the_fraction_parser():
    rng = random.Random(4)
    cases = list(PARSER_CASES)
    for _ in range(300):
        num, den = rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)
        cases += [f"{num}/{den}", str(F(num, den)), str(num)]
    accepted = 0
    for text in cases:
        want = fraction_parse(text)
        if want is None:
            with pytest.raises(TreeFileError):
                parse_rational(text)
            continue
        got = parse_rational(text)
        assert type(got) is F and got == want
        assert treeio.format_rational(got) == text
        accepted += 1
    assert 300 < accepted < len(cases)


def sample_tree_file(seed=0) -> TreeFile:
    rng = random.Random(seed)
    tree = random_tree(rng, max_steps=3, max_branch=3)
    P = random_measure(rng, tree)
    S = random_prices(rng, tree)
    H = Strategy.of_scalars({v.id: F(rng.randint(-4, 4), 3)
                             for v in tree.non_leaf_nodes()})
    return TreeFile(tree, P, processes={"S": S}, strategies={"H": H})


def test_round_trip_is_byte_identical():
    tf = sample_tree_file()
    text = treeio.dumps(tf)
    again = treeio.dumps(treeio.loads(text))
    assert text == again


def test_round_trip_preserves_content():
    tf = sample_tree_file(3)
    back = treeio.loads(treeio.dumps(tf))
    assert back.tree.horizon == tf.tree.horizon
    assert back.tree.leaves == tf.tree.leaves
    assert back.P.leaf_mass == tf.P.leaf_mass
    assert back.processes["S"].values == tf.processes["S"].values
    assert back.strategies["H"].steps == tf.strategies["H"].steps


def test_malformed_files_name_the_offending_field():
    tf = sample_tree_file()
    obj = treeio.to_obj(tf)
    obj["P"][next(iter(obj["P"]))] = 0.5
    with pytest.raises(TreeFileError, match="P\\["):
        treeio.from_obj(obj)

    obj = treeio.to_obj(tf)
    leaf = next(iter(obj["processes"]["S"]))
    obj["processes"]["S"][leaf] = ["2/4"]
    with pytest.raises(TreeFileError, match="processes\\[S\\]"):
        treeio.from_obj(obj)

    obj = treeio.to_obj(tf)
    del obj["nodes"]
    with pytest.raises(TreeFileError, match="nodes"):
        treeio.from_obj(obj)


def test_measure_must_cover_exactly_the_leaves():
    tree = EventTree.uniform(1, 2)
    obj = treeio.to_obj(TreeFile(tree, ProbMeasure({1: F(1, 2), 2: F(1, 2)})))
    obj["P"]["0"] = "0"
    with pytest.raises(TreeFileError, match="P"):
        treeio.from_obj(obj)


def test_atomic_write_and_load(tmp_path):
    tf = sample_tree_file(7)
    path = tmp_path / "tree.json"
    treeio.save(tf, str(path))
    loaded = treeio.load(str(path))
    assert treeio.dumps(loaded) == treeio.dumps(tf)
    assert not list(tmp_path.glob(".tmp-*"))
