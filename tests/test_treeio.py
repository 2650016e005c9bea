"""Tree file format: canonical rationals, strict parsing, round trips."""

import copy
import json
import math
import random
from fractions import Fraction as F

import pytest

from deflator_lab import treeio
from deflator_lab.filtered_space import AdaptedProcess, EventTree, ProbMeasure, Strategy
from deflator_lab.treeio import TreeFile, TreeFileError, parse_rational
from treegen import coprime_problem, random_measure, random_prices, random_tree
import treeio_oracle
from treeio_oracle import to_obj


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
        assert str(got) == text
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
    obj = to_obj(tf)
    obj["P"][next(iter(obj["P"]))] = 0.5
    with pytest.raises(TreeFileError, match="P\\["):
        treeio.from_obj(obj)

    obj = to_obj(tf)
    leaf = next(iter(obj["processes"]["S"]))
    obj["processes"]["S"][leaf] = ["2/4"]
    with pytest.raises(TreeFileError, match="processes\\[S\\]"):
        treeio.from_obj(obj)

    obj = to_obj(tf)
    del obj["nodes"]
    with pytest.raises(TreeFileError, match="nodes"):
        treeio.from_obj(obj)


def test_measure_must_cover_exactly_the_leaves():
    tree = EventTree.uniform(1, 2)
    obj = to_obj(TreeFile(tree, ProbMeasure({1: F(1, 2), 2: F(1, 2)})))
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


# -- the template writers and the parse-once reader against the json path ----

NAMES = ["S", "Z", 'q"uote', "back\\slash", "été", "☃",
         "\U0001d54a", "10", "2", ""]


def writer_corpus():
    """Seeded tree files: markets at one and two assets, with and without P
    and strategies, odd process names, and trees whose ids cross 9/10 and
    99/100, so string order and numeric order of node keys differ."""
    rng = random.Random(20_261_019)
    trees = [EventTree.uniform(6, 2), EventTree.uniform(2, 4, asset_dim=2)]
    for n in range(60):
        trees.append(random_tree(rng, max_steps=4, max_branch=4,
                                 asset_dim=2 if n % 3 == 0 else 1))
    for n, tree in enumerate(trees):
        d = tree.asset_dim
        P = random_measure(rng, tree) if n % 4 else None
        processes = {rng.choice(NAMES): random_prices(rng, tree, den=rng.randint(1, 9))
                     for _ in range(rng.randint(0, 3))}
        strategies = {}
        if n % 2:
            strategies["H"] = Strategy({v.id: tuple(F(rng.randint(-4, 4), 3)
                                                    for _ in range(d))
                                        for v in tree.non_leaf_nodes()}, d)
        yield TreeFile(tree, P, processes, strategies)
    tree = EventTree.uniform(1, 2)
    yield TreeFile(tree, None, {"empty": AdaptedProcess({}, 1),
                                "flat": AdaptedProcess({0: (), 1: (), 2: ()}, 0)},
                   {"none": Strategy({}, 1)})


def test_dumps_matches_the_json_encoder():
    sizes = set()
    for tf in writer_corpus():
        assert treeio.dumps(tf) == treeio_oracle.dumps(tf)
        sizes.add(len(tf.tree.nodes))
    assert max(sizes) > 100 and min(sizes) < 10


def points_text(records, path):
    """The text `save_points` writes from `records`, and its point count."""
    count = treeio.save_points(records, str(path))
    return path.read_text(encoding="utf-8"), count


def test_points_file_matches_the_json_encoder(tmp_path):
    """The points text streamed from each built measure's records, and from
    the sorted points of each corrupted one, on the seeded corpus and on a
    tree whose masses have pairwise-coprime denominators of hundreds of
    digits."""
    from deflator_lab.deflator import construct_deflator
    from deflator_lab.kunita_yoeurp import build_dominating_measure
    from test_ky_single_pass import corpus

    problem = coprime_problem(horizon=5, seed=1)
    coprime = build_dominating_measure(
        problem.tree, problem.P,
        construct_deflator(problem).normalized(problem.tree))
    assert max(len(str(q)) for q in coprime.Q.values()) > 200
    measures = [coprime]
    for n, (_, _, _, pairs) in enumerate(corpus()):
        if n == 40:
            break
        measures += [dm for pair in pairs for dm in pair]
    path = tmp_path / "q.json"
    built = 0
    for dm in measures:
        if dm._steps is not None:       # built from Z
            records = dm._records()
            built += 1
        else:
            records = [(leaf, zeta, q.as_integer_ratio()) for (leaf, zeta), q
                       in sorted(dm.Q.items(),
                                 key=lambda kv: (kv[0][0], kv[0][1] or 10 ** 9))]
        want = treeio_oracle.dumps_points(dm.Q)
        assert points_text(records, path) == (want, len(dm.Q))
        assert any(zeta is None for _, zeta in dm.Q)
    assert points_text([], path) == (treeio_oracle.dumps_points({}), 0)
    assert len(measures) > 80 and built > 40


def outcome(reader, obj):
    """The canonical text a reader gives, or the message it raises."""
    try:
        return treeio.dumps(reader(obj))
    except TreeFileError as exc:
        return f"error: {exc}"


def test_reader_names_the_same_field_as_the_reference():
    from test_cli import MALFORMED_TREES

    checked = 0
    for text, _ in MALFORMED_TREES:
        try:
            obj = json.loads(text.decode("utf-8"))
        except ValueError:          # rejected before the reader runs
            continue
        got = outcome(treeio.from_obj, copy.deepcopy(obj))
        assert got.startswith("error: ")
        assert got == outcome(treeio_oracle.from_obj, obj)
        checked += 1
    assert checked >= len(MALFORMED_TREES) - 3


JUNK = ["2/4", "1/2", "-0", 0.5, 3, None, ["1"], {"1": "1"}, "1/3", "x",
        "1/1", "0/1", "-0/1", "01", "1/02", "10/4", "+1", " 1", "1/-2", "1/0",
        "\u0661", "-"]


@pytest.mark.parametrize("junk", [j for j in JUNK if j not in ("1/2", "1/3")])
def test_reader_refuses_each_junk_value_as_the_reference(junk):
    """Each refused value, put first in `P`, in a process and in a
    strategy, and last in a process: the same refusal and message as the
    reference reader's."""
    base = to_obj(sample_tree_file(2))
    for section in ("P", "processes", "strategies", "last"):
        obj = copy.deepcopy(base)
        if section == "P":
            table = obj["P"]
            table[next(iter(table))] = junk
        else:
            name = "S" if section != "strategies" else "H"
            table = obj["strategies" if section == "strategies"
                        else "processes"][name]
            keys = list(table)
            table[keys[-1] if section == "last" else keys[0]] = [junk]
        want = outcome(treeio_oracle.from_obj, copy.deepcopy(obj))
        assert want.startswith("error: ")
        assert outcome(treeio.from_obj, obj) == want


def test_reader_matches_the_reference_on_mutated_files():
    """One or two entries replaced by junk, some of it valid text already
    seen elsewhere in the file, and some keys zero-padded: the memoised
    reader must accept the same files and name the same first fault."""
    rng = random.Random(5)
    base = [to_obj(sample_tree_file(seed)) for seed in range(6)]
    errors = 0
    for _ in range(400):
        obj = copy.deepcopy(rng.choice(base))
        for _ in range(rng.randint(1, 2)):
            section = rng.choice(["P", "processes", "strategies"])
            table = obj[section]
            if section != "P":
                table = table[rng.choice(sorted(table))]
            key = rng.choice(sorted(table))
            if section == "P" or rng.random() < 0.3:
                table[key] = rng.choice(JUNK)
            elif isinstance(table[key], list):
                vec = table[key]
                vec[rng.randrange(len(vec))] = rng.choice(JUNK)
            if rng.random() < 0.2:          # and a zero-padded key
                table["0" + key] = table.pop(key)
        want = outcome(treeio_oracle.from_obj, copy.deepcopy(obj))
        assert outcome(treeio.from_obj, obj) == want
        errors += want.startswith("error: ")
    assert 100 < errors < 400


def stored_pairs(tf: TreeFile):
    """(field, pair) for every pair the reader stores."""
    if tf.P is not None:
        yield from ((f"P[{leaf}]", m) for leaf, m in tf.P._leaf.items())
    for section, store in (("processes", tf.processes),
                           ("strategies", tf.strategies)):
        for name, table in store.items():
            for node, vec in table._pairs.items():
                for x in vec:
                    yield f"{section}[{name}][{node}]", x


def test_reader_stores_reduced_pairs_whose_views_are_the_reference(tmp_path):
    """On seeded markets at one and two assets, with densities and
    strategies, on pairwise-coprime masses and on the bundled fixtures,
    every pair the reader stores is reduced over a positive denominator,
    and the Fraction views equal the reference reader's values."""
    from deflator_lab import scenarios
    from deflator_lab.deflator import construct_deflator
    from treegen import (arbitrage_free_two_asset_problem,
                         one_step_arbitrage_free, random_problem)

    rng = random.Random(33)
    problems = [random_problem(rng, asset_dim=1 + n % 2) for n in range(30)]
    problems += [arbitrage_free_two_asset_problem(rng, 2), coprime_problem(4, 1)]
    texts = []
    for problem in problems:
        tree, d = problem.tree, problem.tree.asset_dim
        H = Strategy({v.id: tuple(F(rng.randint(-9, 9), rng.randint(1, 9))
                                  for _ in range(d))
                      for v in tree.non_leaf_nodes()}, d)
        processes = {"S": problem.S}
        if d == 1 and one_step_arbitrage_free(tree, problem.S):   # (NA1)
            processes["Z"] = construct_deflator(problem).normalized(tree).Z
        texts.append(treeio.dumps(TreeFile(tree, problem.P, processes, {"H": H})))
    for name in scenarios.available():
        for path in scenarios.write_scenario(name, str(tmp_path / name)):
            if path.endswith("tree.json"):
                texts.append(open(path, encoding="utf-8").read())
    deflated = 0
    for text in texts:
        got = treeio.loads(text)
        want = treeio_oracle.from_obj(json.loads(text))
        pairs = list(stored_pairs(got))
        assert pairs
        for field, (n, d) in pairs:
            assert type(n) is int and type(d) is int, field
            assert d > 0 and math.gcd(n, d) == 1, field
        assert (got.P is None) == (want.P is None)
        if got.P is not None:
            assert got.P.leaf_mass == want.P.leaf_mass
        for store, ref, view in ((got.processes, want.processes, "values"),
                                 (got.strategies, want.strategies, "steps")):
            assert store.keys() == ref.keys()
            for name, table in store.items():
                assert table.dim == ref[name].dim
                assert getattr(table, view) == getattr(ref[name], view)
                assert all(type(x) is F for vec in getattr(table, view).values()
                           for x in vec)
        deflated += "Z" in got.processes
    assert len(texts) >= len(problems) + 4 and deflated > 5


def test_tree_text_needs_the_hook_only_where_a_name_may_repeat(monkeypatch):
    """A tree file whose colons all separate the members the reader counts
    is parsed without `parse_object`'s hook; a colon inside a name, or a
    repeated name, sends it through the hook, which still refuses the
    repeat."""
    from deflator_lab import fileio

    calls = []
    hook = fileio._members
    monkeypatch.setattr(fileio, "_members",
                        lambda pairs: calls.append(1) or hook(pairs))
    text = treeio.dumps(sample_tree_file(4))
    assert treeio.dumps(treeio.loads(text)) == text and calls == []
    named = text.replace('"S": {', '"S:1": {', 1)
    assert named != text and set(treeio.loads(named).processes) == {"S:1"}
    assert calls
    repeated = text.replace('"P": {', '"P": {"1": "1/3",', 1)
    with pytest.raises(TreeFileError, match="repeated name '1'"):
        treeio.loads(repeated)


def test_writers_refuse_what_the_reader_refuses(int_str_limit, tmp_path):
    """A value with more digits than int-to-str conversion allows raises
    TreeFileError naming its field as the reader would, and the reader
    refuses the text such a value would have."""
    huge = F(1, 10 ** 5000)
    tf = sample_tree_file()
    node = tf.tree.leaves[-1]
    tf.processes["Z"] = AdaptedProcess.of_scalars(
        {v.id: huge if v.id == node else F(1) for v in tf.tree.nodes})
    with pytest.raises(TreeFileError, match=rf"^processes\[Z\]\[{node}\]: "):
        treeio.dumps(tf)
    # at the limit: 4300 digits are written, and the refusal names the first
    # value of 4301 digits, not one just under the limit before it
    at, past = F(10 ** 4300 - 1), F(-10 ** 4300, 3)
    a, b = tf.tree.leaves[:2]
    tf.processes["Z"] = AdaptedProcess.of_scalars(
        {v.id: at if v.id == a else F(1) for v in tf.tree.nodes})
    assert treeio.loads(treeio.dumps(tf)).processes["Z"].at(a) == at
    tf.processes["Z"] = AdaptedProcess.of_scalars(
        {v.id: {a: at, b: past}.get(v.id, F(1)) for v in tf.tree.nodes})
    with pytest.raises(TreeFileError, match=rf"^processes\[Z\]\[{b}\]: "):
        treeio.dumps(tf)
    del tf.processes["Z"]
    first, *rest = tf.tree.leaves
    tf.P = ProbMeasure({leaf: huge if leaf == first else (1 - huge) / len(rest)
                        for leaf in tf.tree.leaves})
    with pytest.raises(TreeFileError, match=r"^P\[\d+\]: "):
        treeio.dumps(tf)
    # the points writer streams: the refusal comes after the first record is
    # written, and still leaves neither the target nor a temp file
    records = [(3, 1, (0, 1)), (3, None, (huge.numerator, huge.denominator))]
    with pytest.raises(TreeFileError, match=r"^points\[leaf 3, zeta inf\]: "):
        treeio.save_points(records, str(tmp_path / "q.json"))
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(TreeFileError, match="too long to parse"):
        parse_rational("1/1" + "0" * 5000)
