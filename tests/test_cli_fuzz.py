"""Fuzzing the command line in process: a malformed tree, label map or params
file must end in exit 0, 1 or 2 and never in an escaping exception."""

import dataclasses
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deflator_lab import scenarios, treeio
from deflator_lab.arbitrage import WealthProblem
from deflator_lab.cli import run
from deflator_lab.deflator import construct_deflator
from deflator_lab.montecarlo import (DiffusionScenario, InsiderDriftScenario,
                                     LevyScenario)
from treeio_oracle import to_obj

FUZZ = settings(derandomize=True, max_examples=250, deadline=None,
                database=None, suppress_health_check=[HealthCheck.too_slow])


def insider_documents():
    """The insider-binomial tree with its deflator Z added, and its label
    map, as JSON documents."""
    tf, labels = scenarios.insider_binomial()
    tf.processes["Z"] = construct_deflator(
        WealthProblem(tf.tree, tf.P, tf.processes["S"])).Z
    return to_obj(tf), {str(k): v for k, v in labels.items()}


TREE, LABELS = insider_documents()


def json_paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


DELETE = object()
# rationals with more digits than Python's default int-to-str limit (4300)
TOO_LONG = ["1/1" + "0" * 4300, "-" + "7" * 4301]
JUNK = st.one_of(
    st.sampled_from([DELETE, None, True, "1/0", "0", "-1", *TOO_LONG]),
    st.floats(), st.integers(2 ** 63, 2 ** 200),
    st.lists(st.sampled_from([None, "1", 0.5, []]), max_size=3),
    st.dictionaries(st.sampled_from(["0", "1", "2", "x"]),
                    st.sampled_from([None, "1", "1/2", ["1"]]), max_size=3))


def edits(doc, min_size, max_size):
    """Edits of doc: each deletes a position or puts junk there."""
    return st.lists(st.tuples(st.sampled_from(list(json_paths(doc))), JUNK),
                    min_size=min_size, max_size=max_size)


def mutated(doc, changes):
    """A copy of doc with the edits applied in order."""
    doc = json.loads(json.dumps(doc))
    for path, junk in changes:
        if not path:
            doc = doc if junk is DELETE else junk
            continue
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if junk is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = junk
        except (KeyError, IndexError, TypeError):
            pass        # an earlier edit removed or replaced this position
    return doc


def node_keys(doc, prefix=()):
    """(path of a table, one of its node keys) for every node-keyed table."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key.isdigit():
                yield prefix, key
            yield from node_keys(value, prefix + (key,))


# Each turns a node key into one that no canonical ASCII decimal equals, but
# that int() reads as the same node or that str.isdigit() accepts.
KEY_CHANGES = {
    "zero-padded": lambda key: "0" + key,
    "arabic-indic": lambda key: key.translate(str.maketrans(
        "0123456789", "\u0660\u0661\u0662\u0663\u0664"
                      "\u0665\u0666\u0667\u0668\u0669")),
    "fullwidth": lambda key: key.translate(str.maketrans(
        "0123456789", "\uff10\uff11\uff12\uff13\uff14"
                      "\uff15\uff16\uff17\uff18\uff19")),
    "superscript": lambda key: key.translate(str.maketrans(
        "0123456789", "\u2070\u00b9\u00b2\u00b3\u2074"
                      "\u2075\u2076\u2077\u2078\u2079")),
}


def key_edits(doc):
    """At most one node key changed: renamed, or aliased next to the
    original (same value)."""
    return st.lists(st.tuples(st.sampled_from(list(node_keys(doc))),
                              st.sampled_from(sorted(KEY_CHANGES)),
                              st.booleans()), max_size=1)


def rekeyed(doc, changes) -> bool:
    """Apply the key edits to doc in place; whether any of them applied."""
    applied = False
    for (path, key), change, alias in changes:
        try:
            table = doc
            for step in path:
                table = table[step]
            value = table[key] if alias else table.pop(key)
        except (KeyError, IndexError, TypeError, AttributeError):
            continue        # a value edit removed or replaced this table
        table[KEY_CHANGES[change](key)] = value
        applied = True
    return applied


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@FUZZ
@given(tree_edits=edits(TREE, 0, 2), tree_keys=key_edits(TREE),
       label_edits=edits(LABELS, 0, 1))
def test_tree_side_commands_never_raise(tree_edits, tree_keys, label_edits):
    """A non-canonical node key anywhere in the tree file exits 2."""
    with tempfile.TemporaryDirectory() as d:
        tree, labels, out, written = (os.path.join(d, name) for name in (
            "tree.json", "labels.json", "report.json", "written.json"))
        doc = mutated(TREE, tree_edits)
        bad_key = rekeyed(doc, tree_keys)
        write_json(tree, doc)
        write_json(labels, mutated(LABELS, label_edits))
        for argv in tree_side_commands(tree, labels, out, written):
            assert run(argv) in ((2,) if bad_key else (0, 1, 2)), argv


def tree_side_commands(tree, labels, out, written):
    return [
        ["check", "--tree", tree, "--out", out],
        ["deflate", "--tree", tree, "--out", written, "--report", out],
        ["foellmer", "--tree", tree, "--out", written, "--report", out],
        ["ky-verify", "--tree", tree, "--price", "S", "--out", out],
        ["stopped-check", "--tree", tree, "--out", out],
    ] + [["enlarge", action, "--tree", tree, "--label-map", labels,
          "--event", "u", "--out", out]
         for action in ("jacod", "universal-z", "insider", "logutility")]


@pytest.mark.parametrize("table", ["P", "S", "Z"])
@pytest.mark.parametrize("text", TOO_LONG)
def test_rationals_over_the_digit_limit_exit_2(table, text, tmp_path,
                                               int_str_limit):
    """The reader refuses a rational with more digits than int-to-str
    conversion allows, in P or in a process, so every tree-side command
    exits 2."""
    doc = json.loads(json.dumps(TREE))
    if table == "P":
        doc["P"][next(iter(doc["P"]))] = text
    else:
        doc["processes"][table]["0"] = [text]
    paths = [str(tmp_path / name) for name in
             ("tree.json", "labels.json", "report.json", "written.json")]
    write_json(paths[0], doc)
    write_json(paths[1], LABELS)
    for argv in tree_side_commands(*paths):
        assert run(argv) == 2, argv


# A repeated name can only be written as text: a dict holds each name once.
SAME = object()
REPEAT_VALUES = st.sampled_from([SAME, None, "1/2", "u", 0.5, ["1"], {}])


def members(doc):
    """The path of every member of every object in doc."""
    return [path for path in json_paths(doc)
            if path and isinstance(path[-1], str)]


def repeated(doc, member, value):
    """The JSON text of doc with the member at path `member` written twice,
    the second time with `value` (its own value again when that is SAME),
    and the document that a parser keeping the last of the two would give."""
    last = json.loads(json.dumps(doc))
    parent = last
    for key in member[:-1]:
        parent = parent[key]
    name = member[-1]
    again = parent[name] if value is SAME else value
    parent[name] = again

    def encode(node, at):
        if isinstance(node, list):
            return "[" + ", ".join(encode(item, at + (i,))
                                   for i, item in enumerate(node)) + "]"
        if not isinstance(node, dict):
            return json.dumps(node)
        items = []
        for key, item in node.items():
            items.append(f"{json.dumps(key)}: {encode(item, at + (key,))}")
            if at + (key,) == member:
                items.append(f"{json.dumps(key)}: {json.dumps(again)}")
        return "{" + ", ".join(items) + "}"

    return encode(doc, ()), last


def repeats(doc):
    return st.tuples(st.sampled_from(members(doc)), REPEAT_VALUES)


# Parameters each scenario runs with at --paths 100 --steps 4.
PARAMS = {"diffusion": {"mu": 0.2, "sigma": 1.0, "horizon": 1.0, "s0": 1.0,
                        "seed": 3, "pi": [0.5, -0.5, 0.5, -0.5]},
          "levy": {"a": 2.0, "b": 1.0, "horizon": 1.0, "seed": 3, "pi": 0.5},
          "insider": {"horizon": 0.5, "seed": 3}}
DOCUMENTS = {"tree": TREE, "labels": LABELS, **PARAMS}


@FUZZ
@given(kind=st.sampled_from(sorted(DOCUMENTS)), data=st.data())
def test_a_repeated_name_exits_2(kind, data):
    """A member written twice in any object of a tree file, label map or
    params file exits 2, whatever its second value: text that Python's
    `json` reads, keeping the last value, is refused."""
    doc = DOCUMENTS[kind]
    member, value = data.draw(repeats(doc))
    text, last = repeated(doc, member, value)
    assert json.loads(text) == last
    with tempfile.TemporaryDirectory() as d:
        tree, labels, out, written, params = (os.path.join(d, name) for name in (
            "tree.json", "labels.json", "report.json", "written.json",
            "params.json"))
        write_json(tree, TREE)
        write_json(labels, LABELS)
        target = {"tree": tree, "labels": labels}.get(kind, params)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        if kind == "tree":
            argvs = tree_side_commands(tree, labels, out, written)
        elif kind == "labels":
            argvs = [argv for argv in tree_side_commands(tree, labels, out,
                                                         written)
                     if argv[0] == "enlarge"]
        else:
            argvs = [["simulate", "--scenario", kind, "--params", params,
                      "--paths", "100", "--steps", "4", "--out", out]]
        for argv in argvs:
            assert run(argv) == 2, argv
            assert not os.path.exists(out), argv


# Bounded junk: with --paths and --steps fixed on the command line, no value
# here makes a scenario draw more than a few thousand variates.
PARAM_KEYS = {"diffusion": ["mu", "sigma", "horizon", "s0", "seed", "pi"],
              "levy": ["a", "b", "horizon", "seed", "pi"],
              "insider": ["horizon", "seed", "typo"]}
PARAM_JUNK = st.sampled_from([
    None, True, 0, -1, 2, 0.5, 1e308, -1e308, math.nan, math.inf, 10 ** 30,
    "1/0", [], [0.5], {}])
SCENARIO_PARAMS = st.sampled_from(sorted(PARAM_KEYS)).flatmap(
    lambda scenario: st.tuples(st.just(scenario), st.dictionaries(
        st.sampled_from(PARAM_KEYS[scenario]), PARAM_JUNK, max_size=3)))


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(case=SCENARIO_PARAMS)
def test_simulate_never_raises(case):
    """No exception escapes, no numpy warning is raised, and every report
    written is strict JSON: no NaN or Infinity."""
    scenario, params = case
    with tempfile.TemporaryDirectory() as d:
        path, out = os.path.join(d, "params.json"), os.path.join(d, "r.json")
        write_json(path, params)
        argv = ["simulate", "--scenario", scenario, "--params", path,
                "--paths", "100", "--steps", "4", "--out", out]
        assert run(argv) in (0, 1, 2), argv
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                json.load(fh, parse_constant=reject_constant)


# Every real parameter, one at a time, over magnitudes from the subnormal
# range to the largest floats, and a few pairs that once exited 2 naming no
# field.  Deterministic and in process: about half a second.
LADDER = [1e-320, 1e-308, 1e-300, 1e-160, 1e-150, 1e-100, 1e-10, 1.0, 1e10,
          1e100, 1e200, 1e308]
REAL_PARAMS = {"diffusion": ["mu", "sigma", "horizon", "s0", "pi"],
               "levy": ["a", "b", "horizon", "pi"], "insider": ["horizon"]}
GRID = [(scenario, {name: sign * x}) for scenario, names in
        REAL_PARAMS.items() for name in names for x in LADDER
        for sign in (1, -1)] + [
    ("diffusion", {"mu": 30, "s0": 1e-150}),
    ("diffusion", {"mu": 30, "horizon": 1e308}),
    ("diffusion", {"mu": 1e-320, "sigma": 1e-150}),
    ("levy", {"a": 1e-4, "b": 0, "horizon": 2000})]
SCENARIO_NAMES = {
    scenario: {field.name for field in dataclasses.fields(cls)} | extra
    for scenario, cls, extra in [("diffusion", DiffusionScenario, {"pi"}),
                                 ("levy", LevyScenario, {"pi"}),
                                 ("insider", InsiderDriftScenario, set())]}
PREFIX = "error: invalid simulation parameters: "


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_extreme_values_exit_cleanly_or_name_a_parameter(capsys):
    """Across the grid no exception escapes, every report written is strict
    JSON, and every exit 2 names one of the scenario's parameters first."""
    faults = []
    with tempfile.TemporaryDirectory() as d:
        path, out = os.path.join(d, "params.json"), os.path.join(d, "r.json")
        for scenario, params in GRID:
            write_json(path, params)
            code = run(["simulate", "--scenario", scenario, "--params", path,
                        "--paths", "100", "--steps", "4", "--out", out])
            err = capsys.readouterr().err
            if code == 2:
                message = err[len(PREFIX):] if err.startswith(PREFIX) else ""
                name = re.match(r"\w*", message).group()
                if name not in SCENARIO_NAMES[scenario]:
                    faults.append((scenario, params, err))
                continue
            if code not in (0, 1) or not os.path.exists(out):
                faults.append((scenario, params, code))
                continue
            with open(out, encoding="utf-8") as fh:
                json.load(fh, parse_constant=reject_constant)
            os.remove(out)
    assert not faults
