"""Fuzzing the command line in process: a malformed tree, label map or params
file must end in exit 0, 1 or 2 and never in an escaping exception."""

import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deflator_lab import scenarios, treeio
from deflator_lab.arbitrage import WealthProblem
from deflator_lab.cli import run
from deflator_lab.deflator import construct_deflator

FUZZ = settings(derandomize=True, max_examples=250, deadline=None,
                database=None, suppress_health_check=[HealthCheck.too_slow])


def insider_documents():
    """The insider-binomial tree with its deflator Z added, and its label
    map, as JSON documents."""
    tf, labels = scenarios.insider_binomial()
    tf.processes["Z"] = construct_deflator(
        WealthProblem(tf.tree, tf.P, tf.processes["S"])).Z
    return treeio.to_obj(tf), {str(k): v for k, v in labels.items()}


TREE, LABELS = insider_documents()


def json_paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


DELETE = object()
JUNK = st.one_of(
    st.sampled_from([DELETE, None, True, "1/0", "0", "-1"]),
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


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@FUZZ
@given(tree_edits=edits(TREE, 1, 2), label_edits=edits(LABELS, 0, 1))
def test_tree_side_commands_never_raise(tree_edits, label_edits):
    with tempfile.TemporaryDirectory() as d:
        tree, labels, out, written = (os.path.join(d, name) for name in (
            "tree.json", "labels.json", "report.json", "written.json"))
        write_json(tree, mutated(TREE, tree_edits))
        write_json(labels, mutated(LABELS, label_edits))
        commands = [
            ["check", "--tree", tree, "--out", out],
            ["deflate", "--tree", tree, "--out", written, "--report", out],
            ["foellmer", "--tree", tree, "--out", written, "--report", out],
            ["ky-verify", "--tree", tree, "--price", "S", "--out", out],
            ["stopped-check", "--tree", tree, "--out", out],
        ] + [["enlarge", action, "--tree", tree, "--label-map", labels,
              "--event", "u", "--out", out]
             for action in ("jacod", "universal-z", "insider", "logutility")]
        for argv in commands:
            assert run(argv) in (0, 1, 2), argv


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
