"""A `Deflator` is its density alone: rescaling computes no compensator,
and the dominating measure derives the compensator from Z either way."""

import importlib
import random

import pytest

from deflator_lab import filtered_space
from deflator_lab.deflator import Deflator, Na1FailsOnAtom, construct_deflator
from deflator_lab.kunita_yoeurp import build_dominating_measure
from treegen import binomial_problem, random_problem

SEED = 90_517


def constructed_deflators(n):
    rng = random.Random(SEED)
    out = []
    while len(out) < n:
        problem = random_problem(rng, max_steps=3)
        try:
            deflator = construct_deflator(problem)
        except Na1FailsOnAtom:
            continue
        out.append((problem, deflator.normalized(problem.tree)))
    return out


def test_deflator_and_its_density_give_the_same_measure():
    for problem, deflator in constructed_deflators(40):
        assert isinstance(deflator, Deflator)
        from_deflator = build_dominating_measure(problem.tree, problem.P,
                                                 deflator)
        from_process = build_dominating_measure(problem.tree, problem.P,
                                                deflator.Z)
        assert from_deflator.Q == from_process.Q
        assert from_deflator.dA.steps == from_process.dA.steps
        assert from_deflator.Z is from_process.Z is deflator.Z


@pytest.fixture()
def compensator_calls(monkeypatch):
    """Counts calls of the compensator under every name it is bound to."""
    calls = []
    original = filtered_space._compensator

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (importlib.import_module(f"deflator_lab.{name}") for name in
                   ("filtered_space", "arbitrage", "deflator", "kunita_yoeurp",
                    "enlargement")):
        if getattr(module, "_compensator", None) is original:
            monkeypatch.setattr(module, "_compensator", counted)
    return calls


def test_construct_and_normalize_run_no_doob_decomposition(compensator_calls):
    problem = binomial_problem(steps=3)
    deflator = construct_deflator(problem)
    assert deflator.Z.at(problem.tree.root) != 1
    normalized = deflator.normalized(problem.tree)
    assert normalized.Z.at(problem.tree.root) == 1
    assert compensator_calls == []
    build_dominating_measure(problem.tree, problem.P, normalized)
    assert len(compensator_calls) == 1
