"""Bundled fixtures: the small markets and parameter sets that exercise every
corner of the library, shipped as files so reports can be reproduced from the
command line alone."""

from __future__ import annotations

import os
from fractions import Fraction

from .fileio import write_atomic
from .filtered_space import AdaptedProcess, EventTree, ProbMeasure
from .treeio import TreeFile, canonical_dumps, dumps


def insider_binomial() -> tuple[TreeFile, dict[int, str]]:
    """One-step complete binomial market plus the terminal-state label."""
    tree = EventTree.uniform(1, 2)
    P = ProbMeasure({1: Fraction(1, 2), 2: Fraction(1, 2)})
    S = AdaptedProcess.of_scalars({0: 1, 1: 2, 2: Fraction(1, 2)})
    return TreeFile(tree, P, processes={"S": S}), {1: "u", 2: "d"}


def singleton_supermartingale() -> TreeFile:
    """A single outcome carrying a density that halves: no measure on the
    original space fits it, the death-time extension does."""
    tree = EventTree.singleton_path(1)
    P = ProbMeasure({1: Fraction(1)})
    Z = AdaptedProcess.of_scalars({0: 1, 1: Fraction(1, 2)})
    return TreeFile(tree, P, processes={"Z": Z})


def exponential_death() -> TreeFile:
    """Two deterministic steps: the price doubles while the density halves.

    Under the extension measure the killed price is a martingale, but the
    pre-death freeze keeps an upward drift that only death compensates, and
    the survival measure is dominated by the extension.
    """
    tree = EventTree.singleton_path(2)
    P = ProbMeasure({2: Fraction(1)})
    S = AdaptedProcess.of_scalars({0: 1, 1: 2, 2: 4})
    Z = AdaptedProcess.of_scalars({0: 1, 1: Fraction(1, 2), 2: Fraction(1, 4)})
    return TreeFile(tree, P, processes={"S": S, "Z": Z})


def levy_params() -> dict:
    """Smallest integer intensities with a > |b| for the jump counterexample."""
    return {"a": 2.0, "b": 1.0, "horizon": 1.0, "steps": 64,
            "paths": 100_000, "seed": 0, "pi": 1.0}


def jacod_coins() -> tuple[TreeFile, dict[int, str]]:
    """Two fair coins with a plus/minus walk; the label is the second coin,
    invisible until it lands, so the conditional-density process stays flat
    through time one."""
    tree = EventTree.uniform(2, 2)
    P = ProbMeasure({leaf: Fraction(1, 4) for leaf in tree.leaves})
    S = AdaptedProcess.of_scalars({0: 0, 1: 1, 2: -1, 3: 2, 4: 0, 5: 0, 6: -2})
    labels = {3: "h", 4: "t", 5: "h", 6: "t"}
    return TreeFile(tree, P, processes={"S": S}), labels


_DESCRIPTIONS = {
    "insider-binomial": "complete one-step market; the label reveals the "
                        "terminal state, killing every equivalent pricing "
                        "measure while unbounded profit stays impossible",
    "singleton-supermartingale": "deterministic halving density; the smallest "
                                 "space forcing the death-time extension",
    "exponential-death": "killed doubling price whose pre-death freeze is "
                         "not a martingale under the extension measure",
    "levy-counterexample": "unit jumps with drift killed at an exponential "
                           "time; freezing before death keeps a drift that "
                           "the death-jump repair removes",
    "jacod-coins": "independent-coin label with flat conditional densities "
                   "until the coin lands",
}


def available() -> list[str]:
    return sorted(_DESCRIPTIONS)


def write_scenario(name: str, directory: str) -> list[str]:
    """Write the named fixture's files; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    written: list[str] = []

    def put(filename: str, text: str) -> None:
        path = os.path.join(directory, filename)
        write_atomic(path, text)
        written.append(path)

    if name == "insider-binomial":
        tf, labels = insider_binomial()
        put("tree.json", dumps(tf))
        put("labels.json", canonical_dumps({str(k): v for k, v in labels.items()}))
    elif name == "singleton-supermartingale":
        put("tree.json", dumps(singleton_supermartingale()))
    elif name == "exponential-death":
        put("tree.json", dumps(exponential_death()))
    elif name == "levy-counterexample":
        put("params.json", canonical_dumps(levy_params()))
    elif name == "jacod-coins":
        tf, labels = jacod_coins()
        put("tree.json", dumps(tf))
        put("labels.json", canonical_dumps({str(k): v for k, v in labels.items()}))
    else:
        raise KeyError(name)
    put("README.md", f"# {name}\n\n{_DESCRIPTIONS[name]}\n")
    return written
