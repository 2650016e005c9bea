"""Seeded input generator for the benchmark.

Everything here is derived from a `random.Random` the caller seeds, and
writes the program's on-disk tree format directly (JSON with rationals as
canonical "p/q" strings).  It imports nothing from the program or its tests,
so an edit to either cannot change the benchmark's inputs.

Shapes are fixed by their size arguments; the seed only draws values.  That
keeps the work per run nearly the same for every seed, so run-to-run spread
measures the program and the host, not the inputs.

Guarantees, one per generator:

* `complete_tree(h, k)`: every interior node has exactly k children and
  every leaf sits at time h; ids are breadth-first.
* `split_chain(h, split_times)`: a deep narrow tree; each node splits in two
  at the listed times and has a single child at every other time, so it has
  2**len(split_times) leaves.
* `leaf_weights`: a strictly positive probability on the leaves, summing to
  exactly 1.
* `straddling_prices`: on every atom with two or more children, one
  increment is strictly positive and one strictly negative; single-child
  atoms freeze the price.  Hence every one-step market is arbitrage free,
  (NA) and (NA1) hold, and on binary trees every atom is a complete one-step
  market with strictly positive pricing weights.
* `iid_prices_with_arbitrage`: iid prices, then one seeded interior atom
  whose increments are all strictly positive, so (NA) and (NA1) fail.
* `label_map`: every leaf gets one of the labels and every label is used, so
  each label event has probability strictly between 0 and 1.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


class Tree:
    """Parent and time of every node, ids in breadth-first order."""

    def __init__(self, parents: list, times: list):
        self.parents = parents
        self.times = times
        self.horizon = max(times)
        self.children: list[list[int]] = [[] for _ in parents]
        for i, p in enumerate(parents):
            if p is not None:
                self.children[p].append(i)
        self.leaves = [i for i, t in enumerate(times) if t == self.horizon]

    def __len__(self) -> int:
        return len(self.parents)

    def interior(self) -> list[int]:
        return [i for i in range(len(self)) if self.children[i]]


def _grow(horizon: int, width_at) -> Tree:
    """Breadth-first tree where each time-t node gets `width_at(t)` children."""
    parents: list = [None]
    times = [0]
    layer = [0]
    for t in range(horizon):
        nxt = []
        for v in layer:
            for _ in range(width_at(t)):
                parents.append(v)
                times.append(t + 1)
                nxt.append(len(parents) - 1)
        layer = nxt
    return Tree(parents, times)


def complete_tree(horizon: int, branches: int) -> Tree:
    return _grow(horizon, lambda t: branches)


def split_chain(horizon: int, split_times: list) -> Tree:
    splits = set(split_times)
    return _grow(horizon, lambda t: 2 if t in splits else 1)


def leaf_weights(rng: random.Random, tree: Tree) -> dict:
    """Each atom splits its mass among its children in proportion to seeded
    integer weights 1..6.  The randomness is local to each atom, so on large
    trees the arithmetic cost varies little from seed to seed."""
    mass = {0: Fraction(1)}
    for v in range(len(tree)):
        kids = tree.children[v]
        weights = [rng.randint(1, 6) for _ in kids]
        total = sum(weights)
        for c, w in zip(kids, weights):
            mass[c] = mass[v] * Fraction(w, total)
    return {leaf: mass[leaf] for leaf in tree.leaves}


def straddling_prices(rng: random.Random, tree: Tree) -> dict:
    # The root price is fixed at 0: where the prices sit against the CLI's
    # fixed hitting levels decides how much work `ky-verify` does, so a
    # random root would make one draw decide the cost of the whole run.
    values = {0: Fraction(0)}
    for v in range(len(tree)):
        kids = list(tree.children[v])
        base = values[v]
        if len(kids) == 1:
            values[kids[0]] = base
            continue
        rng.shuffle(kids)
        for i, c in enumerate(kids):
            if i == 0:
                values[c] = base + Fraction(rng.randint(1, 3), 4)
            elif i == 1:
                values[c] = base - Fraction(rng.randint(1, 3), 4)
            else:
                values[c] = base + Fraction(rng.randint(-3, 3), 4)
    return values


def iid_prices_with_arbitrage(rng: random.Random, tree: Tree) -> dict:
    values = {v: Fraction(rng.randint(-16, 16), 4) for v in range(len(tree))}
    atom = rng.choice(tree.interior())
    for c in tree.children[atom]:
        values[c] = values[atom] + Fraction(rng.randint(1, 4), 4)
    return values


def label_map(rng: random.Random, tree: Tree, labels=("L0", "L1")) -> dict:
    leaves = list(tree.leaves)
    rng.shuffle(leaves)
    out = {leaf: labels[i] for i, leaf in enumerate(leaves[:len(labels)])}
    for leaf in leaves[len(labels):]:
        out[leaf] = rng.choice(labels)
    return out


def tree_json(tree: Tree, P: dict, prices: dict) -> str:
    """The program's tree-file format, with one scalar price process S."""
    obj = {
        "horizon": tree.horizon,
        "asset_dim": 1,
        "nodes": [{"id": i, "time": tree.times[i], "parent": tree.parents[i]}
                  for i in range(len(tree))],
        "P": {str(leaf): str(m) for leaf, m in sorted(P.items())},
        "processes": {"S": {str(v): [str(x)] for v, x in sorted(prices.items())}},
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def labels_json(labels: dict) -> str:
    return json.dumps({str(k): v for k, v in sorted(labels.items())},
                      indent=2, sort_keys=True) + "\n"
