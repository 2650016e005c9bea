"""The conditional averages and the leaf table as `filtered_space` computed
them before one backward pass served them all.

`conditional_expectation` walked the tree layer by layer from time k up to
time j, `martingale_closure` averaged each atom over its children's already
averaged values, and `expectation` summed the leaves one at a time.
`leaves_below_table` is the per-node tuple of leaves that every `EventTree`
used to build when it was made.  They serve as the oracle of
`test_filtered_space.py`, which holds production to them value for value
and error for error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from deflator_lab.filtered_space import (AdaptedProcess, EventTree,
                                         ProbMeasure, Vector)
from deflator_lab.martingale import NullAtomError


def conditional_expectation(tree: EventTree, P: ProbMeasure, X: AdaptedProcess,
                            j: int, at_time: Optional[int] = None
                            ) -> AdaptedProcess:
    k = tree.horizon if at_time is None else at_time
    if not 0 <= j < k <= tree.horizon:
        raise ValueError(f"need 0 <= j < k <= horizon, got j={j}, k={k}")
    masses = P.node_masses(tree)
    zero = tuple(Fraction(0) for _ in range(X.dim))
    acc: dict[int, Vector] = {}
    nonzero: dict[int, bool] = {}
    for v in tree.nodes_at(k):
        m = masses[v]
        acc[v] = tuple(m * x for x in X[v])
        nonzero[v] = any(x != 0 for x in X[v])
    for t in range(k - 1, j - 1, -1):
        for v in tree.nodes_at(t):
            s = zero
            for c in tree.children_of(v):
                s = tuple(a + b for a, b in zip(s, acc[c]))
            acc[v] = s
            nonzero[v] = any(nonzero[c] for c in tree.children_of(v))
    out: dict[int, Vector] = {}
    for v in tree.nodes_at(j):
        if masses[v] == 0:
            if nonzero[v]:
                raise NullAtomError(f"conditioning on null atom {v}")
            out[v] = zero
        else:
            out[v] = tuple(x / masses[v] for x in acc[v])
    return AdaptedProcess(out, X.dim)


def martingale_closure(tree: EventTree, P: ProbMeasure,
                       terminal: AdaptedProcess) -> AdaptedProcess:
    masses = P.node_masses(tree)
    out: dict[int, Vector] = {leaf: terminal[leaf] for leaf in tree.leaves}
    zero = tuple(Fraction(0) for _ in range(terminal.dim))
    for v in reversed(tree.nodes):
        if not v.children:
            continue
        if masses[v.id] == 0:
            if any(any(x != 0 for x in out[c]) for c in v.children):
                raise NullAtomError(f"conditioning on null atom {v.id}")
            out[v.id] = zero
            continue
        acc = zero
        for c in v.children:
            acc = tuple(a + masses[c] * x for a, x in zip(acc, out[c]))
        out[v.id] = tuple(x / masses[v.id] for x in acc)
    return AdaptedProcess(out, terminal.dim)


def expectation(tree: EventTree, P: ProbMeasure, X: AdaptedProcess) -> Vector:
    acc = tuple(Fraction(0) for _ in range(X.dim))
    for leaf in tree.leaves:
        acc = tuple(a + P.mass(leaf) * x for a, x in zip(acc, X[leaf]))
    return acc


def leaves_below_table(tree: EventTree) -> list[tuple[int, ...]]:
    table: list[tuple[int, ...]] = [() for _ in tree.nodes]
    for v in reversed(tree.nodes):
        if not v.children:
            table[v.id] = (v.id,)
        else:
            acc: list[int] = []
            for c in v.children:
                acc.extend(table[c])
            table[v.id] = tuple(acc)
    return table
