"""The martingale calculus on a finite filtered space: conditional
expectations, martingales closed by a terminal layer, the Doob
decomposition and the expectation of a terminal layer, all exact.

Every average reads one backward pass, `_atom_sums`.  No command runs this
module: the dominating measure takes the compensator's steps from
`filtered_space._compensator`, which `doob_decomposition` also reads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from .filtered_space import (AdaptedProcess, EventTree, ProbMeasure, Strategy,
                             Vector, _compensator)


class NullAtomError(ValueError):
    """Conditioning on an atom of probability zero."""


def _atom_sums(tree: EventTree, masses: Mapping[int, Fraction],
               X: AdaptedProcess, k: int) -> tuple[list[Vector], list[bool]]:
    """By id, for every node v at time <= k: the mass-weighted sum of X_k
    over the time-k atoms below v, and whether X_k is nonzero on one of
    them.  One pass in reversed id order; every average reads it."""
    end = tree.nodes_at(k)[-1] + 1
    s: list[Vector] = [()] * end
    nonzero = [False] * end
    for v in reversed(tree.nodes[:end]):
        if v.time == k:
            s[v.id] = tuple(masses[v.id] * x for x in X[v.id])
            nonzero[v.id] = any(x != 0 for x in X[v.id])
        else:
            s[v.id] = tuple(map(sum, zip(*[s[c] for c in v.children])))
            nonzero[v.id] = any(nonzero[c] for c in v.children)
    return s, nonzero


def _average(v: int, m: Fraction, s: Vector, nonzero: bool) -> Vector:
    """s / m over atom v of mass m; a null atom, whose s is zero, averages
    to zero only where X vanishes below it."""
    if m == 0 and nonzero:
        raise NullAtomError(f"conditioning on null atom {v}")
    return s if m == 0 else tuple(x / m for x in s)


def conditional_expectation(tree: EventTree, P: ProbMeasure, X: AdaptedProcess,
                            j: int, at_time: Optional[int] = None) -> AdaptedProcess:
    """E[X_k | F_j] as a process on the time-j layer, by exact weighted averages.

    X must be defined on the time-k layer (k = at_time, default the horizon).
    Atoms of mass zero are tolerated only where X vanishes below them;
    otherwise conditioning is undefined and a NullAtomError is raised.
    """
    k = tree.horizon if at_time is None else at_time
    if not 0 <= j < k <= tree.horizon:
        raise ValueError(f"need 0 <= j < k <= horizon, got j={j}, k={k}")
    masses = P.node_masses(tree)
    s, nonzero = _atom_sums(tree, masses, X, k)
    return AdaptedProcess({v: _average(v, masses[v], s[v], nonzero[v])
                           for v in tree.nodes_at(j)}, X.dim)


def martingale_closure(tree: EventTree, P: ProbMeasure,
                       terminal: AdaptedProcess) -> AdaptedProcess:
    """The martingale E[X_n | F_k] for all k, closed by the given terminal
    layer, which null leaves keep too.  A NullAtomError names the first null
    atom in reversed id order with X_n nonzero below it."""
    masses = P.node_masses(tree)
    s, nonzero = _atom_sums(tree, masses, terminal, tree.horizon)
    out: dict[int, Vector] = {leaf: terminal[leaf] for leaf in tree.leaves}
    for v in reversed(tree.nodes[:len(tree.nodes) - len(tree.leaves)]):
        out[v.id] = _average(v.id, masses[v.id], s[v.id], nonzero[v.id])
    return AdaptedProcess(out, terminal.dim)


def doob_decomposition(tree: EventTree, P: ProbMeasure, Z: AdaptedProcess
                       ) -> tuple[AdaptedProcess, Strategy]:
    """Split Z = Z_0 + M - A with M an exact martingale started at zero and A
    predictable: the step of A over (k-1, k] is E[Z_{k-1} - Z_k | F_{k-1}],
    stored on the time-(k-1) node.  Returns (M, increments of A).

    The steps are `_compensator`'s, and M is a Fraction path sum of Z's
    increments plus the steps.  The dominating measure needs the steps
    only, so it calls `_compensator` and no command builds M."""
    if Z.dim != 1:
        raise ValueError("Doob decomposition expects a scalar process")
    if not P.strictly_positive:
        raise ValueError("Doob decomposition needs a strictly positive measure")
    dA = _compensator(tree, P, Z)
    M: dict[int, Fraction] = {tree.root: Fraction(0)}
    for v in tree.nodes:
        if v.parent is not None:
            M[v.id] = M[v.parent] + Z.at(v.id) - Z.at(v.parent) + dA[v.parent]
    return AdaptedProcess.of_scalars(M), Strategy.of_scalars(dA)


def expectation(tree: EventTree, P: ProbMeasure, X: AdaptedProcess) -> Vector:
    """E[X_n] over the leaves: the root's entry of `_atom_sums`."""
    return _atom_sums(tree, P.node_masses(tree), X, tree.horizon)[0][tree.root]
