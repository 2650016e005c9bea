"""The label product tree: a differential oracle for the insider's (NA1);
and the `Fraction` conditional label law.

The library decides (NA1) in the initially enlarged filtration on the base
tree itself: under the decoupled measure P x P_L every label copy replays the
base market's one-step programs with the base's conditional weights, behind a
root step whose prices are frozen.  This module builds that product market as
an ordinary event tree, so the backward pass can run on it independently.

`kernel(spec)` is the conditional label law P_t(atom, l) = P(L = l | atom)
and the marginal P_L as `Fraction` divisions of the slice masses, which the
library's `jacod_check` and `universal_density` read as int pairs instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from deflator_lab.arbitrage import WealthProblem
from deflator_lab.enlargement import EnlargementSpec
from deflator_lab.filtered_space import AdaptedProcess, EventTree, ProbMeasure


@dataclass
class ProductMarket:
    """Label-indexed copies of the base tree glued under a label-drawing root.

    Times shift by one: the root draws the label (prices frozen on that step),
    and step k+1 of the product replays step k of the base.  The measure is
    the decoupled one, P x P_L, which charges every slice; it has the same
    one-step supports as the base market on every copy, so arbitrage verdicts
    transfer copy by copy.
    """

    spec: EnlargementSpec
    tree: EventTree
    Q: ProbMeasure                          # decoupling measure, all slices
    S: AdaptedProcess
    node_of: dict[tuple[int, str], int]     # (base node, label) -> product node
    base_of: dict[int, tuple[Optional[int], Optional[str]]]

    def problem(self) -> WealthProblem:
        return WealthProblem(self.tree, self.Q, self.S)


def product_market(spec: EnlargementSpec, S: AdaptedProcess) -> ProductMarket:
    tree = spec.tree
    d = tree.asset_dim
    parents: list[Optional[int]] = [None]
    times: list[int] = [0]
    node_of: dict[tuple[int, str], int] = {}
    base_of: dict[int, tuple[Optional[int], Optional[str]]] = {0: (None, None)}
    for k in range(tree.horizon + 1):
        for lab in spec.label_set:
            for v in tree.nodes_at(k):
                idx = len(parents)
                if k == 0:
                    parents.append(0)
                else:
                    parents.append(node_of[(tree.parent_of(v), lab)])
                times.append(k + 1)
                node_of[(v, lab)] = idx
                base_of[idx] = (v, lab)
    product = EventTree(tree.horizon + 1, d, parents, times)

    p_l = {lab: spec.slice_masses(lab)[tree.root] for lab in spec.label_set}
    masses = {}
    for leaf in tree.leaves:
        for lab in spec.label_set:
            masses[node_of[(leaf, lab)]] = spec.P.mass(leaf) * p_l[lab]
    Q = ProbMeasure(masses)

    values = {0: S[tree.root]}
    for (v, lab), idx in node_of.items():
        values[idx] = S[v]
    S_bar = AdaptedProcess(values, d)
    return ProductMarket(spec, product, Q, S_bar, node_of, base_of)


@dataclass
class ConditionalKernel:
    """Rows P_t(atom, label) of the conditional label law, plus the marginal."""

    P_t: dict[tuple[int, str], Fraction]
    P_L: dict[str, Fraction]


def kernel(spec: EnlargementSpec) -> ConditionalKernel:
    masses = spec.P.node_masses(spec.tree)
    p_t: dict[tuple[int, str], Fraction] = {}
    slices = {lab: spec.slice_masses(lab) for lab in spec.label_set}
    for v in spec.tree.nodes:
        for lab in spec.label_set:
            p_t[(v.id, lab)] = slices[lab][v.id] / masses[v.id]
    p_l = {lab: slices[lab][spec.tree.root] for lab in spec.label_set}
    return ConditionalKernel(p_t, p_l)
