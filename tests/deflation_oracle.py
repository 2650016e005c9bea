"""Second copies of the deflation certificate: oracles for the tests.

The library certifies deflation one way, `deflator._certify_pairs` behind
`verify_deflation`: one exact program per atom of positive mass.  This
module keeps the two other answers
it used to give, verbatim:

* `verify_deflation(problem, Z, trials, seed)` also draws `trials` seeded
  random 1-admissible strategies (`_random_admissible`) and checks the
  supermartingale inequality of Z * wealth on every atom, reporting the
  worst slack;
* `g_deflation_certificate(spec, S, Zg)` runs the insider's slice programs
  in one `Fraction` loop over labels and atoms, weighted by the
  unnormalized slice masses, where the library runs `_certify_pairs` once
  per label on that label's slice pair table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from deflator_lab.arbitrage import Na1FailsOnAtom, WealthProblem, one_step_program
from deflator_lab.deflator import Deflator
from deflator_lab.enlargement import EnlargementSpec, GProcess
from deflator_lab.filtered_space import (AdaptedProcess, EventTree, Strategy,
                                         dot, stochastic_integral)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class DeflationReport:
    certified: bool
    violations: list[tuple[int, Fraction]]     # (atom, excess over Z)
    trials: int = 0
    sampled_violations: list[tuple[int, Fraction]] = field(default_factory=list)
    worst_slack: Optional[Fraction] = None

    @property
    def passed(self) -> bool:
        return self.certified and not self.sampled_violations


def verify_deflation(problem: WealthProblem, Z: "AdaptedProcess | Deflator",
                     trials: int = 0, seed: int = 0) -> DeflationReport:
    """Certify the deflation property of Z, then optionally stress it.

    Part (a) is a proof: one LP per atom checks sup_h E[Z_next (1 + h.dS)] <=
    Z there, which bounds every 1-admissible wealth at once.  Part (b) draws
    `trials` seeded random admissible strategies and asserts the supermartingale
    inequality of Z * wealth on every atom, reporting the worst slack; any
    sampled violation with a clean certificate would mean a bug, not bad luck.
    """
    if isinstance(Z, Deflator):
        Z = Z.Z
    tree, P, S = problem.tree, problem.P, problem.S
    masses = P.node_masses(tree)
    violations: list[tuple[int, Fraction]] = []
    for v in tree.non_leaf_nodes():
        try:
            value, _ = one_step_program(tree, masses, S, v.id,
                                        {c: Z.at(c) for c in v.children})
        except Na1FailsOnAtom:
            violations.append((v.id, Fraction(-1)))
            continue
        if value > Z.at(v.id):
            violations.append((v.id, value - Z.at(v.id)))
    report = DeflationReport(certified=not violations, violations=violations,
                             trials=trials)
    if trials <= 0:
        return report

    rng = random.Random(seed)
    worst: Optional[Fraction] = None
    for _ in range(trials):
        H = _random_admissible(rng, tree, S)
        wealth = stochastic_integral(tree, S, H)
        for v in tree.non_leaf_nodes():
            w_here = ONE + wealth.at(v.id)
            lhs = sum((masses[c] / masses[v.id] * Z.at(c) * (ONE + wealth.at(c))
                       for c in v.children), ZERO)
            slack = Z.at(v.id) * w_here - lhs
            if worst is None or slack < worst:
                worst = slack
            if slack < 0:
                report.sampled_violations.append((v.id, slack))
    report.worst_slack = worst
    return report


def _random_admissible(rng: random.Random, tree: EventTree, S: AdaptedProcess
                       ) -> Strategy:
    """A random strategy whose wealth 1 + (H.S) stays nonnegative path-wise:
    scale a random direction into the admissible interval at each atom."""
    d = S.dim
    steps: dict[int, tuple[Fraction, ...]] = {}
    wealth: dict[int, Fraction] = {tree.root: ONE}
    for v in tree.nodes:
        if not v.children:
            continue
        w = wealth[v.id]
        u = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
        t_cap = Fraction(4)
        t_max: Optional[Fraction] = None
        for c in v.children:
            rate = dot(u, tuple(a - b for a, b in zip(S[c], S[v.id])))
            if rate < 0:
                bound = w / -rate
                t_max = bound if t_max is None else min(t_max, bound)
        limit = t_cap if t_max is None else min(t_max, t_cap)
        t = limit * Fraction(rng.randint(0, 8), 8)
        h = tuple(t * x for x in u)
        steps[v.id] = h
        for c in v.children:
            wealth[c] = w + dot(h, tuple(a - b for a, b in zip(S[c], S[v.id])))
    return Strategy(steps, d)


def g_deflation_certificate(spec: EnlargementSpec, S: AdaptedProcess,
                            Zg: GProcess) -> list[tuple[int, str, Fraction]]:
    """Exact insider-deflation certificate for a slice process Zg.

    On each charged slice, the one-step optimal-value program runs with the
    slice-conditional weights but keeps the admissibility constraints of every
    structural child (dead slices still constrain the insider); the optimum
    must not exceed Zg on the slice.
    """
    violations = []
    for lab in spec.label_set:
        slices = spec.slice_masses(lab)
        for v in spec.tree.non_leaf_nodes():
            if slices[v.id] == 0:
                continue
            weights = {c: Zg.at(c, lab) for c in v.children}
            value, _ = one_step_program(spec.tree, slices, S, v.id, weights)
            if value > Zg.at(v.id, lab):
                violations.append((v.id, lab, value - Zg.at(v.id, lab)))
    return violations
