"""Supermartingale densities on event trees.

The one-period construction realizes the optimal-value measure: on each atom,
the density value is the supremum of E[one-step wealth | atom] over one-step
1-admissible holdings, a linear program whose optimum is reached at a
vertex (`arbitrage._atom_program`).  The multi-period density runs the same
program backward in time with the already-built later values as weights,
terminal value 1.  Unboundedness of any per-atom program is precisely a
one-step unbounded-profit ray, so (NA1) failures surface as the offending
atom rather than as a silent wrong number.

Deflation means: Z * (1 + (H.S)) is a supermartingale for every 1-admissible
H.  Scaling wealth to 1 on an atom shows it is enough to bound the one-step
programs by Z, which is an exact, certifiable condition; `verify_deflation`
checks it with one exact one-step program per atom of positive mass.  Both
the construction and the certificate run `arbitrage._atom_program` on the
reduced int pairs of `filtered_space`'s pair section: the certificate
compares each atom's optimum with Z by one cross-multiplication and builds a
Fraction only for an excess.
"""

from __future__ import annotations

from fractions import Fraction

from .arbitrage import (Na1FailsOnAtom, WealthProblem, _atom_program,
                        backward_pass, one_step_program)
from .filtered_space import (AdaptedProcess, EventTree, Pair, ProbMeasure,
                             _process_pairs)


class Deflator:
    """A strictly positive supermartingale density.

    The construction normalizes the terminal value to 1; dominating-measure
    building instead wants E[Z_0] = 1, which `normalized()` arranges by a
    global rescale (the optimal one-step programs are positively homogeneous,
    so deflation survives scaling).  The compensator is not stored:
    `build_dominating_measure` derives it from Z.
    """

    def __init__(self, Z: AdaptedProcess):
        self.Z = Z

    def normalized(self, tree: EventTree) -> "Deflator":
        """Z / Z_0 on every node of `tree`."""
        Z = self.Z.divided_by(tree.root)
        return self if Z is self.Z else Deflator(Z)


def one_period_density(tree: EventTree, P: ProbMeasure, S: AdaptedProcess,
                       at_time: int = 0) -> AdaptedProcess:
    """The optimal-value density over one step, one value per time-`at_time`
    atom; always >= 1 because h = 0 is admissible."""
    if not 0 <= at_time < tree.horizon:
        raise ValueError(f"at_time must lie in [0, {tree.horizon}), "
                         f"got {at_time}")
    if not P.strictly_positive:
        raise ValueError("one-period density needs a strictly positive measure")
    masses = P.node_masses(tree)
    out = {}
    for v in tree.nodes_at(at_time):
        value, _ = one_step_program(tree, masses, S, v)
        out[v] = value
    return AdaptedProcess.of_scalars(out)


def construct_deflator(problem: WealthProblem) -> Deflator:
    """Backward induction with terminal value 1.

    Each atom solves the one-step program weighted by the next-layer density,
    which is exactly the one-period construction applied to the rescaled
    one-step wealth family.  The result satisfies, exactly on every atom,

        sup_h E[Z_{k+1} (1 + h.dS) | atom] = Z_k,

    hence Z deflates every 1-admissible wealth process, and Z_k >= Z's own
    later conditional values (h = 0), so Z is itself a supermartingale.
    """
    return Deflator(AdaptedProcess.of_scalars(backward_pass(problem)))


class DeflationReport:
    def __init__(self, certified: bool,
                 violations: list[tuple[int, Fraction]]):
        self.certified = certified
        self.violations = violations           # (atom, excess over Z)


def verify_deflation(problem: WealthProblem, Z: "AdaptedProcess | Deflator"
                     ) -> DeflationReport:
    """Certify the deflation property of Z exactly.

    One exact one-step program per atom of positive mass checks
    sup_h E[Z_next (1 + h.dS) | atom] <= Z there, which bounds every
    1-admissible wealth at once.  Every child keeps its admissibility
    constraint, charged or not.  An unbounded program is a violation with
    excess -1.  Atoms of zero mass carry no conditional law and are
    skipped, so P may vanish off a slice of the tree.
    """
    if isinstance(Z, Deflator):
        Z = Z.Z
    if Z.dim != 1:
        raise ValueError("scalar access on a vector-valued process")
    tree, S = problem.tree, problem.S
    return _certify_pairs(tree, problem.P._atom_pairs(tree),
                          [_process_pairs(tree, S, k) for k in range(S.dim)],
                          _process_pairs(tree, Z))


def _certify_pairs(tree: EventTree, m: list[Pair], s: list[list[Pair]],
                   z: list[Pair]) -> DeflationReport:
    """`verify_deflation` on pair tables by node id: atom masses m, one
    table per price component s, and the density z, each denominator
    positive.

    The program at atom v, weighted by m(c) Z_c, is `_atom_program`'s
    num/den, m(v) times the conditional optimum, so the check is the int
    comparison num m_den(v) Z_den(v) <= Z_num(v) den m_num(v), and a
    Fraction is built only for an excess.  The optimum and m(v) are both
    homogeneous of degree one in the masses, so the conditional optimum,
    the comparison and the excess are unchanged when every mass is scaled
    by one positive factor: m need not sum to one, and an insider's slice
    table P( . n {L = l}) gives the verdicts of the slice law
    P( . | L = l).
    """
    violations: list[tuple[int, Fraction]] = []
    for v in tree.non_leaf_nodes():
        mn, md = m[v.id]
        if mn == 0:
            continue
        kids = v.children
        x = [(m[c][0] * z[c][0], m[c][1] * z[c][1]) for c in kids]
        try:
            num, den, _ = _atom_program(v.id, kids, x, s)
        except Na1FailsOnAtom:
            violations.append((v.id, Fraction(-1)))
            continue
        zn, zd = z[v.id]
        lhs, rhs = num * md * zd, zn * den * mn
        if lhs > rhs:
            violations.append((v.id, Fraction(lhs - rhs, den * mn * zd)))
    return DeflationReport(certified=not violations, violations=violations)
