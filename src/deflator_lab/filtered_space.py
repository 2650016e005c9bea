"""Finite filtered probability spaces as event trees, in exact rational arithmetic.

A tree with one root at time 0 and leaves at time n encodes a filtration
(F_0, ..., F_n): the nodes at depth k are the atoms of F_k, and each leaf is an
elementary outcome.  Adapted processes assign one rational vector per node,
strategies assign the holding for the next step to the node where it is
decided, so measurability and predictability are structural rather than
checked.  Everything in this module is exact; no floats enter or leave.
Its section on reduced int pairs is the one home of the exact layers' pair
arithmetic, and the only place in the package that takes an lcm.  The
martingale calculus (conditional expectations, martingale closure, the Doob
decomposition) is in `martingale`, which no command loads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

RationalLike = Union[int, Fraction, str]
Vector = tuple[Fraction, ...]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not an exact rational: {value!r}")
    return Fraction(value)


def as_vector(value, dim: int) -> Vector:
    """Coerce a scalar (dim 1) or a sequence of rationals to a length-dim tuple."""
    if isinstance(value, (int, Fraction, str)):
        if dim != 1:
            raise ValueError(f"scalar given where a vector of length {dim} is needed")
        return (as_fraction(value),)
    vec = tuple(as_fraction(x) for x in value)
    if len(vec) != dim:
        raise ValueError(f"vector of length {len(vec)} given, expected {dim}")
    return vec


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


class Node:
    __slots__ = ("id", "time", "parent", "children")

    def __init__(self, id: int, time: int, parent: Optional[int],
                 children: tuple[int, ...]):
        self.id = id
        self.time = time
        self.parent = parent
        self.children = children


class EventTree:
    """Rooted tree with time layers; node ids are dense integers in BFS order."""

    def __init__(self, horizon: int, asset_dim: int, parents: Sequence[Optional[int]],
                 times: Sequence[int]):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if asset_dim < 1:
            raise ValueError("asset_dim must be >= 1")
        if len(parents) != len(times):
            raise ValueError("parents and times must have equal length")
        n_nodes = len(parents)
        children: list[list[int]] = [[] for _ in range(n_nodes)]
        for i, p in enumerate(parents):
            if p is None:
                continue
            if not (0 <= p < n_nodes):
                raise ValueError(f"node {i}: parent {p} out of range")
            children[p].append(i)
        self.horizon = horizon
        self.asset_dim = asset_dim
        self.nodes: tuple[Node, ...] = tuple(
            Node(i, times[i], parents[i], tuple(children[i])) for i in range(n_nodes)
        )
        self._validate()
        levels: list[list[int]] = [[] for _ in range(horizon + 1)]
        for v in self.nodes:
            levels[v.time].append(v.id)
        self._levels: tuple[tuple[int, ...], ...] = tuple(map(tuple, levels))

    def _validate(self) -> None:
        roots = [v for v in self.nodes if v.parent is None]
        if len(roots) != 1 or roots[0].time != 0 or roots[0].id != 0:
            raise ValueError("need exactly one root, with id 0 at time 0")
        last_time = 0
        for v in self.nodes:
            if v.time < last_time:
                raise ValueError("node ids must be breadth-first (nondecreasing time)")
            last_time = v.time
            if v.parent is not None and self.nodes[v.parent].time != v.time - 1:
                raise ValueError(f"node {v.id}: parent must live one step earlier")
            if v.time > self.horizon:
                raise ValueError(f"node {v.id}: time beyond horizon")
            if v.time < self.horizon and not v.children:
                raise ValueError(f"node {v.id}: interior node without children")
            if v.time == self.horizon and v.children:
                raise ValueError(f"node {v.id}: leaf with children")

    # -- structure queries ----------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    @property
    def leaves(self) -> tuple[int, ...]:
        return self._levels[self.horizon]

    def nodes_at(self, time: int) -> tuple[int, ...]:
        return self._levels[time]

    def non_leaf_nodes(self) -> Iterable[Node]:
        for v in self.nodes:
            if v.children:
                yield v

    def time_of(self, node: int) -> int:
        return self.nodes[node].time

    def parent_of(self, node: int) -> Optional[int]:
        return self.nodes[node].parent

    def children_of(self, node: int) -> tuple[int, ...]:
        return self.nodes[node].children

    def leaves_below(self, node: int) -> tuple[int, ...]:
        """The leaves of `node`'s subtree, each child's in children order,
        one layer at a time: every leaf sits at the horizon."""
        below = [node]
        while self.nodes[below[0]].children:
            below = [c for v in below for c in self.nodes[v].children]
        return tuple(below)

    def ancestor_at(self, node: int, time: int) -> int:
        """The unique time-`time` node on the path from the root to `node`."""
        v = self.nodes[node]
        if time > v.time:
            raise ValueError("ancestor time beyond the node's own time")
        while v.time > time:
            v = self.nodes[v.parent]
        return v.id

    def path(self, node: int) -> list[int]:
        """Node ids from the root down to `node`, in one parent walk: entry k
        is the time-k ancestor, the last entry `node` itself."""
        v = self.nodes[node]
        out = [self.root] * (v.time + 1)
        while v.parent is not None:
            out[v.time] = v.id
            v = self.nodes[v.parent]
        return out

    def is_ancestor(self, anc: int, node: int) -> bool:
        a, v = self.nodes[anc], self.nodes[node]
        return a.time <= v.time and self.ancestor_at(node, a.time) == anc

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_branching(cls, branching: Sequence[Sequence[int]], asset_dim: int = 1
                       ) -> "EventTree":
        """Build from per-layer child counts: branching[k][i] is the number of
        children of the i-th node at time k (nodes in BFS order)."""
        horizon = len(branching)
        parents: list[Optional[int]] = [None]
        times = [0]
        layer = [0]
        for k, counts in enumerate(branching):
            if len(counts) != len(layer):
                raise ValueError(f"layer {k}: expected {len(layer)} child counts")
            nxt = []
            for node, c in zip(layer, counts):
                if c < 1:
                    raise ValueError("every interior node needs at least one child")
                for _ in range(c):
                    parents.append(node)
                    times.append(k + 1)
                    nxt.append(len(parents) - 1)
            layer = nxt
        return cls(horizon, asset_dim, parents, times)

    @classmethod
    def uniform(cls, horizon: int, branches: int, asset_dim: int = 1) -> "EventTree":
        """Tree where every interior node has the same number of children."""
        branching = []
        width = 1
        for _ in range(horizon):
            branching.append([branches] * width)
            width *= branches
        return cls.from_branching(branching, asset_dim)

    @classmethod
    def singleton_path(cls, horizon: int, asset_dim: int = 1) -> "EventTree":
        return cls.from_branching([[1]] * horizon, asset_dim)


class ProbMeasure:
    """Leaf masses summing to one exactly.  Zero-mass leaves are allowed (needed
    for restrictions of dominating measures); operations that condition require
    positive mass on the conditioning atom."""

    def __init__(self, leaf_mass: Mapping[int, RationalLike]):
        self.leaf_mass: dict[int, Fraction] = {
            int(k): as_fraction(v) for k, v in leaf_mass.items()
        }
        if any(m.numerator < 0 for m in self.leaf_mass.values()):
            raise ValueError("negative leaf mass")
        if _sum_pairs([m.as_integer_ratio()
                       for m in self.leaf_mass.values()]) != (1, 1):
            raise ValueError("leaf masses must sum to exactly 1")
        self._pairs: Optional[tuple[EventTree, list[Pair]]] = None

    @property
    def strictly_positive(self) -> bool:
        return all(m.numerator > 0 for m in self.leaf_mass.values())

    def mass(self, leaf: int) -> Fraction:
        return self.leaf_mass[leaf]

    def node_masses(self, tree: EventTree) -> dict[int, Fraction]:
        """Mass of every atom, as Fractions of `_atom_pairs`."""
        return {v: Fraction(n, d)
                for v, (n, d) in enumerate(self._atom_pairs(tree))}

    def _atom_pairs(self, tree: EventTree) -> list[Pair]:
        """`_mass_pairs` on `tree`, read-only, kept for the last tree."""
        if self._pairs is None or self._pairs[0] is not tree:
            self._pairs = (tree, _mass_pairs(tree, self.leaf_mass))
        return self._pairs[1]

    def validate_for(self, tree: EventTree) -> None:
        if set(self.leaf_mass) != set(tree.leaves):
            raise ValueError("measure must assign a mass to exactly the leaves")


class AdaptedProcess:
    """One rational vector per node; F_k-measurability is one value per atom."""

    def __init__(self, values: Mapping[int, object], dim: int = 1):
        self.dim = dim
        self.values: dict[int, Vector] = {
            int(k): as_vector(v, dim) for k, v in values.items()
        }

    def __getitem__(self, node: int) -> Vector:
        return self.values[node]

    def at(self, node: int) -> Fraction:
        """Scalar value; only for dim-1 processes."""
        if self.dim != 1:
            raise ValueError("scalar access on a vector-valued process")
        return self.values[node][0]

    def validate_for(self, tree: EventTree) -> None:
        if set(self.values) != {v.id for v in tree.nodes}:
            raise ValueError("process must assign a value to every node")

    def divided_by(self, node: int) -> "AdaptedProcess":
        """The scalar process over its value at `node`, or the process
        itself when that value is 1."""
        scale = self.at(node)
        if scale == 1:
            return self
        sn, sd = scale.numerator, scale.denominator
        return AdaptedProcess.of_vectors(
            {v: (Fraction(x.numerator * sd, x.denominator * sn),)
             for v, (x,) in self.values.items()}, 1)

    @classmethod
    def of_scalars(cls, values: Mapping[int, RationalLike]) -> "AdaptedProcess":
        return cls(values, dim=1)

    @classmethod
    def of_vectors(cls, values: dict[int, Vector], dim: int) -> "AdaptedProcess":
        """Take `values` as they are: int node ids to length-`dim` tuples of
        Fractions, already checked by the caller, so nothing is coerced."""
        proc = cls.__new__(cls)
        proc.dim, proc.values = dim, values
        return proc

    @classmethod
    def constant(cls, tree: EventTree, value, dim: int = 1) -> "AdaptedProcess":
        vec = as_vector(value, dim)
        return cls({v.id: vec for v in tree.nodes}, dim)


class Strategy:
    """Predictable holdings: the vector held over step k+1 sits on the time-k
    node where it is decided, so each non-leaf node carries one value."""

    def __init__(self, steps: Mapping[int, object], dim: int = 1):
        self.dim = dim
        self.steps: dict[int, Vector] = {
            int(k): as_vector(v, dim) for k, v in steps.items()
        }

    def __getitem__(self, node: int) -> Vector:
        return self.steps[node]

    def at(self, node: int) -> Fraction:
        if self.dim != 1:
            raise ValueError("scalar access on a vector-valued strategy")
        return self.steps[node][0]

    def validate_for(self, tree: EventTree) -> None:
        want = {v.id for v in tree.nodes if v.children}
        if set(self.steps) != want:
            raise ValueError("strategy must assign a value to every non-leaf node")

    @classmethod
    def of_scalars(cls, steps: Mapping[int, RationalLike]) -> "Strategy":
        return cls(steps, dim=1)

    @classmethod
    def of_vectors(cls, steps: dict[int, Vector], dim: int) -> "Strategy":
        """Take `steps` as they are, like `AdaptedProcess.of_vectors`."""
        strat = cls.__new__(cls)
        strat.dim, strat.steps = dim, steps
        return strat

    @classmethod
    def constant(cls, tree: EventTree, value, dim: Optional[int] = None) -> "Strategy":
        d = tree.asset_dim if dim is None else dim
        vec = as_vector(value, d)
        return cls({v.id: vec for v in tree.nodes if v.children}, d)


class StoppingTime:
    """An antichain of nodes; a path stops at its first node in the antichain
    and otherwise never (the value infinity, encoded as None).

    Localizing sequences are unnecessary here: in finite time the deterministic
    horizon localizes everything, so this type only encodes death and hitting
    times.
    """

    def __init__(self, tree: EventTree, stop_at: Iterable[int]):
        self.tree = tree
        self.stop_at = frozenset(int(v) for v in stop_at)
        # one pass in id order (parents first) carries each path's stop down
        # to its leaf; a path that meets the stop set twice is no antichain
        stopped: list[Optional[int]] = [None] * len(tree.nodes)
        for v in tree.nodes:
            above = None if v.parent is None else stopped[v.parent]
            if v.id in self.stop_at:
                if above is not None:
                    raise ValueError("stop set must be an antichain")
                above = v.id
            stopped[v.id] = above
        self._stopped_node: dict[int, Optional[int]] = {
            leaf: stopped[leaf] for leaf in tree.leaves}

    def stopped_node(self, leaf: int) -> Optional[int]:
        """The node where the path through `leaf` stops, or None for infinity."""
        return self._stopped_node[leaf]

    def value(self, leaf: int) -> Optional[int]:
        """The stopping time on the path through `leaf` (None = infinity)."""
        v = self._stopped_node[leaf]
        return None if v is None else self.tree.time_of(v)

    @classmethod
    def hitting_time(cls, tree: EventTree, X: AdaptedProcess, level: Fraction,
                     component: int = 0) -> "StoppingTime":
        """First time the given component of X is >= level."""
        stop: list[int] = []
        # in id order every parent comes first, so a node is skipped exactly
        # when it is a stop or lies below one
        done = [False] * len(tree.nodes)
        for v in tree.nodes:
            if v.parent is not None and done[v.parent]:
                done[v.id] = True
            elif X[v.id][component] >= level:
                stop.append(v.id)
                done[v.id] = True
        return cls(tree, stop)


# -- operations ----------------------------------------------------------------


def stochastic_integral(tree: EventTree, S: AdaptedProcess, H: Strategy
                        ) -> AdaptedProcess:
    """The gain process (H.S): zero at the root, and along each edge the
    increment H_parent . (S_child - S_parent)."""
    if S.dim != H.dim:
        raise ValueError(f"dimension mismatch: S has {S.dim}, H has {H.dim}")
    out: dict[int, Fraction] = {tree.root: Fraction(0)}
    for v in tree.nodes:
        if v.parent is None:
            continue
        h = H[v.parent]
        ds = tuple(a - b for a, b in zip(S[v.id], S[v.parent]))
        out[v.id] = out[v.parent] + dot(h, ds)
    return AdaptedProcess.of_scalars(out)


# -- reduced int pairs -----------------------------------------------------------
# A lift puts a few pairs over the lcm of their own denominators, never over
# one of the whole tree, and only this section takes an lcm.

Pair = tuple[int, int]      # reduced, with a positive denominator
ZERO_PAIR: Pair = (0, 1)


def _process_pairs(tree: EventTree, X: AdaptedProcess, k: int = 0
                   ) -> list[Pair]:
    """Component k of X at every node, as reduced pairs by id."""
    values = X.values
    return [values[v.id][k].as_integer_ratio() for v in tree.nodes]


def _lift_pairs(pairs: Sequence[Pair]) -> tuple[int, list[int]]:
    """(d, n): the pairs as ints n over d, the lcm of their own
    denominators, which need not be reduced.  One pair is its own lift."""
    if len(pairs) == 1:
        (n, d), = pairs
        return d, [n]
    d = math.lcm(*[q for _, q in pairs])
    return d, [n * (d // q) for n, q in pairs]


def _sum_pairs(pairs: Sequence[Pair]) -> Pair:
    """The reduced sum of reduced pairs.  Two add over their lcm and reduce
    by a gcd with their denominators' gcd alone (Knuth, TAOCP 4.5.1).  More
    add as a product tree (Bernstein, "Fast multiplication and its
    applications", 2008): each run of 16 lifted and reduced by one gcd, then
    the runs' sums likewise, so no lcm spans more than 16 terms."""
    size = len(pairs)
    if size > 2:
        if size > 16:
            return _sum_pairs([_sum_pairs(pairs[i:i + 16])
                               for i in range(0, size, 16)])
        d, nums = _lift_pairs(pairs)
        t = sum(nums)
        g = math.gcd(t, d)
        return (t, d) if g == 1 else (t // g, d // g)
    if size == 2:
        (num, den), (n, q) = pairs
        g = math.gcd(den, q)
        if g == 1:
            return num * q + n * den, den * q
        s = den // g
        t = num * (q // g) + n * s
        g = math.gcd(t, g)
        return t // g, s * (q // g)
    return pairs[0] if size else ZERO_PAIR


def _increments(s: Sequence[Pair], node: int, children: Sequence[int]
                ) -> tuple[int, list[int]]:
    """(L, e): the children's increments S_c - S_node as ints e_c over L,
    the lcm of their price pairs' denominators, grown one at a time."""
    a, b = s[node]
    scale = b
    for c in children:
        q = s[c][1]
        if scale % q:
            scale = math.lcm(scale, q)
    if scale != b:
        a *= scale // b
    return scale, [n - a if q == scale else n * (scale // q) - a
                   for n, q in [s[c] for c in children]]


def _mass_pairs(tree: EventTree, leaf_mass: Mapping[int, Fraction]
                ) -> list[Pair]:
    """Reduced pair of every atom's mass, by id, from the mass of every
    leaf: each atom sums its children's pairs, and a one-child atom copies
    its child's.  Every table of atom masses reads it."""
    nodes, leaves = tree.nodes, tree.leaves
    m: list[Pair] = [ZERO_PAIR] * len(nodes)
    for leaf in leaves:
        m[leaf] = leaf_mass[leaf].as_integer_ratio()
    # the leaves are the last layer, so every node before them has children
    for v in reversed(nodes[:len(nodes) - len(leaves)]):
        kids = v.children
        m[v.id] = (m[kids[0]] if len(kids) == 1
                   else _sum_pairs([m[c] for c in kids]))
    return m


def _compensator(tree: EventTree, P: ProbMeasure, Z: AdaptedProcess
                 ) -> dict[int, Fraction]:
    """The steps Z_v - E[Z_next | v] of Z's compensator, by non-leaf node id
    in id order: each atom lifts its children's m_c z_c and builds one
    Fraction.  P must charge every atom."""
    m = P._atom_pairs(tree)
    z = _process_pairs(tree, Z)
    dA: dict[int, Fraction] = {}
    for v in tree.nodes[:len(tree.nodes) - len(tree.leaves)]:   # has children
        d, x = _lift_pairs([(m[c][0] * z[c][0], m[c][1] * z[c][1])
                            for c in v.children])
        total = sum(x)
        # Z_v - total / (d m_v), with m_v = a / b
        (a, b), (zn, zd) = m[v.id], z[v.id]
        dA[v.id] = Fraction(zn * d * a - total * b * zd, zd * d * a)
    return dA
