"""Finite filtered probability spaces as event trees, in exact rational arithmetic.

A tree with one root at time 0 and leaves at time n encodes a filtration
(F_0, ..., F_n): the nodes at depth k are the atoms of F_k, and each leaf is an
elementary outcome.  Adapted processes assign one rational vector per node,
strategies assign the holding for the next step to the node where it is
decided, so measurability and predictability are structural rather than
checked.  Everything in this module is exact; no floats enter or leave.
Measures, processes and strategies keep every value as a reduced int pair,
the form the exact layers compute on; their Fraction views (`leaf_mass`,
`values`, `steps`) are read-only and built on first access.  The section on
reduced int pairs is the one home of the exact layers' pair arithmetic, and
the only place in the package that takes an lcm.  The martingale calculus
(conditional expectations, martingale closure, the Doob decomposition) is
in `martingale`, which no command loads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
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
        self.nodes: tuple[Node, ...] = tuple(map(
            Node, range(n_nodes), times, parents, map(tuple, children)))
        self._validate()
        levels: list[list[int]] = [[] for _ in range(horizon + 1)]
        for i, t in enumerate(times):
            levels[t].append(i)
        self._levels: tuple[tuple[int, ...], ...] = tuple(map(tuple, levels))

    def _validate(self) -> None:
        nodes, horizon = self.nodes, self.horizon
        roots = [v for v in nodes if v.parent is None]
        if len(roots) != 1 or roots[0].time != 0 or roots[0].id != 0:
            raise ValueError("need exactly one root, with id 0 at time 0")
        last_time = 0
        for v in nodes:
            time = v.time
            if time < last_time:
                raise ValueError("node ids must be breadth-first (nondecreasing time)")
            last_time = time
            if v.parent is not None and nodes[v.parent].time != time - 1:
                raise ValueError(f"node {v.id}: parent must live one step earlier")
            if time > horizon:
                raise ValueError(f"node {v.id}: time beyond horizon")
            if time < horizon and not v.children:
                raise ValueError(f"node {v.id}: interior node without children")
            if time == horizon and v.children:
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
    """Leaf masses summing to one exactly, kept as reduced int pairs by leaf
    (given so with `_pairs`); `leaf_mass` is their read-only Fraction view,
    built on first access.  Zero-mass leaves are allowed (needed for
    restrictions of dominating measures); operations that condition require
    positive mass on the conditioning atom."""

    def __init__(self, leaf_mass: Mapping[int, RationalLike], *,
                 _pairs: bool = False):
        self._leaf: dict[int, Pair] = leaf_mass if _pairs else {
            int(k): as_fraction(v).as_integer_ratio() for k, v in leaf_mass.items()}
        if min(self._leaf.values(), default=ZERO_PAIR)[0] < 0:
            raise ValueError("negative leaf mass")
        if _sum_pairs(list(self._leaf.values())) != (1, 1):
            raise ValueError("leaf masses must sum to exactly 1")
        self._view: Optional[Mapping[int, Fraction]] = None
        self._pairs: Optional[tuple[EventTree, list[Pair]]] = None

    @property
    def leaf_mass(self) -> Mapping[int, Fraction]:
        if self._view is None:
            self._view = MappingProxyType(
                {k: Fraction(n, d) for k, (n, d) in self._leaf.items()})
        return self._view

    @property
    def strictly_positive(self) -> bool:
        return min(self._leaf.values(), default=(1, 1))[0] > 0

    def mass(self, leaf: int) -> Fraction:
        return Fraction(*self._leaf[leaf])

    def node_masses(self, tree: EventTree) -> dict[int, Fraction]:
        """Mass of every atom, as Fractions of `_atom_pairs`."""
        return {v: Fraction(n, d)
                for v, (n, d) in enumerate(self._atom_pairs(tree))}

    def _atom_pairs(self, tree: EventTree) -> list[Pair]:
        """`_mass_pairs` on `tree`, read-only, kept for the last tree."""
        if self._pairs is None or self._pairs[0] is not tree:
            self._pairs = (tree, _mass_pairs(tree, self._leaf))
        return self._pairs[1]

    def validate_for(self, tree: EventTree) -> None:
        if set(self._leaf) != set(tree.leaves):
            raise ValueError("measure must assign a mass to exactly the leaves")


class _NodeVectors:
    """One rational vector per node, kept as reduced int pairs by node id
    (given so with `_pairs`, and taken as they are); the Fraction view (a
    process's `values`, a strategy's `steps`) is read-only and built on
    first access."""

    _kind = "process"

    def __init__(self, table: Mapping[int, object], dim: int = 1, *,
                 _pairs: bool = False):
        self.dim, self._view = dim, None
        self._pairs: dict[int, tuple[Pair, ...]] = table if _pairs else {
            int(k): tuple([x.as_integer_ratio() for x in as_vector(v, dim)])
            for k, v in table.items()}

    def _fractions(self) -> Mapping[int, Vector]:
        if self._view is None:
            self._view = MappingProxyType(
                {v: tuple([Fraction(n, d) for n, d in vec])
                 for v, vec in self._pairs.items()})
        return self._view

    def __getitem__(self, node: int) -> Vector:
        return self._fractions()[node]

    def at(self, node: int) -> Fraction:
        """Scalar value; only for dim-1 tables."""
        if self.dim != 1:
            raise ValueError(f"scalar access on a vector-valued {self._kind}")
        return Fraction(*self._pairs[node][0])

    @classmethod
    def of_scalars(cls, table: Mapping[int, RationalLike]):
        return cls(table, dim=1)


class AdaptedProcess(_NodeVectors):
    """One rational vector per node; F_k-measurability is one value per atom."""

    values = property(_NodeVectors._fractions)

    def validate_for(self, tree: EventTree) -> None:
        if set(self._pairs) != set(range(len(tree.nodes))):
            raise ValueError("process must assign a value to every node")

    def divided_by(self, node: int) -> "AdaptedProcess":
        """The scalar process over its value at `node`, or the process
        itself when that value is 1."""
        scale = self.at(node)
        if scale == 1:
            return self
        inverse = (1 / scale).as_integer_ratio()
        return AdaptedProcess({v: (_product(x, inverse),)
                               for v, (x,) in self._pairs.items()}, 1, _pairs=True)

    @classmethod
    def constant(cls, tree: EventTree, value, dim: int = 1) -> "AdaptedProcess":
        vec = as_vector(value, dim)
        return cls({v.id: vec for v in tree.nodes}, dim)


class Strategy(_NodeVectors):
    """Predictable holdings: the vector held over step k+1 sits on the time-k
    node where it is decided, so each non-leaf node carries one value."""

    _kind = "strategy"
    steps = property(_NodeVectors._fractions)

    def validate_for(self, tree: EventTree) -> None:
        # the leaves are the last ids, so the non-leaf nodes are the others
        if set(self._pairs) != set(range(len(tree.nodes) - len(tree.leaves))):
            raise ValueError("strategy must assign a value to every non-leaf node")

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
    pairs = X._pairs
    return [pairs[v][k] for v in range(len(tree.nodes))]


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


def _product(x: Pair, y: Pair) -> Pair:
    """The reduced product of two reduced pairs, by two cross gcds as
    Fraction.__mul__ reduces."""
    (a, b), (c, d) = x, y
    g, h = math.gcd(a, d), math.gcd(c, b)
    return a // g * (c // h), b // h * (d // g)


def _mass_pairs(tree: EventTree, leaf_mass: Mapping[int, Pair]) -> list[Pair]:
    """Reduced pair of every atom's mass, by id, from the pair of every
    leaf: each atom sums its children's pairs, and a one-child atom copies
    its child's.  Every table of atom masses reads it."""
    nodes, leaves = tree.nodes, tree.leaves
    m: list[Pair] = [ZERO_PAIR] * len(nodes)
    for leaf in leaves:
        m[leaf] = leaf_mass[leaf]
    # the leaves are the last layer, so every node before them has children
    for v in reversed(nodes[:len(nodes) - len(leaves)]):
        kids = v.children
        m[v.id] = (m[kids[0]] if len(kids) == 1
                   else _sum_pairs([m[c] for c in kids]))
    return m


def _compensator(tree: EventTree, P: ProbMeasure, Z: AdaptedProcess
                 ) -> dict[int, Pair]:
    """The steps Z_v - E[Z_next | v] of Z's compensator, as reduced pairs by
    non-leaf node id in id order: each atom lifts its children's m_c z_c
    and reduces by one gcd.  P must charge every atom."""
    m = P._atom_pairs(tree)
    z = _process_pairs(tree, Z)
    dA: dict[int, Pair] = {}
    for v in tree.nodes[:len(tree.nodes) - len(tree.leaves)]:   # has children
        d, x = _lift_pairs([(m[c][0] * z[c][0], m[c][1] * z[c][1])
                            for c in v.children])
        total = sum(x)
        # Z_v - total / (d m_v), with m_v = a / b, over a positive denominator
        (a, b), (zn, zd) = m[v.id], z[v.id]
        num, den = zn * d * a - total * b * zd, zd * d * a
        g = math.gcd(num, den)
        dA[v.id] = (num // g, den // g)
    return dA
