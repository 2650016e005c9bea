"""Reading and writing event-tree files.

The on-disk form is JSON with every rational serialized as a canonical
fraction string "p/q" (reduced, positive denominator) or a plain integer
string.  Measure, process and strategy entries that are not such strings are
rejected outright: silently accepting JSON floats would smuggle rounding into
a module whose whole point is exactness.  Node keys of `P`, processes and
strategies are canonical ASCII decimals: "0" or digits without a leading
zero, so no two keys name one node.  `load` and `loads` parse through
`fileio.parse_object`, the reader of every input file, which refuses a name
repeated within an object.

The reader builds the reduced int pair (numerator, denominator > 0), the one
stored form of a rational, straight from each distinct string, parsed once
per file: `P` holds a pair per leaf and each process or strategy a tuple of
pairs per node, and their Fraction views are built only where a caller asks.
Node records, keys and entries are checked a table at a time; only a table
with a fault is read again entry by entry, to name the first faulty entry.

Written text is canonical: byte for byte what `json.dumps(obj, indent=2,
sort_keys=True) + "\n"` gives for the file's JSON object, that is a 2-space
indent, keys sorted as strings (so "10" comes before "2"), non-ASCII
characters escaped and a trailing newline.  `dumps` and `save_points` write
that text from the pairs through templates, with no intermediate dict and
no `json` encoder.  A writer refuses what the reader would: an int too long
for `str` is a TreeFileError.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional

from .fileio import (TreeFileError, collector_paused, node_key, parse_object,
                     read_text, write_atomic)
from .filtered_space import (AdaptedProcess, EventTree, Pair, ProbMeasure,
                             Strategy)

_RATIONAL_RE = re.compile(r"-?\d+(/0*[1-9]\d*)?\Z")   # q > 0


def parse_rational(text: object, where: str = "value") -> Fraction:
    """Parse a canonical rational string; reject floats and non-reduced forms."""
    return Fraction(*_pair(text, where))


def _pair(text: object, where: Optional[str] = None) -> Optional[Pair]:
    """The reduced pair of a canonical rational string, `str` of its
    Fraction; else None, or with `where` the refusal naming that field."""
    n = None
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        try:
            n, d = int(num), int(den) if slash else 1
        except ValueError:
            pass
        else:
            if d > 0 and math.gcd(n, d) == 1 and text == (
                    f"{n}/{d}" if d != 1 else f"{n}"):
                return n, d
    if where is None:
        return None
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise TreeFileError(f"{where}: expected a rational string 'p/q', got {text!r}")
    if n is None:       # it matches the pattern, so int() refused its length
        raise TreeFileError(f"{where}: rational string of {len(text)} "
                            f"characters is too long to parse")
    raise TreeFileError(f"{where}: non-canonical rational {text!r}")


class TreeFile:
    """A tree plus its named measure, processes and strategies, as stored on disk."""

    def __init__(self, tree: EventTree, P: Optional[ProbMeasure] = None,
                 processes: Optional[dict[str, AdaptedProcess]] = None,
                 strategies: Optional[dict[str, Strategy]] = None):
        self.tree = tree
        self.P = P
        self.processes = {} if processes is None else processes
        self.strategies = {} if strategies is None else strategies


def _integer(value: object, field: str, node: Optional[int] = None) -> int:
    """A JSON integer field, of the node record at position `node` if given:
    bools and floats are rejected, never truncated."""
    if type(value) is not int:
        where = field if node is None else f"nodes[{node}].{field}"
        raise TreeFileError(f"{where}: expected an integer, got {value!r}")
    return value


def _table(value: object, where: str) -> dict:
    if not isinstance(value, dict):
        raise TreeFileError(f"{where}: expected a JSON object, "
                            f"got {type(value).__name__}")
    return value


def _records(records: list) -> tuple[list, list]:
    """(parents, times) of the node records: one pass per field when they
    are dicts in id order with int fields, else record by record."""
    n = len(records)
    if set(map(type, records)) == {dict}:
        try:
            ids, times = [list(map(itemgetter(f), records)) for f in ("id", "time")]
            parents = list(map(dict.get, records, repeat("parent")))
            if (ids == list(range(n)) and set(map(type, ids + times)) == {int}
                    and set(map(type, parents)) <= {int, type(None)}):
                return parents, times
        except KeyError:
            pass
    parents, times = [None] * n, [0] * n
    seen = set()
    for k, rec in enumerate(records):
        if not isinstance(rec, dict) or "id" not in rec or "time" not in rec:
            raise TreeFileError(f"nodes: bad record {rec!r}")
        i = _integer(rec["id"], "id", k)
        times_i = _integer(rec["time"], "time", k)
        parent = rec.get("parent")
        if i in seen or not 0 <= i < n:
            raise TreeFileError(f"nodes: id {i} duplicated or out of range")
        seen.add(i)
        times[i] = times_i
        parents[i] = None if parent is None else _integer(parent, "parent", k)
    return parents, times


def _section(memo: dict, ids: dict, table: object, where: str,
             scalar: bool = False) -> tuple[dict, int]:
    """({node: vector of pairs}, dim) of a process or strategy table; with
    `scalar`, ({node: pair}, 1) of `P`.  Keys and values are checked in
    bulk: `ids` maps the canonical key of each node of the tree to it, and
    `memo` each string accepted in this parse to its pair, so each distinct
    string is parsed once.  On a fault the table is read again entry by
    entry, and the first faulty entry is named."""
    table = _table(table, where)
    keys, entries = list(table), list(table.values())
    try:
        nodes = list(map(ids.get, keys))
        if None in nodes:           # a key beyond the tree, or no node key
            nodes = list(map(int, keys))
            if list(map(str, nodes)) != keys or min(nodes) < 0:
                raise ValueError("not a node key")
        texts = (entries if scalar else list(chain.from_iterable(entries))
                 if all(map(isinstance, entries, repeat(list))) else None)
        new = list(set(texts).difference(memo))     # TypeError: unhashable
    except (TypeError, ValueError):
        _fault(table, where, scalar)
    parsed = list(map(_pair, new))
    if None in parsed:
        _fault(table, where, scalar)
    memo.update(zip(new, parsed))
    dims = {1} if scalar else set(map(len, entries))
    if len(dims) != 1:
        raise TreeFileError(f"{where}: inconsistent vector lengths")
    dim = dims.pop()
    pairs = map(memo.__getitem__, texts)
    if not scalar:      # the flat pairs, dim at a time
        pairs = zip(*[pairs] * dim) if dim else [()] * len(keys)
    return dict(zip(nodes, pairs)), dim


def _fault(table: dict, where: str, scalar: bool):
    """Raise the reader's refusal of the first faulty entry of `table`."""
    for key, vec in table.items():
        node_key(key, where)
        if not (scalar or isinstance(vec, list)):
            raise TreeFileError(f"{where}[{key}]: expected a list")
        for text in [vec] if scalar else vec:
            _pair(text, f"{where}[{key}]")
    raise AssertionError(f"{where}: no faulty entry")


def from_obj(obj: dict) -> TreeFile:
    for key in ("horizon", "asset_dim", "nodes"):
        if key not in obj:
            raise TreeFileError(f"missing field {key!r}")
    horizon = _integer(obj["horizon"], "horizon")
    asset_dim = _integer(obj["asset_dim"], "asset_dim")
    records = obj["nodes"]
    if not isinstance(records, list) or not records:
        raise TreeFileError("nodes: expected a non-empty list")
    parents, times = _records(records)
    try:
        tree = EventTree(horizon, asset_dim, parents, times)
    except ValueError as exc:
        raise TreeFileError(f"nodes: {exc}") from exc

    tf = TreeFile(tree)
    memo: dict[str, Pair] = {}
    ids = {str(i): i for i in range(len(records))}
    if "P" in obj:
        leaf_mass, _ = _section(memo, ids, obj["P"], "P", True)
        try:
            tf.P = ProbMeasure(leaf_mass, _pairs=True)
            tf.P.validate_for(tree)
        except ValueError as exc:
            raise TreeFileError(f"P: {exc}") from exc
    for section, store, kind in (("processes", tf.processes, AdaptedProcess),
                                 ("strategies", tf.strategies, Strategy)):
        for name, table in _table(obj.get(section, {}), section).items():
            values, dim = _section(memo, ids, table, f"{section}[{name}]")
            store[name] = kind(values, dim, _pairs=True)
    return tf


# -- writing ------------------------------------------------------------------
#
# Each writer lays its text out exactly as json.dumps(indent=2,
# sort_keys=True) would: members sorted by their key strings, ",\n" between
# them, and "{}" or "[]" for an empty object or array.


def _array(items: list, indent: str, brackets: str = "[]") -> str:
    """A JSON array of already encoded items at this indent, or with
    brackets "{}" an object of already encoded members.  The text is one
    join, so no copy of the items' text is made before it."""
    if not items:
        return brackets
    inner = ",\n" + indent + "  "
    parts = [inner] * (2 * len(items) + 1)
    parts[0], parts[1::2], parts[-1] = (brackets[0] + inner[1:], items,
                                        "\n" + indent + brackets[1])
    return "".join(parts)


def _object(members: Mapping[str, str], indent: str) -> str:
    """A JSON object whose values are already encoded, at this indent."""
    return _array([f"{_encode(key)}: {members[key]}" for key in sorted(members)],
                  indent, "{}")


_NODE = '{\n      "id": %d,\n      "parent": %s,\n      "time": %d\n    }'
# a member of a node-keyed table whose value is a length-1 vector; node keys
# need no escaping
_SCALAR = '"%d": [\n        "%d"\n      ]'
_SCALAR_PQ = '"%d": [\n        "%d/%d"\n      ]'


def _text(pair: Pair) -> str:
    """A reduced pair as `str` writes its Fraction."""
    return "%d" % pair[0] if pair[1] == 1 else "%d/%d" % pair


def _vectors(pairs: Mapping[int, tuple]) -> str:
    """A node-keyed table of pair vectors, as a process or strategy entry."""
    return _array([(_SCALAR % (v, vec[0][0]) if vec[0][1] == 1
                    else _SCALAR_PQ % (v, *vec[0])) if len(vec) == 1
                   else f'"{v}": ' + _array([f'"{_text(x)}"' for x in vec], "      ")
                   for v in sorted(pairs, key=str) for vec in [pairs[v]]],
                  "    ", "{}")


def _too_long(named: Mapping[str, tuple]) -> TreeFileError:
    """The reader's refusal of the first value of `named`, {field: vector
    of pairs}, with more digits than Python converts to text.  An int of b
    bits has at most floor(b log10 2) + 1 digits, and 0.30103 > log10 2, so
    only the values that may pass the limit are converted to find the
    field."""
    limit = sys.get_int_max_str_digits()
    for where, vec in named.items():
        try:
            [_text(x) for x in vec
             if max(map(int.bit_length, x)) * 30103 // 100000 >= limit]
        except ValueError:
            break
    else:
        where = "a value"
    return TreeFileError(f"{where}: cannot be written: a numerator or "
                         "denominator has more digits than Python converts "
                         "to text, so the reader would refuse it "
                         "(PYTHONINTMAXSTRDIGITS raises the limit)")


def dumps(tf: TreeFile) -> str:
    """The canonical text of a tree file (see the module docstring)."""
    tree = tf.tree
    fields = {
        "asset_dim": "%d" % tree.asset_dim,
        "horizon": "%d" % tree.horizon,
        "nodes": _array([_NODE % (v.id, "null" if v.parent is None
                                  else "%d" % v.parent, v.time)
                         for v in tree.nodes], "  "),
    }
    try:
        if tf.P is not None:
            leaf = tf.P._leaf
            fields["P"] = _array(['"%d": "%s"' % (v, _text(leaf[v]))
                                  for v in sorted(leaf, key=str)], "  ", "{}")
        if tf.processes:
            fields["processes"] = _object(
                {name: _vectors(proc._pairs)
                 for name, proc in tf.processes.items()}, "  ")
        if tf.strategies:
            fields["strategies"] = _object(
                {name: _vectors(strat._pairs)
                 for name, strat in tf.strategies.items()}, "  ")
    except ValueError as exc:       # an int longer than str() converts
        named = {} if tf.P is None else {
            f"P[{leaf}]": (m,) for leaf, m in tf.P._leaf.items()}
        named.update((f"processes[{name}][{node}]", vec)
                     for name, proc in tf.processes.items()
                     for node, vec in proc._pairs.items())
        raise _too_long(named) from exc
    return _object(fields, "") + "\n"


# one point record, its mass an integer or a reduced "p/q"
_POINT_INT = '{\n      "leaf": %d,\n      "mass": "%d",\n      "zeta": %s\n    }'
_POINT = '{\n      "leaf": %d,\n      "mass": "%d/%d",\n      "zeta": %s\n    }'


def save_points(records: Iterable[tuple[int, Optional[int], tuple[int, int]]],
                path: str) -> int:
    """Write a points file, {"points": [{"leaf", "mass", "zeta"}, ...]},
    from (leaf, zeta, mass) records in file order: by leaf, then death
    time, with zeta None ("inf") last.  Each mass is a reduced pair, written
    as `str` writes its Fraction; records are formatted and written 512 at
    a time, so no point table or whole text is held.  Returns the count."""
    count = 0

    def text() -> Iterator[str]:
        nonlocal count
        batch = ['{\n  "points": [']
        for leaf, zeta, (n, d) in records:
            z = '"inf"' if zeta is None else zeta
            try:
                item = _POINT_INT % (leaf, n, z) if d == 1 else _POINT % (leaf, n, d, z)
            except ValueError as exc:       # an int longer than str() converts
                where = f"points[leaf {leaf}, zeta {'inf' if zeta is None else zeta}]"
                raise _too_long({where: ((n, d),)}) from exc
            batch.append((",\n    " if count else "\n    ") + item)
            count += 1
            if len(batch) == 512:
                yield "".join(batch)
                batch = []
        batch.append("\n  ]\n}\n" if count else "]\n}\n")
        yield "".join(batch)

    write_atomic(path, text())
    return count


def canonical_dumps(obj: dict) -> str:
    """The canonical text of a small JSON document, through `json`."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _member_count(obj: dict) -> int:
    """The members of the top level, the node records, `P` and the process
    and strategy tables of a parsed tree file, for `parse_object`."""
    records, tables = obj["nodes"], [obj, obj.get("P")]
    for section in ("processes", "strategies"):
        group = obj.get(section)
        tables += [group, *group.values()] if type(group) is dict else []
    if set(map(type, records)) != {dict}:
        raise TypeError("not a list of node records")
    return sum(map(len, records)) + sum(len(t) for t in tables if type(t) is dict)


def loads(text: str) -> TreeFile:
    # the parse builds no reference cycle, so the collector is paused
    with collector_paused():
        return from_obj(parse_object(text, _member_count))


def load(path: str) -> TreeFile:
    return loads(read_text(path))


def save(tf: TreeFile, path: str) -> None:
    write_atomic(path, dumps(tf))
