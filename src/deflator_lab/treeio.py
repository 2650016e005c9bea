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

Written text is canonical: byte for byte what `json.dumps(obj, indent=2,
sort_keys=True) + "\n"` gives for the file's JSON object, that is a 2-space
indent, keys sorted as strings (so "10" comes before "2"), non-ASCII
characters escaped and a trailing newline.  `dumps` and `save_points` write
that text from templates, with no intermediate dict and no `json` encoder;
`from_obj` parses each distinct rational string once per call.  A writer
refuses what the reader would: an int too long for `str` is a TreeFileError.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode
from typing import Iterable, Iterator, Mapping, Optional

from .fileio import (TreeFileError, node_key, parse_object, read_text,
                     write_atomic)
from .filtered_space import AdaptedProcess, EventTree, ProbMeasure, Strategy

_RATIONAL_RE = re.compile(r"-?\d+(/0*[1-9]\d*)?\Z")   # q > 0


def parse_rational(text: object, where: str = "value") -> Fraction:
    """Parse a canonical rational string; reject floats and non-reduced forms."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise TreeFileError(f"{where}: expected a rational string 'p/q', got {text!r}")
    num, _, den = text.partition("/")
    try:
        value = Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ValueError as exc:       # more digits than int() converts
        raise TreeFileError(f"{where}: rational string of {len(text)} "
                            f"characters is too long to parse") from exc
    if str(value) != text:
        raise TreeFileError(f"{where}: non-canonical rational {text!r}")
    return value


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


def _rational(memo: dict, text: object, where: str) -> Fraction:
    """`parse_rational` once per distinct string: `memo` maps each string
    already accepted in this parse to its value.  Only accepted strings
    enter it, so the first faulty entry is still the one named."""
    try:
        return memo[text]
    except (KeyError, TypeError):           # not seen yet, or not hashable
        value = memo[text] = parse_rational(text, where)
        return value


def from_obj(obj: dict) -> TreeFile:
    for key in ("horizon", "asset_dim", "nodes"):
        if key not in obj:
            raise TreeFileError(f"missing field {key!r}")
    horizon = _integer(obj["horizon"], "horizon")
    asset_dim = _integer(obj["asset_dim"], "asset_dim")
    records = obj["nodes"]
    if not isinstance(records, list) or not records:
        raise TreeFileError("nodes: expected a non-empty list")
    parents: list[Optional[int]] = [None] * len(records)
    times = [0] * len(records)
    seen = set()
    for k, rec in enumerate(records):
        if not isinstance(rec, dict) or "id" not in rec or "time" not in rec:
            raise TreeFileError(f"nodes: bad record {rec!r}")
        i = _integer(rec["id"], "id", k)
        times_i = _integer(rec["time"], "time", k)
        parent = rec.get("parent")
        if i in seen or not 0 <= i < len(records):
            raise TreeFileError(f"nodes: id {i} duplicated or out of range")
        seen.add(i)
        times[i] = times_i
        parents[i] = None if parent is None else _integer(parent, "parent", k)
    try:
        tree = EventTree(horizon, asset_dim, parents, times)
    except ValueError as exc:
        raise TreeFileError(f"nodes: {exc}") from exc

    tf = TreeFile(tree)
    memo: dict[str, Fraction] = {}
    if "P" in obj:
        masses = {}
        for key, text in _table(obj["P"], "P").items():
            leaf = node_key(key, "P")
            masses[leaf] = _rational(memo, text, f"P[{key}]")
        try:
            P = ProbMeasure(masses)
            P.validate_for(tree)
        except ValueError as exc:
            raise TreeFileError(f"P: {exc}") from exc
        tf.P = P
    for section, store, kind in (("processes", tf.processes, AdaptedProcess),
                                 ("strategies", tf.strategies, Strategy)):
        for name, table in _table(obj.get(section, {}), section).items():
            where = f"{section}[{name}]"
            values = {}
            for key, vec in _table(table, where).items():
                node = node_key(key, where)
                at = f"{where}[{key}]"
                if not isinstance(vec, list):
                    raise TreeFileError(f"{at}: expected a list")
                values[node] = tuple([_rational(memo, x, at) for x in vec])
            dims = {len(v) for v in values.values()}
            if len(dims) != 1:
                raise TreeFileError(f"{where}: inconsistent vector lengths")
            store[name] = kind.of_vectors(values, dims.pop())
    return tf


# -- writing ------------------------------------------------------------------
#
# Each writer lays its text out exactly as json.dumps(indent=2,
# sort_keys=True) would: members sorted by their key strings, ",\n" between
# them, and "{}" or "[]" for an empty object or array.


def _object(members: Mapping[str, str], indent: str) -> str:
    """A JSON object whose values are already encoded, at this indent."""
    if not members:
        return "{}"
    inner = ",\n" + indent + "  "
    return ("{" + inner[1:] + inner.join(
        f"{_encode(key)}: {members[key]}" for key in sorted(members))
        + "\n" + indent + "}")


def _array(items: list, indent: str) -> str:
    """A JSON array of already encoded items, at this indent."""
    if not items:
        return "[]"
    inner = ",\n" + indent + "  "
    return "[" + inner[1:] + inner.join(items) + "\n" + indent + "]"


_NODE = '{\n      "id": %d,\n      "parent": %s,\n      "time": %d\n    }'
_SCALAR = '[\n        "%s"\n      ]'     # a length-1 vector, at its indent


def _vectors(values: Mapping[int, tuple]) -> str:
    """A node-keyed table of vectors, as a process or strategy entry."""
    return _object({str(node): _SCALAR % vec[0] if len(vec) == 1
                    else _array([f'"{x}"' for x in vec], "      ")
                    for node, vec in values.items()}, "    ")


def _too_long(named: Mapping[str, tuple]) -> TreeFileError:
    """The reader's refusal of the first value of `named`, {field: vector},
    with more digits than Python converts to text.  An int of b bits has at
    most floor(b log10 2) + 1 digits, and 0.30103 > log10 2, so only the
    values that may pass the limit are converted to find the field."""
    limit = sys.get_int_max_str_digits()
    for where, vec in named.items():
        try:
            [str(x) for x in vec
             if max(map(int.bit_length, x.as_integer_ratio())) * 30103
             // 100000 >= limit]
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
            fields["P"] = _object({str(leaf): f'"{m}"'
                                   for leaf, m in tf.P.leaf_mass.items()}, "  ")
        if tf.processes:
            fields["processes"] = _object(
                {name: _vectors(proc.values)
                 for name, proc in tf.processes.items()}, "  ")
        if tf.strategies:
            fields["strategies"] = _object(
                {name: _vectors(strat.steps)
                 for name, strat in tf.strategies.items()}, "  ")
    except ValueError as exc:       # an int longer than str() converts
        named = {} if tf.P is None else {
            f"P[{leaf}]": (m,) for leaf, m in tf.P.leaf_mass.items()}
        named.update((f"processes[{name}][{node}]", vec)
                     for name, proc in tf.processes.items()
                     for node, vec in proc.values.items())
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
                raise _too_long({where: (Fraction(n, d),)}) from exc
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


def loads(text: str) -> TreeFile:
    return from_obj(parse_object(text))


def load(path: str) -> TreeFile:
    return loads(read_text(path))


def save(tf: TreeFile, path: str) -> None:
    write_atomic(path, dumps(tf))
