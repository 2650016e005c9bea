"""The `json`-encoder path that `treeio` wrote tree and points files with
before its template writers, and a reader that parses every rational string
anew into a `Fraction`, entry by entry: the byte and field-naming references
for the differential tests.  The reader keeps its own copy of the rules for
rationals, node keys, integer fields and tables, so the production reader is
never held to itself."""

from __future__ import annotations

import json
import re
from fractions import Fraction

from deflator_lab.filtered_space import AdaptedProcess, EventTree, ProbMeasure, Strategy
from deflator_lab.treeio import TreeFile, TreeFileError

_RATIONAL_RE = re.compile(r"-?\d+(/0*[1-9]\d*)?\Z")   # q > 0
_NODE_KEY_RE = re.compile(r"(?:0|[1-9][0-9]*)\Z")


def parse_rational(text, where: str = "value") -> Fraction:
    """A canonical rational string: it must match the pattern, and `str` of
    its Fraction must give it back."""
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


def node_key(key, where: str) -> int:
    if not isinstance(key, str) or not _NODE_KEY_RE.match(key):
        raise TreeFileError(f"{where}: node key {key!r} must be a canonical "
                            "ASCII decimal (0, or digits without a leading 0)")
    try:
        return int(key)
    except ValueError as exc:
        raise TreeFileError(f"{where}: node key of {len(key)} digits is "
                            "too long to parse") from exc


def _integer(value, field: str, node=None) -> int:
    if type(value) is not int:
        where = field if node is None else f"nodes[{node}].{field}"
        raise TreeFileError(f"{where}: expected an integer, got {value!r}")
    return value


def _table(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise TreeFileError(f"{where}: expected a JSON object, "
                            f"got {type(value).__name__}")
    return value


def to_obj(tf: TreeFile) -> dict:
    """The JSON object of a tree file."""
    tree = tf.tree
    obj: dict = {
        "horizon": tree.horizon,
        "asset_dim": tree.asset_dim,
        "nodes": [
            {"id": v.id, "time": v.time, "parent": v.parent} for v in tree.nodes
        ],
    }
    if tf.P is not None:
        obj["P"] = {str(leaf): str(m) for leaf, m in sorted(tf.P.leaf_mass.items())}
    if tf.processes:
        obj["processes"] = {
            name: {str(n): [str(x) for x in vec]
                   for n, vec in sorted(proc.values.items())}
            for name, proc in sorted(tf.processes.items())
        }
    if tf.strategies:
        obj["strategies"] = {
            name: {str(n): [str(x) for x in vec]
                   for n, vec in sorted(strat.steps.items())}
            for name, strat in sorted(tf.strategies.items())
        }
    return obj


def dumps(tf: TreeFile) -> str:
    return json.dumps(to_obj(tf), indent=2, sort_keys=True) + "\n"


def dumps_points(Q: dict) -> str:
    points = [{"leaf": leaf, "zeta": "inf" if zeta is None else zeta,
               "mass": str(mass)}
              for (leaf, zeta), mass in sorted(
                  Q.items(), key=lambda kv: (kv[0][0], kv[0][1] or 10 ** 9))]
    return json.dumps({"points": points}, indent=2, sort_keys=True) + "\n"


def from_obj(obj: dict) -> TreeFile:
    """The reader that parses every rational string where it stands and
    coerces each vector again in the process constructors."""
    for key in ("horizon", "asset_dim", "nodes"):
        if key not in obj:
            raise TreeFileError(f"missing field {key!r}")
    horizon = _integer(obj["horizon"], "horizon")
    asset_dim = _integer(obj["asset_dim"], "asset_dim")
    records = obj["nodes"]
    if not isinstance(records, list) or not records:
        raise TreeFileError("nodes: expected a non-empty list")
    parents = [None] * len(records)
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
    if "P" in obj:
        masses = {}
        for key, text in _table(obj["P"], "P").items():
            leaf = node_key(key, "P")
            masses[leaf] = parse_rational(text, f"P[{key}]")
        try:
            P = ProbMeasure(masses)
            P.validate_for(tree)
        except ValueError as exc:
            raise TreeFileError(f"P: {exc}") from exc
        tf.P = P
    for section, store in (("processes", tf.processes), ("strategies", tf.strategies)):
        for name, table in _table(obj.get(section, {}), section).items():
            values = {}
            for key, vec in _table(table, f"{section}[{name}]").items():
                node = node_key(key, f"{section}[{name}]")
                if not isinstance(vec, list):
                    raise TreeFileError(f"{section}[{name}][{key}]: expected a list")
                values[node] = [parse_rational(x, f"{section}[{name}][{key}]")
                                for x in vec]
            dims = {len(v) for v in values.values()}
            if len(dims) != 1:
                raise TreeFileError(f"{section}[{name}]: inconsistent vector lengths")
            kind = AdaptedProcess if section == "processes" else Strategy
            store[name] = kind(values, dims.pop())
    return tf
