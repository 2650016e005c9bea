"""Reading and writing event-tree files.

The on-disk form is JSON with every rational serialized as a canonical
fraction string "p/q" (reduced, positive denominator) or a plain integer
string.  Measure, process and strategy entries that are not such strings are
rejected outright: silently accepting JSON floats would smuggle rounding into
a module whose whole point is exactness.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .filtered_space import AdaptedProcess, EventTree, ProbMeasure, Strategy

_RATIONAL_RE = re.compile(r"-?\d+(/0*[1-9]\d*)?\Z")   # q > 0


class TreeFileError(ValueError):
    """Malformed tree file; the message names the offending field."""


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


def format_rational(value: Fraction) -> str:
    return str(value)


@dataclass
class TreeFile:
    """A tree plus its named measure, processes and strategies, as stored on disk."""

    tree: EventTree
    P: Optional[ProbMeasure] = None
    processes: dict[str, AdaptedProcess] = field(default_factory=dict)
    strategies: dict[str, Strategy] = field(default_factory=dict)


def to_obj(tf: TreeFile) -> dict:
    tree = tf.tree
    obj: dict = {
        "horizon": tree.horizon,
        "asset_dim": tree.asset_dim,
        "nodes": [
            {"id": v.id, "time": v.time, "parent": v.parent} for v in tree.nodes
        ],
    }
    if tf.P is not None:
        obj["P"] = {str(leaf): format_rational(m) for leaf, m in sorted(tf.P.leaf_mass.items())}
    if tf.processes:
        obj["processes"] = {
            name: {str(n): [format_rational(x) for x in vec]
                   for n, vec in sorted(proc.values.items())}
            for name, proc in sorted(tf.processes.items())
        }
    if tf.strategies:
        obj["strategies"] = {
            name: {str(n): [format_rational(x) for x in vec]
                   for n, vec in sorted(strat.steps.items())}
            for name, strat in sorted(tf.strategies.items())
        }
    return obj


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
    if "P" in obj:
        masses = {}
        for key, text in _table(obj["P"], "P").items():
            leaf = _node_key(key, "P")
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
                node = _node_key(key, f"{section}[{name}]")
                if not isinstance(vec, list):
                    raise TreeFileError(f"{section}[{name}][{key}]: expected a list")
                values[node] = [parse_rational(x, f"{section}[{name}][{key}]")
                                for x in vec]
            dims = {len(v) for v in values.values()}
            if len(dims) != 1:
                raise TreeFileError(f"{section}[{name}]: inconsistent vector lengths")
            dim = dims.pop()
            try:
                if section == "processes":
                    store[name] = AdaptedProcess(values, dim)
                else:
                    store[name] = Strategy(values, dim)
            except ValueError as exc:
                raise TreeFileError(f"{section}[{name}]: {exc}") from exc
    return tf


def _node_key(key: object, where: str) -> int:
    if not isinstance(key, str) or not key.isdigit():
        raise TreeFileError(f"{where}: node key {key!r} must be a decimal string")
    return int(key)


def canonical_dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dumps(tf: TreeFile) -> str:
    return canonical_dumps(to_obj(tf))


def loads(text: str) -> TreeFile:
    try:
        obj = json.loads(text)
    except ValueError as exc:       # bad syntax, or an int too long to parse
        raise TreeFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise TreeFileError("top level must be a JSON object")
    return from_obj(obj)


def load(path: str) -> TreeFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise TreeFileError(f"not UTF-8 text: {exc}") from exc
    return loads(text)


def save(tf: TreeFile, path: str) -> None:
    write_atomic(path, dumps(tf))


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory and rename over the target.

    Non-regular targets (pipes, devices) cannot be replaced by rename, so
    those are written through directly instead.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
