"""The `json`-encoder path that `treeio` wrote tree and points files with
before its template writers, and its reader that parses every rational string
anew: the byte and field-naming references for the differential tests."""

from __future__ import annotations

import json

from deflator_lab import treeio
from deflator_lab.fileio import node_key
from deflator_lab.filtered_space import AdaptedProcess, EventTree, ProbMeasure, Strategy
from deflator_lab.treeio import TreeFile, TreeFileError, parse_rational


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
    coerces each vector again in the process constructors; node keys go
    through `treeio`'s own check."""
    for key in ("horizon", "asset_dim", "nodes"):
        if key not in obj:
            raise TreeFileError(f"missing field {key!r}")
    horizon = treeio._integer(obj["horizon"], "horizon")
    asset_dim = treeio._integer(obj["asset_dim"], "asset_dim")
    records = obj["nodes"]
    if not isinstance(records, list) or not records:
        raise TreeFileError("nodes: expected a non-empty list")
    parents = [None] * len(records)
    times = [0] * len(records)
    seen = set()
    for k, rec in enumerate(records):
        if not isinstance(rec, dict) or "id" not in rec or "time" not in rec:
            raise TreeFileError(f"nodes: bad record {rec!r}")
        i = treeio._integer(rec["id"], "id", k)
        times_i = treeio._integer(rec["time"], "time", k)
        parent = rec.get("parent")
        if i in seen or not 0 <= i < len(records):
            raise TreeFileError(f"nodes: id {i} duplicated or out of range")
        seen.add(i)
        times[i] = times_i
        parents[i] = None if parent is None else treeio._integer(parent, "parent", k)
    try:
        tree = EventTree(horizon, asset_dim, parents, times)
    except ValueError as exc:
        raise TreeFileError(f"nodes: {exc}") from exc

    tf = TreeFile(tree)
    if "P" in obj:
        masses = {}
        for key, text in treeio._table(obj["P"], "P").items():
            leaf = node_key(key, "P")
            masses[leaf] = parse_rational(text, f"P[{key}]")
        try:
            P = ProbMeasure(masses)
            P.validate_for(tree)
        except ValueError as exc:
            raise TreeFileError(f"P: {exc}") from exc
        tf.P = P
    for section, store in (("processes", tf.processes), ("strategies", tf.strategies)):
        for name, table in treeio._table(obj.get(section, {}), section).items():
            values = {}
            for key, vec in treeio._table(table, f"{section}[{name}]").items():
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
