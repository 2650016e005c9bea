"""Independent exact checks of CLI reports, computed from the input files.

These read the tree files with `json` and `fractions` only, so they share no
code with the program they check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class TreeData:
    """Parent links, node masses and scalar processes of one tree file."""

    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        n = len(obj["nodes"])
        self.parent = [None] * n
        self.time = [0] * n
        for rec in obj["nodes"]:
            self.parent[rec["id"]] = rec["parent"]
            self.time[rec["id"]] = rec["time"]
        self.children = [[] for _ in range(n)]
        for i, p in enumerate(self.parent):
            if p is not None:
                self.children[p].append(i)
        self.mass = [Fraction(0)] * n
        for key, text in obj["P"].items():
            self.mass[int(key)] = Fraction(text)
        for v in reversed(range(n)):          # ids are breadth-first
            if self.children[v]:
                self.mass[v] = sum((self.mass[c] for c in self.children[v]),
                                   Fraction(0))
        self.process = {name: [Fraction(table[str(v)][0]) for v in range(n)]
                        for name, table in obj.get("processes", {}).items()}

    def interior(self) -> list:
        return [v for v in range(len(self.parent)) if self.children[v]]


def stopped_price_drifts(tree: TreeData, z: str = "Z", s: str = "S") -> dict:
    """Q-drift of the pre-death price on every atom whose drift is nonzero.

    Q(atom alive) = P(atom) Z(atom), so the drift on atom v is
    sum_c P(c) Z(c) dS(c) / (P(v) Z(v)); the price is a Q-martingale exactly
    when no atom has a nonzero drift.
    """
    Z, S = tree.process[z], tree.process[s]
    out = {}
    for v in tree.interior():
        num = sum((tree.mass[c] * Z[c] * (S[c] - S[v]) for c in tree.children[v]),
                  Fraction(0))
        if num != 0:
            out[v] = num / (tree.mass[v] * Z[v])
    return out


def check_stopped_report(tree: TreeData, report: dict) -> list:
    problems = []
    drifts = stopped_price_drifts(tree)
    if report["verdicts"].get("martingale") != (not drifts):
        problems.append(f"martingale verdict {report['verdicts'].get('martingale')}"
                        f" but the oracle finds {len(drifts)} drifting atoms")
    got = {int(item["atom"]): Fraction(item["drift"][0])
           for item in report["values"].get("violations", [])}
    if got != drifts:
        wrong = sorted(set(got) ^ set(drifts)) or sorted(
            v for v in drifts if got[v] != drifts[v])
        problems.append(f"violating atoms disagree with the oracle at {wrong[:5]}")
    if report["verdicts"].get("deflation") is not True:
        problems.append("deflation verdict is not true")
    return problems


def check_arbitrage_witness(tree: TreeData, strategy: dict) -> list:
    """An (NA) witness: gains never negative and positive on some leaf."""
    S = tree.process["S"]
    gain = [Fraction(0)] * len(S)
    for v in range(1, len(S)):
        p = tree.parent[v]
        gain[v] = gain[p] + Fraction(strategy[str(p)][0]) * (S[v] - S[p])
    if min(gain) < 0:
        return ["witness strategy loses money on some node"]
    if max(gain) <= 0:
        return ["witness strategy never gains"]
    return []


def check_arbitrage_atom(tree: TreeData, atom: int, ray: list) -> list:
    """The atom named by a failing deflate admits a one-step arbitrage ray."""
    S = tree.process["S"]
    if not tree.children[atom]:
        return [f"atom {atom} is a leaf"]
    h = Fraction(ray[0])
    gains = [h * (S[c] - S[atom]) for c in tree.children[atom]]
    if min(gains) < 0 or max(gains) <= 0:
        return [f"ray {ray} is not an arbitrage on atom {atom}"]
    return []


def replication_cost(tree: TreeData, labels: dict, event: set) -> Fraction:
    """Price of the label event under the unique pricing measure of a
    complete binary market: q(up) = -dS(down) / (dS(up) - dS(down))."""
    S = tree.process["S"]
    q = [Fraction(1)] * len(S)
    for v in tree.interior():
        a, b = tree.children[v]
        da, db = S[a] - S[v], S[b] - S[v]
        q[a] = q[v] * (-db / (da - db))
        q[b] = q[v] * (da / (da - db))
    return sum((q[int(leaf)] for leaf, lab in labels.items() if lab in event),
               Fraction(0))


def label_entropy(tree: TreeData, labels: dict) -> float:
    """I(label; terminal information) for a leaf-measurable label is H(label)."""
    p = {}
    for leaf, lab in labels.items():
        p[lab] = p.get(lab, Fraction(0)) + tree.mass[int(leaf)]
    return -sum(float(x) * math.log(float(x)) for x in p.values() if x > 0)


def extension_total(path: str) -> Fraction:
    with open(path, "r", encoding="utf-8") as fh:
        points = json.load(fh)["points"]
    return sum((Fraction(p["mass"]) for p in points), Fraction(0))
