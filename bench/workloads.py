"""The four workloads: seeded inputs, the CLI commands of one pass, and what
each command's report must say.

Sizes are chosen so that one pass takes about two to five seconds on a
2-CPU host, which gives several passes per run to take medians over; they
are well below the ROADMAP's largest trees, because a pass there takes 20 s
or more.  Every expected verdict and check holds for any seed: see the
guarantees in `inputs.py`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import inputs
import oracle

# (horizon, split times) of the deep narrow tree, full size and half size.
DEEP = {"full": (160, [0, 2, 4]), "half": (80, [0, 2, 4]),
        "tiny": (12, [0, 2])}
# horizon of the complete binary tree
WIDE = {"full": 10, "half": 9, "tiny": 4}
# (horizon of the binary enlargement tree, horizon of the ternary iid tree,
#  number of seeded instances per pass)
EXACT = {"full": (4, 3, 4), "tiny": (2, 2, 1)}
# paths per `simulate`; one path block of the engine
MC_PATHS = {"full": 4096, "tiny": 200}
MC_SEED = 20111115          # pinned: statistical verdicts are fixed by it
THREAD_PATHS = {"full": 8192, "tiny": 200}


@dataclass
class Command:
    """One CLI invocation and the report it must produce."""

    name: str                       # unique within a pass
    metric: Optional[str]           # end-to-end metric its wall time adds to
    argv: list
    report: str                     # path of the JSON report it writes
    expect_rc: Optional[int] = 0   # None: 0 when every verdict holds, else 1
    verdicts: dict = field(default_factory=dict)
    check: Optional[Callable[[dict], list]] = None   # extra exact checks


@dataclass
class Workload:
    commands: list
    shape: dict                     # node, leaf and horizon counts
    paths: dict = field(default_factory=dict)       # metric -> paths drawn
    companion: Optional["Workload"] = None          # half-size, for growth


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _shape(*trees) -> dict:
    return {"nodes": sum(len(t) for t in trees),
            "leaves": sum(len(t.leaves) for t in trees),
            "horizon": max(t.horizon for t in trees)}


def _chain(tag: str, tree: inputs.Tree, rng: random.Random, d: str) -> Workload:
    """deflate -> foellmer -> ky-verify -> stopped-check on a straddling tree."""
    base = os.path.join(d, f"{tag}.json")
    deflated = os.path.join(d, f"{tag}.deflated.json")
    ext = os.path.join(d, f"{tag}.q.json")
    _write(base, inputs.tree_json(tree, inputs.leaf_weights(rng, tree),
                                  inputs.straddling_prices(rng, tree)))
    rep = lambda name: os.path.join(d, f"{tag}.{name}.report.json")

    def deflated_ok(report):
        value = report["values"].get("initial_value")
        return [] if value == "1" else [f"initial_value is {value}, not 1"]

    def extension_ok(report):
        total = oracle.extension_total(ext)
        return [] if total == 1 else [f"extension masses sum to {total}"]

    def stopped_ok(report):
        return oracle.check_stopped_report(oracle.TreeData(deflated), report)

    commands = [
        Command(f"{tag}.deflate", "deflate_s",
                ["deflate", "--tree", base, "--price", "S", "--name", "Z",
                 "--normalize", "--out", deflated, "--report", rep("deflate")],
                rep("deflate"), 0,
                {"na1": True, "constructed": True, "certified": True},
                deflated_ok),
        Command(f"{tag}.foellmer", "foellmer_s",
                ["foellmer", "--tree", deflated, "--deflator", "Z",
                 "--out", ext, "--report", rep("foellmer")],
                rep("foellmer"), 0, {"built": True}, extension_ok),
        Command(f"{tag}.ky-verify", "ky_verify_s",
                ["ky-verify", "--tree", deflated, "--deflator", "Z",
                 "--price", "S", "--out", rep("ky")],
                rep("ky"), 0, {"kunita_yoeurp": True},
                lambda r: [f"failures: {r['values']['failures'][:3]}"]
                if r["values"]["failures"] else []),
        Command(f"{tag}.stopped-check", "stopped_check_s",
                ["stopped-check", "--tree", deflated, "--deflator", "Z",
                 "--price", "S", "--out", rep("stopped")],
                rep("stopped"), None, {"deflation": True}, stopped_ok),
    ]
    return Workload(commands, _shape(tree))


def wide_chain(rng: random.Random, d: str, size: str) -> Workload:
    w = _chain("wide", inputs.complete_tree(WIDE[size], 2), rng, d)
    if size == "full":
        w.companion = _chain("wide-half", inputs.complete_tree(WIDE["half"], 2),
                             rng, d)
    return w


def deep_chain(rng: random.Random, d: str, size: str) -> Workload:
    w = _chain("deep", inputs.split_chain(*DEEP[size]), rng, d)
    if size == "full":
        w.companion = _chain("deep-half", inputs.split_chain(*DEEP["half"]),
                             rng, d)
    return w


def _enlargement(tag: str, horizon: int, rng: random.Random, d: str,
                 with_density: bool) -> tuple:
    tree = inputs.complete_tree(horizon, 2)
    path = os.path.join(d, f"{tag}.json")
    lab_path = os.path.join(d, f"{tag}.labels.json")
    labels = inputs.label_map(rng, tree)
    _write(path, inputs.tree_json(tree, inputs.leaf_weights(rng, tree),
                                  inputs.straddling_prices(rng, tree)))
    _write(lab_path, inputs.labels_json(labels))
    rep = lambda name: os.path.join(d, f"{tag}.{name}.report.json")
    labels_s = {str(k): v for k, v in labels.items()}

    def insider_ok(report):
        want = oracle.replication_cost(oracle.TreeData(path), labels_s, {"L0"})
        got = report["values"]["replication_cost"]
        return [] if got == str(want) else [
            f"replication cost {got}, oracle {want}"]

    def log_ok(report):
        want = oracle.label_entropy(oracle.TreeData(path), labels_s)
        got = report["values"]["mutual_information"]
        return [] if abs(got - want) <= 1e-9 else [
            f"mutual information {got}, oracle {want}"]

    enlarge = ["--tree", path, "--label-map", lab_path, "--price", "S"]
    commands = [
        Command(f"{tag}.check", "check_s",
                ["check", "--tree", path, "--price", "S", "--both",
                 "--out", rep("check")],
                rep("check"), 0, {"na": True, "na1": True}),
    ]
    if with_density:
        commands += [
            Command(f"{tag}.jacod", None,
                    ["enlarge", "jacod", *enlarge, "--out", rep("jacod")],
                    rep("jacod"), 0, {"jacod": True}),
            Command(f"{tag}.universal-z", None,
                    ["enlarge", "universal-z", *enlarge, "--out", rep("uz")],
                    rep("uz"), 0, {"built": True}),
        ]
    commands += [
        Command(f"{tag}.insider", "insider_s",
                ["enlarge", "insider", *enlarge, "--event", "L0",
                 "--out", rep("insider")],
                rep("insider"), 0,
                {"emm_infeasible": True, "na1_enlarged": True,
                 "certified": True}, insider_ok),
        Command(f"{tag}.logutility", "logutility_s",
                ["enlarge", "logutility", *enlarge, "--out", rep("log")],
                rep("log"), 0, {"identity": True}, log_ok),
    ]
    return commands, tree


def _failing(tag: str, horizon: int, rng: random.Random, d: str) -> tuple:
    tree = inputs.complete_tree(horizon, 3)
    path = os.path.join(d, f"{tag}.json")
    _write(path, inputs.tree_json(tree, inputs.leaf_weights(rng, tree),
                                  inputs.iid_prices_with_arbitrage(rng, tree)))
    rep = lambda name: os.path.join(d, f"{tag}.{name}.report.json")

    def witness_ok(report):
        strategy = report["witnesses"].get("strategy")
        if not strategy:
            return ["no witness strategy"]
        return oracle.check_arbitrage_witness(oracle.TreeData(path), strategy)

    def atom_ok(report):
        values = report["values"]
        if "atom" not in values:
            return ["failing deflate names no atom"]
        return oracle.check_arbitrage_atom(oracle.TreeData(path),
                                           values["atom"], values["ray"])

    commands = [
        Command(f"{tag}.check", "check_s",
                ["check", "--tree", path, "--price", "S", "--both",
                 "--out", rep("check")],
                rep("check"), 1, {"na": False, "na1": False}, witness_ok),
        Command(f"{tag}.deflate", "deflate_s",
                ["deflate", "--tree", path, "--price", "S",
                 "--out", os.path.join(d, f"{tag}.deflated.json"),
                 "--report", rep("deflate")],
                rep("deflate"), 1, {"na1": False, "constructed": False},
                atom_ok),
    ]
    return commands, tree


def exact_lp(rng: random.Random, d: str, size: str) -> Workload:
    binary_h, ternary_h, instances = EXACT[size]
    commands, trees = [], []
    for i in range(instances):
        cmds, tree = _enlargement(f"bin{i}", binary_h, rng, d, i == 0)
        commands += cmds
        trees.append(tree)
    cmds, tree = _failing("iid", ternary_h, rng, d)
    commands += cmds
    trees.append(tree)
    return Workload(commands, _shape(*trees))


def monte_carlo(rng: random.Random, d: str, size: str) -> Workload:
    paths = MC_PATHS[size]
    commands = []
    for scenario in ("diffusion", "levy", "insider"):
        rep = os.path.join(d, f"mc.{scenario}.report.json")

        def mc_ok(report, paths=paths):
            problems = [f"verdict {k} is false"
                        for k, v in report["verdicts"].items() if v is not True]
            bad = [name for name, t in report["values"]["tests"].items()
                   if t["n_paths"] != paths]
            if bad or not report["values"]["tests"]:
                problems.append(f"tests {bad} did not draw {paths} paths")
            return problems

        commands.append(Command(
            f"simulate.{scenario}", f"paths_per_s.{scenario}",
            ["simulate", "--scenario", scenario, "--paths", str(paths),
             "--seed", str(MC_SEED), "--threads", "1", "--out", rep],
            rep, 0, {}, mc_ok))
    return Workload(commands, {"nodes": 0, "leaves": 0, "horizon": 0},
                    paths={c.metric: paths for c in commands})


WORKLOADS = {
    "wide_chain": wide_chain,
    "deep_chain": deep_chain,
    "exact_lp": exact_lp,
    "monte_carlo": monte_carlo,
}
