"""Command-line surface: exit codes, reports, fixtures, retired flags."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import deflator_lab
from deflator_lab import treeio
from deflator_lab.cli import build_parser, run
from deflator_lab.filtered_space import AdaptedProcess, EventTree, ProbMeasure
from deflator_lab.scenarios import available, write_scenario


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def fixtures(tmp_path):
    paths = {}
    for name in available():
        d = tmp_path / name
        write_scenario(name, str(d))
        paths[name] = d
    return paths


def test_check_passes_on_binomial(fixtures, tmp_path):
    out = tmp_path / "report.json"
    code = run(["check", "--tree", str(fixtures["insider-binomial"] / "tree.json"),
                "--price", "S", "--both", "--out", str(out)])
    assert code == 0
    report = read(out)
    assert report["verdicts"] == {"na": True, "na1": True}
    assert report["values"]["optimal_value"] == "3/2"
    assert report["schema_version"] == "1"
    assert report["provenance"]["operation"] == "arbitrage.check"


def test_check_fails_on_deterministic_drift(fixtures, tmp_path):
    out = tmp_path / "report.json"
    code = run(["check", "--tree", str(fixtures["exponential-death"] / "tree.json"),
                "--out", str(out)])
    assert code == 1
    report = read(out)
    assert report["verdicts"]["na1"] is False
    assert report["values"]["optimal_value"] == "inf"
    assert report["witnesses"]["strategy"]


def test_missing_file_exits_2(tmp_path, capsys):
    assert run(["check", "--tree", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err


def tree_bytes(horizon=1, node1=None, **sections) -> bytes:
    """A priced one-step tree file, with fields replaced by raw JSON values."""
    obj = {"horizon": horizon, "asset_dim": 1,
           "nodes": [{"id": 0, "time": 0, "parent": None},
                     {"id": 1, "time": 1, "parent": 0} | (node1 or {}),
                     {"id": 2, "time": 1, "parent": 0}],
           "P": {"1": "1/2", "2": "1/2"},
           "processes": {"S": {"0": ["1"], "1": ["2"], "2": ["1/2"]}}}
    return json.dumps(obj | sections).encode()


# Wrong JSON types must not end in a traceback, and a fractional or boolean
# integer must not be truncated into a tree that runs.
MALFORMED_TREES = [
    (tree_bytes(P=["1/2", "1/2"]), "P:"),
    (tree_bytes(processes=["S"]), "processes:"),
    (tree_bytes(processes={"S": [["1"], ["2"]]}), "processes[S]:"),
    (tree_bytes(node1={"parent": "abc"}), "nodes[1].parent:"),
    (tree_bytes(node1={"parent": [0]}), "nodes[1].parent:"),
    (tree_bytes(node1={"parent": 0.2}), "nodes[1].parent:"),
    (tree_bytes(horizon=1.7), "horizon:"),
    (tree_bytes(horizon=True), "horizon:"),
    (tree_bytes(asset_dim="1"), "asset_dim:"),
    (tree_bytes(node1={"time": 1.9}), "nodes[1].time:"),
    (tree_bytes(node1={"id": True}), "nodes[1].id:"),
    (tree_bytes().replace(b'"S"', b'"\xe9"'), "not UTF-8"),
    (tree_bytes(P={"1": "1/0", "2": "1/2"}), "P[1]:"),
    (tree_bytes().replace(b'"horizon": 1', b'"horizon": 1' + b"0" * 5000),
     "not valid JSON"),
]


def test_malformed_tree_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"horizon": 1, "asset_dim": 1, "nodes": '
                   '[{"id": 0, "time": 0, "parent": null}, '
                   '{"id": 1, "time": 1, "parent": 0}], "P": {"1": "0.3"}}')
    assert run(["check", "--tree", str(bad)]) == 2
    assert "P[1]" in capsys.readouterr().err
    for text, field in MALFORMED_TREES:
        bad.write_bytes(text)
        assert run(["check", "--tree", str(bad)]) == 2, field
        assert field in capsys.readouterr().err, field


def test_deflate_then_verify_and_stopped_check(fixtures, tmp_path):
    tree_in = str(fixtures["insider-binomial"] / "tree.json")
    tree_out = str(tmp_path / "deflated.json")
    report = str(tmp_path / "deflate.json")
    assert run(["deflate", "--tree", tree_in, "--price", "S", "--out", tree_out,
                "--name", "Z", "--normalize", "--report", report]) == 0
    rep = read(report)
    assert rep["verdicts"] == {"na1": True, "constructed": True, "certified": True}
    assert rep["values"]["initial_value"] == "1"
    written = treeio.load(tree_out)
    assert "Z" in written.processes

    ky = str(tmp_path / "ky.json")
    assert run(["ky-verify", "--tree", tree_out, "--deflator", "Z",
                "--price", "S", "--out", ky]) == 0
    assert read(ky)["verdicts"]["kunita_yoeurp"] is True

    sc = str(tmp_path / "stopped.json")
    code = run(["stopped-check", "--tree", tree_out, "--deflator", "Z",
                "--price", "S", "--out", sc])
    stopped = read(sc)
    # strict supermartingale density: drift survives, deflation still certifies
    assert code == 1
    assert stopped["verdicts"]["martingale"] is False
    assert stopped["verdicts"]["deflation"] is True


def test_deflate_reports_offending_atom(fixtures, tmp_path):
    tree_in = str(fixtures["exponential-death"] / "tree.json")
    report = str(tmp_path / "deflate.json")
    code = run(["deflate", "--tree", tree_in, "--price", "S",
                "--out", str(tmp_path / "x.json"), "--report", report])
    assert code == 1
    rep = read(report)
    assert rep["verdicts"] == {"na1": False, "constructed": False}
    assert "atom" in rep["values"]


def test_foellmer_emits_extension_measure(fixtures, tmp_path):
    out = tmp_path / "extension.json"
    code = run(["foellmer", "--tree",
                str(fixtures["exponential-death"] / "tree.json"),
                "--deflator", "Z", "--out", str(out)])
    assert code == 0
    points = read(out)["points"]
    assert {(p["leaf"], p["zeta"], p["mass"]) for p in points} == {
        (2, 1, "1/2"), (2, 2, "1/4"), (2, "inf", "1/4")}


def test_stopped_check_flags_survival_drift(fixtures, tmp_path):
    out = tmp_path / "stopped.json"
    code = run(["stopped-check", "--tree",
                str(fixtures["exponential-death"] / "tree.json"),
                "--deflator", "Z", "--price", "S", "--out", str(out)])
    assert code == 1
    report = read(out)
    assert report["verdicts"]["martingale"] is False
    assert report["values"]["violations"][0]["atom"] == 0
    assert report["values"]["violations"][0]["drift"] == ["1/2"]


def test_enlarge_jacod_and_universal(fixtures, tmp_path):
    tree = str(fixtures["jacod-coins"] / "tree.json")
    labels = str(fixtures["jacod-coins"] / "labels.json")
    out = tmp_path / "jacod.json"
    assert run(["enlarge", "jacod", "--tree", tree, "--label-map", labels,
                "--out", str(out)]) == 0
    report = read(out)
    assert report["verdicts"]["jacod"] is True
    assert report["values"]["density"]["1,h"] == "1"
    assert run(["enlarge", "universal-z", "--tree", tree, "--label-map", labels,
                "--out", str(out)]) == 0
    assert read(out)["values"]["density"]["3,h"] == "1/2"


def test_enlarge_insider_and_logutility(fixtures, tmp_path):
    tree = str(fixtures["insider-binomial"] / "tree.json")
    labels = str(fixtures["insider-binomial"] / "labels.json")
    out = tmp_path / "insider.json"
    assert run(["enlarge", "insider", "--tree", tree, "--label-map", labels,
                "--event", "u", "--out", str(out)]) == 0
    report = read(out)
    assert report["verdicts"] == {"emm_infeasible": True, "na1_enlarged": True,
                                  "certified": True}
    assert report["values"]["replication_cost"] == "1/3"

    assert run(["enlarge", "logutility", "--tree", tree, "--label-map", labels,
                "--out", str(out)]) == 0
    report = read(out)
    assert report["verdicts"]["identity"] is True
    assert abs(report["values"]["mutual_information"] - 0.6931471805599453) < 1e-12


def test_simulate_levy_with_params_and_csv(fixtures, tmp_path):
    params = str(fixtures["levy-counterexample"] / "params.json")
    out = tmp_path / "levy.json"
    csv = tmp_path / "levy.csv"
    paths_csv = tmp_path / "paths.csv"
    code = run(["simulate", "--scenario", "levy", "--params", params,
                "--paths", "5000", "--seed", "3", "--out", str(out),
                "--csv", str(csv), "--paths-csv", str(paths_csv),
                "--sample-paths", "7"])
    assert code == 0
    report = read(out)
    assert report["verdicts"]["frozen_rejects"] is True
    assert report["verdicts"]["repaired_consistent"] is True
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "name,mean,se,z,n_paths,verdict"
    assert len(lines) == 4
    path_lines = paths_csv.read_text().strip().splitlines()
    assert len(path_lines) == 8
    assert path_lines[0].startswith("path,seed,")


@pytest.mark.parametrize("text", [b"[1, 2]", b'{"a": "\xe9"}',
                                  b'{"a": 1' + b"0" * 5000 + b"}"],
                         ids=["json-array", "not-utf8", "5001-digit-int"])
def test_simulate_rejects_bad_params_files(tmp_path, capsys, text):
    params = tmp_path / "params.json"
    params.write_bytes(text)
    out = tmp_path / "r.json"
    assert run(["simulate", "--scenario", "levy", "--paths", "200",
                "--steps", "4", "--params", str(params), "--out", str(out)]) == 2
    assert "--params" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_diffusion_quick(tmp_path):
    out = tmp_path / "diff.json"
    code = run(["simulate", "--scenario", "diffusion", "--paths", "2000",
                "--steps", "64", "--seed", "1", "--out", str(out)])
    assert code == 0
    report = read(out)
    assert set(report["verdicts"]) == {"density_mean", "deflated_price",
                                       "deflated_wealth"}


def test_scenario_unknown_name_lists_available(tmp_path, capsys):
    assert run(["scenario", "nope", "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    for name in available():
        assert name in err


def test_scenario_files_parse_back(fixtures):
    for name in ("insider-binomial", "exponential-death",
                 "singleton-supermartingale", "jacod-coins"):
        tf = treeio.load(str(fixtures[name] / "tree.json"))
        assert tf.P is not None
        # canonical round trip: serialize(parse(file)) is byte identical
        text = (fixtures[name] / "tree.json").read_text()
        assert treeio.dumps(tf) == text


def subprocess_env():
    """The environment for a child interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(deflator_lab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_tree_side_imports_skip_numpy():
    env = subprocess_env()
    probe = ("import sys, deflator_lab, deflator_lab.cli; "
             "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def loaded_modules(probe):
    """Short names of the deflator_lab modules a child interpreter has
    loaded after running probe."""
    probe += ("\nimport json, sys\nprint(json.dumps(sorted(m.split('.')[1] "
              "for m in sys.modules if m.startswith('deflator_lab.'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                         check=True, capture_output=True, text=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def run_probe(*argv):
    return f"from deflator_lab.cli import run\nrun({list(argv)!r})"


ANALYSIS = {"arbitrage", "linprog", "deflator", "enlargement",
            "kunita_yoeurp", "montecarlo"}


def test_each_command_imports_only_what_it_runs(tmp_path, fixtures):
    out = str(tmp_path / "r.json")
    simulate = loaded_modules(run_probe("simulate", "--scenario", "levy",
                                        "--paths", "200", "--steps", "4",
                                        "--out", out))
    assert "montecarlo" in simulate
    assert not simulate & {"arbitrage", "linprog", "deflator", "enlargement",
                           "kunita_yoeurp"}, simulate
    check = loaded_modules(run_probe(
        "check", "--tree", str(fixtures["insider-binomial"] / "tree.json"),
        "--out", out))
    assert "arbitrage" in check
    assert not check & {"kunita_yoeurp", "enlargement", "montecarlo"}, check
    version = loaded_modules(run_probe("--version"))
    assert not version & ANALYSIS, version


def test_every_exported_name_resolves():
    probe = ("import deflator_lab\n"
             "names = {n: getattr(deflator_lab, n) for n in deflator_lab.__all__}\n"
             "ns = {}\n"
             "exec('from deflator_lab import *', ns)\n"
             "assert all(ns[n] is v for n, v in names.items())\n"
             "assert set(deflator_lab.__all__) <= set(dir(deflator_lab))\n"
             "print(len(names))")
    out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                         check=True, capture_output=True, text=True).stdout
    assert int(out) == len(set(deflator_lab.__all__)) > 0
    with pytest.raises(AttributeError):
        deflator_lab.no_such_name


@pytest.mark.parametrize("paths", ["0", "50", "99"])
def test_simulate_rejects_too_few_paths(tmp_path, capsys, paths):
    code = run(["simulate", "--scenario", "diffusion", "--paths", paths,
                "--steps", "8", "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "--paths" in err and "100" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_simulate_rejects_bad_thread_counts(tmp_path, capsys, threads):
    code = run(["simulate", "--scenario", "levy", "--paths", "200",
                "--threads", threads, "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "--threads" in capsys.readouterr().err


def test_simulate_rejects_negative_seeds(tmp_path, capsys):
    argv = ["simulate", "--scenario", "levy", "--paths", "200", "--steps", "4",
            "--out", str(tmp_path / "r.json")]
    assert run(argv + ["--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_zero_paths_exits_2_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "deflator_lab.cli", "simulate", "--scenario",
         "insider", "--paths", "0", "--out", str(tmp_path / "r.json")],
        env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "--paths" in proc.stderr


def test_ky_verify_on_a_long_path(tmp_path):
    """1500 levels: deeper than the default recursion limit of 1000.  The
    hitting levels lie in [-4, 4], and the price reaches 4 only at the leaf,
    so every stopping time stops within the last eight levels."""
    horizon = 1500
    tree = EventTree.singleton_path(horizon)
    tf = treeio.TreeFile(
        tree, ProbMeasure({horizon: Fraction(1)}),
        {"Z": AdaptedProcess.of_scalars(
            {t: Fraction(1, t + 1) for t in range(horizon + 1)}),
         "S": AdaptedProcess.of_scalars(
             {t: t - (horizon - 4) for t in range(horizon + 1)})})
    path = str(tmp_path / "long.json")
    treeio.save(tf, path)
    out = tmp_path / "ky.json"
    proc = subprocess.run(
        [sys.executable, "-m", "deflator_lab.cli", "ky-verify", "--tree", path,
         "--deflator", "Z", "--price", "S", "--out", str(out)],
        env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = read(out)
    assert report["verdicts"]["kunita_yoeurp"] is True
    assert report["values"]["stopping_times"] == 10


def insider_files(fixtures, tmp_path, P=None, S=None, labels=None):
    """The insider-binomial fixture with its measure, price or label map
    replaced by raw JSON values; returns the tree and label map paths."""
    d = fixtures["insider-binomial"]
    tree = read(d / "tree.json")
    if P is not None:
        tree["P"] = P
    if S is not None:
        tree["processes"]["S"] = S
    tree_path = tmp_path / "edited-tree.json"
    tree_path.write_text(json.dumps(tree))
    label_path = d / "labels.json"
    if labels is not None:
        label_path = tmp_path / "edited-labels.json"
        label_path.write_text(json.dumps(labels))
    return str(tree_path), str(label_path)


@pytest.mark.parametrize("labels", [{"1": "u"}, ["u", "d"]],
                         ids=["misses-a-leaf", "json-list"])
def test_enlarge_rejects_bad_label_maps(fixtures, tmp_path, capsys, labels):
    tree, label_map = insider_files(fixtures, tmp_path, labels=labels)
    out = tmp_path / "r.json"
    assert run(["enlarge", "jacod", "--tree", tree, "--label-map", label_map,
                "--out", str(out)]) == 2
    assert "--label-map" in capsys.readouterr().err
    assert not out.exists()


def test_enlarge_zero_mass_leaf_exits_2_without_traceback(fixtures, tmp_path):
    tree, label_map = insider_files(fixtures, tmp_path, P={"1": "1", "2": "0"})
    proc = subprocess.run(
        [sys.executable, "-m", "deflator_lab.cli", "enlarge", "insider",
         "--tree", tree, "--label-map", label_map, "--event", "u",
         "--out", str(tmp_path / "r.json")],
        env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "P gives zero mass to leaves [2]" in proc.stderr


def test_logutility_rejects_a_zero_pricing_weight(fixtures, tmp_path, capsys):
    # the price does not move on leaf 1, so all pricing weight sits there
    tree, label_map = insider_files(fixtures, tmp_path,
                                    S={"0": ["1"], "1": ["1"], "2": ["2"]})
    out = tmp_path / "r.json"
    assert run(["enlarge", "logutility", "--tree", tree, "--label-map",
                label_map, "--out", str(out)]) == 2
    assert "not strictly positive" in capsys.readouterr().err
    assert not out.exists()


def priced_tree_argv(command, tree, tmp_path):
    if command == "check":
        return ["check", "--tree", tree, "--out", str(tmp_path / "r.json")]
    return ["deflate", "--tree", tree, "--out", str(tmp_path / "t.json"),
            "--report", str(tmp_path / "r.json")]


@pytest.mark.parametrize("command", ["check", "deflate"])
def test_priced_commands_reject_a_zero_mass_leaf(fixtures, tmp_path, capsys,
                                                 command):
    tree, _ = insider_files(fixtures, tmp_path, P={"1": "0", "2": "1"})
    assert run(priced_tree_argv(command, tree, tmp_path)) == 2
    assert "P gives zero mass to leaves [1]" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["check", "deflate"])
def test_priced_commands_reject_a_partial_price(fixtures, tmp_path, capsys,
                                                command):
    tree, _ = insider_files(fixtures, tmp_path, S={"0": ["1"], "1": ["2"]})
    assert run(priced_tree_argv(command, tree, tmp_path)) == 2
    err = capsys.readouterr().err
    assert "--price" in err and "every node" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("confidence", ["nan", "inf", "-1", "0"])
def test_simulate_rejects_bad_confidence(tmp_path, capsys, confidence):
    out = tmp_path / "r.json"
    code = run(["simulate", "--scenario", "levy", "--paths", "200",
                "--steps", "4", "--confidence", confidence, "--out", str(out)])
    assert code == 2
    assert "--confidence" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sample_paths", ["0", "-5"])
def test_simulate_rejects_empty_path_samples(tmp_path, capsys, sample_paths):
    out = tmp_path / "r.json"
    code = run(["simulate", "--scenario", "levy", "--paths", "200",
                "--steps", "4", "--paths-csv", str(tmp_path / "p.csv"),
                "--sample-paths", sample_paths, "--out", str(out)])
    assert code == 2
    assert "--sample-paths" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "p.csv").exists()


def deflator_argv(command, tree, tmp_path):
    out = str(tmp_path / "r.json")
    if command == "foellmer":
        return ["foellmer", "--tree", tree, "--deflator", "Z",
                "--out", str(tmp_path / "q.json"), "--report", out]
    return [command, "--tree", tree, "--deflator", "Z", "--price", "S",
            "--out", out]


@pytest.mark.parametrize("command", ["foellmer", "ky-verify", "stopped-check"])
def test_deflator_commands_reject_a_zero_root_value(fixtures, tmp_path,
                                                    command):
    tree = read(fixtures["insider-binomial"] / "tree.json")
    tree["processes"]["Z"] = {"0": ["0"], "1": ["1"], "2": ["1"]}
    path = tmp_path / "zero-root.json"
    path.write_text(json.dumps(tree))
    proc = subprocess.run(
        [sys.executable, "-m", "deflator_lab.cli",
         *deflator_argv(command, str(path), tmp_path)],
        env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--deflator" in proc.stderr and "Z_0 > 0" in proc.stderr
    assert not (tmp_path / "r.json").exists()


def plain_deflate(fixtures, tmp_path):
    """The insider-binomial tree with its deflator, written without
    --normalize, so Z_0 is the optimal value 3/2."""
    deflated = str(tmp_path / "deflated.json")
    assert run(["deflate", "--tree",
                str(fixtures["insider-binomial"] / "tree.json"),
                "--out", deflated, "--report", str(tmp_path / "d.json")]) == 0
    return deflated


def test_unnormalized_deflator_passes_ky_verify(fixtures, tmp_path):
    deflated = plain_deflate(fixtures, tmp_path)
    assert treeio.load(deflated).processes["Z"].at(0) == Fraction(3, 2)
    out = tmp_path / "ky.json"
    proc = subprocess.run(
        [sys.executable, "-m", "deflator_lab.cli", "ky-verify", "--tree",
         deflated, "--price", "S", "--out", str(out)],
        env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert read(out)["verdicts"] == {"kunita_yoeurp": True}


def test_ky_verify_rejects_an_unknown_price(fixtures, tmp_path, capsys):
    deflated = plain_deflate(fixtures, tmp_path)
    out = tmp_path / "ky.json"
    assert run(["ky-verify", "--tree", deflated, "--price", "NOPE",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--price" in err and "NOPE" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["check", "--na"], ["check", "--na1"],
                                  ["ky-verify", "--hitting", "3"],
                                  ["ky-verify", "--seed", "1"]],
                         ids=["na", "na1", "hitting", "seed"])
def test_retired_flags_are_unrecognized(fixtures, tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    tree = str(fixtures["exponential-death"] / "tree.json")
    assert run([argv[0], "--tree", tree, *argv[1:], "--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("asset_dim, S", [
    (2, {"0": ["1"], "1": ["2"], "2": ["1/2"]}),
    (1, {"0": ["1", "1"], "1": ["2", "1"], "2": ["1/2", "1"]})],
    ids=["asset-dim-2", "price-dim-2"])
@pytest.mark.parametrize("command", [["enlarge", "insider", "--event", "u"],
                                     ["enlarge", "logutility"],
                                     ["stopped-check"]],
                         ids=["insider", "logutility", "stopped-check"])
def test_price_of_the_wrong_dimension_exits_2(fixtures, tmp_path, capsys,
                                              command, asset_dim, S):
    tree, label_map = insider_files(fixtures, tmp_path, S=S)
    doc = read(tree) | {"asset_dim": asset_dim}
    doc["processes"]["Z"] = {"0": ["1"], "1": ["1"], "2": ["1"]}
    with open(tree, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = tmp_path / "r.json"
    argv = [*command, "--tree", tree, "--out", str(out)]
    if command[0] == "enlarge":
        argv += ["--label-map", label_map]
    assert run(argv) == 2
    assert "--price" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params, named", [({"pi": None}, "pi"),
                                           ({"mu": 1e308}, "parameters")],
                         ids=["null-pi", "overflowing-mu"])
def test_simulate_rejects_degenerate_diffusion_params(tmp_path, capsys, params,
                                                      named):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "r.json"
    assert run(["simulate", "--scenario", "diffusion", "--params", str(path),
                "--paths", "100", "--steps", "4", "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, params, named", [
    ("diffusion", {"sigma": math.nan}, "sigma"),
    ("diffusion", {"mu": math.inf}, "mu"),
    ("levy", {"pi": math.nan}, "pi"),
    ("diffusion", {"pi": [0.5, True, 0.5, 0.5]}, "pi"),
    ("levy", {"seed": True}, "seed"),
    ("levy", {"a": True, "b": False}, "a "),
], ids=["nan-float", "inf-float", "nan-pi", "bool-in-pi", "bool-int",
        "bool-float"])
def test_simulate_rejects_non_finite_and_boolean_params(tmp_path, capsys,
                                                        scenario, params,
                                                        named):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "r.json"
    assert run(["simulate", "--scenario", scenario, "--params", str(path),
                "--paths", "100", "--steps", "4", "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_simulate_report_records_the_scenario_it_ran(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"seed": 5}))
    out = tmp_path / "r.json"
    assert run(["simulate", "--scenario", "levy", "--params", str(path),
                "--paths", "200", "--steps", "4", "--out", str(out)]) in (0, 1)
    report = read(out)
    assert report["config"]["seed"] is None
    assert report["values"]["stream_version"] == 2
    assert report["values"]["scenario"] == {
        "a": 2.0, "b": 1.0, "horizon": 1.0, "steps": 4, "paths": 200,
        "seed": 5, "pi": 1.0}


def test_tree_side_commands_on_a_horizon_5000_path(tmp_path):
    """Five thousand levels, in process: nothing may recurse per level."""
    horizon = 5000
    tf = treeio.TreeFile(
        EventTree.singleton_path(horizon),
        ProbMeasure({horizon: Fraction(1)}),
        {"S": AdaptedProcess.of_scalars({t: 1 for t in range(horizon + 1)}),
         "Z": AdaptedProcess.of_scalars(
             {t: Fraction(1, t + 1) for t in range(horizon + 1)})})
    tree = str(tmp_path / "path.json")
    treeio.save(tf, tree)
    out = str(tmp_path / "r.json")
    for argv in (["check", "--tree", tree, "--out", out],
                 ["deflate", "--tree", tree, "--name", "D",
                  "--out", str(tmp_path / "d.json"), "--report", out],
                 ["foellmer", "--tree", tree, "--out", str(tmp_path / "q.json"),
                  "--report", out],
                 ["ky-verify", "--tree", tree, "--price", "S", "--out", out],
                 ["stopped-check", "--tree", tree, "--out", out]):
        assert run(argv) == 0, argv


def readme_commands():
    """Every `deflator-lab ...` command of the README's sh blocks, with its
    backslash continuations joined."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["deflator-lab"]:
                yield argv[1:]


def test_readme_commands_parse():
    commands = list(readme_commands())
    assert len(commands) > 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
