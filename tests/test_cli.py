"""Command-line surface: exit codes, reports, fixtures, retired flags."""

import contextlib
import io
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
    # more digits than int() converts, in a numerator and a denominator
    (tree_bytes(processes={"S": {"0": ["1"], "1": ["1" + "0" * 5000],
                                 "2": ["1/2"]}}), "processes[S][1]:"),
    (tree_bytes(P={"1": "1/1" + "0" * 5000, "2": "1/2"}), "P[1]:"),
    # node keys: canonical ASCII decimals only, so no two keys name one node
    (tree_bytes(P={"\u00b2": "1/2", "2": "1/2"}), "P:"),
    (tree_bytes(P={"01": "1/2", "2": "1/2"}), "P:"),
    (tree_bytes(processes={"S": {"0": ["1"], "1": ["2"], "2": ["1/2"],
                                 "01": ["3"]}}), "processes[S]:"),
    (tree_bytes(processes={"S": {"0": ["1"], "\u0661": ["2"], "2": ["1/2"]}}),
     "processes[S]:"),
    (tree_bytes(processes={"S": {"0": ["1"], "1": ["2"], "2": ["1/2"],
                                 "1" + "0" * 5000: ["1"]}}), "processes[S]:"),
]


@pytest.mark.parametrize("old, new, name", [
    ('"P": {"1": "1/2"', '"P": {"1": "1/3", "1": "1/2"', "1"),
    ('"S": {"0": ["1"]', '"S": {"0": ["1"], "0": ["1"]', "0"),
    ('"h": {"0": ["1"]', '"h": {"0": ["1"], "0": ["1"]', "0"),
    ('{"id": 1, "time": 1', '{"id": 1, "time": 1, "time": 1', "time"),
    ('"asset_dim": 1', '"asset_dim": 1, "asset_dim": 1', "asset_dim"),
], ids=["P", "process", "strategy", "node-record", "top-level"])
def test_a_repeated_name_in_a_tree_file_exits_2(tmp_path, capsys, old, new,
                                                name):
    """No name may appear twice in one object, not even with the same
    value: otherwise the last one would silently win."""
    text = tree_bytes(strategies={"h": {"0": ["1"]}}).decode()
    assert old in text
    bad = tmp_path / "repeated.json"
    bad.write_text(text.replace(old, new, 1))
    assert run(["check", "--tree", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and f"repeated name {name!r}" in err, err


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


def test_unwritable_target_is_named(fixtures, tmp_path, capsys):
    target = str(tmp_path / "missing" / "x.json")
    assert run(["deflate", "--tree", str(fixtures["insider-binomial"] / "tree.json"),
                "--price", "S", "--out", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and repr(target) in err, err
    assert ".tmp-" not in err


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


def test_deflate_refuses_to_overwrite_the_price(fixtures, tmp_path, capsys):
    tree_in = str(fixtures["insider-binomial"] / "tree.json")
    out = tmp_path / "o.json"
    code = run(["deflate", "--tree", tree_in, "--price", "S", "--name", "S",
                "--out", str(out)])
    assert code == 2
    assert "--name 'S'" in capsys.readouterr().err
    assert not out.exists()


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


def test_logutility_exits_1_when_the_identity_fails(fixtures, tmp_path,
                                                   monkeypatch):
    from deflator_lab import enlargement

    exact = enlargement._log_fraction
    calls = []

    def off_once(x):
        calls.append(x)
        return exact(x) + (1e-6 if len(calls) == 1 else 0.0)

    monkeypatch.setattr(enlargement, "_log_fraction", off_once)
    out = tmp_path / "log.json"
    assert run(["enlarge", "logutility",
                "--tree", str(fixtures["insider-binomial"] / "tree.json"),
                "--label-map", str(fixtures["insider-binomial"] / "labels.json"),
                "--out", str(out)]) == 1
    report = read(out)
    assert report["verdicts"] == {"identity": False,
                                  "information_nonnegative": True}
    assert abs(report["values"]["gap"]) > report["values"]["float_tolerance"]


def test_logutility_exits_1_on_negative_mutual_information(fixtures, tmp_path,
                                                           monkeypatch):
    """A float mutual information below -float_tolerance is a failed
    verdict, not an escaping AssertionError."""
    from deflator_lab import enlargement

    exact = enlargement._log_fraction

    def log_half_off(x):
        return exact(x) + (1.0 if x == Fraction(1, 2) else 0.0)

    monkeypatch.setattr(enlargement, "_log_fraction", log_half_off)
    out = tmp_path / "log.json"
    fixture = fixtures["insider-binomial"]
    assert run(["enlarge", "logutility", "--tree", str(fixture / "tree.json"),
                "--label-map", str(fixture / "labels.json"),
                "--out", str(out)]) == 1
    report = read(out)
    assert report["verdicts"]["information_nonnegative"] is False
    assert report["values"]["mutual_information"] < \
        -report["values"]["float_tolerance"]


def test_simulate_reports_a_positive_survival_gap_as_a_verdict(tmp_path,
                                                               monkeypatch):
    from deflator_lab import montecarlo

    exact = montecarlo._jump_counts

    def three_more_up_jumps(rng, spans):
        counts = exact(rng, spans)
        counts[..., 0] += 3
        return counts

    monkeypatch.setattr(montecarlo, "_jump_counts", three_more_up_jumps)
    out = tmp_path / "levy.json"
    assert run(["simulate", "--scenario", "levy", "--paths", "200",
                "--steps", "4", "--out", str(out)]) == 1
    assert read(out)["verdicts"]["survival_gap_nonpositive"] is False


def test_simulate_judges_a_test_without_spread_exactly(tmp_path):
    """Without trading the survival gap is e^-2 - 1 on every path: se is 0,
    so the test compares the mean with its target 0 exactly and rejects."""
    params = tmp_path / "p.json"
    params.write_text('{"pi": 0.0}')
    out = tmp_path / "levy.json"
    assert run(["simulate", "--scenario", "levy", "--params", str(params),
                "--paths", "200", "--out", str(out)]) == 0
    report = read(out)
    survival = report["values"]["tests"]["survival"]
    assert survival["se"] == 0.0 and survival["z"] == 0.0
    assert survival["mean"] == math.exp(-2.0) - 1.0
    assert survival["verdict"] == "reject"
    assert report["verdicts"]["survival_gap_nonpositive"] is True


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


def test_a_repeated_name_in_a_params_file_exits_2(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text('{"seed": 1, "pi": 0.5, "seed": 1}')
    out = tmp_path / "r.json"
    assert run(["simulate", "--scenario", "levy", "--paths", "200",
                "--steps", "4", "--params", str(params), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --params {params}: repeated name 'seed' in a JSON object\n")
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


def test_each_command_imports_only_what_it_runs(tmp_path, fixtures):
    """`simulate` and `--version` read no tree file, so they load neither
    `treeio` nor `filtered_space`: only `fileio`, the reader, writer and
    file error that the handlers' `cmd_common` shares with `treeio`.  Each command
    loads its own family's handler module only, and no command loads the
    utility layer or the martingale calculus."""
    out = str(tmp_path / "r.json")
    simulate = loaded_modules(run_probe("simulate", "--scenario", "levy",
                                        "--paths", "200", "--steps", "4",
                                        "--out", out))
    assert simulate == {"cli", "cmd_common", "cmd_simulate", "fileio",
                        "montecarlo"}, simulate
    # a params file goes through `fileio`'s reader, not `treeio`'s
    params = fixtures["levy-counterexample"] / "params.json"
    os.remove(out)
    with_params = loaded_modules(run_probe(
        "simulate", "--scenario", "levy", "--params", str(params),
        "--paths", "200", "--steps", "4", "--out", out))
    assert os.path.exists(out)
    assert with_params == simulate, with_params
    check = loaded_modules(run_probe(
        "check", "--tree", str(fixtures["insider-binomial"] / "tree.json"),
        "--out", out))
    assert check == {"cli", "cmd_common", "cmd_tree", "fileio", "treeio",
                     "filtered_space", "arbitrage"}, check
    version = loaded_modules(run_probe("--version"))
    assert version == {"cli", "cmd_common", "fileio"}, version
    # jacod and universal-z read the label law only; logutility prices with
    # the complete-market measure and needs no deflator
    labels = str(fixtures["insider-binomial"] / "labels.json")
    enlarge = {"cli", "cmd_common", "cmd_enlarge", "fileio", "treeio",
               "filtered_space", "enlargement"}
    extra = {"jacod": set(), "universal-z": set(), "logutility": {"arbitrage"},
             "insider": {"arbitrage", "deflator"}}
    for action, modules in extra.items():
        argv = ["enlarge", action, "--tree",
                str(fixtures["insider-binomial"] / "tree.json"),
                "--label-map", labels, "--out", out]
        loaded = loaded_modules(run_probe(*argv, "--event", "u")
                                if action == "insider" else run_probe(*argv))
        assert loaded == enlarge | modules, (action, loaded)


def main_modules(*argv):
    """(exit code, short names of the package modules imported) of one
    `python -X importtime -m deflator_lab.cli` child; the package itself
    is `deflator_lab`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "deflator_lab.cli", *argv],
        env=subprocess_env(), capture_output=True, text=True)
    names = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    return proc.returncode, {name.partition(".")[2] or name for name in names
                             if name.split(".")[0] == "deflator_lab"}


def test_main_compiles_the_cli_module_once(tmp_path, fixtures):
    """`python -m deflator_lab.cli` runs the parser module as `__main__`, so
    a handler module that imported `deflator_lab.cli` would compile it a
    second time.  One command per family, and `--version`, each import the
    package and exactly the modules they run, and never `cli` by name."""
    d = fixtures["insider-binomial"]
    tree, out = str(d / "tree.json"), str(tmp_path / "r.json")
    tree_side = {"cmd_common", "fileio", "treeio", "filtered_space"}
    cases = [
        (["--version"], {"cmd_common", "fileio"}),
        (["check", "--tree", tree, "--out", out],
         tree_side | {"cmd_tree", "arbitrage"}),
        (["enlarge", "logutility", "--tree", tree, "--label-map",
          str(d / "labels.json"), "--out", out],
         tree_side | {"cmd_enlarge", "enlargement", "arbitrage"}),
        (["simulate", "--scenario", "levy", "--paths", "200", "--steps", "4",
          "--out", out],
         {"cmd_common", "cmd_simulate", "fileio", "montecarlo"}),
        (["scenario", "jacod-coins", "--dir", str(tmp_path / "s"), "--out",
          out], tree_side | {"cmd_simulate", "scenarios"}),
    ]
    for argv, modules in cases:
        code, loaded = main_modules(*argv)
        assert code == 0, argv
        assert "cli" not in loaded, argv
        assert loaded == {"deflator_lab"} | modules, (argv[:2], loaded)


def test_simulate_runs_every_block_in_one_thread(tmp_path):
    """Two blocks of paths, which a worker pool would have split, load no
    thread-pool module, whatever --threads says."""
    probe = run_probe("simulate", "--scenario", "levy", "--paths", "5000",
                      "--threads", "4", "--out", str(tmp_path / "r.json"))
    probe += "\nimport sys\nprint('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False"


def test_measure_commands_load_no_arbitrage_layer(tmp_path, fixtures):
    """foellmer and ky-verify build and check a dominating measure: no
    one-step program runs, so neither the arbitrage layer nor the simplex
    loads.  A one-asset deflate and stopped-check solve their programs in
    closed form, without the simplex."""
    tree = str(fixtures["insider-binomial"] / "tree.json")
    deflated, out = str(tmp_path / "d.json"), str(tmp_path / "r.json")
    deflate = loaded_modules(run_probe("deflate", "--tree", tree,
                                       "--normalize", "--out", deflated,
                                       "--report", out))
    tree_side = {"cli", "cmd_common", "cmd_tree", "fileio", "treeio",
                 "filtered_space"}
    assert deflate == tree_side | {"arbitrage", "deflator"}, deflate
    measure = tree_side | {"kunita_yoeurp"}
    foellmer = loaded_modules(run_probe(
        "foellmer", "--tree", deflated, "--out", str(tmp_path / "q.json"),
        "--report", out))
    assert foellmer == measure, foellmer
    ky = loaded_modules(run_probe("ky-verify", "--tree", deflated,
                                  "--price", "S", "--out", out))
    assert ky == measure, ky
    stopped = loaded_modules(run_probe("stopped-check", "--tree", deflated,
                                       "--out", out))
    assert stopped == measure | {"arbitrage", "deflator"}, stopped


def test_tree_side_commands_start_without_dataclasses(tmp_path, fixtures):
    """`dataclasses` imports `inspect`, `ast` and `dis`, and each record class
    it builds execs generated code, so no tree-side command may load it.
    The commands run in turn in one child; each one's result lists what
    it had loaded by then, so the first to load a module is named."""
    d = fixtures["insider-binomial"]
    tree, deflated = str(d / "tree.json"), str(tmp_path / "d.json")
    out = str(tmp_path / "r.json")
    enlarge = ["--tree", tree, "--label-map", str(d / "labels.json"),
               "--out", out]
    commands = [
        ["--version"],
        ["scenario", "insider-binomial", "--dir", str(tmp_path / "s")],
        ["check", "--tree", tree, "--out", out],
        ["deflate", "--tree", tree, "--normalize", "--out", deflated,
         "--report", out],
        ["foellmer", "--tree", deflated, "--out", str(tmp_path / "q.json"),
         "--report", out],
        ["ky-verify", "--tree", deflated, "--price", "S", "--out", out],
        ["stopped-check", "--tree", deflated, "--out", out],
        ["enlarge", "jacod", *enlarge],
        ["enlarge", "universal-z", *enlarge],
        ["enlarge", "insider", *enlarge, "--event", "u"],
        ["enlarge", "logutility", *enlarge],
    ]
    probe = ("import json, sys\nfrom deflator_lab.cli import run\n"
             f"results = [(argv[:2], run(argv), sorted("
             f"{{'dataclasses', 'inspect'}} & set(sys.modules))) "
             f"for argv in {commands!r}]\n"
             "print(json.dumps(results))")
    stdout = subprocess.run([sys.executable, "-c", probe],
                            env=subprocess_env(), check=True,
                            capture_output=True, text=True).stdout
    results = json.loads(stdout.splitlines()[-1])
    # the fixture's density is a strict supermartingale, so stopped-check
    # finds drift and exits 1; every other command passes
    assert [code for _, code, _ in results] == [
        1 if argv[0] == "stopped-check" else 0 for argv in commands]
    for command, _, loaded in results:
        assert loaded == [], (command, loaded)


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


@pytest.mark.parametrize("scenario", ["diffusion", "levy", "insider"])
def test_simulate_threads_change_no_report(tmp_path, scenario):
    out = tmp_path / "r.json"
    reports = []
    for threads in ("1", "4"):
        assert run(["simulate", "--scenario", scenario, "--paths", "5000",
                    "--seed", "5", "--threads", threads,
                    "--out", str(out)]) == 0
        report = read(out)
        del report["timing_s"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_simulate_insider_verdicts_hold_their_level(tmp_path):
    """E[Z_t] is reported without a verdict (Z_t has infinite variance at
    the default horizon 1/2); the two verdicts reject the true law on none of
    these seeds."""
    out = tmp_path / "r.json"
    for seed in range(30):
        code = run(["simulate", "--scenario", "insider", "--paths", "200",
                    "--seed", str(seed), "--out", str(out)])
        report = read(out)
        assert report["verdicts"] == {"deflated_motion": True,
                                      "log_density": True}, seed
        assert code == 0, seed
        assert set(report["values"]["tests"]) == {
            "density_mean", "deflated_motion", "log_density"}


def test_simulate_rejects_negative_seeds(tmp_path, capsys):
    argv = ["simulate", "--scenario", "levy", "--paths", "200", "--steps", "4",
            "--out", str(tmp_path / "r.json")]
    assert run(argv + ["--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def console(*argv, stdout=subprocess.PIPE, unbuffered=False, **kwargs):
    """The entry point `main` in a child, as `python -m deflator_lab.cli`
    runs it.  Its stdout is block-buffered unless `unbuffered`, so a short
    report is still in the buffer when `run()` returns."""
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "deflator_lab.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          text=True, **kwargs)


@pytest.fixture()
def drifting_tree(tmp_path):
    """A deflated 255-node binomial tree whose density is a strict
    supermartingale: its stopped-check report to stdout lists a drift at
    every atom and is longer than the 8 KB stdout buffer."""
    from treegen import binomial_problem

    problem = binomial_problem(steps=7)
    tree, deflated = str(tmp_path / "b.json"), str(tmp_path / "bd.json")
    treeio.save(treeio.TreeFile(problem.tree, problem.P, {"S": problem.S}),
                tree)
    assert run(["deflate", "--tree", tree, "--normalize", "--out", deflated,
                "--report", str(tmp_path / "deflate.json")]) == 0
    return deflated


def test_reports_and_exit_codes_survive_the_hard_exit(fixtures, tmp_path,
                                                      drifting_tree):
    """`main` ends the process with `os._exit` once it has flushed the two
    streams: what `run()` wrote arrives whole, with `run()`'s exit code."""
    proc = console("stopped-check", "--tree", drifting_tree)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stdout) > 8192
    report = json.loads(proc.stdout)
    out = tmp_path / "stopped.json"
    assert run(["stopped-check", "--tree", drifting_tree,
                "--out", str(out)]) == 1
    expected = read(out)
    assert report["verdicts"] == expected["verdicts"] == {
        "deflation": True, "martingale": False}
    assert report["values"] == expected["values"]
    assert len(report["values"]["violations"]) == 127

    proc = console("check", "--tree",
                   str(fixtures["insider-binomial"] / "tree.json"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["verdicts"] == {"na": True, "na1": True}

    proc = console("check")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(
        "error: the following arguments are required: --tree\n"), proc.stderr

    # started with fd 1 closed, the child has no sys.stdout to flush
    out = tmp_path / "check.json"
    proc = console("check", "--tree", drifting_tree, "--out", str(out),
                   stdout=None, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert read(out)["verdicts"] == {"na": True, "na1": True}


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("size", ["short", "long"])
def test_closed_stdout_exits_2_with_one_line(fixtures, drifting_tree, size,
                                             unbuffered):
    """A stdout report that cannot be written or flushed, here to a pipe
    whose reader has closed it, exits 2 with one `i/o error` line and no
    traceback.  A short buffered report fails only when `main` flushes it,
    a long one already in `run()`."""
    tree = (str(fixtures["insider-binomial"] / "tree.json") if size == "short"
            else drifting_tree)
    command = "check" if size == "short" else "stopped-check"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = console(command, "--tree", tree, stdout=write_end,
                       unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "i/o error: [Errno 32] Broken pipe\n"


def test_simulate_zero_paths_exits_2_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "deflator_lab.cli", "simulate", "--scenario",
         "insider", "--paths", "0", "--out", str(tmp_path / "r.json")],
        env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "--paths" in proc.stderr


def test_ky_verify_on_a_long_path(tmp_path):
    """1500 levels: deeper than the default recursion limit of 1000."""
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
    assert report["values"] == {"failures": []}


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


@pytest.mark.parametrize("labels, named", [
    ({"1": "u"}, "every leaf needs a label: leaf 2 has none"),
    ({"0": "u", "1": "u", "2": "d"}, "key 0 names no leaf"),
    ({"1": "u", "2": "d", "7": "u"}, "key 7 names no leaf"),
    (["u", "d"], "JSON object"),
    ({"1": "u", "2": "d", "01": "d", "02": "u"}, "'01'"),
    ({" 1": "u", " 2": "d"}, "' 1'"),
    ({"1": "u", "2": "d", "\u0661": "u"}, "'\u0661'"),
    ({"1": None, "2": "d"}, "leaf 1"),
    ({"1": ["d"], "2": "u"}, "leaf 1"),
    ({"1": "u", "2": 2}, "leaf 2"),
], ids=["misses-a-leaf", "labels-the-root", "labels-an-absent-node",
        "json-list", "zero-padded-alias", "space-padded",
        "arabic-indic-digit", "null-label", "list-label", "number-label"])
def test_enlarge_rejects_bad_label_maps(fixtures, tmp_path, capsys, labels,
                                        named):
    """Keys follow the tree files' node-key rule and labels are JSON
    strings, so no entry aliases a leaf or turns into the text of a value;
    the error names the entry at fault."""
    tree, label_map = insider_files(fixtures, tmp_path, labels=labels)
    out = tmp_path / "r.json"
    assert run(["enlarge", "jacod", "--tree", tree, "--label-map", label_map,
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--label-map" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("action", ["jacod", "universal-z", "logutility",
                                    "insider"])
def test_a_repeated_name_in_a_label_map_exits_2(fixtures, tmp_path, capsys,
                                                action):
    tree, _ = insider_files(fixtures, tmp_path)
    label_map = tmp_path / "repeated-labels.json"
    label_map.write_text('{"1": "u", "1": "d", "2": "d"}')
    out = tmp_path / "r.json"
    assert run(["enlarge", action, "--tree", tree, "--label-map",
                str(label_map), "--event", "u", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: --label-map {label_map}: repeated name '1' in "
                   "a JSON object\n"), err
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


@pytest.mark.parametrize("scenario, params, named", [
    ("diffusion", {"pi": None}, "pi"),
    ("diffusion", {"mu": 1e308}, "parameters"),
    # the step horizon / steps rounds to 0, so every draw is 0
    ("insider", {"horizon": 5e-324}, "horizon"),
    # Z_T underflows to 0 on every path
    ("diffusion", {"horizon": 1e308, "steps": 2}, "parameters"),
], ids=["null-pi", "overflowing-mu", "zero-step", "underflowing-density"])
def test_simulate_rejects_degenerate_diffusion_params(tmp_path, capsys,
                                                      scenario, params, named):
    """Draws that carry no randomness give verdicts on nothing, so they
    exit 2 like those that overflow."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    out = tmp_path / "r.json"
    assert run(["simulate", "--scenario", scenario, "--params", str(path),
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


def test_readme_commands_parse(tmp_path, monkeypatch, capsys):
    """Every README command parses, and its tree-side commands run in order
    in a fresh directory with the exit codes that "Expected outcomes"
    states: 0, except 1 for `stopped-check` on `exponential-death`."""
    commands = list(readme_commands())
    assert len(commands) > 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    monkeypatch.chdir(tmp_path)
    tree_side = [argv for argv in commands if argv[0] != "simulate"]
    assert len(tree_side) > 10
    for argv in tree_side:
        want = 1 if argv[:3] == ["stopped-check", "--tree",
                                 "death/tree.json"] else 0
        assert run(argv) == want, (argv, capsys.readouterr().err)


def run_collect(argv, report, written=()):
    """(exit code, report without timing_s, bytes of each written file) of
    one run, with the outputs of any earlier run removed first."""
    for path in (report, *written):
        if os.path.exists(path):
            os.remove(path)
    with contextlib.redirect_stderr(io.StringIO()):
        code = run([str(a) for a in argv])
    doc = read(report) if os.path.exists(report) else None
    if doc is not None:
        doc.pop("timing_s")
    files = {}
    for path in written:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[str(path)] = fh.read()
    return code, doc, files


def test_tree_side_runs_are_deterministic(fixtures, tmp_path):
    """Each tree-side command, run twice on every bundled fixture, writes
    the same report once `timing_s` is removed and byte-identical files."""
    r = tmp_path / "r.json"
    codes = []

    def twice(argv, written=()):
        first = run_collect(argv, r, written)
        assert run_collect(argv, r, written) == first, argv
        assert (first[1] is None) == (first[0] == 2), argv
        codes.append(first[0])

    for name, d in sorted(fixtures.items()):
        tree = d / "tree.json"
        if not tree.exists():
            continue
        deflated = tmp_path / f"{name}.deflated.json"
        q = tmp_path / f"{name}.q.json"
        copy = tmp_path / f"{name}.copy"
        twice(["check", "--tree", tree, "--out", r])
        twice(["deflate", "--tree", tree, "--normalize", "--out", deflated,
               "--report", r], [deflated])
        source = deflated if deflated.exists() else tree
        twice(["foellmer", "--tree", source, "--out", q, "--report", r], [q])
        twice(["ky-verify", "--tree", source, "--out", r])
        twice(["ky-verify", "--tree", source, "--price", "S", "--out", r])
        twice(["stopped-check", "--tree", source, "--out", r])
        twice(["scenario", name, "--dir", copy, "--out", r],
              [copy / f for f in sorted(os.listdir(d))])
    assert codes.count(0) > len(codes) // 2 and 1 in codes


def test_enlarge_reports_do_not_depend_on_the_hash_seed(fixtures, tmp_path):
    """The label-keyed `enlarge` actions hold sets and dicts of labels; under
    two hash seeds every report and exit code must be the same."""
    argvs = []
    for name, events in (("insider-binomial", ("u", "d", "u,d")),
                         ("jacod-coins", ("h", "t", "h,t"))):
        d = fixtures[name]
        base = ["--tree", str(d / "tree.json"),
                "--label-map", str(d / "labels.json")]
        argvs += [["enlarge", action, *base]
                  for action in ("jacod", "universal-z", "logutility")]
        argvs += [["enlarge", "insider", *base, "--event", e] for e in events]
    out = str(tmp_path / "r.json")
    probe = (
        "import json, sys\n"
        "from deflator_lab.cli import run\n"
        "argvs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
        "got = []\n"
        "for argv in argvs:\n"
        "    code = run(argv + ['--out', out])\n"
        "    doc = json.load(open(out)) if code != 2 else None\n"
        "    if doc: doc.pop('timing_s')\n"
        "    got.append([code, doc])\n"
        "print(json.dumps(got))\n")
    results = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(argvs), out],
            env=subprocess_env() | {"PYTHONHASHSEED": seed},
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    assert results[0] == results[1]
    assert sum(code == 0 for code, _ in results[0]) >= len(argvs) // 2


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python writes ints of any length as text")
def test_deflate_refuses_a_density_too_long_to_write(tmp_path):
    """On the 2047-node tree whose leaf masses are 1/p for distinct primes,
    some values of the normalized density have more digits than Python's
    default int-to-str limit.  The reader would refuse them, so `deflate`
    exits 2 naming the process and the node, writes nothing, and prints no
    traceback."""
    from treegen import coprime_problem

    problem = coprime_problem(horizon=10, seed=1)
    assert len(problem.tree.nodes) == 2047
    tree, out = str(tmp_path / "tree.json"), str(tmp_path / "deflated.json")
    treeio.save(treeio.TreeFile(problem.tree, problem.P, {"S": problem.S}),
                tree)
    proc = subprocess.run(
        [sys.executable, "-m", "deflator_lab.cli", "deflate", "--tree", tree,
         "--price", "S", "--name", "Z", "--normalize", "--out", out],
        env=subprocess_env() | {"PYTHONINTMAXSTRDIGITS": "4300"},
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert re.search(r"processes\[Z\]\[\d+\]: .*PYTHONINTMAXSTRDIGITS",
                     proc.stderr), proc.stderr
    assert not os.path.exists(out)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python writes ints of any length as text")
@pytest.mark.parametrize("action", ["jacod", "universal-z"])
def test_enlarge_refuses_a_density_too_long_to_write(tmp_path, action):
    """The tree file fits the int-to-str limit, but its Jacod density and
    universal density do not: both commands exit 2 with one `error:` line
    naming the first such report value as the reader names fields, print no
    traceback and write no report."""
    from treegen import overlong_density_tree

    tree, P, labels = overlong_density_tree()
    path, label_map = tmp_path / "tree.json", tmp_path / "labels.json"
    treeio.save(treeio.TreeFile(tree, P, {}), str(path))
    label_map.write_text(json.dumps({str(k): v for k, v in labels.items()}))
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "deflator_lab.cli", "enlarge", action,
         "--tree", str(path), "--label-map", str(label_map), "--out", str(out)],
        env=subprocess_env() | {"PYTHONINTMAXSTRDIGITS": "4300"},
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.splitlines() == [
        "error: values.density[1,A]: cannot be written: a numerator or "
        "denominator has more digits than Python converts to text, so the "
        "reader would refuse it (PYTHONINTMAXSTRDIGITS raises the limit)"]
    assert not out.exists()


def test_a_missing_stdout_exits_2(fixtures):
    """Started with fd 1 closed, a command that reports to stdout exits 2,
    with one `i/o error` line when there is a stderr and none without."""
    tree = str(fixtures["insider-binomial"] / "tree.json")
    proc = console("check", "--tree", tree, stdout=None,
                   preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert proc.stderr == "i/o error: [Errno 9] Bad file descriptor: '<stdout>'\n"

    def close_both():
        os.close(1)
        os.close(2)

    proc = subprocess.run([sys.executable, "-m", "deflator_lab.cli", "check",
                           "--tree", tree], env=subprocess_env(),
                          preexec_fn=close_both)
    assert proc.returncode == 2


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--version"], ["--help"],
                                  ["check", "--help"]],
                         ids=["version", "help", "check-help"])
def test_lost_help_and_version_text_exits_2(argv, unbuffered):
    """--help and --version text into a pipe whose reader has closed it
    exits 2 with one `i/o error` line, block-buffered or not: argparse from
    Python 3.11 drops the OSError of its own write."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = console(*argv, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "i/o error: [Errno 32] Broken pipe\n"
