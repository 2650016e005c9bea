"""Which public functions of `src/deflator_lab` do the commands and the
acceptance criteria never enter?

Run from the repository root:

    PYTHONPATH=src python tests/reach.py

It runs, in this process, every CLI command on the bundled fixtures and
their deflated trees, the three `simulate` scenarios, and the 11 acceptance
criteria (`tests/test_acceptance.py`, through pytest), tracing every
function call with `sys.settrace`.  It then prints each public function or
method of the package (a name without a leading underscore, dunder methods
included, in a module or a class of its own) that none of them entered.
Error paths are tier-1's job, so a function that only a refusal reaches is
listed too.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile
import threading

import pytest

import deflator_lab
from deflator_lab.cli import run

PACKAGE_DIR = os.path.dirname(os.path.abspath(deflator_lab.__file__))
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))

# tree fixture -> the processes its tree file carries
TREE_FIXTURES = {"exponential-death": {"S", "Z"}, "insider-binomial": {"S"},
                 "jacod-coins": {"S"}, "singleton-supermartingale": {"Z"}}
# fixture with a label map -> the insider event `enlarge insider` replicates
LABELLED = {"insider-binomial": "u", "jacod-coins": "h"}


def public_functions() -> dict:
    """Code object -> `module.qualname` of every public function and method
    defined in the package's modules."""
    out = {}
    for info in pkgutil.iter_modules(deflator_lab.__path__):
        mod = importlib.import_module(f"deflator_lab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != mod.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", raw)
                           for attr, raw in vars(obj).items()
                           if not attr.startswith("_") or attr.endswith("__")]
            for qualname, raw in members:
                if isinstance(raw, (classmethod, staticmethod)):
                    raw = raw.__func__
                elif isinstance(raw, property):
                    raw = raw.fget
                code = getattr(raw, "__code__", None)
                if code is not None and code.co_filename.startswith(
                        PACKAGE_DIR):
                    out[code] = f"{info.name}.{qualname}"
    return out


def commands(work: str) -> None:
    """Every CLI command on the bundled fixtures and their deflated trees,
    and the three `simulate` scenarios with CSV output.  `check` writes its
    report to stdout, the others to files."""
    def cli(*argv: str) -> None:
        to_file = "--out" in argv or argv[0] == "check"
        run([*argv, *(() if to_file else ("--out", report))])

    report = os.path.join(work, "report.json")
    for name in (*TREE_FIXTURES, "levy-counterexample"):
        cli("scenario", name, "--dir", os.path.join(work, name))
    for name, processes in TREE_FIXTURES.items():
        base = os.path.join(work, name)
        tree = os.path.join(base, "tree.json")
        deflated = os.path.join(base, "deflated.json")
        if "S" in processes:
            cli("check", "--tree", tree)
            # writes nothing where (NA1) fails
            cli("deflate", "--tree", tree, "--out", deflated, "--normalize",
                "--report", report)
        trees = {tree: processes}
        if os.path.exists(deflated):
            trees[deflated] = {"S", "Z"}
        for source, carried in trees.items():
            if "Z" in carried:
                cli("foellmer", "--tree", source, "--out",
                    os.path.join(base, "points.json"), "--report", report)
                cli("ky-verify", "--tree", source)
            if carried == {"S", "Z"}:
                cli("stopped-check", "--tree", source)
        if name in LABELLED:
            labels = os.path.join(base, "labels.json")
            for action in ("jacod", "universal-z", "insider", "logutility"):
                cli("enlarge", action, "--tree", tree, "--label-map", labels,
                    "--event", LABELLED[name])
    for scenario in ("diffusion", "levy", "insider"):
        cli("simulate", "--scenario", scenario, "--paths", "200",
            "--csv", os.path.join(work, f"{scenario}.csv"),
            "--paths-csv", os.path.join(work, f"{scenario}-paths.csv"))
    cli("simulate", "--scenario", "levy", "--paths", "200", "--params",
        os.path.join(work, "levy-counterexample", "params.json"))


def main() -> int:
    functions = public_functions()
    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        with tempfile.TemporaryDirectory() as work, \
                contextlib.redirect_stdout(io.StringIO()):
            commands(work)
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            os.path.join(TESTS_DIR, "test_acceptance.py")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"the acceptance criteria failed (pytest exit {code})")
        return 1
    missed = sorted(name for c, name in functions.items() if c not in entered)
    print(f"{len(functions) - len(missed)} of {len(functions)} public "
          f"functions entered; never entered:")
    for name in missed:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
