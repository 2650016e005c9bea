"""What every command handler shares: the usage error, reading a tree file
and the processes it names, and the JSON report that `cli.run` builds from
a handler's findings and writes.

`cli` parses the command line and imports one handler module after parsing
(`cmd_tree`, `cmd_enlarge` or `cmd_simulate`), so a command compiles only
its own family's handlers.  A handler returns findings, not an exit code.
No handler module imports `cli`: under
`python -m deflator_lab.cli` that module runs as `__main__`, and importing
it by name would compile it a second time.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import __version__
from .fileio import TreeFileError, write_atomic

# Each handler imports the modules it runs, the tree-file reader among
# them, so a command compiles and loads only those.
if TYPE_CHECKING:
    from .filtered_space import AdaptedProcess
    from .treeio import TreeFile

SCHEMA_VERSION = "1"


class CliError(Exception):
    """Usage or input problem: exits with code 2."""


def strategy_json(strategy) -> dict:
    return {str(node): vec for node, vec in sorted(strategy.steps.items())}


def load_tree(path: str) -> TreeFile:
    from .treeio import load

    try:
        return load(path)
    except FileNotFoundError as exc:
        raise CliError(f"tree file not found: {path}") from exc
    except TreeFileError as exc:
        raise CliError(f"malformed tree file {path}: {exc}") from exc


def need_process(tf: TreeFile, name: str, path: str) -> AdaptedProcess:
    if name not in tf.processes:
        raise CliError(f"{path}: no process named {name!r} "
                       f"(available: {sorted(tf.processes)})")
    proc = tf.processes[name]
    try:
        proc.validate_for(tf.tree)
    except ValueError as exc:
        raise CliError(f"{path}: process {name!r}: {exc}") from exc
    return proc


def need_measure(tf: TreeFile, path: str):
    """The file's measure P; every analysis needs it to charge every leaf."""
    if tf.P is None:
        raise CliError(f"{path}: tree file carries no measure P")
    if not tf.P.strictly_positive:
        null = [leaf for leaf in tf.tree.leaves if tf.P.mass(leaf) == 0]
        raise CliError(f"{path}: P gives zero mass to leaves {null}; the "
                       "analysis needs a strictly positive measure")
    return tf.P


def wealth_problem(tf: TreeFile, args):
    """The priced tree: P and the --price process, whose dimension must be
    the tree's asset_dim."""
    from .arbitrage import WealthProblem

    P = need_measure(tf, args.tree)
    try:
        return WealthProblem(tf.tree, P, need_process(tf, args.price, args.tree))
    except (CliError, ValueError) as exc:
        raise CliError(f"--price: {exc}") from exc


def _jsonable(value):
    if isinstance(value, Fraction):     # the one conversion of a rational
        return str(value)
    if hasattr(value, "item"):          # numpy scalars
        return value.item()
    raise TypeError(f"not JSON serializable: {value!r}")


def _rationals(value, field: str = ""):
    """(field, (pair,)) for every rational in `value`, in report order,
    each field named in the reader's style: `values.density[1,A]`."""
    if isinstance(value, Fraction):
        yield field, (value.as_integer_ratio(),)
    elif isinstance(value, (dict, list, tuple)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        for key in keys:
            name = (f"{field}.{key}" if str(key).isidentifier()
                    else f"{field}[{key}]")
            yield from _rationals(value[key], name.lstrip("."))


def write_stdout(text: str) -> None:
    """Write to stdout; a missing one (fd 1 closed) fails as a closed pipe."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    sys.stdout.write(text)


def emit_report(report: dict, out: Optional[str]) -> None:
    """Write the report to `out` or stdout.  A writer refuses what the
    reader would: a rational too long for `str` raises the tree writer's
    TreeFileError naming its field, and nothing is written."""
    try:
        # one line: with no indent, json writes through its C encoder
        text = json.dumps(report, sort_keys=True, default=_jsonable) + "\n"
    except ValueError as exc:       # an int longer than str() converts
        from .treeio import _too_long

        raise _too_long(dict(_rationals(report))) from exc
    if out:
        write_atomic(out, text)
    else:
        write_stdout(text)


def make_report(args, operation: str, timing_s: float, verdicts: dict,
                values: dict, witnesses: Optional[dict] = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        # simulate's --threads selects nothing, so no report depends on it
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k != "threads"},
        "provenance": {"module": operation.split(".")[0], "operation": operation},
        "verdicts": verdicts,
        "values": values,
        "witnesses": witnesses or {},
        "timing_s": round(timing_s, 6),
        "version": __version__,
    }
