"""Command-line front end: parse tree files, run the requested analysis, and
emit a machine-readable JSON report.

Exit codes: 0 when every judged verdict (all but `UNJUDGED`) passes, 1 when
one fails, 2 on usage, schema or I/O problems, a missing stdout, a lost
stdout text and a report value too long to write included.  Tree-side
subcommands are exact, so their exit codes never depend on floating point.
Reports are written atomically, after every other file a command writes,
and echo the fully resolved configuration, a provenance stamp and the
wall-clock time from just before the handler.

`run(argv)` is the in-process API: it returns the exit code and leaves the
interpreter as it was.  `main()`, the console entry point, calls `run()`,
flushes stdout and stderr and ends the process with `os._exit`, skipping the
interpreter's teardown (module cleanup, a last garbage collection, freeing
the heap), which changes nothing once every output is written and closed.
So `main()` runs no `atexit` handler; embedders call `run()`.

This module holds the parser, `run` and `main` only.  The handlers live in
one module per command family (`cmd_tree`, `cmd_enlarge`, `cmd_simulate`,
with what they share in `cmd_common`), and `run` imports the one it
dispatches to after parsing.  A handler returns its findings, not an exit
code; `run` times it and writes and judges its report.  No module imports
this one, so `python -m deflator_lab.cli`, which runs it as `__main__`,
compiles it once.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional

from . import __version__
from .cmd_common import CliError, emit_report, make_report, write_stdout
from .fileio import TreeFileError, collector_paused

# -- argument parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Writes --help and --version text like a report: from Python 3.11
    argparse drops a failed write's OSError, so a lost text would exit 0."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            write_stdout(message)
        else:
            super()._print_message(message, file)


def _common(p, out_default=None):
    p.add_argument("--out", default=out_default,
                   help="write the JSON report here (default: stdout)")


def _check(p):
    p.add_argument("--tree", required=True)
    p.add_argument("--price", default="S")
    p.add_argument("--both", action="store_true",
                   help="accepted and ignored: check always decides both")
    _common(p)


def _deflate(p):
    p.add_argument("--tree", required=True)
    p.add_argument("--price", default="S")
    p.add_argument("--out", required=True,
                   help="tree file to write, with the density added")
    p.add_argument("--name", default="Z")
    p.add_argument("--normalize", action="store_true",
                   help="rescale so the initial value is 1")
    p.add_argument("--report", default=None)


def _foellmer(p):
    p.add_argument("--tree", required=True)
    p.add_argument("--deflator", default="Z")
    p.add_argument("--out", required=True, help="extension measure JSON")
    p.add_argument("--report", default=None)


def _ky_verify(p):
    p.add_argument("--tree", required=True)
    p.add_argument("--deflator", default="Z")
    p.add_argument("--price", default=None,
                   help="accepted and ignored, but must name a process of the "
                        "tree file: the stopped identities are property 3")
    _common(p)


def _stopped_check(p):
    p.add_argument("--tree", required=True)
    p.add_argument("--deflator", default="Z")
    p.add_argument("--price", default="S")
    _common(p)


def _enlarge(p):
    p.add_argument("action", choices=["jacod", "universal-z", "insider",
                                      "logutility"])
    p.add_argument("--tree", required=True)
    p.add_argument("--label-map", required=True)
    p.add_argument("--price", default="S")
    p.add_argument("--event", default=None,
                   help="comma-separated labels forming the insider event")
    _common(p)


def _simulate(p):
    p.add_argument("--scenario", required=True,
                   choices=["diffusion", "levy", "insider"])
    p.add_argument("--params", default=None, help="scenario parameter JSON")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: blocks run in one thread")
    p.add_argument("--confidence", type=float, default=3.0,
                   help="two-sided verdict threshold in standard errors")
    p.add_argument("--csv", default=None, help="write test summaries as CSV")
    p.add_argument("--paths-csv", default=None,
                   help="write per-path summaries of sampled trajectories")
    p.add_argument("--sample-paths", type=int, default=100,
                   help="how many trajectories --paths-csv summarizes")
    _common(p)


def _scenario(p):
    p.add_argument("name")
    p.add_argument("--dir", default=".")
    _common(p)


# each command's help and the function that adds its arguments, in the order
# that usage lines and --help list them
_COMMANDS = {
    "check": ("decide (NA) and (NA1) for a priced tree", _check),
    "deflate": ("construct the optimal-value density", _deflate),
    "foellmer": ("build the dominating measure on the death-time extension",
                 _foellmer),
    "ky-verify": ("verify the decomposition properties", _ky_verify),
    "stopped-check": ("Q-martingale test of the pre-death price",
                      _stopped_check),
    "enlarge": ("label-enlargement analysis", _enlarge),
    "simulate": ("seeded Monte Carlo scenarios", _simulate),
    "scenario": ("write a bundled fixture", _scenario),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or with `command` one that holds that
    command's subparser only.  Its usage line still lists every command, so
    each usage line and error message it prints is the full parser's."""
    parser = _Parser(
        prog="deflator-lab",
        description="Exact arbitrage and deflator laboratory on event trees, "
                    "with seeded Monte Carlo for the continuous-time examples.")
    parser.add_argument("--version", action="version", version=__version__)
    # the full parser keeps argparse's own metavar: an explicit one would
    # also rename the command in its errors ("required: command"), which a
    # parser holding one command never prints
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse with the one subparser that `argv` names first; with an option
    first (--help, --version) or no known command, with the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    return build_parser(command).parse_args(argv)


# Jacod's converse, and the equivalence it completes, are findings about the
# label map: a run reports them and never fails on them
UNJUDGED = frozenset({"reverse", "equivalent"})


def _report(args) -> int:
    """Run the handler, importing only its family's module, and write its
    report to --report where the command has that flag (its --out is a tree
    or points file), else to --out or stdout.  Exit 1 if a judged verdict
    fails."""
    if args.command == "enlarge":
        from . import cmd_enlarge as family
    elif args.command in ("simulate", "scenario"):
        from . import cmd_simulate as family
    else:
        from . import cmd_tree as family
    handler = getattr(family, "cmd_" + args.command.replace("-", "_"))
    started = time.perf_counter()
    operation, verdicts, values, *witnesses = handler(args)
    report = make_report(args, operation, time.perf_counter() - started,
                         verdicts, values, *witnesses)
    emit_report(report, getattr(args, "report", args.out))
    return int(not all(ok for name, ok in verdicts.items()
                       if name not in UNJUDGED))


def run(argv=None) -> int:
    try:
        args = _parse(argv)
        if args.command == "simulate":
            # pausing the collector across numpy's import leaves its cyclic
            # garbage in memory: a higher peak
            return _report(args)
        # the tree commands build pair tables and reports, which hold no
        # reference cycle, so a collector pass over them would free nothing
        with collector_paused():
            return _report(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    except (CliError, TreeFileError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


def main() -> None:
    """Run the command line on sys.argv and end the process without
    interpreter teardown (see the module docstring).  A stdout report still
    in the buffer is flushed here; if that fails, as on a closed pipe, the
    process exits 2 with one `i/o error` line."""
    if sys.stderr is None:              # started with fd 2 closed
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    code = run()
    try:
        if sys.stdout is not None:      # None when started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        if code != 2:                   # an exit 2 has written its error line
            code = 2
            sys.stderr.write(f"i/o error: {exc}\n")
    try:
        sys.stderr.flush()
    except OSError:                     # nowhere left to report it
        pass
    os._exit(code)


if __name__ == "__main__":
    main()
