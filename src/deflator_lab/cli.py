"""Command-line front end: parse tree files, run the requested analysis, and
emit a machine-readable JSON report.

Exit codes: 0 when every checked verdict passes, 1 when a verdict fails, 2 on
usage, schema or I/O problems, a missing stdout, a lost stdout text and a
report value too long to write included.  Tree-side subcommands are exact,
so their exit codes never depend on floating point.  Reports are written
atomically and echo the fully resolved configuration, a provenance stamp
and wall-clock timing.

`run(argv)` is the in-process API: it returns the exit code and leaves the
interpreter as it was.  `main()`, the console entry point, calls `run()`,
flushes stdout and stderr and ends the process with `os._exit`, skipping the
interpreter's teardown (module cleanup, a last garbage collection, freeing
the heap), which changes nothing once every output is written and closed.
So `main()` runs no `atexit` handler; embedders call `run()`.

This module holds the parser, `run` and `main` only.  The handlers live in
one module per command family (`cmd_tree`, `cmd_enlarge`, `cmd_simulate`,
with what they share in `cmd_common`), and `run` imports the one it
dispatches to after parsing.  No module imports this one, so
`python -m deflator_lab.cli`, which runs it as `__main__`, compiles it once.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .cmd_common import CliError, write_stdout
from .fileio import TreeFileError

# -- argument parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Writes --help and --version text like a report: from Python 3.11
    argparse drops a failed write's OSError, so a lost text would exit 0."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            write_stdout(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deflator-lab",
        description="Exact arbitrage and deflator laboratory on event trees, "
                    "with seeded Monte Carlo for the continuous-time examples.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("--out", default=out_default,
                       help="write the JSON report here (default: stdout)")

    p = sub.add_parser("check", help="decide (NA) and (NA1) for a priced tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--price", default="S")
    p.add_argument("--both", action="store_true",
                   help="accepted and ignored: check always decides both")
    common(p)

    p = sub.add_parser("deflate", help="construct the optimal-value density")
    p.add_argument("--tree", required=True)
    p.add_argument("--price", default="S")
    p.add_argument("--out", required=True,
                   help="tree file to write, with the density added")
    p.add_argument("--name", default="Z")
    p.add_argument("--normalize", action="store_true",
                   help="rescale so the initial value is 1")
    p.add_argument("--report", default=None)

    p = sub.add_parser("foellmer",
                       help="build the dominating measure on the death-time "
                            "extension")
    p.add_argument("--tree", required=True)
    p.add_argument("--deflator", default="Z")
    p.add_argument("--out", required=True, help="extension measure JSON")
    p.add_argument("--report", default=None)

    p = sub.add_parser("ky-verify", help="verify the decomposition properties")
    p.add_argument("--tree", required=True)
    p.add_argument("--deflator", default="Z")
    p.add_argument("--price", default=None,
                   help="accepted and ignored, but must name a process of the "
                        "tree file: the stopped identities are property 3")
    common(p)

    p = sub.add_parser("stopped-check",
                       help="Q-martingale test of the pre-death price")
    p.add_argument("--tree", required=True)
    p.add_argument("--deflator", default="Z")
    p.add_argument("--price", default="S")
    common(p)

    p = sub.add_parser("enlarge", help="label-enlargement analysis")
    p.add_argument("action", choices=["jacod", "universal-z", "insider",
                                      "logutility"])
    p.add_argument("--tree", required=True)
    p.add_argument("--label-map", required=True)
    p.add_argument("--price", default="S")
    p.add_argument("--event", default=None,
                   help="comma-separated labels forming the insider event")
    common(p)

    p = sub.add_parser("simulate", help="seeded Monte Carlo scenarios")
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
    common(p)

    p = sub.add_parser("scenario", help="write a bundled fixture")
    p.add_argument("name")
    p.add_argument("--dir", default=".")
    common(p)
    return parser


def _handler(command: str):
    """`cmd_<command>` from its family's module, imported here so that a
    command compiles its own family's handlers only."""
    if command == "enlarge":
        from . import cmd_enlarge as family
    elif command in ("simulate", "scenario"):
        from . import cmd_simulate as family
    else:
        from . import cmd_tree as family
    return getattr(family, "cmd_" + command.replace("-", "_"))


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _handler(args.command)(args)
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
