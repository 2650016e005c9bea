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
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import __version__
from .fileio import TreeFileError, write_atomic

# Each subcommand imports the modules it runs, the tree-file reader among
# them, so a command compiles and loads only those.
if TYPE_CHECKING:
    from .filtered_space import AdaptedProcess
    from .montecarlo import MartingaleTest
    from .treeio import TreeFile

SCHEMA_VERSION = "1"


class CliError(Exception):
    """Usage or input problem: exits with code 2."""


def strategy_json(strategy) -> dict:
    return {str(node): vec for node, vec in sorted(strategy.steps.items())}


def test_json(t: MartingaleTest) -> dict:
    return {"mean": t.mean, "se": t.se, "z": t.z, "n_paths": t.n_paths,
            "target": t.target, "crit": t.crit, "verdict": t.verdict}


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
    null = [leaf for leaf in tf.tree.leaves if tf.P.mass(leaf) == 0]
    if null:
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
    """(field, (rational,)) for every rational in `value`, in report order,
    each field named in the reader's style: `values.density[1,A]`."""
    if isinstance(value, Fraction):
        yield field, (value,)
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
        text = json.dumps(report, indent=2, sort_keys=True,
                          default=_jsonable) + "\n"
    except ValueError as exc:       # an int longer than str() converts
        from .treeio import _too_long

        raise _too_long(dict(_rationals(report))) from exc
    if out:
        write_atomic(out, text)
    else:
        write_stdout(text)


def make_report(args, operation: str, started: float, verdicts: dict,
                values: dict, witnesses: Optional[dict] = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        # simulate's --threads selects nothing, so no report depends on it
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func", "threads")},
        "provenance": {"module": operation.split(".")[0], "operation": operation},
        "verdicts": verdicts,
        "values": values,
        "witnesses": witnesses or {},
        "timing_s": round(time.perf_counter() - started, 6),
        "version": __version__,
    }


# -- subcommands -----------------------------------------------------------------


def cmd_check(args) -> int:
    """Both verdicts, always: need_measure makes P strictly positive, under
    which (NA) and (NA1) coincide on a finite tree."""
    from .arbitrage import check_na1

    started = time.perf_counter()
    result = check_na1(wealth_problem(load_tree(args.tree), args))
    verdicts = {"na": result.na_holds, "na1": result.na1_holds}
    values = {"na_optimum": result.na_optimum,
              "optimal_value": "inf" if result.unbounded else result.optimal_value}
    witnesses = {}
    if result.witness is not None:
        witnesses["strategy"] = strategy_json(result.witness)
    emit_report(make_report(args, "arbitrage.check", started, verdicts, values,
                            witnesses), args.out)
    return 0 if all(verdicts.values()) else 1


def cmd_deflate(args) -> int:
    from .deflator import Na1FailsOnAtom, construct_deflator, verify_deflation
    from .treeio import save

    if args.name == args.price:
        raise CliError(f"--name {args.name!r} is the --price process; writing "
                       "the density under it would overwrite the prices")
    started = time.perf_counter()
    tf = load_tree(args.tree)
    problem = wealth_problem(tf, args)
    try:
        deflator = construct_deflator(problem)
    except Na1FailsOnAtom as exc:
        report = make_report(args, "deflator.construct", started,
                             {"na1": False, "constructed": False},
                             {"atom": exc.atom, "ray": exc.ray})
        emit_report(report, args.report)
        return 1
    if args.normalize:
        deflator = deflator.normalized(tf.tree)
    certificate = verify_deflation(problem, deflator)
    tf.processes[args.name] = deflator.Z
    save(tf, args.out)
    report = make_report(
        args, "deflator.construct", started,
        {"na1": True, "constructed": True, "certified": certificate.certified},
        {"initial_value": deflator.Z.at(tf.tree.root), "written": args.out})
    emit_report(report, args.report)
    return 0 if certificate.certified else 1


def _dominating_measure(args, tf):
    """The dominating measure of the --deflator process, rescaled by its root
    value Z_0 so that E[Z_0] = 1; a deflator needs Z_0 > 0."""
    from .kunita_yoeurp import KyError, build_dominating_measure

    P = need_measure(tf, args.tree)
    Z = need_process(tf, args.deflator, args.tree)
    if Z.dim != 1 or Z.at(tf.tree.root) <= 0:
        raise CliError(f"--deflator {args.deflator!r}: need a scalar process "
                       "with Z_0 > 0 at the root, since Z is rescaled by Z_0")
    Z = Z.divided_by(tf.tree.root)
    try:
        return build_dominating_measure(tf.tree, P, Z)
    except (KyError, ValueError) as exc:
        raise CliError(f"cannot build the dominating measure: {exc}") from exc


def cmd_foellmer(args) -> int:
    from .treeio import save_points

    started = time.perf_counter()
    tf = load_tree(args.tree)
    count = save_points(_dominating_measure(args, tf)._records(), args.out)
    report = make_report(args, "kunita_yoeurp.build", started,
                         {"built": True},
                         {"points": count, "written": args.out})
    emit_report(report, args.report)
    return 0


def cmd_ky_verify(args) -> int:
    """The three decomposition properties.  A stopped identity at a stopping
    time's stop node is property 3 there, so `--price` selects nothing; a
    name the tree file lacks still exits 2."""
    from .kunita_yoeurp import verify_ky

    started = time.perf_counter()
    tf = load_tree(args.tree)
    dm = _dominating_measure(args, tf)
    if args.price is not None:
        try:
            need_process(tf, args.price, args.tree)
        except CliError as exc:
            raise CliError(f"--price: {exc}") from exc
    result = verify_ky(dm)
    report = make_report(args, "kunita_yoeurp.verify", started,
                         {"kunita_yoeurp": result.passed},
                         {"failures": result.failures})
    emit_report(report, args.out)
    return 0 if result.passed else 1


def cmd_stopped_check(args) -> int:
    from .kunita_yoeurp import check_stopped_price

    started = time.perf_counter()
    tf = load_tree(args.tree)
    dm = _dominating_measure(args, tf)
    result = check_stopped_price(dm, wealth_problem(tf, args).S)
    report = make_report(
        args, "kunita_yoeurp.stopped_price", started,
        {"martingale": result.is_martingale,
         "deflation": result.deflation.certified},
        {"violations": [{"atom": atom, "drift": drift}
                        for atom, drift in result.violations]})
    emit_report(report, args.out)
    return 0 if result.is_martingale and result.deflation.certified else 1


def load_labels(path: str) -> dict[int, str]:
    from .treeio import _node_key

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"label map not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed label map {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError(f"--label-map {path}: expected a JSON object of leaf "
                       f"id to label, got {type(raw).__name__}")
    labels: dict[int, str] = {}
    for key, value in raw.items():
        leaf = _node_key(key, f"--label-map {path}")
        if not isinstance(value, str):
            raise CliError(f"--label-map {path}: the label of leaf {key} must "
                           f"be a JSON string, got {json.dumps(value)}")
        labels[leaf] = value
    return labels


def cmd_enlarge(args) -> int:
    from .enlargement import (EnlargementSpec, IncompleteMarketError,
                              insider_example, jacod_check,
                              log_utility_identity, universal_density)

    started = time.perf_counter()
    tf = load_tree(args.tree)
    P = need_measure(tf, args.tree)
    try:
        spec = EnlargementSpec(tf.tree, P, load_labels(args.label_map))
    except ValueError as exc:
        raise CliError(f"--label-map {args.label_map}: {exc}") from exc
    if args.action == "jacod":
        result = jacod_check(spec)
        report = make_report(
            args, "enlargement.jacod", started,
            {"jacod": result.holds, "reverse": result.reverse_holds,
             "equivalent": result.equivalent},
            {"density": {f"{v},{lab}": y for (v, lab), y in result.Y.items()}})
        emit_report(report, args.out)
        return 0 if result.holds else 1
    if args.action == "universal-z":
        Z = universal_density(spec)
        report = make_report(
            args, "enlargement.universal_density", started,
            {"built": True},
            {"density": {f"{v},{lab}": z for (v, lab), z in Z.values.items()}})
        emit_report(report, args.out)
        return 0
    S = wealth_problem(tf, args).S
    if args.action == "insider":
        if not args.event:
            raise CliError("insider analysis needs --event LABEL[,LABEL...]")
        try:
            result = insider_example(spec, S, set(args.event.split(",")))
        except (IncompleteMarketError, ValueError) as exc:
            raise CliError(str(exc)) from exc
        report = make_report(
            args, "enlargement.insider", started,
            {"emm_infeasible": result.emm_infeasible,
             "na1_enlarged": bool(result.na1_product.na1_holds),
             "certified": result.contradiction_certified},
            {"replication_cost": result.value_process.at(0)},
            {"hedge": strategy_json(result.hedge)})
        emit_report(report, args.out)
        return 0 if result.contradiction_certified else 1
    if args.action == "logutility":
        try:
            result = log_utility_identity(spec, S)
        except (IncompleteMarketError, ValueError) as exc:
            raise CliError(str(exc)) from exc
        tol = result.FLOAT_TOLERANCE
        verdicts = {
            "identity": abs(result.identity_gap) <= tol,
            "information_nonnegative": result.mutual_information >= -tol}
        report = make_report(
            args, "enlargement.log_utility", started, verdicts,
            {"u_base": result.u_base, "u_insider": result.u_insider,
             "mutual_information": result.mutual_information,
             "gap": result.identity_gap, "float_tolerance": tol})
        emit_report(report, args.out)
        return 0 if all(verdicts.values()) else 1
    raise CliError(f"unknown enlarge action {args.action!r}")


def load_params(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            params = json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"params file not found: {path}") from exc
    except ValueError as exc:       # bad JSON, not UTF-8, or an overlong int
        raise CliError(f"--params {path}: malformed params file: {exc}") from exc
    if not isinstance(params, dict):
        raise CliError(f"--params {path}: expected a JSON object of scenario "
                       f"parameters, got {type(params).__name__}")
    return params


def cmd_simulate(args) -> int:
    # numpy and dataclasses load here only, so the exact tree-side commands
    # start without them
    import dataclasses

    import numpy as np

    from .montecarlo import (MIN_PATHS_FOR_VERDICT, STREAM_VERSION,
                             DiffusionScenario, InsiderDriftScenario,
                             LevyScenario, analytic_frozen_mean,
                             diffusion_report, information_drift_deflator,
                             sample_diffusion_paths, sample_insider_paths,
                             sample_levy_paths, simulate_levy_counterexample,
                             simulate_survival_measure)

    started = time.perf_counter()
    if args.threads < 1:
        raise CliError(f"--threads must be at least 1 (got {args.threads})")
    if not (math.isfinite(args.confidence) and args.confidence > 0):
        raise CliError(f"--confidence must be finite and positive "
                       f"(got {args.confidence})")
    if args.paths_csv and args.sample_paths < 1:
        raise CliError(f"--sample-paths must be at least 1 with --paths-csv "
                       f"(got {args.sample_paths})")
    defaults = {"diffusion": {"mu": 0.2, "sigma": 1.0},
                "levy": {"a": 2.0, "b": 1.0},
                "insider": {}}
    params = defaults.get(args.scenario, {}) | (
        load_params(args.params) if args.params else {})
    for key in ("paths", "steps", "seed"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    params.setdefault("seed", 0)
    paths = params.get("paths")
    if isinstance(paths, int) and paths < MIN_PATHS_FOR_VERDICT:
        raise CliError(f"--paths must be at least {MIN_PATHS_FOR_VERDICT}, "
                       f"the fewest that give a verdict (got {paths})")
    tests: dict[str, MartingaleTest] = {}
    expectations: dict[str, bool] = {}
    values: dict = {}

    def adjust(t: MartingaleTest) -> MartingaleTest:
        return dataclasses.replace(t, crit=args.confidence)

    sampler = None
    pi = None
    # overflow and invalid operations raise FloatingPointError, an
    # ArithmeticError, so no inf or nan reaches the report
    saved = np.seterr(over="raise", invalid="raise", divide="raise")
    try:
        if args.scenario == "diffusion":
            pi = params.pop("pi", 1.0)
            sc = DiffusionScenario(**params)
            sampler = lambda n: sample_diffusion_paths(sc, n)
            result = diffusion_report(sc, pi)
            tests = {"density_mean": adjust(result.density_mean),
                     "deflated_price": adjust(result.deflated_price),
                     "deflated_wealth": adjust(result.deflated_wealth)}
            allowance = 2.0 / sc.steps
            expectations = {
                "density_mean": tests["density_mean"].consistent,
                "deflated_price": abs(tests["deflated_price"].mean)
                <= tests["deflated_price"].crit * tests["deflated_price"].se
                + allowance,
                "deflated_wealth": abs(tests["deflated_wealth"].mean)
                <= tests["deflated_wealth"].crit * tests["deflated_wealth"].se
                + allowance,
            }
            values["discretization_allowance"] = allowance
        elif args.scenario == "levy":
            pi = params.pop("pi", 1.0)
            sc = LevyScenario(**params)
            sampler = lambda n: sample_levy_paths(sc, n)
            raw, corrected = simulate_levy_counterexample(sc)
            survival = simulate_survival_measure(sc, pi)
            tests = {"frozen": adjust(raw), "repaired": adjust(corrected),
                     "survival": adjust(survival)}
            raw, corrected, survival = (tests["frozen"], tests["repaired"],
                                        tests["survival"])
            analytic = analytic_frozen_mean(sc)
            expectations = {
                "frozen_rejects": raw.rejects,
                "frozen_matches_analytic":
                    abs(raw.mean - analytic) <= raw.crit * raw.se,
                "repaired_consistent": corrected.consistent,
                "survival_gap_nonpositive":
                    survival.mean <= survival.crit * survival.se,
            }
            values["analytic_frozen_mean"] = analytic
        elif args.scenario == "insider":
            sc = InsiderDriftScenario(**params)
            sampler = lambda n: sample_insider_paths(sc, n)
            result = information_drift_deflator(sc)
            tests = {"density_mean": adjust(result.density_mean),
                     "deflated_motion": adjust(result.deflated_motion),
                     "log_density": adjust(result.log_density)}
            # Z_t's mean has no verdict (infinite variance from t = 1/4 on);
            # log Z_t's grid mean is exact, so it takes no allowance
            motion = tests["deflated_motion"]
            allowance = 2.0 / sc.steps
            expectations = {
                "deflated_motion":
                    abs(motion.mean) <= motion.crit * motion.se + allowance,
                "log_density": tests["log_density"].consistent,
            }
            values["discretization_allowance"] = allowance
        else:
            raise CliError(f"unknown scenario {args.scenario!r}")
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise CliError(f"invalid simulation parameters: {exc}") from exc
    finally:
        np.seterr(**saved)

    values["scenario"] = dataclasses.asdict(sc) | (
        {} if pi is None else {"pi": pi})
    values["stream_version"] = STREAM_VERSION

    values["tests"] = {name: test_json(t) for name, t in tests.items()}
    report = make_report(args, f"montecarlo.{args.scenario}", started,
                         expectations, values)
    emit_report(report, args.out)
    if args.csv:
        rows = ["name,mean,se,z,n_paths,verdict"]
        rows += [f"{name},{t.mean!r},{t.se!r},{t.z!r},{t.n_paths},{t.verdict}"
                 for name, t in tests.items()]
        write_atomic(args.csv, "\n".join(rows) + "\n")
    if args.paths_csv and sampler is not None:
        batch = sampler(args.sample_paths)
        rows = batch.summary_rows()
        header = list(rows[0]) if rows else ["path", "seed"]
        lines = [",".join(header)]
        lines += [",".join(repr(row[k]) if isinstance(row[k], float)
                           else str(row[k]) for k in header) for row in rows]
        write_atomic(args.paths_csv, "\n".join(lines) + "\n")
    return 0 if all(expectations.values()) else 1


def cmd_scenario(args) -> int:
    from . import scenarios

    started = time.perf_counter()
    try:
        written = scenarios.write_scenario(args.name, args.dir)
    except KeyError:
        raise CliError(f"unknown scenario {args.name!r}; available: "
                       f"{', '.join(scenarios.available())}")
    report = make_report(args, "cli.scenario", started, {"written": True},
                         {"files": written})
    emit_report(report, args.out)
    return 0


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
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("deflate", help="construct the optimal-value density")
    p.add_argument("--tree", required=True)
    p.add_argument("--price", default="S")
    p.add_argument("--out", required=True,
                   help="tree file to write, with the density added")
    p.add_argument("--name", default="Z")
    p.add_argument("--normalize", action="store_true",
                   help="rescale so the initial value is 1")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_deflate)

    p = sub.add_parser("foellmer",
                       help="build the dominating measure on the death-time "
                            "extension")
    p.add_argument("--tree", required=True)
    p.add_argument("--deflator", default="Z")
    p.add_argument("--out", required=True, help="extension measure JSON")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_foellmer)

    p = sub.add_parser("ky-verify", help="verify the decomposition properties")
    p.add_argument("--tree", required=True)
    p.add_argument("--deflator", default="Z")
    p.add_argument("--price", default=None,
                   help="accepted and ignored, but must name a process of the "
                        "tree file: the stopped identities are property 3")
    common(p)
    p.set_defaults(func=cmd_ky_verify)

    p = sub.add_parser("stopped-check",
                       help="Q-martingale test of the pre-death price")
    p.add_argument("--tree", required=True)
    p.add_argument("--deflator", default="Z")
    p.add_argument("--price", default="S")
    common(p)
    p.set_defaults(func=cmd_stopped_check)

    p = sub.add_parser("enlarge", help="label-enlargement analysis")
    p.add_argument("action", choices=["jacod", "universal-z", "insider",
                                      "logutility"])
    p.add_argument("--tree", required=True)
    p.add_argument("--label-map", required=True)
    p.add_argument("--price", default="S")
    p.add_argument("--event", default=None,
                   help="comma-separated labels forming the insider event")
    common(p)
    p.set_defaults(func=cmd_enlarge)

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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scenario", help="write a bundled fixture")
    p.add_argument("name")
    p.add_argument("--dir", default=".")
    common(p)
    p.set_defaults(func=cmd_scenario)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
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
