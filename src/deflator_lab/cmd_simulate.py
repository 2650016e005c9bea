"""The Monte Carlo and fixture commands: `simulate` and `scenario`.  Each
writes its files and returns its findings, not an exit code; `cli.run`
imports this module only to dispatch to one of them."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .cmd_common import CliError
from .fileio import TreeFileError, parse_object, read_text, write_atomic

if TYPE_CHECKING:
    from .montecarlo import MartingaleTest


def test_json(t: MartingaleTest) -> dict:
    return {"mean": t.mean, "se": t.se, "z": t.z, "n_paths": t.n_paths,
            "target": t.target, "crit": t.crit, "verdict": t.verdict}


def load_params(path: str) -> dict:
    try:
        return parse_object(read_text(path))
    except FileNotFoundError as exc:
        raise CliError(f"params file not found: {path}") from exc
    except TreeFileError as exc:
        raise CliError(f"--params {path}: {exc}") from exc


def cmd_simulate(args) -> tuple:
    # compiling montecarlo before numpy loads (montecarlo imports it) lets
    # numpy reuse the memory the compiler frees: a lower peak RSS
    from .montecarlo import MIN_PATHS_FOR_VERDICT, SIMULATIONS, STREAM_VERSION
    import numpy as np

    if args.threads < 1:
        raise CliError(f"--threads must be at least 1 (got {args.threads})")
    if not (math.isfinite(args.confidence) and args.confidence > 0):
        raise CliError(f"--confidence must be finite and positive "
                       f"(got {args.confidence})")
    if args.paths_csv and args.sample_paths < 1:
        raise CliError(f"--sample-paths must be at least 1 with --paths-csv "
                       f"(got {args.sample_paths})")
    params = load_params(args.params) if args.params else {}
    for key in ("paths", "steps", "seed"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    paths = params.get("paths")
    if isinstance(paths, int) and paths < MIN_PATHS_FOR_VERDICT:
        raise CliError(f"--paths must be at least {MIN_PATHS_FOR_VERDICT}, "
                       f"the fewest that give a verdict (got {paths})")
    # overflow and invalid operations raise FloatingPointError, an
    # ArithmeticError, so no inf or nan reaches the report; so does
    # underflow, which leaves draws without randomness (a density that is 0
    # on every path)
    saved = np.seterr(over="raise", invalid="raise", divide="raise",
                      under="raise")
    try:
        tests, verdicts, values, sample = SIMULATIONS[args.scenario](
            params, args.confidence)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise CliError(f"invalid simulation parameters: {exc}") from exc
    finally:
        np.seterr(**saved)

    values["stream_version"] = STREAM_VERSION
    values["tests"] = {name: test_json(t) for name, t in tests.items()}
    if args.csv:
        rows = ["name,mean,se,z,n_paths,verdict"]
        rows += [f"{name},{t.mean!r},{t.se!r},{t.z!r},{t.n_paths},{t.verdict}"
                 for name, t in tests.items()]
        write_atomic(args.csv, "\n".join(rows) + "\n")
    if args.paths_csv:
        rows = sample(args.sample_paths).summary_rows()
        header = list(rows[0]) if rows else ["path", "seed"]
        lines = [",".join(header)]
        lines += [",".join(repr(row[k]) if isinstance(row[k], float)
                           else str(row[k]) for k in header) for row in rows]
        write_atomic(args.paths_csv, "\n".join(lines) + "\n")
    return f"montecarlo.{args.scenario}", verdicts, values


def cmd_scenario(args) -> tuple:
    from . import scenarios

    try:
        written = scenarios.write_scenario(args.name, args.dir)
    except KeyError:
        raise CliError(f"unknown scenario {args.name!r}; available: "
                       f"{', '.join(scenarios.available())}")
    return "cli.scenario", {"written": True}, {"files": written}
