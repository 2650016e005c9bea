"""The Monte Carlo and fixture commands: `simulate` and `scenario`.
`cli.run` imports this module only to dispatch to one of them."""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING

from .cmd_common import CliError, emit_report, make_report
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
    # ArithmeticError, so no inf or nan reaches the report; so does
    # underflow, which leaves draws without randomness (a density that is 0
    # on every path)
    saved = np.seterr(over="raise", invalid="raise", divide="raise",
                      under="raise")
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
