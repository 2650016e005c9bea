"""The `enlarge` command: the Jacod criterion, the universal density, the
insider's contradiction and the log-utility identity on a label map.
`cmd_enlarge` returns its findings, not an exit code; `cli.run` imports
this module only to dispatch to it."""

from __future__ import annotations

import json

from .cmd_common import (CliError, load_tree, need_measure, strategy_json,
                         wealth_problem)
from .fileio import TreeFileError, node_key, parse_object, read_text


def load_labels(path: str) -> dict[int, str]:
    try:
        raw = parse_object(read_text(path))
    except FileNotFoundError as exc:
        raise CliError(f"label map not found: {path}") from exc
    except TreeFileError as exc:
        raise CliError(f"--label-map {path}: {exc}") from exc
    labels: dict[int, str] = {}
    for key, value in raw.items():
        leaf = node_key(key, f"--label-map {path}")
        if not isinstance(value, str):
            raise CliError(f"--label-map {path}: the label of leaf {key} must "
                           f"be a JSON string, got {json.dumps(value)}")
        labels[leaf] = value
    return labels


def cmd_enlarge(args) -> tuple:
    from .enlargement import (EnlargementSpec, insider_example, jacod_check,
                              log_utility_identity, universal_density)

    tf = load_tree(args.tree)
    P = need_measure(tf, args.tree)
    labels = load_labels(args.label_map)
    try:
        spec = EnlargementSpec(tf.tree, P, labels)
    except ValueError as exc:
        raise CliError(f"--label-map {args.label_map}: {exc}") from exc
    if args.action == "jacod":
        result = jacod_check(spec)
        return ("enlargement.jacod",
                {"jacod": result.holds, "reverse": result.reverse_holds,
                 "equivalent": result.equivalent},
                {"density": {f"{v},{lab}": y
                             for (v, lab), y in result.Y.items()}})
    if args.action == "universal-z":
        Z = universal_density(spec)
        return ("enlargement.universal_density", {"built": True},
                {"density": {f"{v},{lab}": z
                             for (v, lab), z in Z.values.items()}})
    S = wealth_problem(tf, args).S
    if args.action == "insider" and not args.event:
        raise CliError("insider analysis needs --event LABEL[,LABEL...]")
    try:
        result = (insider_example(spec, S, set(args.event.split(",")))
                  if args.action == "insider"
                  else log_utility_identity(spec, S))
    except ValueError as exc:       # an IncompleteMarketError among them
        raise CliError(str(exc)) from exc
    if args.action == "insider":
        return ("enlargement.insider",
                {"emm_infeasible": result.emm_infeasible,
                 "na1_enlarged": bool(result.na1_product.na1_holds),
                 "certified": result.contradiction_certified},
                {"replication_cost": result.value_process.at(0)},
                {"hedge": strategy_json(result.hedge)})
    return ("enlargement.log_utility",
            {"identity": result.identity_holds,
             "information_nonnegative": result.information_nonnegative},
            {"u_base": result.u_base, "u_insider": result.u_insider,
             "mutual_information": result.mutual_information,
             "gap": result.identity_gap,
             "float_tolerance": result.FLOAT_TOLERANCE})
