"""The tree commands: `check`, `deflate`, `foellmer`, `ky-verify` and
`stopped-check`.  Each handler takes the parsed arguments and returns its
findings, `(operation, verdicts, values[, witnesses])`, not an exit code;
`cli.run` imports this module only to dispatch to one of them."""

from __future__ import annotations

from .cmd_common import (CliError, load_tree, need_measure, need_process,
                         strategy_json, wealth_problem)


def cmd_check(args) -> tuple:
    """Both verdicts, always: need_measure makes P strictly positive, under
    which (NA) and (NA1) coincide on a finite tree."""
    from .arbitrage import check_na1

    result = check_na1(wealth_problem(load_tree(args.tree), args))
    verdicts = {"na": result.na_holds, "na1": result.na1_holds}
    values = {"na_optimum": result.na_optimum,
              "optimal_value": "inf" if result.unbounded else result.optimal_value}
    witnesses = {}
    if result.witness is not None:
        witnesses["strategy"] = strategy_json(result.witness)
    return "arbitrage.check", verdicts, values, witnesses


def cmd_deflate(args) -> tuple:
    from .deflator import Na1FailsOnAtom, construct_deflator, verify_deflation
    from .treeio import save

    if args.name == args.price:
        raise CliError(f"--name {args.name!r} is the --price process; writing "
                       "the density under it would overwrite the prices")
    tf = load_tree(args.tree)
    problem = wealth_problem(tf, args)
    try:
        deflator = construct_deflator(problem)
    except Na1FailsOnAtom as exc:
        return ("deflator.construct", {"na1": False, "constructed": False},
                {"atom": exc.atom, "ray": exc.ray})
    if args.normalize:
        deflator = deflator.normalized(tf.tree)
    certificate = verify_deflation(problem, deflator)
    tf.processes[args.name] = deflator.Z
    save(tf, args.out)
    return ("deflator.construct",
            {"na1": True, "constructed": True,
             "certified": certificate.certified},
            {"initial_value": deflator.Z.at(tf.tree.root),
             "written": args.out})


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


def cmd_foellmer(args) -> tuple:
    from .treeio import save_points

    tf = load_tree(args.tree)
    count = save_points(_dominating_measure(args, tf)._records(), args.out)
    return ("kunita_yoeurp.build", {"built": True},
            {"points": count, "written": args.out})


def cmd_ky_verify(args) -> tuple:
    """The three decomposition properties.  A stopped identity at a stopping
    time's stop node is property 3 there, so `--price` selects nothing; a
    name the tree file lacks still exits 2."""
    from .kunita_yoeurp import verify_ky

    tf = load_tree(args.tree)
    dm = _dominating_measure(args, tf)
    if args.price is not None:
        try:
            need_process(tf, args.price, args.tree)
        except CliError as exc:
            raise CliError(f"--price: {exc}") from exc
    result = verify_ky(dm)
    return ("kunita_yoeurp.verify", {"kunita_yoeurp": result.passed},
            {"failures": result.failures})


def cmd_stopped_check(args) -> tuple:
    from .kunita_yoeurp import check_stopped_price

    tf = load_tree(args.tree)
    dm = _dominating_measure(args, tf)
    result = check_stopped_price(dm, wealth_problem(tf, args).S)
    return ("kunita_yoeurp.stopped_price",
            {"martingale": result.is_martingale,
             "deflation": result.deflation.certified},
            {"violations": [{"atom": atom, "drift": drift}
                            for atom, drift in result.violations]})
