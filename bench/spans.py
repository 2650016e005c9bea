"""In-memory span tracing of the program's layers, from outside the program.

`Tracer.install()` replaces the public functions of each layer module (and a
few public methods named below) with wrappers that record a span: name,
start, end and the index of the enclosing span.  Every module namespace that
imported one of those functions gets the wrapper too, so calls across layers
are traced whichever name they go through.  `uninstall()` puts the originals
back.  Nothing under `src/` changes.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Because the CLI's
`run` is itself a span, the layers' self times add up to the traced time of
each command.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("cli", "treeio", "filtered_space", "linprog", "arbitrage",
          "deflator", "kunita_yoeurp", "enlargement", "montecarlo")

# Called once per value or per path; a span each would cost more than the
# call.  Their time counts as self time of the caller.
UNTRACED = {"cli.fr", "treeio.parse_rational", "treeio.format_rational",
            "filtered_space.as_fraction", "filtered_space.as_vector",
            "filtered_space.dot", "montecarlo.path_rng"}

METHODS = {
    "filtered_space": {"EventTree": ["__init__"],
                       "ProbMeasure": ["node_masses"],
                       "StoppingTime": ["__init__", "hitting_time"]},
    "linprog": {"LinearProgram": ["solve"]},
    "deflator": {"Deflator": ["normalized"]},
    "kunita_yoeurp": {"DominatingMeasure": ["alive_mass", "dead_mass", "gamma"]},
    "enlargement": {"EnlargementSpec": ["slice_masses"]},
}

ESTIMATORS = ("density_mean_test", "deflated_price_test",
              "simulate_deflated_wealth", "simulate_levy_counterexample",
              "simulate_survival_measure", "information_drift_deflator")


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return 0


class Tracer:
    def __init__(self):
        self.spans: list = []           # [name, start, end, parent index]
        self.counters = defaultdict(int)
        self._stack: list = []
        self._owner = threading.get_ident()
        self._patched: list = []        # (owner object, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if threading.get_ident() != self._owner:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"deflator_lab.{layer}")
                   for layer in LAYERS}
        wrapped = {}                    # original function -> wrapper
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[fn] = self._wrap(name, fn, HOOKS.get(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw, HOOKS.get(name))
                    self._replace(cls, meth, new)
        # rebind every module-level reference, including `from x import f`
        for mod in [m for n, m in sys.modules.items()
                    if n == "deflator_lab" or n.startswith("deflator_lab.")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._replace(mod, attr, wrapped[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        """Write the spans as [name, start, end, parent], times in seconds
        from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[n, s - t0, e - t0, p] for n, s, e, p in self.spans], fh)

    # -- derived metrics ---------------------------------------------------

    def self_times(self) -> list:
        own = [e - s for _, s, e, _ in self.spans]
        for _, s, e, parent in self.spans:
            if parent is not None:
                own[parent] -= e - s
        return own

    def attributed(self, names: set, own: list) -> float:
        """Self time, in the named spans' own layer, of the subtrees under
        the outermost span with one of these names."""
        layer = lambda n: n.split(".", 1)[0]
        inside = [None] * len(self.spans)   # layer of the enclosing named span
        total = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            outer = inside[parent] if parent is not None else None
            if outer is None and name in names:
                outer = layer(name)
            inside[i] = outer
            if outer is not None and layer(name) == outer:
                total += own[i]
        return total

    def inclusive(self, name: str) -> float:
        total, open_until = 0.0, -math.inf
        for n, s, e, _ in self.spans:
            if n == name and s >= open_until:
                total += e - s
                open_until = e
        return total

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        own = self.self_times()
        by_layer = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            by_layer[name.split(".", 1)[0]] += t
        a = lambda *names: (self.attributed(set(names), own), "s")
        c = self.counters
        out = {f"{layer}.self_s": (by_layer[layer], "s") for layer in LAYERS}
        out.update({
            "treeio.load_s": a("treeio.load", "treeio.loads", "treeio.from_obj"),
            "treeio.save_s": a("treeio.save", "treeio.dumps", "treeio.to_obj",
                               "treeio.canonical_dumps", "treeio.write_atomic"),
            "treeio.bytes": (c["treeio.bytes"], "bytes"),
            "filtered_space.node_masses_calls":
                (self.count("filtered_space.ProbMeasure.node_masses"), "count"),
            "filtered_space.node_masses_s":
                a("filtered_space.ProbMeasure.node_masses"),
            "filtered_space.doob_s": a("filtered_space.doob_decomposition"),
            "filtered_space.hitting_s":
                a("filtered_space.StoppingTime.hitting_time"),
            "linprog.solves": (self.count("linprog.LinearProgram.solve"), "count"),
            "linprog.solve_s": a("linprog.LinearProgram.solve"),
            "linprog.max_rows": (c["linprog.max_rows"], "count"),
            "linprog.max_cols": (c["linprog.max_cols"], "count"),
            "linprog.unbounded": (c["linprog.unbounded"], "count"),
            "linprog.infeasible": (c["linprog.infeasible"], "count"),
            "arbitrage.check_s": a("arbitrage.check_na", "arbitrage.check_na1",
                                   "arbitrage.check_both"),
            "arbitrage.value_bits": (c["arbitrage.value_bits"], "bits"),
            "deflator.construct_s": a("deflator.construct_deflator"),
            "deflator.certify_s": a("deflator.verify_deflation"),
            "deflator.one_step_programs":
                (self.count("deflator.one_step_program"), "count"),
            "deflator.z_max_bits": (c["deflator.z_max_bits"], "bits"),
            "kunita_yoeurp.build_s": a("kunita_yoeurp.build_dominating_measure"),
            "kunita_yoeurp.verify_s": a("kunita_yoeurp.verify_ky"),
            "kunita_yoeurp.stopped_s": a("kunita_yoeurp.check_stopped_price"),
            "kunita_yoeurp.gamma_s": a("kunita_yoeurp.DominatingMeasure.gamma"),
            "kunita_yoeurp.alive_mass_calls": (self.count(
                "kunita_yoeurp.DominatingMeasure.alive_mass"), "count"),
            "kunita_yoeurp.dead_mass_calls": (self.count(
                "kunita_yoeurp.DominatingMeasure.dead_mass"), "count"),
            "enlargement.complete_market_s":
                (self.inclusive("enlargement.complete_market_measure"), "s"),
            "enlargement.na1_product_s":
                (self.inclusive("enlargement.na1_in_enlargement"), "s"),
            "enlargement.certificate_s":
                (self.inclusive("enlargement.g_deflation_certificate"), "s"),
            "enlargement.insider_s": a("enlargement.insider_example"),
            "enlargement.logutility_s": a("enlargement.log_utility_identity"),
        })
        for est in ESTIMATORS:
            busy = self.inclusive(f"montecarlo.{est}")
            paths = c[f"montecarlo.paths.{est}"]
            out[f"montecarlo.paths_per_s.{est}"] = (
                paths / busy if busy > 0 else 0.0, "paths/s")
        return out


# -- counters read from arguments and results ---------------------------------


def _count_bytes(index):
    def hook(c, args, result):
        c["treeio.bytes"] += len(args[index].encode("utf-8"))
    return hook


def _lp_solve(c, args, result):
    lp = args[0]
    c["linprog.max_rows"] = max(c["linprog.max_rows"], len(lp.rows))
    c["linprog.max_cols"] = max(c["linprog.max_cols"], lp.n_vars)
    if result.status in ("unbounded", "infeasible"):
        c[f"linprog.{result.status}"] += 1


def _arbitrage_value(c, args, result):
    bits = max(_bits(result.optimal_value), _bits(result.na_optimum))
    c["arbitrage.value_bits"] = max(c["arbitrage.value_bits"], bits)


def _z_bits(c, args, result):
    bits = max((_bits(v[0]) for v in result.Z.values.values()), default=0)
    c["deflator.z_max_bits"] = max(c["deflator.z_max_bits"], bits)


def _paths(est):
    def hook(c, args, result):
        c[f"montecarlo.paths.{est}"] += args[0].paths
    return hook


HOOKS = {
    "treeio.loads": _count_bytes(0),
    "treeio.write_atomic": _count_bytes(1),
    "linprog.LinearProgram.solve": _lp_solve,
    "arbitrage.check_na": _arbitrage_value,
    "arbitrage.check_na1": _arbitrage_value,
    "deflator.construct_deflator": _z_bits,
    **{f"montecarlo.{est}": _paths(est) for est in ESTIMATORS},
}
