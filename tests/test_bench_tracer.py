"""The benchmark's span tracer against the package as it is.

`bench/spans.py` patches the package's layers from outside by module and
attribute name, so a function or class that moves to another module breaks
the traced benchmark without failing any other test.  This module reads
`bench/spans.py` as it stands, installs its tracer, runs one command in
process and uninstalls it again.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from deflator_lab.scenarios import write_scenario

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# The functions the tracer's timers and counters name that a command runs;
# each must stay a function of the layer module it is named after.
TIMED = {
    "treeio": ("load", "loads", "from_obj", "save", "dumps", "canonical_dumps",
               "save_points"),
    "arbitrage": ("check_na1",),
    "deflator": ("construct_deflator", "verify_deflation"),
    "kunita_yoeurp": ("build_dominating_measure", "verify_ky",
                      "check_stopped_price"),
    "enlargement": ("complete_market_measure", "g_deflation_certificate",
                    "insider_example", "log_utility_identity"),
}


@pytest.fixture(scope="module")
def spans():
    if not SPANS.is_file():
        pytest.skip("no bench/spans.py in this tree")
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer(name):
    return importlib.import_module(f"deflator_lab.{name}")


def test_every_traced_name_resolves(spans):
    """Every layer module imports, every traced method is defined on its
    class, and every timed function is defined in its layer."""
    for name in spans.LAYERS:
        layer(name)
    for name, classes in spans.METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(layer(name), cls_name)
            for method in methods:
                assert method in vars(cls), f"{name}.{cls_name}.{method}"
    timed = dict(TIMED, montecarlo=spans.ESTIMATORS)
    for name, functions in timed.items():
        module = layer(name)
        for function in functions:
            fn = getattr(module, function, None)
            assert inspect.isfunction(fn), f"{name}.{function}"
            assert fn.__module__ == module.__name__, f"{name}.{function}"


def test_tracer_installs_traces_a_command_and_uninstalls(spans, tmp_path):
    written = write_scenario("insider-binomial", str(tmp_path))
    tree = next(path for path in written if path.endswith("tree.json"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, functions in TIMED.items():
            for function in functions:
                assert hasattr(getattr(layer(name), function), "__wrapped__")
        # through the module attribute, as the bench calls it
        assert layer("cli").run(["check", "--tree", tree,
                                 "--out", str(tmp_path / "r.json")]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "treeio.load", "arbitrage.check_na1",
            "filtered_space.EventTree.__init__"} <= names, names
    metrics = tracer.layer_metrics()
    for key in ("cli.self_s", "treeio.self_s", "arbitrage.self_s",
                "treeio.load_s", "arbitrage.check_s"):
        assert metrics[key][0] > 0, key
    for name, functions in TIMED.items():
        for function in functions:
            assert not hasattr(getattr(layer(name), function), "__wrapped__")
    assert not hasattr(layer("cli").run, "__wrapped__")
