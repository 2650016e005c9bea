"""Seeded end-to-end benchmark of the deflator-lab CLI.

    python3 bench/run.py --workload wide_chain --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The benchmark writes the workload's
inputs from `--seed` into `.bench_run/`, then runs the workload's CLI
commands as subprocesses, one at a time in a closed loop with one client,
for `--seconds`.  Every report is checked (see `workloads.py` and
`oracle.py`); a wrong one counts in `failed` and does not stop the run.

With `--trace 0` the last line of output holds the end-to-end metrics named
in BENCHMARK.json.  With `--trace 1` it holds the per-layer metrics from
in-process runs of the same commands under the span tracer of `spans.py`;
the spans of the last traced pass are written to `.bench_spans/`.  The
line before the last one holds every measured metric with its tail and
sample count, and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SPANS = ROOT / ".bench_spans"
CPUS = os.sched_getaffinity(0)
SETUP_REPEATS = 5
STARTUP_REPEATS = 3

UNITS = {"setup_s": "s", "pass_s": "s", "check_s": "s", "deflate_s": "s",
         "foellmer_s": "s", "ky_verify_s": "s", "stopped_check_s": "s",
         "insider_s": "s", "logutility_s": "s",
         "paths_per_s.diffusion": "paths/s", "paths_per_s.levy": "paths/s",
         "paths_per_s.insider": "paths/s", "peak_rss_mb": "MB",
         "failed_frac": "ratio", "host.speed": "ratio"}
END_TO_END = ("pass_s", "setup_s", "peak_rss_mb")
PER_LAYER_UNITS = dict(
    {k: u for k, (_, u) in spans.Tracer().layer_metrics().items()},
    **{"montecarlo.thread_speedup": "ratio", "cli.startup_s": "s",
       "cli.overhead_s": "s", "trace.overhead": "ratio"})


# -- running and judging commands ---------------------------------------------


def judge(cmd: workloads.Command, rc, first: dict) -> list:
    """Problems with one command's exit code and report.

    The first correct report of each command is checked in full; later ones
    must equal it once `timing_s` is removed."""
    try:
        with open(cmd.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(cmd.report)           # a stale report must not pass again
    except (OSError, ValueError) as exc:
        return [f"no report: {exc}"]
    report.pop("timing_s", None)
    if cmd.name in first:
        want_rc, want = first[cmd.name]
        problems = [] if rc == want_rc else [f"exit {rc}, first pass {want_rc}"]
        if report != want:
            problems.append("report differs from the first pass")
        return problems
    try:
        problems = [f"verdict {k} is {report['verdicts'].get(k)}, expected {v}"
                    for k, v in cmd.verdicts.items()
                    if report["verdicts"].get(k) != v]
        if cmd.check is not None:
            problems += cmd.check(report)
        verdicts_hold = all(report["verdicts"].values())
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]
    want_rc = cmd.expect_rc
    if want_rc is None:                 # exit code follows the verdicts
        want_rc = 0 if verdicts_hold else 1
    if rc != want_rc:
        problems.append(f"exit {rc}, expected {want_rc}")
    if not problems:
        first[cmd.name] = (rc, report)
    return problems


PROBE_NOMINAL_S = 0.005     # probe time at the nominal host speed


def host_probe() -> float:
    """Seconds for a fixed pure-Python task (exact harmonic sums, much like
    the program's rational arithmetic), the faster of two tries."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(4):
            acc = Fraction(0)
            for k in range(1, 500):
                acc += Fraction(1, k)
        best = min(best, time.perf_counter() - start)
    return best


class HostClock:
    """Scales wall times to a nominal host speed.

    On a virtual machine shared with other tenants the CPUs can run up to a
    third slower for minutes at a time, which no number of passes in one run
    averages out.  A
    probe runs between timed regions, and a region's wall time is scaled by
    PROBE_NOMINAL_S over the mean of the probes just before and after it.
    """

    def __init__(self):
        self.probes: list = []
        self.restart()

    def restart(self) -> None:
        self.last = host_probe()
        self.probes.append(self.last)

    def lap(self, wall: float) -> float:
        after = host_probe()
        self.probes.append(after)
        scaled = wall * 2 * PROBE_NOMINAL_S / (self.last + after)
        self.last = after
        return scaled

    def speed(self) -> float:
        """Host speed relative to nominal, over the whole run."""
        return PROBE_NOMINAL_S / statistics.median(self.probes)


class Runner:
    """Runs commands as subprocesses or in-process and keeps the tally."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p]))
        self.env.pop("DEFLATOR_LAB_SEED", None)
        self.clock = HostClock()
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.peak_rss_kb = 0

    def spawn(self, argv: list) -> tuple:
        """(exit code, wall seconds) of one CLI subprocess."""
        with open(WORK / "cli.stdout", "wb") as out, \
                open(WORK / "cli.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "deflator_lab.cli", *argv],
                stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, wall

    def record(self, cmd: workloads.Command, rc) -> None:
        self.attempted += 1
        problems = judge(cmd, rc, self.first)
        if problems:
            self.failed += 1
            self.problems.append({"command": cmd.name, "problems": problems})

    def subprocess_pass(self, commands: list) -> dict:
        """Scaled time per end-to-end metric for one pass, plus `pass_s`, the
        time of all its commands, and the same as `wall.*` unscaled.
        Checking the reports is not timed."""
        times = defaultdict(float)
        self.clock.restart()
        for cmd in commands:
            rc, wall = self.spawn(cmd.argv)
            scaled = self.clock.lap(wall)
            self.record(cmd, rc)
            for key in ("pass_s", cmd.metric):
                if key:
                    times[key] += scaled
                    times["wall." + key] += wall
        return times

    def inprocess_pass(self, commands: list, cli) -> tuple:
        """(scaled, wall) time spent in `cli.run` over one pass."""
        scaled = wall = 0.0
        self.clock.restart()
        for cmd in commands:
            start = time.perf_counter()
            try:
                rc = cli.run(cmd.argv)
            except Exception as exc:    # a crash is a failed command
                rc = f"raised {exc!r}"
            took = time.perf_counter() - start
            scaled += self.clock.lap(took)
            wall += took
            self.record(cmd, rc)
        return scaled, wall


# -- statistics ---------------------------------------------------------------


def summary(values: list, unit: str) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond
    it (none when there are fewer than twenty samples)."""
    out = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = ordered[math.ceil(len(values) * p / 100) - 1]
            break
    return out


def environment(seed: int, shape: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": git_commit(), "seed": seed, **shape}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# -- the two kinds of run -----------------------------------------------------


def setup(workload: str, seed: int, size: str, runner: Runner) -> tuple:
    """Write the inputs from the seed and start the CLI once;
    (workload, scaled seconds, wall seconds)."""
    runner.clock.restart()
    start = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    built = workloads.WORKLOADS[workload](random.Random(seed), str(WORK), size)
    rc, _ = runner.spawn(["--version"])
    if rc != 0:
        raise RuntimeError("the CLI does not start")
    wall = time.perf_counter() - start
    return built, runner.clock.lap(wall), wall


def untraced(workload: str, seed: int, seconds: float, size: str) -> tuple:
    runner = Runner()
    samples = defaultdict(list)
    for _ in range(SETUP_REPEATS):
        built, scaled, wall = setup(workload, seed, size, runner)
        samples["setup_s"].append(scaled)
        samples["wall.setup_s"].append(wall)
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start + statistics.median(
            p["wall.pass_s"] for p in passes) <= seconds):
        passes.append(runner.subprocess_pass(built.commands))
    for p in passes:
        for key, took in p.items():
            paths = built.paths.get(key.replace("wall.", ""))
            samples[key].append(paths / took if paths else took)
    metrics = {k: summary(v, UNITS[k.replace("wall.", "")])
               for k, v in samples.items()}
    metrics["peak_rss_mb"] = {"value": runner.peak_rss_kb / 1024, "unit": "MB"}
    metrics["failed_frac"] = {"value": runner.failed / runner.attempted,
                              "unit": "ratio"}
    return runner, built, metrics


def traced_pass(runner: Runner, commands: list, cli) -> tuple:
    """(scaled seconds, wall seconds, tracer) of one in-process pass under
    the span tracer."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        scaled, wall = runner.inprocess_pass(commands, cli)
    finally:
        tracer.uninstall()
    return scaled, wall, tracer


def scaled_layers(tracer: spans.Tracer, factor: float) -> dict:
    """Layer metrics with times scaled like the pass that produced them."""
    out = {}
    for key, (value, unit) in tracer.layer_metrics().items():
        if unit == "s":
            value *= factor
        elif unit == "paths/s":
            value /= factor
        out[key] = value
    return out


def traced(workload: str, seed: int, seconds: float, size: str) -> tuple:
    """Repeat (subprocess pass, plain in-process pass, traced pass) and take
    medians; the in-process passes call `cli.run` with the same argv."""
    runner = Runner()
    built, _, _ = setup(workload, seed, size, runner)
    sys.path.insert(0, str(SRC))
    from deflator_lab import cli     # imported before any timing
    runner.inprocess_pass(built.commands, cli)      # warm-up, not timed
    reps = []
    start = time.perf_counter()
    while not reps or (time.perf_counter() - start + statistics.median(
            r["rep_s"] for r in reps) <= seconds):
        rep_start = time.perf_counter()
        sub = runner.subprocess_pass(built.commands)["pass_s"]
        plain, plain_wall = runner.inprocess_pass(built.commands, cli)
        scaled, wall, tracer = traced_pass(runner, built.commands, cli)
        rep = scaled_layers(tracer, scaled / wall)
        rep["cli.overhead_s"] = sub - plain
        rep["trace.overhead"] = scaled / plain
        rep["trace.inprocess_s"] = plain
        rep["wall.trace.inprocess_s"] = plain_wall
        rep["trace.self_sum_s"] = sum(rep[f"{layer}.self_s"]
                                      for layer in spans.LAYERS)
        if built.companion is not None:
            h_scaled, h_wall, half = traced_pass(
                runner, built.companion.commands, cli)
            rep.update(growth(rep, scaled_layers(half, h_scaled / h_wall),
                              built.shape["nodes"],
                              built.companion.shape["nodes"]))
        startups = []
        for _ in range(STARTUP_REPEATS):
            runner.clock.restart()
            startups.append(runner.clock.lap(runner.spawn(["--version"])[1]))
        rep["cli.startup_s"] = statistics.median(startups)
        rep["montecarlo.thread_speedup"] = (
            thread_speedup(size) if workload == "monte_carlo" else 0.0)
        rep["rep_s"] = time.perf_counter() - rep_start
        reps.append(rep)
    SPANS.mkdir(exist_ok=True)
    tracer.dump(str(SPANS / f"{workload}-{seed}.json"))
    units = dict(PER_LAYER_UNITS, **{k: "exponent" for k in reps[0]
                                     if k.endswith(".growth")})
    metrics = {}
    for key in reps[0]:
        values = [r[key] for r in reps if r[key] is not None]
        if values:
            metrics[key] = summary(values, units.get(key, "s"))
    return runner, built, metrics


GROWTH = ("deflator.construct_s", "deflator.certify_s", "kunita_yoeurp.build_s",
          "kunita_yoeurp.verify_s", "kunita_yoeurp.stopped_s",
          "kunita_yoeurp.gamma_s")


def growth(full: dict, half: dict, n_full: int, n_half: int) -> dict:
    """Exponent b in time ~ nodes**b between the half-size and full trees."""
    out = {}
    for key in GROWTH:
        a, b = full[key], half[key]
        out[f"{key}.growth"] = (math.log(a / b) / math.log(n_full / n_half)
                                if a > 0 and b > 0 else None)
    return out


def thread_speedup(size: str) -> float:
    """density_mean_test wall time at threads=1 over threads=2."""
    from deflator_lab.montecarlo import DiffusionScenario, density_mean_test
    sc = DiffusionScenario(mu=0.2, sigma=1.0, paths=workloads.THREAD_PATHS[size],
                           seed=workloads.MC_SEED)
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CPUS)
    walls = []
    try:
        for threads in (1, 2):
            start = time.perf_counter()
            density_mean_test(sc, threads)
            walls.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, pinned)
    return walls[0] / walls[1]


def run(workload: str, seed: int, seconds: float, trace: int,
        size: str = "full") -> tuple:
    """(detail, result): every metric with the environment, and the
    one-line result the benchmark prints last."""
    measure = traced if trace else untraced
    # the probe tracks the CLI's speed better on the same CPU, and one
    # client needs only one
    os.sched_setaffinity(0, {min(CPUS)})
    try:
        runner, built, metrics = measure(workload, seed, seconds, size)
    finally:
        os.sched_setaffinity(0, CPUS)
        shutil.rmtree(WORK, ignore_errors=True)
    metrics["host.speed"] = {"value": runner.clock.speed(),
                             "unit": UNITS["host.speed"]}
    names = PER_LAYER_UNITS if trace else END_TO_END
    detail = {"workload": workload, "trace": trace,
              "environment": environment(seed, built.shape),
              "metrics": metrics, "problems": runner.problems}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {m: {"value": metrics[m]["value"],
                              "unit": metrics[m]["unit"]} for m in names}}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if not (SRC / "deflator_lab" / "cli.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'deflator_lab'} is "
                         "missing; run from the root of a source checkout\n")
        return 2
    detail, result = run(args.workload, args.seed, args.seconds, args.trace,
                         "tiny" if args.tiny else "full")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
