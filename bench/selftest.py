"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, and every end-to-end metric its commands produce in the detail
line; that the output gate counts a deliberately wrong expected verdict as a
failure; that the stopped-check oracle rejects a report with an atom
missing; and that without the program the benchmark exits non-zero and
prints no result.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys

import oracle
import run
import workloads

# end-to-end metrics each workload's commands produce
PRODUCED = {
    "wide_chain": {"deflate_s", "foellmer_s", "ky_verify_s", "stopped_check_s"},
    "deep_chain": {"deflate_s", "foellmer_s", "ky_verify_s", "stopped_check_s"},
    "exact_lp": {"check_s", "deflate_s", "insider_s", "logutility_s"},
    "monte_carlo": {"paths_per_s.diffusion", "paths_per_s.levy",
                    "paths_per_s.insider"},
}
ALWAYS = {"setup_s", "pass_s", "peak_rss_mb", "failed_frac"}


def bench_cli(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_output(workload: str, trace: int, spec: dict) -> list:
    proc = bench_cli(run.ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{where}: gate failed: {detail['problems'][:3]}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(want))}")
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float))]
    if bad:
        problems.append(f"{where}: non-numeric values {bad}")
    if not trace:
        missing = (PRODUCED[workload] | ALWAYS) - set(detail["metrics"])
        missing |= {k for k, v in detail["metrics"].items()
                    if v["unit"] != run.UNITS.get(k.removeprefix("wall."))}
        if missing:
            problems.append(f"{where}: detail metrics missing or mislabelled: "
                            f"{sorted(missing)}")
    return problems


def check_gate(workload: str) -> list:
    """A wrong expected verdict must count as a failed command."""
    build = workloads.WORKLOADS[workload]

    def wrong(rng, d, size):
        built = build(rng, d, size)
        cmd = built.commands[0]
        if cmd.verdicts:
            key = next(iter(cmd.verdicts))
            cmd.verdicts[key] = not cmd.verdicts[key]
        else:
            cmd.verdicts = {"density_mean": False}
        return built

    workloads.WORKLOADS[workload] = wrong
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            detail, result = run.run(workload, 3, 0.0, 0, "tiny")
    finally:
        workloads.WORKLOADS[workload] = build
    frac = detail["metrics"]["failed_frac"]["value"]
    if result["correct"] or result["failed"] == 0 or frac <= 0:
        return [f"{workload}: a wrong expected verdict was not counted"]
    return []


def check_stopped_oracle() -> list:
    """Dropping one violating atom from a real report must be caught."""
    run.WORK.mkdir(exist_ok=True)
    try:
        built = workloads.deep_chain(random.Random(5),
                                     str(run.WORK), "tiny")
        runner = run.Runner()
        for cmd in built.commands:
            runner.spawn(cmd.argv)
        stopped = built.commands[-1]
        with open(stopped.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        tree = oracle.TreeData(stopped.argv[stopped.argv.index("--tree") + 1])
        if oracle.check_stopped_report(tree, report):
            return ["stopped-check oracle rejects a correct report"]
        if not report["values"]["violations"]:
            return ["tiny deep chain has no drifting atom to drop"]
        report["values"]["violations"].pop()
        if not oracle.check_stopped_report(tree, report):
            return ["stopped-check oracle accepts a report missing an atom"]
        return []
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


def check_without_program() -> list:
    """Only BENCHMARK.json and the benchmark: exit non-zero, no result."""
    bare = run.ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_cli(bare, "wide_chain", 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            return ["without the program the benchmark still reports"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_output(workload, trace, spec)
        problems += check_gate(workload)
    problems += check_stopped_oracle()
    problems += check_without_program()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
