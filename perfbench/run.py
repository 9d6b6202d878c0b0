#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source and run one workload.

    python3 perfbench/run.py --workload chain|serve_mix|shard_fanout \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --capacity --seed N --seconds S

Run from the repository root. The first call configures and builds the
mcmcpar library and the perfbench program into .bench_build/ (Release);
later calls only rebuild what changed. The program's output is passed through: a
table of every metric with its unit, a `context` line (host and run), and as
the last line one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when the build fails or any correctness check
fails. --self-check runs every workload at toy size in both modes and proves
that the metric set matches BENCHMARK.json, that the two breakdowns leave a
small residual and that each correctness check fires on a deliberately wrong
result. --capacity measures serve_mix's short-job capacity in a closed loop.
perfbench/CATALOG.md describes every metric.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("chain", "serve_mix", "shard_fanout")
# Injected faults and the text of the check that each must trip.
FAULTS = (
    ("chain", "f1", "chain job 1 F1"),
    ("chain", "repeat", "chain repeat differs"),
    ("serve_mix", "f1", "(interactive) F1 0.0"),
    ("serve_mix", "report", "not reported: bad JSON"),
    ("shard_fanout", "f1", "shard job 1 F1 0.0"),
    ("shard_fanout", "backend", "socket and local backends disagree"),
)
# Largest share of the total that a breakdown may leave unattributed.
SERVE_RESIDUAL_SHARE = 0.1
SHARD_RESIDUAL_SHARE = 0.75


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; build chatter goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no mcmcpar sources next to {BENCH_DIR.name}/ (expected "
             "CMakeLists.txt and src/ in the repository root)")
    jobs = str(os.cpu_count() or 2)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)


def run_perfbench(args, capture=False):
    """Run the built program from the repository root; returns (code, stdout)."""
    command = [str(BINARY), *args]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True, check=False)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}", 4)
    return done.returncode, done.stdout or ""


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise AssertionError("no output")
    return json.loads(lines[-1])


def self_check():
    """Toy-size proof that the metric catalog holds and the checks fire."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    catalog = (BENCH_DIR / "CATALOG.md").read_text()
    problems = []

    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        if f"`{name}`" not in catalog:
            problems.append(f"CATALOG.md does not name `{name}`")

    for workload in WORKLOADS:
        for trace, declared in (("0", end_to_end), ("1", per_layer)):
            code, out = run_perfbench(["--workload", workload, "--seed", "7",
                                    "--seconds", "3", "--trace", trace,
                                    "--toy"], capture=True)
            tag = f"{workload} trace {trace}"
            try:
                result = last_json(out)
            except (AssertionError, json.JSONDecodeError) as err:
                problems.append(f"{tag}: last line is not JSON ({err})")
                continue
            if code != 0 or result.get("correct") is not True:
                problems.append(f"{tag}: exit {code}, correct "
                                f"{result.get('correct')}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            metrics = result.get("metrics", {})
            if set(metrics) != set(declared):
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(declared))}")
            for name, unit in declared.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit:
                    problems.append(f"{tag}: {name} unit {got.get('unit')} "
                                    f"!= {unit}")
                if trace == "0" and not got.get("value"):
                    problems.append(f"{tag}: end-to-end {name} is zero")
            value = {k: v.get("value", 0.0) for k, v in metrics.items()}
            # The residual is total minus the measured parts, so the sum holds
            # by construction; what can fail is the residual's size.
            if trace == "1" and workload == "serve_mix":
                total = value["serve.short_mean_s"]
                residual = value["serve.unattributed_s"]
                if not total > 0 or \
                        abs(residual) > SERVE_RESIDUAL_SHARE * total:
                    problems.append(f"{tag}: serve.unattributed_s {residual} "
                                    f"of short mean {total}")
            if trace == "1" and workload == "shard_fanout":
                total = value["shard.job_s"]
                residual = value["shard.fanout_overhead_s"]
                if not total > 0 or not \
                        0 <= residual <= SHARD_RESIDUAL_SHARE * total:
                    problems.append(f"{tag}: shard.fanout_overhead_s "
                                    f"{residual} of job {total}")

    for workload, fault, expected in FAULTS:
        code, out = run_perfbench(["--workload", workload, "--seed", "7",
                                   "--seconds", "2", "--trace", "0", "--toy",
                                   "--inject-fault", fault], capture=True)
        try:
            result = last_json(out)
        except (AssertionError, json.JSONDecodeError):
            result = {}
        fired = any(line.startswith("CHECK FAILED:") and expected in line
                    for line in out.splitlines())
        if code == 0 or result.get("correct") is not False or \
                not result.get("failed") or not fired:
            problems.append(f"{workload}: injected fault {fault} went "
                            f"unnoticed (exit {code}, correct "
                            f"{result.get('correct')}, '{expected}' "
                            f"{'reported' if fired else 'not reported'})")

    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--capacity", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_check:
        sys.exit(self_check())
    if args.capacity:
        code, _ = run_perfbench(["--workload", "serve_mix", "--capacity",
                                 "--seed", str(args.seed or 1),
                                 "--seconds", str(args.seconds or 20),
                                 "--trace", "0"])
        sys.exit(code)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    code, _ = run_perfbench(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", args.trace])
    sys.exit(code)


if __name__ == "__main__":
    main()
