#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark driver from source (CMake, Release) under
.bench_build/perfbench in the repository root, runs one workload (or all of
them) and prints, as the last line of standard output, one JSON object with
the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload olsr-city --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics and writes the run's spans to
.bench_build/perfbench/traces/<workload>-<seed>.json. Per-layer metrics of a
layer the workload does not exercise (see perfbench/layers.json) read 0.
The exit code is 0 only if the build, the run and every output check pass.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ["olsr-city", "aodv-mobile-voice", "registrar-requests"]
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the driver; build output goes to stderr."""
    for step in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return DRIVER


def load_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    return bench, layers


def expected_metrics(bench, layers, workload, traced):
    """(name -> unit of every metric to report, names the driver must print)."""
    if not traced:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        return units, set(units)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    printed = {name for name in units if workload in layers[name]["measured_on"]}
    return units, printed


def run_one(driver, workload, seed, seconds, traced):
    """Runs one workload; returns (exit code, result object or None)."""
    bench, layers = load_catalogue()
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    if traced:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-%d.json" % (workload, seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    if not lines:
        print("perfbench: %s printed nothing (exit %d)" % (workload, done.returncode),
              file=sys.stderr)
        return 1, None
    for line in lines[:-1]:
        if not line.startswith("metric "):
            print(line)
    raw = json.loads(lines[-1])

    # The driver must print exactly the metrics this workload exercises,
    # with the units BENCHMARK.json declares; the rest read 0.
    units, printed = expected_metrics(bench, layers, workload, traced)
    got = raw["metrics"]
    problems = ["missing " + n for n in sorted(printed - set(got))]
    problems += ["undeclared " + n for n in sorted(set(got) - printed)]
    problems += ["unit of %s is %s, not %s" % (n, got[n]["unit"], units[n])
                 for n in sorted(printed & set(got)) if got[n]["unit"] != units[n]]
    if problems:
        print("perfbench: %s: metric catalogue mismatch: %s"
              % (workload, "; ".join(problems)), file=sys.stderr)
        return 1, None
    metrics = {n: got.get(n, {"value": 0, "unit": units[n]}) for n in sorted(units)}
    for name, m in metrics.items():
        print("metric %s %r %s" % (name, m["value"], m["unit"]))
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    code = done.returncode if done.returncode != 0 or raw["correct"] else 1
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    driver = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        if len(names) > 1:
            print("== %s" % name)
        one_code, result = run_one(driver, name, args.seed, args.seconds,
                                   args.trace == 1)
        code = code or one_code
        if result is None:
            return code or 1
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
