#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload plan_steady --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The first run configures and builds the
benchmark (and the library targets it links) in $CARGO_TARGET_DIR
(default .bench_build) under the current directory; later runs only
re-check the build. BENCHMARK.json names the workloads and metrics;
perfbench/config.json holds each workload's latency limit and the
serving workload's two arrival rates.

The last line of output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. --trace 0 reports every end-to-end metric,
--trace 1 every per-layer metric and writes a Perfetto span file to
.bench_out/. The binary sizes its pools from nproc. The exit status is
nonzero when any output differed bitwise from the per-dot route, or
when the benchmark could not run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TYPE = "Release"
TARGET = "m3xu_perfbench"
# Parallel compile jobs, capped to keep the build's memory small.
MAX_BUILD_JOBS = 4


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures once, then builds the benchmark target; returns the
    binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"m3xu sources not found under {os.path.join(ROOT, 'src')}; "
             "run from a full checkout")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(MAX_BUILD_JOBS, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "--target", TARGET, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}", 1)
    return os.path.join(build_dir, TARGET)


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def run_workload(binary, config, bench, name, seed, seconds, trace):
    """Runs one workload; returns (result dict, exit status)."""
    spec = config["workloads"][name]
    cmd = [binary, f"--workload={name}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}",
           f"--latency-limit-ms={spec['latency_limit_ms']}",
           f"--git-rev={git_rev()}"]
    if "rates_rps" in spec:
        low, high = spec["rates_rps"]
        cmd += [f"--rate-low={low}", f"--rate-high={high}"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    if not results:
        fail(f"{name}: the benchmark printed no result "
             f"(exit status {proc.returncode})", 1)
    result = json.loads(results[-1][len("RESULT "):])
    # The binary must report exactly the metrics BENCHMARK.json lists.
    expected = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"])
    if sorted(got) != sorted(expected):
        fail(f"{name}: metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, extra "
             f"{sorted(set(got) - set(expected))}", 3)
    return result, proc.returncode


def main():
    config = load_json(os.path.join(HERE, "config.json"))
    bench = load_json(os.path.join(os.getcwd(), "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    missing = [n for n in names if n not in config["workloads"]]
    if missing:
        fail(f"perfbench/config.json has no settings for {missing}")
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build()
    if args.workload != "all":
        result, status = run_workload(binary, config, bench, args.workload,
                                      args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        sys.exit(0 if status == 0 and result["correct"] else 1)

    # Every workload in turn, then one table of all of them.
    results, status = {}, 0
    for name in names:
        results[name], rc = run_workload(binary, config, bench, name,
                                         args.seed, args.seconds, args.trace)
        status |= rc
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print("\n" + "metric".ljust(36) + "".join(n.rjust(18) for n in names) + "  unit")
    for metric in results[names[0]]["metrics"]:
        row = "".join(f"{results[n]['metrics'][metric]['value']:18.6g}"
                      for n in names)
        print(metric.ljust(36) + row + "  " + units[metric])
    print("attempted".ljust(36) + "".join(f"{results[n]['attempted']:18d}" for n in names))
    print("failed".ljust(36) + "".join(f"{results[n]['failed']:18d}" for n in names))
    print("failed_ratio".ljust(36) + "".join(
        f"{results[n]['failed'] / results[n]['attempted']:18.6g}" for n in names))
    print(json.dumps(results))
    sys.exit(0 if status == 0 and all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
