#!/usr/bin/env python3
"""Build and run the SelVec end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload serve_repeat --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) in
Release mode under $CARGO_TARGET_DIR (default .bench_build). The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
A traced run also writes its span document next to the build and names it
on an earlier line. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table2", "serve_repeat")
RUN_TIMEOUT_S = 170

# Metrics defined per pass as counts of work: they must repeat exactly.
EXACT_METRICS = (
    "sim_cycles", "selective_speedup", "verified_frac",
    "sim.memimage.bytes", "driver.compiles",
    "core.partition.moves_evaluated", "core.partition.commit_frac",
    "pipeline.modsched.attempts", "pipeline.modsched.backtracks",
    "sim.pipelined.instances", "service.parse_bytes",
    "driver.cache_hit_frac",
)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure and build the harness; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "selvec_perfbench", "-j", jobs],
    )
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "selvec_perfbench")


def run_harness(binary, workload, seed, seconds, trace, passes=0):
    """Run one measurement; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if passes:
        cmd += ["--passes", str(passes)]
    if trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The result object from the last line, or None if malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def fingerprint(lines):
    for line in lines:
        match = re.search(r"inputs ([0-9a-f]{16})", line)
        if match:
            return match.group(1)
    return None


def self_test(binary):
    """One short pass of every workload, twice: every count repeats, a
    second seed changes serve_repeat's generated inputs and not table2's,
    and the traced replay covers at least 95% of every operation."""
    failures = []
    for workload in WORKLOADS:
        seen = {}
        prints = {}
        for seed, attempt in ((1, 0), (1, 1), (2, 0)):
            for trace in (0, 1):
                code, lines = run_harness(binary, workload, seed, 0, trace,
                                          passes=1)
                result = parse_result(lines)
                if code != 0 or result is None or not result["correct"]:
                    failures.append("%s seed %d trace %d: run failed"
                                    % (workload, seed, trace))
                    continue
                prints[(seed, attempt)] = fingerprint(lines)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                if trace and metrics["trace.coverage_frac"] < 0.95:
                    failures.append("%s: span coverage %.3f < 0.95"
                                    % (workload, metrics["trace.coverage_frac"]))
                if seed != 1:
                    continue
                for name in EXACT_METRICS:
                    if name not in metrics:
                        continue
                    if name in seen and seen[name] != metrics[name]:
                        failures.append("%s: %s differs between runs (%r, %r)"
                                        % (workload, name, seen[name],
                                           metrics[name]))
                    seen[name] = metrics[name]
        if prints.get((1, 0)) != prints.get((1, 1)):
            failures.append("%s: inputs differ for one seed" % workload)
        changed = prints.get((1, 0)) != prints.get((2, 0))
        if changed != (workload != "table2"):
            failures.append("%s: a second seed %s the inputs"
                            % (workload, "changed" if changed else "kept"))
        print("self-test %s: %d exact counts compared" % (workload, len(seen)))
    for failure in failures:
        print("FAIL " + failure)
    print("self-test %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(binary)

    code, lines = run_harness(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    result = parse_result(lines)
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        print("perfbench: no result (exit %d)" % code, file=sys.stderr)
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
