#!/usr/bin/env python3
"""Unit test for validate_ci.py: every contract check must fire.

Usage: test_validate_ci.py [path/to/ci.yml]

Loads the real workflow, applies one mutation at a time — dropping a
lane, dropping a job timeout, drifting a fuzz seed count, ungating
the nightly sweep, stripping a lane's gate — and runs
validate_ci.py on the mutated copy, checking that it rejects the
mutation with the expected message.  The pristine workflow must pass.
A validator whose checks cannot fail is decoration, not a contract.
"""

import copy
import os
import subprocess
import sys
import tempfile

try:
    import yaml
except ImportError:
    print("pyyaml not available; skipping validate_ci tests")
    sys.exit(0)

HERE = os.path.dirname(os.path.abspath(__file__))
VALIDATE = os.path.join(HERE, "validate_ci.py")


def run_on(doc, tmp):
    path = os.path.join(tmp, "ci.yml")
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(doc, f, sort_keys=False)
    return subprocess.run([sys.executable, VALIDATE, path],
                          capture_output=True, text=True)


def triggers_key(doc):
    # PyYAML reads a bare `on:` as the boolean True.
    return "on" if "on" in doc else True


def patch_steps(job, old, new):
    """Rewrite `old` -> `new` inside every run step of `job`."""
    hits = 0
    for step in job.get("steps", []):
        run = step.get("run")
        if isinstance(run, str) and old in run:
            step["run"] = run.replace(old, new)
            hits += 1
    assert hits > 0, f"no step contains {old!r}"


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        HERE, "..", ".github", "workflows", "ci.yml")
    with open(path, "r", encoding="utf-8") as f:
        pristine = yaml.safe_load(f)

    failures = []

    def check(name, ok):
        print(("PASS" if ok else "FAIL"), name)
        if not ok:
            failures.append(name)

    def check_rejects(name, mutate, message):
        doc = copy.deepcopy(pristine)
        mutate(doc)
        with tempfile.TemporaryDirectory() as tmp:
            r = run_on(doc, tmp)
        check(name, r.returncode != 0 and message in r.stderr)

    with tempfile.TemporaryDirectory() as tmp:
        r = run_on(copy.deepcopy(pristine), tmp)
    check("pristine workflow passes",
          r.returncode == 0 and "all nine contract lanes" in r.stdout)

    for lane in ("build-test", "sanitize", "tsan", "format",
                 "bench-smoke", "perf-smoke", "fuzz-smoke",
                 "optgap", "sim-speed", "fuzz-extended"):
        check_rejects(f"dropping {lane} is rejected",
                      lambda doc, lane=lane: doc["jobs"].pop(lane),
                      f"required job missing: {lane}")

    check_rejects(
        "dropping the schedule trigger is rejected",
        lambda doc: doc[triggers_key(doc)].pop("schedule"),
        "schedule trigger")

    check_rejects(
        "a job without timeout-minutes is rejected",
        lambda doc: doc["jobs"]["sanitize"].pop("timeout-minutes"),
        "has no timeout-minutes")

    check_rejects(
        "dropping serve from the tsan labels is rejected",
        lambda doc: patch_steps(doc["jobs"]["tsan"],
                                "parallel|fuzzish|serve",
                                "parallel|fuzzish"),
        "serve")

    # The seed counts are pinned independently: drifting either one
    # toward the other must fire its own check.
    check_rejects(
        "scaling fuzz-smoke to 5000 seeds is rejected",
        lambda doc: patch_steps(doc["jobs"]["fuzz-smoke"],
                                "--seeds 200", "--seeds 5000"),
        "--seeds 200")
    check_rejects(
        "scaling fuzz-extended down to 200 seeds is rejected",
        lambda doc: patch_steps(doc["jobs"]["fuzz-extended"],
                                "--seeds 5000", "--seeds 200"),
        "--seeds 5000")

    check_rejects(
        "ungating fuzz-extended from schedule is rejected",
        lambda doc: doc["jobs"]["fuzz-extended"].pop("if"),
        "gated on the schedule trigger")

    check_rejects(
        "optgap without its ctest label is rejected",
        lambda doc: patch_steps(doc["jobs"]["optgap"],
                                "-L optgap", "-L serve"),
        "optgap ctest label")
    check_rejects(
        "optgap without the counter gate is rejected",
        lambda doc: patch_steps(doc["jobs"]["optgap"],
                                "BENCH_optgap.json",
                                "BENCH_other.json"),
        "BENCH_optgap.json")

    check_rejects(
        "sim-speed without its ctest label is rejected",
        lambda doc: patch_steps(doc["jobs"]["sim-speed"],
                                "-L simspeed", "-L hotpath"),
        "simspeed ctest label")
    check_rejects(
        "sim-speed without the counter gate is rejected",
        lambda doc: patch_steps(doc["jobs"]["sim-speed"],
                                "BENCH_simspeed.json",
                                "BENCH_other.json"),
        "BENCH_simspeed.json")

    def drop_sim_shadow(doc):
        hits = 0
        for step in doc["jobs"]["sim-speed"]["steps"]:
            if "SELVEC_CHECK_SIM" in str(step.get("env", "")):
                step.pop("env")
                hits += 1
        assert hits > 0, "no sim-speed step carries SELVEC_CHECK_SIM"
    check_rejects(
        "sim-speed without the lockstep shadow run is rejected",
        drop_sim_shadow, "SELVEC_CHECK_SIM")

    if failures:
        sys.exit(f"{len(failures)} check(s) failed")
    print("all checks passed")


if __name__ == "__main__":
    main()
