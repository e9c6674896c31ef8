#!/usr/bin/env python3
"""Worker-count parity of check_cutests.

Runs `check_cutests --json` with --jobs 1 and --jobs 4, once with no fault
plan and once under an OOM plan, and requires every `scenarios` record and
every `summary` field to be equal between the two worker counts. Fields that
differ between two runs at the same worker count are dropped before
comparing: wall-clock times, and the shadow fast-path counters, which depend
on how the rank threads interleave.

Usage: check_cutests_jobs_parity.py PATH/TO/check_cutests
"""
import json
import os
import subprocess
import sys

PLANS = ["", "malloc@dev0#1%5=oom"]
UNSTABLE_FIELDS = {"wall_ms", "fastpath_hits", "fastpath_granules_elided"}


def strip_unstable(value):
    if isinstance(value, dict):
        return {k: strip_unstable(v) for k, v in value.items() if k not in UNSTABLE_FIELDS}
    if isinstance(value, list):
        return [strip_unstable(v) for v in value]
    return value


def run(binary, jobs, plan):
    env = dict(os.environ)
    env.pop("CUSAN_SCHEDULE", None)
    env.pop("CUSAN_TRACE", None)
    env.pop("CUSAN_METRICS", None)
    env["CUSAN_FAULT_PLAN"] = plan
    if plan:
        env["CUSAN_MPI_WATCHDOG_MS"] = "150"  # as CI's fault-plan steps
    proc = subprocess.run([binary, "--json", f"--jobs={jobs}"], env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        sys.exit(f"check_cutests --jobs={jobs} (plan '{plan}') exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    doc = json.loads(proc.stdout)
    return proc.returncode, strip_unstable(doc["scenarios"]), doc["summary"]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    failed = False
    for plan in PLANS:
        code1, records1, summary1 = run(binary, 1, plan)
        code4, records4, summary4 = run(binary, 4, plan)
        label = f"plan '{plan}'" if plan else "no plan"
        if code1 != code4:
            print(f"{label}: exit code {code1} with --jobs 1, {code4} with --jobs 4")
            failed = True
        if summary1 != summary4:
            print(f"{label}: summary differs\n  jobs 1: {summary1}\n  jobs 4: {summary4}")
            failed = True
        if len(records1) != len(records4):
            print(f"{label}: {len(records1)} records vs {len(records4)}")
            failed = True
        for r1, r4 in zip(records1, records4):
            if r1 != r4:
                print(f"{label}: record differs\n  jobs 1: {r1}\n  jobs 4: {r4}")
                failed = True
        print(f"{label}: {len(records1)} scenarios, summary {summary1}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
