#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py [SECONDS]

Run it from the root of a source checkout.  For every workload in
BENCHMARK.json it makes a short run with --trace 0 and one with
--trace 1 and checks that the result line has exactly the contract's
keys, names every end-to-end (resp. per-layer) metric with its unit,
reports end-to-end values above 0, and has failed = 0 with correct =
true.  Then it runs every workload once more against a copy of
ci/goldens in which one figure of each file is changed, and checks
that the benchmark reports failed > 0 and correct = false.  Exits 1 on
the first failed check, 0 when all pass.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
SECONDS = sys.argv[1] if len(sys.argv) > 1 else "1"
CORRUPT = os.path.join(".perfbench-work", "corrupt-goldens")


def run(workload, trace, *extra):
    out = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "7",
                           "--seconds", SECONDS, "--trace", str(trace),
                           *extra],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        fail(f"{workload} trace={trace}: exit {out.returncode}\n"
             f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def fail(msg):
    print("FAIL", msg)
    sys.exit(1)


def check(workload, trace, res):
    what = f"{workload} trace={trace}"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(res)}")
    want = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != units:
        fail(f"{what}: metrics/units differ from BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(units.items()))}")
    for name, m in res["metrics"].items():
        if not math.isfinite(m["value"]) or (trace == 0 and m["value"] <= 0):
            fail(f"{what}: {name} = {m['value']}")
    if res["attempted"] < 1 or res["failed"] != 0 or not res["correct"]:
        fail(f"{what}: attempted {res['attempted']}, failed {res['failed']}, "
             f"correct {res['correct']}")
    print(f"ok   {what}: {res['attempted']} operations, "
          f"{len(res['metrics'])} metrics")


def corrupt_goldens():
    """A copy of ci/goldens with one figure changed in each file: the
    last digit of the first data row (a row ending in a figure or in the
    verified column)."""
    shutil.rmtree(CORRUPT, ignore_errors=True)
    shutil.copytree(os.path.join("ci", "goldens"), CORRUPT)
    for name in os.listdir(CORRUPT):
        path = os.path.join(CORRUPT, name)
        lines = open(path).read().split("\n")
        for i, line in enumerate(lines):
            digits = [j for j, c in enumerate(line) if c.isdigit()]
            row = line.rstrip()
            if digits and (row.endswith("yes") or row[-1:].isdigit()):
                j = digits[-1]
                lines[i] = (line[:j] + str((int(line[j]) + 1) % 10)
                            + line[j + 1:])
                break
        open(path, "w").write("\n".join(lines))


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    for w in workloads:
        for trace in (0, 1):
            check(w, trace, run(w, trace))
    corrupt_goldens()
    for w in workloads:
        res = run(w, 0, "--goldens", CORRUPT)
        if res["failed"] < 1 or res["correct"]:
            fail(f"{w}: a corrupted golden went unnoticed ({res['failed']} "
                 f"failed of {res['attempted']})")
        print(f"ok   {w} with corrupted goldens: {res['failed']} of "
              f"{res['attempted']} operations failed")
    print("all checks passed")


if __name__ == "__main__":
    main()
