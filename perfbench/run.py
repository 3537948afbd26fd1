#!/usr/bin/env python3
"""Build the compiler and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds
perfbench/uasbench.exe and bin/nimbled.exe with dune (build output goes
to stderr), then runs the benchmark with the same arguments.  The last
line of stdout is the result object; perfbench/README.md describes the
workloads and metrics.

UAS_* variables are removed from the environment so that a caller's
UAS_JOBS, UAS_CACHE, UAS_FAULT or UAS_INTERP cannot change what is
measured.  Exits 2 without a result when the checkout or the build is
missing.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "uasbench.exe")
WORK = ".perfbench-work"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        print("run.py: run from the root of a source checkout "
              "(dune-project, lib/ and bin/ not found)", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("UAS_")}
    # keep every build artifact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(WORK, "cache"))
    build_args = ["build", "--root", ".", "--display", "quiet",
                  "./perfbench/uasbench.exe", "./bin/nimbled.exe"]
    build = None
    # dune on PATH, else through the opam switch
    for dune in (["dune"], ["opam", "exec", "--", "dune"]):
        try:
            build = subprocess.run(dune + build_args, env=env,
                                   stdout=sys.stderr)
            break
        except FileNotFoundError:
            continue
    if build is None:
        print("run.py: neither dune nor opam found on PATH", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
