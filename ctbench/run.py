#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its JSON result.

    python3 ctbench/run.py --workload sample|sign --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds ctbench/ctbench.exe with dune
(the first build compiles the libraries it links), then runs the
workload; the last line of standard output is the result.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("sample", "sign")
EXE = os.path.join("_build", "default", "ctbench", "ctbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "falcon"))):
        sys.exit("ctbench: no repository sources here (dune-project, lib/); "
                 "run from the root of a checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./ctbench/ctbench.exe"],
                           stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("ctbench: build failed")
    cmd = [EXE, args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Own session, so a timeout also ends the daemon of sign's traced run.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("ctbench: workload timed out")
    if rc != 0:
        # Whatever the workload left behind in its group goes too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        sys.exit("ctbench: workload failed with code %d" % rc)


if __name__ == "__main__":
    main()
