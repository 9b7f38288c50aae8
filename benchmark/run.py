#!/usr/bin/env python3
"""Builds and runs the GSFL session benchmark.

Usage (from the repository root):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `gsfl-benchmark` binary from source with cargo (release,
offline; `CARGO_TARGET_DIR` is honoured), pins the simulator's thread
budget to the CPUs this process may run on (`GSFL_THREADS`), clears the
calibration overrides `paper_config` reads from the environment, and runs
the binary. Its last stdout line is the JSON result; the exit code is the
binary's. See `benchmark/METRICS.md` for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Environment overrides of the paper config's calibration: unset, so a
# workload means the same thing in every shell.
CALIBRATION_VARS = ("GSFL_LR", "GSFL_ALPHA", "GSFL_BW_MHZ", "GSFL_AUG", "GSFL_GROUPING")
# The binary's own limit; a run that needs longer is a failure.
RUN_TIMEOUT_S = 170


def main() -> int:
    env = {k: v for k, v in os.environ.items() if k not in CALIBRATION_VARS}
    env["GSFL_THREADS"] = str(len(os.sched_getaffinity(0)))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    target = env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "gsfl-benchmark")
    try:
        run = subprocess.run([exe, *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
