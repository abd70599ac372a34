#!/usr/bin/env python3
"""Benchmark of the PFM simulator: build, then run one workload.

    python3 perfbench/run.py --workload native-mix|trace-replay|daemon-sweep \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout. The first run configures and builds
perfbench/ (the simulator library from src/ plus the pfm_perfbench binary)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs only rebuild what changed. The binary runs in a fresh work
directory under the build tree. Its last stdout line is the result
object; everything before it is information. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("native-mix", "trace-replay", "daemon-sweep")

# A cold build of the library takes about a minute on 4 cores; the run
# itself stays well inside three minutes.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build pfm_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources not found at %s/src"
                 % ROOT)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "--target", "pfm_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, "pfm_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instruction budgets (tests only)")
    args = ap.parse_args()

    try:
        exe = build()
    except (subprocess.SubprocessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    work = os.path.join(build_dir(), "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=work, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
