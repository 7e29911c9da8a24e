#!/usr/bin/env python3
"""End-to-end benchmark of the dnsbs_serve daemon (see README.md).

Usage, from the repository root:

    python3 e2ebench/run.py --workload tcp-daily --seed 1 --seconds 25 --trace 0

Builds e2ebench/ (and the dnsbs libraries under src/) into .bench_build
(or $CARGO_TARGET_DIR) on first use, then runs one measured run of the
workload.  The last line of standard output is the JSON result.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("tcp-daily", "udp-hourly", "sliding-checkpoint")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures and builds dnsbs_e2e; build output goes to stderr."""
    source = os.path.join(root, "e2ebench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("e2ebench: no src/ tree next to the benchmark; nothing to build",
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "dnsbs_e2e"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dnsbs_e2e")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    if binary is None:
        return 1

    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", root]
    # Own process group, so a timeout also takes down the daemon children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print(f"e2ebench: run exited {proc.returncode} without a result", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
