#!/usr/bin/env python3
"""Builds svlc's end-to-end benchmark from source and runs one workload.

Run from the repository root:

  python3 e2ebench/run.py --workload cold-check --seed 1 --seconds 30 --trace 0
  python3 e2ebench/run.py --self-test

The benchmark package (e2ebench/CMakeLists.txt, which also compiles
../src) is configured in Release under $CARGO_TARGET_DIR, or .bench_build
when that is unset. The driver binary's last line of stdout is the
result; build output goes to stderr. Each run keeps its socket and stores
in a private temp dir under <build root>/tmp, removed when it ends; a
traced run (--trace 1) writes its spans as Chrome trace-event JSON to
<build root>/traces/<workload>-seed<seed>.json.
"""
import os
import subprocess
import sys


def arg_value(args, name, default):
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return default


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Relative paths keep the daemon's socket path short.
    build_root = os.path.relpath(build_root)
    build = os.path.join(build_root, "e2ebench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))

    if not os.path.exists(os.path.join(build, "Makefile")):
        r = subprocess.run(["cmake", "-S", here, "-B", build,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if r.returncode != 0:
            return 1
    r = subprocess.run(["cmake", "--build", build, "--target", "svlc_e2e",
                        "-j", jobs], stdout=sys.stderr)
    if r.returncode != 0:
        return 1

    args = sys.argv[1:]
    cmd = [os.path.join(build, "svlc_e2e")] + args
    cmd += ["--tmp-root", os.path.join(build_root, "tmp")]
    if arg_value(args, "--trace", "0") == "1":
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (arg_value(args, "--workload", "run"),
                                   arg_value(args, "--seed", "1"))
        cmd += ["--trace-out", os.path.join(traces, name)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
