#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources, then run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload fullsys --seed 1 --seconds 20 --trace 0

Every file the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, temporary files, the binary, and the run
records, traces and profiles (.bench_build/perfbench/). The build fails, and
this script exits non-zero without printing a result, when the repository's
sources are not beside perfbench/.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840  # the first build fills an empty Go build cache


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        PPROF_TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench.bin")
    try:
        proc = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=os.path.join(root, "perfbench"),
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--out", os.path.join(build, "perfbench")] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
