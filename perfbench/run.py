#!/usr/bin/env python3
"""Build the perfbench Go program from this checkout and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload city-day --seed 1 --seconds 25 --trace 0

The arguments go to the Go program unchanged; its last line of output is
the JSON result. The build and every Go cache live under the build
directory ($CARGO_TARGET_DIR when set, else .bench_build) inside the
checkout, and the module proxy is off, so nothing is fetched or written
elsewhere. Without the repository's sources next to this directory the
build fails and the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOENV="off",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here,
            env=env,
            stdout=sys.stderr,
        )
    except OSError as err:
        print(f"perfbench: cannot run go: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary, *sys.argv[1:]], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
