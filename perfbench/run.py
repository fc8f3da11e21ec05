#!/usr/bin/env python3
"""Build the perfbench harness from this checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-s14 --seed 1 --seconds 10 --trace 0

Every argument is passed to the harness (see main.go). The Go build
cache, temporary files and the binary live under the build directory
($CARGO_TARGET_DIR when set, else .bench_build), so a run reads and
writes only inside the checkout. Exits 2 when the harness does not
build, for example when the repository's sources are missing.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-buildvcs=false",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    staged = binary + ".new"
    built = subprocess.run(["go", "build", "-o", staged, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed (exit %d)" % built.returncode, file=sys.stderr)
        return 2
    os.replace(staged, binary)
    args = sys.argv[1:]
    if not any(a == "--results" or a.startswith("--results=") for a in args):
        args += ["--results", os.path.join(build, "results")]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
