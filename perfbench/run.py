#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload derby-batch --seed 0 --seconds 20 --trace 0

Every file the build and the benchmark write stays under the build
directory, $CARGO_TARGET_DIR or .bench_build by default: the Go build
cache, temporary files, the benchmark's scratch state, its span traces
and its counter ledger. The last line of standard output is the result
object; a failed build prints nothing there and exits non-zero.
"""

import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=bench, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 1
    args = sys.argv[1:] + ["--build-dir", build, "--commit", commit()]
    return subprocess.run([binary] + args, env=env).returncode


def commit():
    """The checkout's git revision, or "unknown" outside a repository.

    The search for a repository stops at the checkout's root.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    rev = out.stdout.decode().strip()
    return rev if out.returncode == 0 and rev else "unknown"


if __name__ == "__main__":
    sys.exit(main())
