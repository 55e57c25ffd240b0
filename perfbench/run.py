#!/usr/bin/env python3
"""Build the perfbench Go program from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload gw-read --seed 1 --seconds 10 --trace 0

Every argument is passed to the program (see main.go for the flags).
The build output, Go's build cache and its temporary files all go under
the build directory: $CARGO_TARGET_DIR if set, else .bench_build. The
first build in a fresh checkout compiles the standard library and takes
about half a minute; later builds reuse the cache.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOWORK="off",
        GOENV="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # The program starts and waits for its own SUT processes; exec keeps
    # this wrapper from outliving or orphaning it.
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
