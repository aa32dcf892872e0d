#!/usr/bin/env python3
"""perfbench entry point: build the benchmark from source, then run it.

    python3 perfbench/run.py --workload protocol_k64 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which builds the dknn library from src/) into .bench_build/;
later calls rebuild incrementally.  Build output goes to stderr so the last
line of stdout stays the benchmark's JSON result.  Every argument is passed
to the perfbench binary unchanged (see perfbench/README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configures (once) and builds perfbench; returns False on failure."""
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def source_revision():
    """The checkout's git revision, or 'unknown' outside a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else "unknown"


def main(argv):
    if not build():
        print("perfbench: build failed (is this the root of a dknn checkout?)", file=sys.stderr)
        return 2
    args = [BINARY] + argv + ["--commit", source_revision()]
    if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]:
        workload = argv[argv.index("--workload") + 1] if "--workload" in argv else "run"
        args += ["--trace-out", os.path.join(BUILD_DIR, "trace-%s.json" % workload)]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
