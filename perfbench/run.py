#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload churn-repair --seed 1 --seconds 10 --trace 0

Builds the crt binary and the load generator from source with dune,
then runs the load generator, whose last stdout line is the JSON
result.  Exits non-zero, without a result, when either step fails.
"""

import hashlib
import os
import subprocess
import sys

CRT = "_build/default/bin/crt.exe"
BENCH = "_build/default/perfbench/bench.exe"
SOURCES = ("lib", "bin", "perfbench")


def source_digest():
    """MD5 over every OCaml source and dune file, so a result names the
    code it measured even where no git metadata exists."""
    h = hashlib.md5()
    for top in SOURCES:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/crt.ml") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a compact_routing checkout\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./bin/crt.exe", "./perfbench/bench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    sys.stdout.flush()
    argv = [BENCH, "--crt", CRT, "--commit", commit(), "--source-digest", source_digest()] + sys.argv[1:]
    return subprocess.run(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
