#!/usr/bin/env python3
"""Build the ViDa benchmark suite from source and run it.

Run from the root of a checkout:

    python3 vidabench/run.py --workload hbp_cold --seed 42 --seconds 15 --trace 0

Arguments are passed to suite.exe unchanged (see vidabench/README.md).
The build output goes to standard error, so the last line of standard
output is the suite's JSON result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "vidabench", "suite.exe")
NEEDED = ["dune-project", os.path.join("lib", "core", "vida.ml"),
          os.path.join("vidabench", "dune")]


def main():
    missing = [p for p in NEEDED if not os.path.isfile(p)]
    if missing:
        sys.stderr.write("vidabench: run from the root of a ViDa checkout "
                         "(missing: %s)\n" % ", ".join(missing))
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "-j", "2",
         "./vidabench/suite.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("vidabench: build failed\n")
        return build.returncode
    # scratch files of the library (Filename.temp_file) stay in the checkout
    tmp = os.path.abspath(os.path.join(".vidabench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
