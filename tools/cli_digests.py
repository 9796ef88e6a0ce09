"""SHA-256 digests of the CSVs a fixed list of CLI calls writes.

    python3 tools/cli_digests.py [TREE]

Each call runs ``krigesense.cli.main`` in a child process that imports
the package from ``TREE/src`` (default: this checkout) and writes its CSV
into a temporary directory. One line per call is printed: the digest,
then the call. ``classify-bench`` CSVs are hashed without their
``wall_time_s`` column, the only field that differs between reruns. Run
it on two trees, for instance a parent exported with ``git archive``,
and ``diff`` the outputs: equal lines mean byte-identical CSVs.

Each call then runs a second time in a child that first narrows its CPU
mask to the lowest core of this process's mask, so every pool it opens
has one worker. If that CSV differs from the first, the call is named on
stderr and the tool exits with status 1 once every call has run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the calls whose CSVs are digested; sobol row i runs at seed i
_SOBOL_ROWS = [(dim, response, omega2) for dim in ("1", "2")
               for response, omega2 in (
                   ("weights", "0"), ("weights", "0.001"),
                   ("weights", "0.01"), ("weights", "0.1"),
                   ("weights", "vary"), ("variance", "vary"))]
CALLS = (
    [["weights", "--dim", dim, *extra] for dim in ("1", "2")
     for extra in ([], ["--nu", "1.3", "--omega2", "0"])]
    + [["collinearity", "--res", "30"],
       ["collinearity", "--rho-min", "1e-6", "--rho-max", "1",
        "--res", "3"]]
    + [["sobol", "--dim", dim, "--response", response, "--omega2", omega2,
        "--n", "256", "--seed", str(seed)]
       for seed, (dim, response, omega2) in enumerate(_SOBOL_ROWS)]
    + [["classify-bench", "--sizes", "200", "--iters", "2"]])

# the child narrows its own CPU mask, if given a core, before anything
# sizes a pool
_CHILD = """
import os, sys
if sys.argv[1]:
    os.sched_setaffinity(0, {int(sys.argv[1])})
from krigesense.cli import main
sys.exit(main(sys.argv[2:]))
"""


def digest(tree: str, call, out: str, core: str = "") -> str:
    """Run one call against tree's sources, pinned to `core` if given, and
    hash the CSV it writes."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, "-c", _CHILD, core, *call, "--out", out],
                   env=env, check=True)
    with open(out, newline="") as handle:
        text = handle.read()
    if call[0] == "classify-bench":
        rows = list(csv.reader(io.StringIO(text)))
        drop = rows[0].index("wall_time_s")
        buffer = io.StringIO()
        csv.writer(buffer).writerows(r[:drop] + r[drop + 1:] for r in rows)
        text = buffer.getvalue()
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=ROOT,
                        help="source tree whose src/ is imported")
    tree = os.path.abspath(parser.parse_args().tree)
    lowest = str(min(os.sched_getaffinity(0)))
    differs = False
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out.csv")
        for call in CALLS:
            line = " ".join(call)
            full = digest(tree, call, out)
            print(full, line, flush=True)
            if digest(tree, call, out, core=lowest) != full:
                print(f"differs at pool size 1: {line}", file=sys.stderr)
                differs = True
    if differs:
        sys.exit(1)


if __name__ == "__main__":
    main()
