"""Peak resident set size of the package's stages, each in a fresh process.

    python3 tools/peak_rss.py [TREE]

Each stage runs in a child process that imports the package from
``TREE/src`` (default: this checkout) and then prints its
``ru_maxrss`` in MiB:

- ``import``: ``krigesense.classifier`` imported, nothing run;
- ``synth``: one ``synth_dataset(1200, 2)``, the classify-nu-rho input;
- ``search``: that draw, the nu_rho leave-one-out grid search over its
  first 800 rows at k = 50, and ``classify`` of the other 400;
- ``scan``: one res-12 collinearity scan of the default (nu, rho) box,
  the size of a scan-windows op;
- ``sobol``: one 1-D weights Sobol row at n = 256, omega2 = 0.01, the
  size of a sobol-table op.

The last two show the pooled scan and study paths without a benchmark
harness's own memory. The ``sobol`` stage passes the row to ``run_study``
as keyword arguments; an older tree whose ``run_study`` takes one
config object needs that tree's own copy of this tool.

Run it on two trees, for instance a parent exported with ``git archive``,
to see which stage sets a peak and by how much a change moves it.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_STAGES = {
    "import": "",
    "synth": "data = c.synth_dataset(1200, 2, seed=0)",
    "search": """
data = c.synth_dataset(1200, 2, seed=0)
train = c.LabeledSet(features=data.features[:800], labels=data.labels[:800])
selected, _ = c.grid_search(train, c.GridSpec.for_subset("nu_rho"), 50)
c.classify(train, data.features[800:], selected, 50)""",
    "scan": """
from krigesense.identifiability import collinearity_scan
collinearity_scan(resolution=12)""",
    "sobol": """
from krigesense.sensitivity import run_study
run_study(response="weights", omega2=0.01, sample_budget=256)""",
}

_CHILD = """
import resource
import krigesense.classifier as c
{stage}
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def peak_mib(tree: str, stage: str) -> float:
    """ru_maxrss, in MiB, of a fresh process that runs one stage."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(stage=_STAGES[stage])],
        env=env, check=True, capture_output=True, text=True)
    return float(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=ROOT,
                        help="source tree whose src/ is imported")
    tree = os.path.abspath(parser.parse_args().tree)
    for stage in _STAGES:
        print(f"{peak_mib(tree, stage):7.1f} MiB  {stage}", flush=True)


if __name__ == "__main__":
    main()
