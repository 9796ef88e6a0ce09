"""Record reference outputs of the first ops of each workload at seed 0.

    python3 perfbench/record_reference.py

Writes ``reference.json`` next to this file. Run it only on a commit whose
outputs are known to be right; later runs at seed 0 compare against it
with the tolerances stated in ``workloads.py``.
"""

from __future__ import annotations

import json
import os
import sys

import worker

# ops recorded per workload: one pass of the Sobol table and of the scan
# windows, and as many searches as a run at seed 0 reaches
RECORDED_OPS = {"sobol-table": 12, "scan-windows": 16, "classify-nu-rho": 4}


def main() -> int:
    worker.import_program()
    from workloads import REFERENCE_SEED, WORKLOADS

    os.makedirs(worker.OUT_DIR, exist_ok=True)
    reference = {}
    for name, count in RECORDED_OPS.items():
        workload = WORKLOADS[name](worker.OUT_DIR)
        outputs = {}
        for op in range(count):
            inputs = workload.inputs(REFERENCE_SEED, op)
            output = workload.run(inputs)
            workload.check(inputs, output)
            outputs[str(op)] = workload.summary(inputs, output)
        reference[name] = outputs
        print(f"{name}: {count} ops", file=sys.stderr)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
