"""One measured benchmark process: set up, print ``ready``, run ops.

Started by ``run.py``, which times process start to the ``ready`` line as
the set-up time. After ``ready`` the worker runs ops of one workload for
the given seconds and prints one JSON line with the raw results. With
``--setup-only`` it exits right after ``ready``.

Untraced runs time every op. Traced runs time ops untraced for half the
seconds, then run the same ops again with the tracer installed, require
identical outputs, and reduce the spans to per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def import_program() -> None:
    """Import krigesense from this checkout's src and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "krigesense", "__init__.py")):
        sys.exit(f"perfbench: no krigesense sources under {src}")
    sys.path.insert(0, src)
    import krigesense
    if os.path.dirname(os.path.dirname(os.path.abspath(
            krigesense.__file__))) != src:
        sys.exit(f"perfbench: krigesense imported from {krigesense.__file__}")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_configuration": blas.get("openblas configuration"),
        "KRIGESENSE_THREADS": os.environ.get("KRIGESENSE_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _load_reference(workload: str, seed: int) -> dict:
    from workloads import REFERENCE_SEED
    if seed != REFERENCE_SEED:
        return {}
    with open(os.path.join(os.path.dirname(__file__), "reference.json")) as f:
        return json.load(f)[workload]


class Runner:
    """Runs and checks the ops of one workload at one seed."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = _load_reference(workload.name, seed)

    def run_op(self, op: int, inputs) -> dict:
        """Time one op and check its output; never raises for the op."""
        started = time.perf_counter()
        try:
            output = self.workload.run(inputs)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            return {"op": op, "seconds": time.perf_counter() - started,
                    "items": 0, "ok": False, "output": None,
                    "error": f"{type(exc).__name__}: {exc}"}
        seconds = time.perf_counter() - started
        record = {"op": op, "seconds": seconds, "items": 0, "ok": True,
                  "output": output, "error": None}
        try:
            record["items"] = self.workload.check(inputs, output)
            want = self.reference.get(str(op))
            if want is not None:
                self.workload.compare(self.workload.summary(inputs, output),
                                      want)
        except Exception as exc:  # noqa: BLE001 - a failed check is counted
            record["ok"] = False
            record["error"] = f"{type(exc).__name__}: {exc}"
        return record

    def run_for(self, seconds: float, first_inputs) -> tuple[list, list]:
        """Whole passes of ops until the next pass would overrun seconds.

        Returns the op records and the inputs they ran on. At least one
        pass always runs; op 0 runs on first_inputs, built during set-up.
        """
        records, inputs_used = [], []
        started = time.perf_counter()
        per_pass = self.workload.ops_per_pass
        op = 0
        while True:
            pass_started = time.perf_counter()
            for _ in range(per_pass):
                inputs = (first_inputs if op == 0
                          else self.workload.inputs(self.seed, op))
                records.append(self.run_op(op, inputs))
                inputs_used.append(inputs)
                op += 1
            now = time.perf_counter()
            if now - started + (now - pass_started) > seconds:
                return records, inputs_used


def end_to_end(records: list) -> dict:
    timed = sum(r["seconds"] for r in records)
    items = sum(r["items"] for r in records if r["ok"])
    failed = sum(not r["ok"] for r in records)
    return {
        "items_per_s": items / timed,
        "op_p50_s": statistics.median(r["seconds"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "success_rate": (len(records) - failed) / len(records),
    }


def traced_rerun(runner: Runner, records: list, inputs_used: list):
    """Rerun the given ops under the tracer; outputs must not change."""
    from tracing import Tracer

    tracer = Tracer()
    traced = []
    for record, inputs in zip(records, inputs_used):
        tracer.op_id = record["op"]
        with tracer.installed():
            again = runner.run_op(record["op"], inputs)
        if again["ok"] and again["output"] != record["output"]:
            again["ok"] = False
            again["error"] = "traced output differs from untraced output"
        traced.append(again)
    return tracer, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](OUT_DIR)
    runner = Runner(workload, args.seed)
    first_inputs = workload.inputs(args.seed, 0)
    workload.warm_up(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    budget = args.seconds / 2.0 if args.trace else args.seconds
    wall0, cpu0 = time.perf_counter(), time.process_time()
    records, inputs_used = runner.run_for(budget, first_inputs)
    cpu_util = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    env = environment()
    result = {"environment": env, "ops": len(records),
              "op_seconds": [r["seconds"] for r in records],
              "errors": [r["error"] for r in records if r["error"]][:5]}
    if args.trace:
        from tracing import layer_metrics
        tracer, traced = traced_rerun(runner, records, inputs_used)
        metrics = layer_metrics(tracer, len(traced))
        metrics["process.cpu_util"] = cpu_util
        metrics["trace.overhead_ratio"] = (
            sum(r["seconds"] for r in traced)
            / sum(r["seconds"] for r in records))
        tracer.save(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"),
                    json.dumps(env, sort_keys=True))
        records = records + traced
        result["errors"] += [r["error"] for r in traced if r["error"]][:5]
    else:
        metrics = end_to_end(records)
    result.update(attempted=len(records),
                  failed=sum(not r["ok"] for r in records),
                  metrics=metrics)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
