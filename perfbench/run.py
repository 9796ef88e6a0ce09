"""krigesense benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sobol-table --seed 0 --seconds 30 \\
        --trace 0

Workloads are defined in ``workloads.py``. Every measuring process starts
clean, with KRIGESENSE_THREADS unset, so the program runs at its defaults.
The set-up time is measured SETUP_SAMPLES times per run (process start to
the worker's ``ready`` line) and reported as the median. With --trace 0 the
last line carries the end-to-end metrics, with --trace 1 the per-layer
metrics; the line before it records the environment and the untraced op
times. Any failure to set up or measure exits non-zero without a result
line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sobol-table", "scan-windows", "classify-nu-rho")

SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def _declared_units(trace: int) -> dict:
    """Metric name -> unit, from the metric list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("KRIGESENSE_THREADS", None)
    return env


class _Worker:
    """A worker process with a watchdog that kills it at the deadline."""

    def __init__(self, cmd, deadline_s: float) -> None:
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                     stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(deadline_s, self.proc.kill)
        self.watchdog.start()

    def finish(self) -> str:
        """Read the rest of the output, wait for the end; returns output."""
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return rest


def _start_worker(args, setup_only: bool, deadline_s: float):
    """Start a worker and wait for ``ready``; returns (worker, setup_s)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    worker = _Worker(cmd, deadline_s)
    line = worker.proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "ready":
        worker.finish()
        raise RuntimeError("worker ended before it was ready")
    return worker, setup_s


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the program sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    paths = sorted(os.path.join(base, name)
                   for base, _, files in os.walk(src)
                   for name in files if name.endswith(".py"))
    for path in paths:
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def measure(args) -> dict:
    began = time.perf_counter()

    def remaining() -> float:
        return max(DEADLINE_S - (time.perf_counter() - began), 1.0)

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        worker, setup_s = _start_worker(args, True, remaining())
        worker.finish()
        setups.append(setup_s)
    worker, setup_s = _start_worker(args, False, remaining())
    setups.append(setup_s)
    result = json.loads(worker.finish().strip().splitlines()[-1])
    if result["errors"]:
        print("op errors: " + "; ".join(result["errors"]), file=sys.stderr)
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    env = result["environment"]
    env.update(git_commit=_git_commit(), source_sha256=_source_digest(),
               KRIGESENSE_THREADS_inherited=os.environ.get(
                   "KRIGESENSE_THREADS"),
               workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace,
               ops=result["ops"], setup_samples_s=setups)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = measure(args)
    except (RuntimeError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = _declared_units(args.trace)
    if set(units) != set(result["metrics"]):
        print("perfbench: measured metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({"environment": result["environment"],
                      "op_seconds": result["op_seconds"]}, sort_keys=True))
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    failed = result["failed"]
    print(json.dumps({"correct": failed == 0,
                      "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
