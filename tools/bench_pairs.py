"""Alternating parent/change benchmark pairs, written as one BENCH_*.json.

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --seconds 30 \\
        --out BENCH_10.json

The parent commit is exported with ``git archive`` into a temporary
directory; the change is this checkout's working tree, identified in the
output by a digest of its sources. For every
workload, pair i runs ``perfbench/run.py --seed i --trace 0`` once in each
tree, the parent first in even pairs and the change first in odd ones,
so drift in host speed falls on both sides alike. Both trees run their
own copy of ``perfbench/``, which must be the same code.

The output records the host (core count; Python, numpy, scipy and BLAS
versions), both trees' line counts of ``src/krigesense/*.py`` as
``wc -l`` gives them, every run's end-to-end metrics, and per workload
and metric each side's median and quartiles, how many pairs the change
won by the direction ``BENCHMARK.json`` declares (ties count for
neither side), whether the gain rule holds and whether the change's
median is inside the metric's ``BENCHMARK.json`` bound, which is only
read. Next to ``peak_rss_mb`` it records each side's median ops per run:
the harness keeps every op's output until the run ends, so more ops
alone raise the peak.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, into: str) -> str:
    """Write the tree of commit rev into the directory into; returns the
    full commit id."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", rev],
                            check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree; its end-to-end metrics and op counts."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return {"seed": seed, "error": proc.stderr.strip()[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1)}


def summarize(pairs, metrics) -> dict:
    """Per metric: both sides' quartiles, the change's pair wins, whether
    the gain rule holds and whether the change is inside its bound.

    The gain rule: the change wins at least 0.9 of the pairs, ties
    counting for neither, and the medians differ by more than the
    parent's interquartile range, the better way.
    within_bound: the change's median is worse than the parent's by at
    most the BENCHMARK.json bound, relative to the parent's median."""
    out = {}
    for name, (better, bound) in metrics.items():
        done = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs
                if "metrics" in p["parent"] and "metrics" in p["change"]]
        if not done:
            continue
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in done)
        losses = sum(sign * (c - p) < 0 for p, c in done)
        parent = quartiles([p for p, _ in done])
        change = quartiles([c for _, c in done])
        gain = sign * (change["median"] - parent["median"])
        wins_rule = wins >= 0.9 * len(done)
        gap_rule = abs(gain) > parent["iqr"]
        out[name] = {
            "better": better, "bound": bound, "pairs": len(done),
            "change_wins": wins, "change_losses": losses,
            "parent": parent, "change": change,
            "median_change_rel": (change["median"] - parent["median"])
            / parent["median"] if parent["median"] else None,
            "wins_at_least_0_9": wins_rule,
            "median_gap_beyond_parent_iqr": gap_rule,
            "gain_rule_holds": wins_rule and gap_rule and gain > 0,
            "within_bound": -gain <= bound * abs(parent["median"]),
        }
        if name == "peak_rss_mb":
            out[name]["ops_per_run_median"] = {
                side: float(np.median([p[side]["attempted"] for p in pairs
                                       if "metrics" in p[side]]))
                for side in ("parent", "change")}
    return out


def source_digest(tree: str) -> str:
    """sha256 over tree's program sources, as perfbench/run.py takes it."""
    digest = hashlib.sha256()
    src = os.path.join(tree, "src")
    paths = sorted(os.path.join(base, name)
                   for base, _, files in os.walk(src)
                   for name in files if name.endswith(".py"))
    for path in paths:
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def source_lines(tree: str) -> dict:
    """Newline count of each src/krigesense/*.py in tree, as wc -l gives
    it, and their total."""
    package = os.path.join(tree, "src", "krigesense")
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                counts[name] = handle.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads",
                        default="sobol-table,scan-windows,classify-nu-rho")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = {m["name"]: (m["better"], m["bound"])
                   for m in json.load(handle)["end_to_end"]}
    record = {"host": host(), "seconds": args.seconds,
              "started": datetime.datetime.now(
                  datetime.timezone.utc).isoformat(),
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        record["parent_commit"] = export(args.parent, parent)
        record["parent_src_sha256"] = source_digest(parent)
        record["change_src_sha256"] = source_digest(ROOT)
        record["parent_src_lines"] = source_lines(parent)
        record["change_src_lines"] = source_lines(ROOT)
        for workload in args.workloads.split(","):
            pairs = []
            for seed in range(args.pairs):
                order = (("parent", parent), ("change", ROOT))
                if seed % 2:
                    order = order[::-1]
                pair = {"seed": seed, "first": order[0][0]}
                for side, tree in order:
                    pair[side] = run_once(tree, workload, seed, args.seconds)
                pairs.append(pair)
                print(json.dumps({"workload": workload, **pair}), flush=True)
            record["workloads"][workload] = {
                "runs": pairs, "summary": summarize(pairs, metrics)}
    record["finished"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
