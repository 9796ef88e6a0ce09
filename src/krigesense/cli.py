"""Command-line front end: seeded studies with CSV output and a manifest.

Every run writes one CSV (path set by --out, default <subcommand>.csv)
plus a JSON manifest next to it recording the command, the fully resolved
flag values, seed, versions, the pool size (workers), timestamps, and
output paths; a sobol run adds how many bootstrap replicates it kept.
workers is the size of the thread pool every subcommand prices its
independent blocks on: the collinearity scan's row blocks, the Sobol
study's response calls (at most two of them at a time) and the
classifier's fill and solve blocks.
Reruns with the same flags and seed reproduce the CSV byte for byte, at
any pool size; wall-time columns are the only nondeterministic fields.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
from typing import Any, Dict, Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .identifiability import band_of, collinearity_scan
from .kernel import ReducedParams
from .kriging import kriging_weights
from .classifier import run_benchmark
from .parallel import worker_count
from .sensitivity import FIXED_OMEGA2_CHOICES, run_study, study_grid

__all__ = ["main"]

_SUBSET_CHOICES = {
    "nu": ("nu_only",),
    "nu-rho": ("nu_rho",),
    "all": ("all",),
    "compare": ("nu_only", "nu_rho", "all"),
}


def _fmt(value) -> str:
    return str(float(value))


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(args: argparse.Namespace, started: str,
                    fields: Dict[str, Any]) -> str:
    flags = {key: value for key, value in vars(args).items()
             if key != "command"}
    manifest = {
        "command": args.command,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "versions": (f"krigesense {__version__} "
                     f"(numpy {np.__version__}, scipy {scipy.__version__})"),
        "workers": worker_count(),
        "started": started,
        "finished": _now(),
        **fields,
    }
    path = os.path.splitext(args.out)[0] + ".manifest.json"
    with open(path, "w") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


def _cmd_weights(args: argparse.Namespace) -> Dict[str, Any]:
    params = ReducedParams(rho=args.rho, nu=args.nu, omega2=args.omega2)
    train, point = study_grid(args.dim)
    weights = kriging_weights(train, point, params)
    header = ["location"] if args.dim == 1 else ["x1", "x2"]
    rows = [(*map(_fmt, pt), _fmt(w)) for pt, w in zip(train.points, weights)]
    _write_csv(args.out, header + ["weight"], rows)
    return {"outputs": [args.out]}


def _cmd_collinearity(args: argparse.Namespace) -> Dict[str, Any]:
    cells = collinearity_scan(grid_nu=(args.nu_min, args.nu_max),
                              grid_rho=(args.rho_min, args.rho_max),
                              resolution=args.res)
    header = ["nu", "rho", "gamma_correlation", "gamma_weights",
              "band_correlation", "band_weights"]
    rows = [(_fmt(c.nu), _fmt(c.rho), _fmt(c.gamma_correlation),
             _fmt(c.gamma_weights), band_of(c.gamma_correlation),
             band_of(c.gamma_weights)) for c in cells]
    _write_csv(args.out, header, rows)
    return {"outputs": [args.out]}


def _cmd_sobol(args: argparse.Namespace) -> Dict[str, Any]:
    response = ("weights" if args.response == "weights"
                else "prediction_variance")
    omega2 = None if args.omega2 == "vary" else float(args.omega2)
    result = run_study(grid_dimension=args.dim, response=response,
                       omega2=omega2, sample_budget=args.n, seed=args.seed)
    header = ["input", "total_index", "percent_share", "bootstrap_halfwidth"]
    rows = [(name, _fmt(result.total_index[i]),
             _fmt(result.percent_share[i]),
             _fmt(result.bootstrap_halfwidth[i]))
            for i, name in enumerate(result.inputs)]
    _write_csv(args.out, header, rows)
    return {"outputs": [args.out], "replicates_kept": result.replicates_kept}


def _cmd_classify_bench(args: argparse.Namespace) -> Dict[str, Any]:
    sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    results = run_benchmark(train_sizes=sizes, iterations=args.iters,
                            seed=args.seed, k=args.k,
                            subsets=_SUBSET_CHOICES[args.subset])
    header = ["subset", "train_size", "iteration", "accuracy",
              "wall_time_s", "evaluations"]
    rows = [(r.subset, str(r.train_size), str(r.iteration),
             _fmt(r.accuracy), _fmt(r.wall_time), str(r.evaluations))
            for r in results]
    _write_csv(args.out, header, rows)
    return {"outputs": [args.out]}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krigesense",
        description="Kriging weight, identifiability, sensitivity, and "
                    "classification studies with reproducible CSV output.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights",
                       help="kriging weights on the study grid")
    p.add_argument("--dim", type=int, choices=(1, 2), default=1)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.5)
    p.add_argument("--omega2", type=float, default=0.001)
    p.add_argument("--out", default="weights.csv")

    p = sub.add_parser("collinearity",
                       help="collinearity index scan over (nu, rho)")
    p.add_argument("--res", type=int, default=100)
    p.add_argument("--nu-min", type=float, default=0.01)
    p.add_argument("--nu-max", type=float, default=2.5)
    p.add_argument("--rho-min", type=float, default=0.01)
    p.add_argument("--rho-max", type=float, default=5.0)
    p.add_argument("--out", default="collinearity.csv")

    p = sub.add_parser("sobol",
                       help="total-effect Sobol study of a response")
    p.add_argument("--dim", type=int, choices=(1, 2), default=1)
    p.add_argument("--response", choices=("weights", "variance"),
                   default="weights")
    p.add_argument("--omega2",
                   choices=(*(f"{v:g}" for v in FIXED_OMEGA2_CHOICES), "vary"),
                   default="vary")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="sobol.csv")

    p = sub.add_parser("classify-bench",
                       help="grid-search classifier timing benchmark")
    p.add_argument("--sizes", default="200,400,800")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--subset", choices=tuple(_SUBSET_CHOICES),
                   default="compare")
    p.add_argument("--out", default="classify-bench.csv")
    return parser


_COMMANDS = {
    "weights": _cmd_weights,
    "collinearity": _cmd_collinearity,
    "sobol": _cmd_sobol,
    "classify-bench": _cmd_classify_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; 0 on success, 2 on usage error, 1 on failure."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    started = _now()
    try:
        fields = _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    _write_manifest(args, started, fields)
    return 0


if __name__ == "__main__":
    sys.exit(main())
