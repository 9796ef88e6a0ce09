"""Command-line front end: seeded studies with CSV output and a manifest.

Every run writes one CSV (path set by --out, default <subcommand>.csv)
plus a JSON manifest next to it recording the command, the fully resolved
flag values, seed, versions, thread level, timestamps, and output paths.
Reruns with the same flags and seed reproduce the CSV byte for byte;
wall-time columns are the only nondeterministic fields.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
from typing import List, Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .identifiability import band_of, collinearity_scan
from .kernel import ReducedParams
from .kriging import kriging_weights
from .classifier import run_benchmark, worker_count
from .sensitivity import StudyConfig, run_study, study_grid

__all__ = ["main"]

_SUBSET_CHOICES = {
    "nu": ("nu_only",),
    "nu-rho": ("nu_rho",),
    "all": ("all",),
    "compare": ("nu_only", "nu_rho", "all"),
}


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(float(value))


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def thread_count() -> int:
    """KRIGESENSE_THREADS as the manifest records it; nothing reads it."""
    raw = os.environ.get("KRIGESENSE_THREADS", "").strip()
    return max(int(raw), 1) if raw.isdecimal() else 1


def _write_manifest(args: argparse.Namespace, started: str,
                    outputs: List[str]) -> str:
    flags = {key: value for key, value in vars(args).items()
             if key != "command"}
    manifest = {
        "command": args.command,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "versions": (f"krigesense {__version__} "
                     f"(numpy {np.__version__}, scipy {scipy.__version__})"),
        "threads": thread_count(),
        "workers": worker_count(),
        "started": started,
        "finished": _now(),
        "outputs": outputs,
    }
    path = os.path.splitext(args.out)[0] + ".manifest.json"
    with open(path, "w") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


def _cmd_weights(args: argparse.Namespace) -> List[str]:
    params = ReducedParams(rho=args.rho, nu=args.nu, omega2=args.omega2)
    train, point = study_grid(args.dim)
    weights = kriging_weights(train, point, params).weights
    if args.dim == 1:
        header = ["location", "weight"]
        rows = [(_fmt(pt[0]), _fmt(w))
                for pt, w in zip(train.points, weights)]
    else:
        header = ["x1", "x2", "weight"]
        rows = [(_fmt(pt[0]), _fmt(pt[1]), _fmt(w))
                for pt, w in zip(train.points, weights)]
    _write_csv(args.out, header, rows)
    return [args.out]


def _band_label(gamma: float) -> str:
    return "failed" if math.isnan(gamma) else band_of(gamma)


def _cmd_collinearity(args: argparse.Namespace) -> List[str]:
    cells = collinearity_scan(grid_nu=(args.nu_min, args.nu_max),
                              grid_rho=(args.rho_min, args.rho_max),
                              resolution=args.res)
    header = ["nu", "rho", "gamma_correlation", "gamma_weights",
              "band_correlation", "band_weights"]
    rows = [(_fmt(c.nu), _fmt(c.rho), _fmt(c.gamma_correlation),
             _fmt(c.gamma_weights), _band_label(c.gamma_correlation),
             _band_label(c.gamma_weights)) for c in cells]
    _write_csv(args.out, header, rows)
    return [args.out]


def _cmd_sobol(args: argparse.Namespace) -> List[str]:
    response = ("weights" if args.response == "weights"
                else "prediction_variance")
    if args.omega2 == "vary":
        mode, value = "varying", None
    else:
        mode, value = "fixed", float(args.omega2)
    config = StudyConfig(grid_dimension=args.dim, response=response,
                         omega2_mode=mode, omega2_value=value,
                         include_sigma2=response == "prediction_variance",
                         sample_budget=args.n, seed=args.seed)
    result = run_study(config)
    header = ["input", "total_index", "percent_share", "bootstrap_halfwidth"]
    rows = [(name, _fmt(result.total_index[i]),
             _fmt(result.percent_share[i]),
             _fmt(result.bootstrap_halfwidth[i]))
            for i, name in enumerate(result.inputs)]
    _write_csv(args.out, header, rows)
    return [args.out]


def _cmd_classify_bench(args: argparse.Namespace) -> List[str]:
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
    return [args.out]


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
                   choices=("0", "0.001", "0.01", "0.1", "vary"),
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
        outputs = _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    _write_manifest(args, started, outputs)
    return 0
