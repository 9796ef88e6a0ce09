"""The three benchmark workloads: op inputs, the op itself, output checks.

An op is one user-level call, timed on its own. Inputs come only from the
workload seed and the op index, and are built outside the timed interval.
Every op's output is checked against invariants that hold for any seed;
for seed 0 the first ops are also compared with reference outputs
recorded from the parent program (``reference.json``).
"""

from __future__ import annotations

import csv
import io
import math
import os

import numpy as np

from krigesense import classifier, cli
from krigesense.identifiability import GAMMA_CAP, band_of

REFERENCE_SEED = 0

# Reference tolerances. Wide enough for reordered floating-point sums:
# solving with two triangular solves instead of cho_solve and reversing
# the variance and latent-mean dot products moved shares by at most
# 4.4e-7 points, halfwidths by 5.7e-7 points, total indices by 6.4e-9
# relative and gamma_weights by 1.2e-6 relative (at most 9% of the gamma
# tolerance below), and changed no classifier output. Tight enough for a
# wrong answer: scaling the Matern argument by 1.001 failed every Sobol
# and scan reference op (each scan moved some gamma by 1.8e-3 relative or
# more), and 199 bootstrap replicates instead of 200 moved halfwidths by
# 7.5e-3 points. The estimator's own noise at n=256 is several points.
SHARE_ATOL = 1e-4        # percent_share and bootstrap_halfwidth, in points
INDEX_RTOL = 1e-6        # total_index, relative
# gamma = 1/sqrt(min eigenvalue of S^T S) from central differences, so a
# perturbation's effect on gamma grows with gamma; the relative tolerance
# grows with it on top of a 1e-6 floor.
GAMMA_RTOL = 1e-6
GAMMA_RTOL_PER_GAMMA = 1e-6
# A latent mean within roundoff of zero can flip one predicted label under
# reordered sums, moving an accuracy by 1/800 (leave-one-out) or 1/400
# (held out) and possibly the tie set the selected point averages over.
# Two flips are allowed; the selected (nu, rho) may move by one grid step.
LOO_ATOL = 2.0 / 800.0
TEST_ATOL = 2.0 / 400.0

SOBOL_TABLE = tuple(
    (dim, response, omega2) for dim in (1, 2)
    for response, omega2 in (("weights", "0"), ("weights", "0.001"),
                             ("weights", "0.01"), ("weights", "0.1"),
                             ("weights", "vary"), ("variance", "vary")))
SOBOL_N = 256

SCAN_RES = 12
SCAN_BOX = ((0.01, 2.5), (0.01, 5.0))   # CLI default (nu, rho) box
SCAN_FRACTION = 0.25
SCAN_STRATA = 4     # window placements per axis in one pass

CLASSIFY_TRAIN = 800
CLASSIFY_TEST = 400
CLASSIFY_K = 50
CLASSIFY_Q = 2
CLASSIFY_GRID = classifier.GridSpec.for_subset("nu_rho")


class CheckFailed(Exception):
    """An op's output broke an invariant or disagreed with the reference."""


def op_seed(seed: int, op: int) -> int:
    return seed * 1_000_003 + op


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _run_cli(argv) -> str:
    code = cli.main(argv)
    _require(code == 0, f"krigesense {argv[0]} exited with {code}")
    with open(argv[argv.index("--out") + 1], newline="") as handle:
        return handle.read()


def _csv_rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _close(got: float, want: float, atol: float = 0.0,
           rtol: float = 0.0) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= atol + rtol * abs(want)


class SobolTable:
    """One CLI ``sobol`` row of the criteria 7/8 share table per op."""

    name = "sobol-table"
    ops_per_pass = len(SOBOL_TABLE)

    def __init__(self, out_dir: str) -> None:
        self.out = os.path.join(out_dir, "sobol.csv")

    def inputs(self, seed: int, op: int):
        dim, response, omega2 = SOBOL_TABLE[op % len(SOBOL_TABLE)]
        return ["sobol", "--dim", str(dim), "--response", response,
                "--omega2", omega2, "--n", str(SOBOL_N),
                "--seed", str(op_seed(seed, op)), "--out", self.out]

    def warm_up(self, seed: int) -> None:
        for dim in ("1", "2"):
            _run_cli(["weights", "--dim", dim, "--out", self.out])

    def run(self, argv) -> str:
        return _run_cli(argv)

    def check(self, argv, text: str) -> int:
        """Invariants of one row; returns the response evaluations."""
        header, rows = _csv_rows(text)
        _require(header == ["input", "total_index", "percent_share",
                            "bootstrap_halfwidth"], f"header {header}")
        response, omega2 = argv[4], argv[6]
        want = (["sigma2"] if response == "variance" else []) + ["rho", "nu"]
        want += ["omega2"] if omega2 == "vary" else []
        want += ["x"] if response == "weights" else []
        _require([r[0] for r in rows] == want, f"inputs {rows}")
        values = np.array([[float(v) for v in r[1:]] for r in rows])
        _require(bool(np.all(np.isfinite(values))), "non-finite value")
        _require(abs(values[:, 1].sum() - 100.0) <= 1e-9,
                 f"shares sum to {values[:, 1].sum()}")
        _require(bool(np.all(values[:, 2] >= 0.0)), "negative halfwidth")
        return SOBOL_N * (len(rows) + 2)

    def summary(self, argv, text: str) -> dict:
        _, rows = _csv_rows(text)
        return {"inputs": [r[0] for r in rows],
                "total_index": [float(r[1]) for r in rows],
                "percent_share": [float(r[2]) for r in rows],
                "bootstrap_halfwidth": [float(r[3]) for r in rows]}

    def compare(self, got: dict, want: dict) -> None:
        _require(got["inputs"] == want["inputs"], "inputs differ")
        for key, atol, rtol in (("total_index", 0.0, INDEX_RTOL),
                                ("percent_share", SHARE_ATOL, 0.0),
                                ("bootstrap_halfwidth", SHARE_ATOL, 0.0)):
            for g, w in zip(got[key], want[key]):
                _require(_close(g, w, atol, rtol),
                         f"{key} {g!r} != reference {w!r}")


class ScanWindows:
    """One CLI ``collinearity`` scan per op over a seeded window.

    A pass of 16 ops places one window in each cell of a 4 x 4 grid of
    window positions, and the seed jitters it inside its cell. Scan cost
    depends strongly on where the window sits, so every pass covers the
    box evenly and the cost mix does not change with the seed.
    """

    name = "scan-windows"
    ops_per_pass = SCAN_STRATA * SCAN_STRATA

    def __init__(self, out_dir: str) -> None:
        self.out = os.path.join(out_dir, "collinearity.csv")

    def _window(self, seed: int, op: int):
        cell = divmod(op % self.ops_per_pass, SCAN_STRATA)
        jitter = np.random.default_rng(op_seed(seed, op)).random(2)
        window = []
        for (lo, hi), stratum, u in zip(SCAN_BOX, cell, jitter):
            width = SCAN_FRACTION * (hi - lo)
            frac = (stratum + float(u)) / SCAN_STRATA
            start = lo + frac * (hi - lo - width)
            window.append((start, start + width))
        return window

    def inputs(self, seed: int, op: int):
        (nu_lo, nu_hi), (rho_lo, rho_hi) = self._window(seed, op)
        return ["collinearity", "--res", str(SCAN_RES),
                "--nu-min", repr(nu_lo), "--nu-max", repr(nu_hi),
                "--rho-min", repr(rho_lo), "--rho-max", repr(rho_hi),
                "--out", self.out]

    def warm_up(self, seed: int) -> None:
        argv = self.inputs(seed, 0)
        argv[argv.index("--res") + 1] = "2"
        _run_cli(argv)

    def run(self, argv) -> str:
        return _run_cli(argv)

    def check(self, argv, text: str) -> int:
        """Invariants of one scan; returns the cell count."""
        header, rows = _csv_rows(text)
        _require(header == ["nu", "rho", "gamma_correlation", "gamma_weights",
                            "band_correlation", "band_weights"],
                 f"header {header}")
        _require(len(rows) == SCAN_RES * SCAN_RES, f"{len(rows)} cells")
        nu_lo, nu_hi, rho_lo, rho_hi = (float(argv[i]) for i in (4, 6, 8, 10))
        for row in rows:
            nu, rho = float(row[0]), float(row[1])
            _require(nu_lo - 1e-12 <= nu <= nu_hi + 1e-12
                     and rho_lo - 1e-12 <= rho <= rho_hi + 1e-12,
                     f"cell ({nu}, {rho}) outside the window")
            for gamma, band in ((float(row[2]), row[4]),
                                (float(row[3]), row[5])):
                if math.isnan(gamma):
                    _require(band == "failed", f"NaN gamma with band {band}")
                else:
                    _require(1.0 <= gamma <= GAMMA_CAP, f"gamma {gamma}")
                    _require(band == band_of(gamma), f"band {band} of {gamma}")
        return len(rows)

    def summary(self, argv, text: str) -> dict:
        _, rows = _csv_rows(text)
        return {"gamma_correlation": [float(r[2]) for r in rows],
                "gamma_weights": [float(r[3]) for r in rows],
                "bands": [r[4] + "/" + r[5] for r in rows]}

    def compare(self, got: dict, want: dict) -> None:
        for key in ("gamma_correlation", "gamma_weights"):
            for g, w in zip(got[key], want[key]):
                rtol = GAMMA_RTOL + GAMMA_RTOL_PER_GAMMA * w
                _require(_close(g, w, rtol=rtol),
                         f"{key} {g!r} != reference {w!r}")
        # a gamma within tolerance of a band edge may cross it
        edges = (10.0, 20.0)
        for i, (g, w) in enumerate(zip(got["bands"], want["bands"])):
            near = any(abs(want[k][i] - e) <= 1e-6 * e
                       for k in ("gamma_correlation", "gamma_weights")
                       for e in edges)
            _require(g == w or near, f"cell {i} band {g} != reference {w}")


class ClassifyNuRho:
    """One nu_rho leave-one-out grid search plus held-out labeling."""

    name = "classify-nu-rho"
    ops_per_pass = 1

    def __init__(self, out_dir: str, train: int = CLASSIFY_TRAIN,
                 test: int = CLASSIFY_TEST) -> None:
        self.train_count = train
        self.test_count = test

    def inputs(self, seed: int, op: int):
        pool = classifier.synth_dataset(self.train_count + self.test_count,
                                        CLASSIFY_Q, op_seed(seed, op))
        train = classifier.LabeledSet(
            features=pool.features[:self.train_count],
            labels=pool.labels[:self.train_count])
        return train, pool.features[self.train_count:], \
            pool.labels[self.train_count:]

    def warm_up(self, seed: int) -> None:
        warm = classifier.synth_dataset(12, CLASSIFY_Q, seed=op_seed(seed, 0))
        grid = classifier.GridSpec(subset="nu_only", nu_values=(1.0,),
                                   rho_values=(1.0,), omega2_values=(0.01,))
        params, _ = classifier.grid_search(warm, grid, k=3)
        classifier.classify(warm, warm.features[:2], params, k=3)

    def run(self, inputs):
        """Selected point, LOO accuracy, candidates and predicted labels;
        the search's own wall time is left out so outputs compare equal."""
        train, test_features, _ = inputs
        selected, trial = classifier.grid_search(train, CLASSIFY_GRID,
                                                 CLASSIFY_K)
        predicted = classifier.classify(train, test_features, selected,
                                        CLASSIFY_K)
        return selected, trial.accuracy, trial.evaluations, \
            tuple(predicted.tolist())

    def check(self, inputs, output) -> int:
        """Invariants of one search; returns the candidate count."""
        selected, accuracy, evaluations, predicted = output
        _require(evaluations == CLASSIFY_GRID.size == 100,
                 f"{evaluations} evaluations")
        _require(0.0 <= accuracy <= 1.0, f"LOO accuracy {accuracy}")
        _require(len(predicted) == self.test_count
                 and set(predicted) <= {-1, 1},
                 "predicted labels are not +-1 per test point")
        grid = CLASSIFY_GRID
        _require(min(grid.nu_values) <= selected.nu <= max(grid.nu_values)
                 and min(grid.rho_values) <= selected.rho
                 <= max(grid.rho_values), f"selected {selected}")
        return evaluations

    def summary(self, inputs, output) -> dict:
        selected, accuracy, _, predicted = output
        return {"nu": selected.nu, "rho": selected.rho,
                "omega2": selected.omega2, "loo_accuracy": accuracy,
                "test_accuracy": float(np.mean(np.asarray(predicted)
                                               == inputs[2]))}

    def compare(self, got: dict, want: dict) -> None:
        nu_step = CLASSIFY_GRID.nu_values[1] - CLASSIFY_GRID.nu_values[0]
        rho_step = CLASSIFY_GRID.rho_values[1] - CLASSIFY_GRID.rho_values[0]
        for key, atol in (("loo_accuracy", LOO_ATOL),
                          ("test_accuracy", TEST_ATOL),
                          ("nu", nu_step * (1 + 1e-9)),
                          ("rho", rho_step * (1 + 1e-9)),
                          ("omega2", 1e-15)):
            _require(_close(got[key], want[key], atol=atol),
                     f"{key} {got[key]!r} != reference {want[key]!r}")


WORKLOADS = {w.name: w for w in (SobolTable, ScanWindows, ClassifyNuRho)}
