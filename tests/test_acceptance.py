"""Acceptance suite: ten numbered criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines as they complete. Criteria 7 and 8 currently FAIL on two
sub-checks each. The test bodies implement the stated expectations
unchanged; the comments on those tests cite the converged reference in
tests/data/converged_shares.json, written by tests/make_converged_shares.py
from the independent estimator in oracles.py. run_study agrees with that
reference on every row the failing sub-checks read
(test_sensitivity.py::test_run_study_agrees_with_converged_reference), so
the program computes the study it defines. Whether that study, the box in
DEFAULT_RANGES and the 4 x 4 lattice, is the paper's own is the open
question, and waits on the paper's study tables.
"""

import json
import math
import os
import time

import numpy as np

from krigesense.classifier import run_benchmark
from krigesense.identifiability import collinearity_scan
from krigesense.kernel import (LocationSet, MaternParams, ReducedParams,
                               matern_correlation, matern_covariance)
from krigesense.kriging import (kriging_variance, kriging_weights,
                                log_likelihood, predict_mean)
from krigesense.sensitivity import ParamBox, run_study, sobol_total
from krigesense.specfun import bessel_k

from oracles import (bessel_k_quadrature, gauss_jordan_inverse, ishigami,
                     ishigami_total_indices)

SEED = 0


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}", flush=True)
    assert ok, f"criterion {number} {status}: {detail}"


def _rel(got: float, want: float) -> float:
    # mixed error: absolute below magnitude one, relative above
    return abs(got - want) / max(abs(want), 1.0)


def _study(dim, omega2=None, response="weights", budget=2048):
    return run_study(grid_dimension=dim, response=response, omega2=omega2,
                     sample_budget=budget, seed=SEED)


def test_criterion_01_bessel_against_quadrature():
    started = time.perf_counter()
    worst = 0.0
    for nu in np.linspace(0.05, 5.0, 10):
        for x in np.linspace(0.05, 50.0, 20):
            got = bessel_k(float(nu), float(x))
            want = bessel_k_quadrature(float(nu), float(x))
            worst = max(worst, abs(got - want) / abs(want))

    half_worst = 0.0
    xs = np.linspace(0.05, 30.0, 25)
    for x in xs:
        pref = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        for nu, poly in ((0.5, 1.0), (1.5, 1.0 + 1.0 / x),
                         (2.5, 1.0 + 3.0 / x + 3.0 / (x * x))):
            want = pref * poly
            half_worst = max(half_worst,
                             abs(bessel_k(nu, float(x)) - want) / want)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and half_worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"max rel err {worst:.2e} (bar 1e-10), half-integer "
                   f"{half_worst:.2e} (bar 1e-12), {elapsed:.2f}s")


def test_criterion_02_matern_special_cases():
    started = time.perf_counter()
    dists = np.linspace(0.0, 5.0, 100)
    exp_worst = 0.0
    for sigma2, rho in ((1.0, 1.0), (2.5, 0.7)):
        params = MaternParams(sigma2=sigma2, rho=rho, nu=0.5, tau2=0.0)
        got = matern_covariance(dists, params)
        want = sigma2 * np.exp(-dists / rho)
        exp_worst = max(exp_worst, float(np.max(np.abs(got - want))))

    rbf_dists = np.linspace(0.1, 1.0, 10)
    got = matern_correlation(rbf_dists, rho=1.0, nu=50.0)
    want = np.exp(-rbf_dists ** 2 / 2.0)
    rbf_worst = float(np.max(np.abs(got - want)))
    elapsed = time.perf_counter() - started
    ok = exp_worst <= 1e-12 and rbf_worst <= 5e-3 and elapsed < 1.0
    _report(2, ok, f"exponential dev {exp_worst:.2e} (bar 1e-12), "
                   f"RBF dev {rbf_worst:.2e} (bar 5e-3), {elapsed:.2f}s")


def test_criterion_03_kriging_against_dense_oracle():
    started = time.perf_counter()
    g = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        n = int(g.integers(2, 26))
        dim = int(g.integers(1, 3))
        pts = g.random((n, dim))
        train = LocationSet(pts)
        sigma2 = float(g.uniform(0.1, 5.0))
        params = MaternParams(sigma2=sigma2,
                              rho=float(g.uniform(0.01, 5.0)),
                              nu=float(g.uniform(0.01, 2.5)),
                              tau2=float(g.uniform(0.001, 0.1)) * sigma2)
        pred = g.random(dim)
        y = g.normal(size=n)

        diff = pts[:, None, :] - pts[None, :, :]
        dmat = np.sqrt(np.sum(diff * diff, axis=2))
        reduced = params.reduced()
        omega = matern_correlation(dmat, reduced.rho, reduced.nu) \
            + reduced.omega2 * np.eye(n)
        cross = matern_correlation(
            np.linalg.norm(pts - pred[None, :], axis=1),
            reduced.rho, reduced.nu)
        inv = gauss_jordan_inverse(omega)
        w_want = inv @ cross

        w_got = kriging_weights(train, pred, reduced)
        scale = max(float(np.max(np.abs(w_want))), 1.0)
        worst = max(worst, float(np.max(np.abs(w_got - w_want))) / scale)

        worst = max(worst, _rel(predict_mean(
            kriging_weights(train, pred, reduced), y), float(w_want @ y)))
        worst = max(worst, _rel(
            kriging_variance(train, pred, params),
            params.sigma2 * (1.0 - float(cross @ w_want))))

        cov = params.sigma2 * matern_correlation(dmat, reduced.rho,
                                                 reduced.nu)
        cov[np.diag_indices(n)] = params.sigma2 + params.tau2
        sign, log_det = np.linalg.slogdet(cov)
        ll_want = (-0.5 * n * math.log(2.0 * math.pi) - 0.5 * log_det
                   - 0.5 * float(y @ gauss_jordan_inverse(cov) @ y))
        worst = max(worst, _rel(log_likelihood(train, y, params), ll_want))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(3, ok, f"50 systems, worst mixed rel err {worst:.2e} "
                   f"(bar 1e-8), {elapsed:.1f}s")


def test_criterion_04_scale_invariance():
    g = np.random.default_rng(SEED + 1)
    worst_w = 0.0
    worst_v = 0.0
    for _ in range(100):
        n = int(g.integers(2, 21))
        dim = int(g.integers(1, 3))
        train = LocationSet(g.random((n, dim)))
        pred = g.random(dim)
        sigma2 = float(g.uniform(0.1, 5.0))
        omega2 = float(g.uniform(0.001, 0.1))
        base = MaternParams(sigma2, float(g.uniform(0.01, 5.0)),
                            float(g.uniform(0.01, 2.5)), omega2 * sigma2)
        w_base = kriging_weights(train, pred, base.reduced())
        v_base = kriging_variance(train, pred, base)
        for c in (0.1, 10.0):
            scaled = MaternParams(c * base.sigma2, base.rho, base.nu,
                                  c * base.tau2)
            w = kriging_weights(train, pred, scaled.reduced())
            worst_w = max(worst_w, float(np.max(np.abs(w - w_base))))
            v = kriging_variance(train, pred, scaled)
            worst_v = max(worst_v, abs(v - c * v_base) / (c * v_base))
    ok = worst_w <= 1e-12 and worst_v <= 1e-12
    _report(4, ok, f"100 configs x c in {{0.1, 10}}: max weight shift "
                   f"{worst_w:.2e}, max variance rel dev {worst_v:.2e} "
                   f"(bars 1e-12)")


def test_criterion_05_collinearity_scan_bands():
    started = time.perf_counter()
    cells = collinearity_scan(resolution=40)
    elapsed = time.perf_counter() - started
    corr_collinear = sum(1 for c in cells if c.gamma_correlation > 20.0)
    wts_collinear = sum(1 for c in cells if c.gamma_weights > 20.0)

    nus = sorted({c.nu for c in cells})
    bottom = set(nus[:10])
    top = set(nus[-10:])
    bottom_cells = [c for c in cells if c.nu in bottom]
    top_cells = [c for c in cells if c.nu in top]
    frac_bottom = (sum(1 for c in bottom_cells if c.gamma_correlation > 20.0)
                   / len(bottom_cells))
    frac_top = (sum(1 for c in top_cells if c.gamma_correlation > 20.0)
                / len(top_cells))
    ok = (corr_collinear > 0 and wts_collinear > 0
          and frac_top > frac_bottom and elapsed < 120.0)
    _report(5, ok, f"collinear cells corr={corr_collinear} wts="
                   f"{wts_collinear}, top-quartile frac {frac_top:.3f} > "
                   f"bottom {frac_bottom:.3f}, {elapsed:.1f}s")


def test_criterion_06_sobol_calibration():
    started = time.perf_counter()
    box = ParamBox(ranges=(("t1", -math.pi, math.pi),
                           ("t2", -math.pi, math.pi),
                           ("t3", -math.pi, math.pi)))
    res = sobol_total(ishigami, box, base_count=4096, seed=SEED)
    want = ishigami_total_indices()
    ishigami_worst = float(np.max(np.abs(res.total_index - want)))

    add_box = ParamBox(ranges=(("a", 0.0, 1.0), ("b", 0.0, 1.0)))
    add = sobol_total(lambda rows: rows[:, 0] + rows[:, 1], add_box,
                      base_count=4096, seed=SEED)
    add_worst = float(np.max(np.abs(add.percent_share - 50.0)))
    elapsed = time.perf_counter() - started
    ok = ishigami_worst <= 0.05 and add_worst <= 5.0 and elapsed < 30.0
    _report(6, ok, f"Ishigami worst dev {ishigami_worst:.4f} (bar 0.05), "
                   f"additive dev {add_worst:.2f}pp (bar 5), {elapsed:.1f}s")


def _fixed_row_checks(rows):
    """(b)-style comparison per fixed-nugget row: nu above rho, with the
    0.1 row allowed to tie within summed bootstrap halfwidths."""
    notes = []
    ok = True
    for value, row in rows.items():
        nu_s, rho_s = row.share_of("nu"), row.share_of("rho")
        row_ok = nu_s > rho_s
        if not row_ok and value == 0.1:
            slack = row.halfwidth_of("nu") + row.halfwidth_of("rho")
            row_ok = abs(nu_s - rho_s) <= slack
        ok = ok and row_ok
        notes.append(f"w2={value}: nu {nu_s:.1f} vs rho {rho_s:.1f}"
                     f"{'' if row_ok else ' <-'}")
    return ok, "; ".join(notes)


def test_criterion_07_one_dim_share_table():
    # (c) and (d) FAIL here; the converged reference is
    # tests/data/converged_shares.json (16 scrambles x 8192 rows).
    # (c) The varying-row omega2 share is 3.8 at seed 0 against a bar of
    #     5; converged it is 3.74 +- 0.01.
    # (d) The variance row breaks the stated order in the middle: at seed
    #     0 nu 55.8, sigma2 19.5, rho 24.7; converged nu 55.98, rho 22.67
    #     +- 0.09, sigma2 21.27 +- 0.10.
    # (b) passes at omega2 = 0.01 and 0.1 only within sampling noise:
    #     converged, rho leads there (16.52 vs 14.36 and 21.40 vs 13.71),
    #     and run_study at N=16384, seed 0 gives 15.6 vs 14.0 at 0.01.
    #     nu leads only at omega2 = 0.001 (13.99 vs 13.72), and rho leads
    #     on the varying row (17.95 vs 13.62). The abstract backs nu over
    #     rho at small nugget; whether the study box is the paper's is the
    #     open question. The assertions are kept as stated.
    started = time.perf_counter()
    rows = {v: _study(1, v) for v in (0.0, 0.001, 0.01, 0.1)}
    zero = rows[0.0]
    a_ok = zero.share_of("rho") < 5.0 and zero.share_of("x") > 55.0
    a_note = (f"(a) rho {zero.share_of('rho'):.1f} x "
              f"{zero.share_of('x'):.1f}")

    b_ok, b_note = _fixed_row_checks(rows)

    vary = _study(1)
    c_ok = all(vary.share_of(n) > 5.0 for n in ("rho", "nu", "omega2", "x"))
    c_note = "(c) " + " ".join(f"{n} {vary.share_of(n):.1f}"
                               for n in ("rho", "nu", "omega2", "x"))

    var_row = _study(1, response="prediction_variance")
    order = [var_row.share_of(n) for n in ("nu", "sigma2", "rho", "omega2")]
    d_ok = all(order[i] > order[i + 1] for i in range(3))
    d_note = ("(d) nu {0:.1f} sigma2 {1:.1f} rho {2:.1f} omega2 {3:.1f}"
              .format(*order))
    elapsed = time.perf_counter() - started
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 300.0
    flags = "".join("+" if part else "-" for part in (a_ok, b_ok, c_ok, d_ok))
    _report(7, ok, f"[{flags}] {a_note}; (b) {b_note}; {c_note}; {d_note}; "
                   f"{elapsed:.1f}s")


def test_criterion_08_two_dim_share_table():
    # (b) and (c) FAIL here; the converged reference is
    # tests/data/converged_shares.json (16 scrambles x 8192 rows).
    # (b) On the 4 x 4 lattice rho leads nu at omega2 = 0.01 (converged
    #     10.51 vs 7.57) and at 0.1 (20.55 vs 8.61), far past the tie
    #     allowance. nu leads only at omega2 = 0.001 (6.36 vs 5.63), and
    #     rho leads on the varying row (14.74 vs 7.97).
    # (c) The varying-row omega2 share is 3.3 at seed 0 against a bar of
    #     5; converged it is 3.30 +- 0.01.
    # The abstract backs nu over rho at small nugget. The reversal at
    # larger nugget points at the study box or the lattice rather than at
    # the estimator, but the paper's box is not in the repository. The
    # assertions are kept as stated.
    started = time.perf_counter()
    rows = {v: _study(2, v) for v in (0.0, 0.001, 0.01, 0.1)}
    zero = rows[0.0]
    a_ok = zero.share_of("rho") < 5.0 and zero.share_of("x") > 60.0
    a_note = (f"(a) rho {zero.share_of('rho'):.1f} x "
              f"{zero.share_of('x'):.1f}")

    b_ok, b_note = _fixed_row_checks(rows)

    vary = _study(2)
    c_ok = all(vary.share_of(n) > 5.0 for n in ("rho", "nu", "omega2", "x"))
    c_note = "(c) " + " ".join(f"{n} {vary.share_of(n):.1f}"
                               for n in ("rho", "nu", "omega2", "x"))

    var_row = _study(2, response="prediction_variance")
    d_ok = var_row.share_of("nu") > var_row.share_of("sigma2")
    d_note = (f"(d) nu {var_row.share_of('nu'):.1f} vs sigma2 "
              f"{var_row.share_of('sigma2'):.1f}")
    elapsed = time.perf_counter() - started
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 300.0
    flags = "".join("+" if part else "-" for part in (a_ok, b_ok, c_ok, d_ok))
    _report(8, ok, f"[{flags}] {a_note}; (b) {b_note}; {c_note}; {d_note}; "
                   f"{elapsed:.1f}s")


def test_criterion_09_classifier_benchmark():
    started = time.perf_counter()
    rows = run_benchmark(train_sizes=(200, 400, 800), iterations=10,
                         seed=SEED)
    elapsed = time.perf_counter() - started

    evals = {s: {r.evaluations for r in rows if r.subset == s}
             for s in ("nu_only", "nu_rho", "all")}
    a_ok = (evals["nu_only"] == {10} and evals["nu_rho"] == {100}
            and evals["all"] == {1000})

    def mean_wall(subset, size):
        walls = [r.wall_time for r in rows
                 if r.subset == subset and r.train_size == size]
        return float(np.mean(walls))

    def mean_acc(subset, size):
        accs = [r.accuracy for r in rows
                if r.subset == subset and r.train_size == size]
        return float(np.mean(accs))

    sizes = (200, 400, 800)
    ratio = (sum(mean_wall("all", s) for s in sizes)
             / sum(mean_wall("nu_only", s) for s in sizes))
    b_ok = ratio >= 20.0

    gap = abs(mean_acc("nu_only", 800) - mean_acc("all", 800))
    c_ok = gap <= 0.02

    ok = a_ok and b_ok and c_ok and elapsed < 600.0
    _report(9, ok, f"evals {'exact' if a_ok else 'WRONG'}, wall ratio "
                   f"{ratio:.1f}x (bar 20x), accuracy gap at 800 "
                   f"{100 * gap:.2f}pp (bar 2pp), {elapsed:.0f}s")


def test_criterion_10_cli_reruns_byte_identical(tmp_path, cli_child):
    # each subcommand runs twice in a child process: once narrowed to one
    # core, so the classifier's pool has one worker, and once at this
    # process's full CPU mask
    jobs = (
        ("weights", ["weights", "--dim", "1", "--rho", "1.5", "--nu",
                     "1.0"], None),
        ("collinearity", ["collinearity", "--res", "3", "--nu-min", "0.5",
                          "--nu-max", "2.0", "--rho-min", "0.5",
                          "--rho-max", "2.0"], None),
        ("sobol", ["sobol", "--n", "256", "--seed", "3"], None),
        ("classify-bench", ["classify-bench", "--sizes", "16", "--iters",
                            "1", "--seed", "0", "--k", "3"], "wall_time_s"),
    )
    full = len(os.sched_getaffinity(0))
    failures = []
    for name, flags, strip in jobs:
        outputs = {}
        for label, one_core in (("one-core", True), ("full-mask", False)):
            out = tmp_path / f"{name}-{label}.csv"
            code = cli_child(flags + ["--out", str(out)], one_core)
            if code != 0:
                failures.append(f"{name} exit {code}")
                continue
            manifest = json.loads(out.with_suffix(".manifest.json")
                                  .read_text())
            if manifest["workers"] != (1 if one_core else full):
                failures.append(f"{name} {label} ran a pool of "
                                f"{manifest['workers']}")
            if strip is None:
                outputs[label] = out.read_bytes()
            else:
                text = out.read_text().splitlines()
                drop = text[0].split(",").index(strip)
                outputs[label] = [
                    ",".join(v for i, v in enumerate(line.split(","))
                             if i != drop) for line in text]
        if len(outputs) == 2 and outputs["one-core"] != outputs["full-mask"]:
            failures.append(f"{name} differs between pool sizes 1 and {full}")
    pools = (f"pool sizes 1 and {full}" if full > 1 else
             "a 1-core mask, so both runs have the same pool size 1")
    ok = not failures
    _report(10, ok, f"all four subcommands byte-identical across reruns at "
                    f"{pools}" if ok else "; ".join(failures))
