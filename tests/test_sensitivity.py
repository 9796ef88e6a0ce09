"""Tests for LHS designs and total-effect Sobol studies of the kriging
responses.

test_variance_row_hyperparameter_ordering is red on purpose: its stated
order puts sigma2 above rho on the 1-D variance row, and the converged
reference in tests/data/converged_shares.json puts rho above sigma2.
That file is written by tests/make_converged_shares.py from the
independent estimator in oracles.py, and
test_run_study_agrees_with_converged_reference shows run_study agreeing
with it, so the estimator is not at fault. Whether the study box
(DEFAULT_RANGES) and the latent-variance convention are the paper's own
is the open question; the assertion is kept as stated.
"""

import json
import math
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from krigesense import linalg, parallel, rng
from krigesense.kernel import ReducedParams, matern_correlation
from krigesense.kriging import KrigingSystem
from krigesense.sensitivity import (DEFAULT_RANGES, ParamBox, SobolResult,
                                    UndefinedSharesError, lhs_sample,
                                    response_variance, response_weights,
                                    run_study, sobol_total, study_grid)

from oracles import gauss_jordan_inverse, ishigami, ishigami_total_indices

CONVERGED_SHARES = Path(__file__).resolve().parent / "data" / \
    "converged_shares.json"


def dense_weights(train, point, rho, nu, omega2):
    """Weight vector by explicit inverse, independent of the solver path."""
    pts = train.points
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    diff = pts[:, None, :] - pts[None, :, :]
    dmat = np.sqrt(np.sum(diff * diff, axis=2))
    omega = matern_correlation(dmat, rho, nu) + omega2 * np.eye(train.count)
    cross = matern_correlation(
        np.linalg.norm(pts - pt[None, :], axis=1), rho, nu)
    return gauss_jordan_inverse(omega) @ cross


# ------------------------------------------------------------------ LHS


def test_lhs_one_point_per_quartile():
    box = ParamBox(ranges=(("a", 0.0, 1.0),))
    pts = lhs_sample(4, box, seed=0)[:, 0]
    counts, _ = np.histogram(pts, bins=[0.0, 0.25, 0.5, 0.75, 1.0])
    assert counts.tolist() == [1, 1, 1, 1]


def test_lhs_marginals_flat_per_decile():
    box = ParamBox(ranges=DEFAULT_RANGES)
    pts = lhs_sample(5000, box, seed=1)
    sigma = math.sqrt(5000 * 0.1 * 0.9)
    for j, (_, lo, hi) in enumerate(box.ranges):
        edges = np.linspace(lo, hi, 11)
        counts, _ = np.histogram(pts[:, j], bins=edges)
        # stratification makes each decile hold exactly count/10 points,
        # which sits far inside the 3 sigma multinomial band
        assert counts.tolist() == [500] * 10
        assert np.all(np.abs(counts - 500) <= 3.0 * sigma)


def test_lhs_deterministic_and_seed_sensitive():
    box = ParamBox(ranges=DEFAULT_RANGES[1:3])
    a = lhs_sample(64, box, seed=9)
    b = lhs_sample(64, box, seed=9)
    c = lhs_sample(64, box, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_lhs_respects_bounds():
    box = ParamBox(ranges=DEFAULT_RANGES)
    pts = lhs_sample(256, box, seed=2)
    for j, (_, lo, hi) in enumerate(box.ranges):
        assert np.all(pts[:, j] >= lo) and np.all(pts[:, j] <= hi)


def test_lhs_count_validation():
    box = ParamBox(ranges=DEFAULT_RANGES)
    with pytest.raises(ValueError):
        lhs_sample(3, box, seed=0)


def test_param_box_validation():
    with pytest.raises(ValueError):
        ParamBox(ranges=(("a", 1.0, 1.0),))
    with pytest.raises(ValueError):
        ParamBox(ranges=(("a", 0.0, 1.0), ("a", 0.0, 2.0)))


# ------------------------------------------------------------ responses


def test_response_weights_symmetric_indices():
    params = ReducedParams(1.5, 1.0, 0.01)
    for i in (0, 3, 7):
        left = response_weights(params, i, grid_dimension=1)
        right = response_weights(params, 19 - i, grid_dimension=1)
        assert abs(left - right) < 1e-12


def test_response_weights_spot_values_match_oracle():
    train, point = study_grid(1)
    params = ReducedParams(0.9, 1.3, 0.03)
    want = dense_weights(train, point, 0.9, 1.3, 0.03)
    for idx in (0, 7, 19):
        got = response_weights(params, idx, grid_dimension=1)
        assert abs(got - want[idx]) < 1e-10
    train2, point2 = study_grid(2)
    want2 = dense_weights(train2, point2, 0.9, 1.3, 0.03)
    got2 = response_weights(params, 5, grid_dimension=2)
    assert abs(got2 - want2[5]) < 1e-10


def test_response_weights_index_bounds():
    params = ReducedParams(1.0, 0.5, 0.01)
    with pytest.raises(ValueError):
        response_weights(params, 20, grid_dimension=1)
    with pytest.raises(ValueError):
        response_weights(params, -1, grid_dimension=1)
    with pytest.raises(ValueError, match="not an integer"):
        response_weights(params, 2.7, grid_dimension=1)


def test_response_variance_sigma2_scaling_exact():
    base = response_variance(1.3, 1.0, 0.8, 0.02)
    doubled = response_variance(2.6, 1.0, 0.8, 0.02)
    assert doubled == pytest.approx(2.0 * base, rel=1e-15)


def test_response_variance_large_nugget_limit():
    sigma2 = 2.2
    got = response_variance(sigma2, 1.0, 1.0, 1e6)
    assert abs(got - sigma2) / sigma2 < 1e-3


def test_response_variance_midpoint_matches_oracle():
    mids = {name: 0.5 * (lo + hi) for name, lo, hi in DEFAULT_RANGES}
    got = response_variance(mids["sigma2"], mids["rho"], mids["nu"],
                            mids["omega2"])
    train, point = study_grid(1)
    w = dense_weights(train, point, mids["rho"], mids["nu"], mids["omega2"])
    cross = matern_correlation(
        np.abs(train.points[:, 0] - point[0]), mids["rho"], mids["nu"])
    want = mids["sigma2"] * (1.0 - float(cross @ w))
    assert abs(got - want) < 1e-10


def test_study_grid_layouts():
    train1, point1 = study_grid(1)
    assert train1.count == 20 and point1.tolist() == [0.5]
    assert not np.any(np.all(np.abs(train1.points - 0.5) < 1e-12, axis=1))
    train2, point2 = study_grid(2)
    assert train2.count == 16 and point2.tolist() == [0.5, 0.5]
    with pytest.raises(ValueError):
        study_grid(3)


# ----------------------------------------------------------- sobol_total


def test_single_active_input_takes_all_share():
    box = ParamBox(ranges=(("a", 0.0, 1.0), ("b", 0.0, 1.0)))
    res = sobol_total(lambda rows: rows[:, 0], box, base_count=512, seed=0)
    assert res.share_of("a") > 95.0
    assert res.share_of("b") < 5.0
    assert res.total_index[1] == 0.0


def test_additive_equal_ranges_split_evenly():
    box = ParamBox(ranges=(("a", 0.0, 1.0), ("b", 0.0, 1.0)))
    res = sobol_total(lambda rows: rows[:, 0] + rows[:, 1], box,
                      base_count=1024, seed=0)
    assert abs(res.share_of("a") - 50.0) <= 5.0
    assert abs(res.share_of("b") - 50.0) <= 5.0


def test_ishigami_total_indices():
    box = ParamBox(ranges=(("t1", -math.pi, math.pi),
                           ("t2", -math.pi, math.pi),
                           ("t3", -math.pi, math.pi)))
    res = sobol_total(ishigami, box, base_count=4096, seed=0)
    want = ishigami_total_indices()
    for i in range(3):
        assert abs(res.total_index[i] - want[i]) <= 0.05


def test_ignored_input_has_exactly_zero_index():
    # sigma2 never enters the weight response, so the pick-freeze
    # difference rows for it are identically zero
    box = ParamBox(ranges=DEFAULT_RANGES)

    def f(rows):
        return response_weights(
            ReducedParams(rows[:, 1], rows[:, 2], rows[:, 3]),
            rows[:, 4].astype(int))

    res = sobol_total(f, box, base_count=512, seed=3, location_count=20)
    assert res.total_index[0] == 0.0
    assert res.share_of("sigma2") == 0.0
    assert res.halfwidth_of("sigma2") == 0.0


def test_location_factor_column_and_cost():
    box = ParamBox(ranges=(("a", 0.0, 1.0),))
    res = sobol_total(lambda rows: rows[:, 1], box, base_count=256,
                      seed=0, location_count=6)
    assert res.inputs == ("a", "x")
    assert res.evaluations == 256 * 4
    assert res.share_of("x") > 90.0


def test_location_factor_alone_takes_all_share():
    # an empty box leaves x as the only input; the continuous columns are
    # (n, 0) draws that take nothing from the stream
    res = sobol_total(lambda rows: np.sin(rows[:, 0]) + rows[:, 0],
                      ParamBox(ranges=()), base_count=256, seed=3,
                      location_count=7)
    assert res.inputs == ("x",)
    assert res.evaluations == 256 * 3
    assert res.share_of("x") == 100.0


def test_sobol_result_shares_and_signs():
    box = ParamBox(ranges=(("a", 0.0, 1.0), ("b", 0.0, 1.0)))
    res = sobol_total(lambda rows: rows[:, 0] * rows[:, 1] + rows[:, 1], box,
                      base_count=512, seed=5)
    assert isinstance(res, SobolResult)
    assert abs(float(np.sum(res.percent_share)) - 100.0) <= 0.1
    assert np.all(res.total_index >= 0.0)
    assert np.all(res.bootstrap_halfwidth >= 0.0)


def test_sobol_determinism_and_seed_sensitivity():
    box = ParamBox(ranges=(("a", 0.0, 1.0), ("b", 0.0, 1.0)))
    f = lambda rows: np.sin(rows[:, 0]) + rows[:, 1] ** 2  # noqa: E731
    r1 = sobol_total(f, box, base_count=256, seed=11)
    r2 = sobol_total(f, box, base_count=256, seed=11)
    r3 = sobol_total(f, box, base_count=256, seed=12)
    assert np.array_equal(r1.percent_share, r2.percent_share)
    assert np.array_equal(r1.bootstrap_halfwidth, r2.bootstrap_halfwidth)
    assert not np.array_equal(r1.percent_share, r3.percent_share)


def test_constant_response_raises():
    box = ParamBox(ranges=(("a", 0.0, 1.0),))
    with pytest.raises(UndefinedSharesError):
        sobol_total(lambda rows: np.ones(len(rows)), box, base_count=256,
                    seed=0)


def test_sobol_validation():
    box = ParamBox(ranges=(("a", 0.0, 1.0),))
    with pytest.raises(ValueError):
        sobol_total(lambda rows: rows[:, 0], box, base_count=128, seed=0)
    with pytest.raises(ValueError):
        sobol_total(lambda rows: rows[:, 0], box, base_count=256, seed=0,
                    location_count=0)


def _loop_bootstrap(squared, f_var, seed):
    """The per-replicate bootstrap loop that sobol_total ran before it
    priced its replicates in blocks, kept as the reference. Returns the
    halfwidths, the kept count and the two drop counts."""
    n = squared.shape[1]
    g_boot = rng.stream(seed, 4)
    replicate_shares = []
    zero_variance = zero_sum = 0
    for _ in range(200):
        idx = g_boot.integers(0, n, n)
        idx_var = g_boot.integers(0, n, n)
        var_b = float(np.var(f_var[idx_var], ddof=1))
        if var_b <= 0.0:
            zero_variance += 1
            continue
        totals_b = squared[:, idx].mean(axis=1) / (2.0 * var_b)
        sum_b = float(totals_b.sum())
        if sum_b <= 0.0:
            zero_sum += 1
            continue
        replicate_shares.append(100.0 * totals_b / sum_b)
    lo_q, hi_q = np.percentile(np.vstack(replicate_shares), [2.5, 97.5],
                               axis=0)
    return (0.5 * (hi_q - lo_q), len(replicate_shares), zero_variance,
            zero_sum)


@pytest.mark.parametrize("response, seed, location_count, drops", [
    (lambda rows: np.sin(rows[:, 0]) + rows[:, 1] ** 2, 3, None, False),
    (lambda rows: rows[:, 0] * rows[:, 1] + rows[:, 2] / 7.0, 4, 7, False),
    # nonzero on the top 1/256 of a only: the variance sample has one
    # nonzero row and the pick-freeze differences have two or three, so
    # resamples that miss them are dropped for either reason
    (lambda rows: (rows[:, 0] > 1.0 - 1.0 / 256.0) + 0.0 * rows[:, 1],
     3, None, True),
    (lambda rows: (rows[:, 0] > 1.0 - 1.0 / 256.0) + 0.0 * rows[:, 1],
     7, None, True),
], ids=["smooth", "location", "sparse-seed3", "sparse-seed7"])
def test_bootstrap_equals_the_per_replicate_loop(response, seed,
                                                 location_count, drops):
    box = ParamBox(ranges=(("a", 0.0, 1.0), ("b", 0.0, 1.0)))
    blocks = box.size + (location_count is not None) + 2
    # each call holds one block of base rows of A, of each A_B^i in input
    # order, then of the variance sample; calls may finish in any order,
    # so each is keyed by the Latin hypercube row its variance block
    # starts at
    lhs_first = lhs_sample(256, box, seed)[:, 0]
    calls = {}

    def f(rows):
        got = np.asarray(response(rows), dtype=float)
        start = rows[(blocks - 1) * (len(rows) // blocks), 0]
        calls[int(np.flatnonzero(lhs_first == start)[0])] = got
        return got

    res = sobol_total(f, box, base_count=256, seed=seed,
                      location_count=location_count)
    assert len(res.inputs) + 2 == blocks
    f_a, *f_hybrids, f_var = np.concatenate(
        [calls[start].reshape(blocks, -1) for start in sorted(calls)], axis=1)
    squared = np.empty((blocks - 2, 256))
    for i, f_h in enumerate(f_hybrids):
        squared[i] = (f_a - f_h) ** 2
    totals = squared.mean(axis=1) / (2.0 * float(np.var(f_var, ddof=1)))
    assert np.array_equal(res.percent_share, 100.0 * totals / totals.sum())
    halfwidth, kept, zero_variance, zero_sum = _loop_bootstrap(
        squared, f_var, seed)
    assert np.array_equal(res.bootstrap_halfwidth, halfwidth)
    assert res.replicates_kept == kept
    assert (zero_variance > 0 and zero_sum > 0) == drops
    assert kept == 200 - zero_variance - zero_sum


@pytest.mark.parametrize("base_count, location_count", [
    (256, 5), (259, None), (1000, 7)])
def test_sobol_calls_hold_row_aligned_blocks(base_count, location_count):
    box = ParamBox(ranges=(("a", 0.0, 1.0), ("b", 2.0, 3.0), ("c", -1.0, 0.0)))
    calls = []

    def f(rows):
        calls.append(rows.copy())
        return np.sin(rows).sum(axis=1)

    res = sobol_total(f, box, base_count=base_count, seed=2,
                      location_count=location_count)
    p = len(res.inputs)
    assert len(calls) <= p + 2
    assert sum(len(c) for c in calls) == res.evaluations
    for rows in calls:
        blocks = rows.reshape(p + 2, -1, p)
        for i in range(p):
            outside = np.arange(p) != i
            assert np.array_equal(blocks[1 + i][:, outside],
                                  blocks[0][:, outside])
    # the blocks of A, taken in call order, are A's rows once each
    a_rows = np.concatenate([c.reshape(p + 2, -1, p)[0] for c in calls])
    assert len(np.unique(a_rows, axis=0)) == base_count


@pytest.mark.parametrize("block, row, label", [
    (0, 0, "A"), (2, 3, "A_B^b"), (3, 7, "A_B^x"), (4, 0, "variance")])
def test_sobol_error_names_the_matrix_of_the_first_bad_row(block, row,
                                                           label):
    box = ParamBox(ranges=(("a", 0.0, 1.0), ("b", 0.0, 1.0)))

    def f(rows):
        out = rows[:, 0] + rows[:, 1]
        out[block * (len(rows) // 5) + row] = np.nan
        return out

    with pytest.raises(ArithmeticError,
                       match=re.escape(f"in {label} sample, row {row}")):
        sobol_total(f, box, base_count=256, seed=0, location_count=4)
    with pytest.raises(ValueError, match="one response per row"):
        sobol_total(lambda rows: rows[:-1, 0], box, base_count=256, seed=0)


@pytest.mark.parametrize("omega2", [0.01, None],
                         ids=["fixed-0.01", "varying-None"])
def test_study_prices_each_distinct_correlation_row_once(omega2,
                                                         matern_calls):
    # A, A_B^rho, A_B^nu and the variance sample each bring n new (rho, nu)
    # rows; A_B^x repeats A's, and A_B^omega2 repeats A's (rho, nu)
    run_study(response="weights", omega2=omega2,
              sample_budget=256, seed=0)
    assert sum(np.size(args[1]) for args in matern_calls) == 4 * 256


@pytest.mark.parametrize("dim, seed", [(1, 5), (2, 11)])
def test_variance_row_factors_each_distinct_system_once(dim, seed,
                                                        monkeypatch):
    # the two variance rows of a seed-0 sobol-table benchmark pass (ops 5
    # and 11, n = 256): A, A_B^rho, A_B^nu, A_B^omega2 and the variance
    # sample each bring n systems, and A_B^sigma2 repeats A's exactly
    # because omega2 reaches the system as sampled, not through
    # tau2 = omega2 * sigma2 and back (1,323 and 1,322 systems that way)
    factored = []
    rung_zero = linalg._cholesky_or_nan

    def counted(stack, out=None):
        factored.append(len(stack))
        return rung_zero(stack, out=out)

    monkeypatch.setattr(linalg, "_cholesky_or_nan", counted)
    run_study(grid_dimension=dim,
              response="prediction_variance",
              sample_budget=256, seed=seed)
    assert sum(factored) == 5 * 256


# the 12 rows of one sobol-table benchmark pass, as the CLI runs them
_SOBOL_TABLE = tuple(
    (dim, response, omega2) for dim in (1, 2)
    for response, omega2 in (("weights", 0.0), ("weights", 0.001),
                             ("weights", 0.01), ("weights", 0.1),
                             ("weights", None),
                             ("prediction_variance", None)))


def test_sobol_table_pass_builds_each_distinct_system_once(monkeypatch):
    # seed-0, n = 256 pass, op i at seed i: A_B^x repeats A's systems on
    # the weights rows and A_B^sigma2 on the variance row, so a fixed
    # omega2 row holds 1,024 systems for 1,280 rows and a varying-omega2
    # or variance row 1,280 for 1,536; 13,312 for 16,384 in all
    build = KrigingSystem.build.__func__
    built = []

    def counted(cls, train, pred, params):
        system = build(cls, train, pred, params)
        built[-1] += np.array([system.rows.size, len(system.factor.lower)])
        return system

    monkeypatch.setattr(KrigingSystem, "build", classmethod(counted))
    for op, (dim, response, omega2) in enumerate(_SOBOL_TABLE):
        built.append(np.zeros(2, dtype=int))
        run_study(grid_dimension=dim, response=response,
                  omega2=omega2, sample_budget=256, seed=op)
        want = (1280, 1024) if omega2 is not None else (1536, 1280)
        assert tuple(built[-1]) == want, (op, built[-1])
    assert tuple(np.sum(built, axis=0)) == (16384, 13312)


def _result_bits(res):
    """Every field of a SobolResult, arrays as their bytes."""
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                 for v in vars(res).values())


def test_study_does_not_depend_on_worker_count(monkeypatch):
    # the p + 2 response calls of a study run concurrently on the pool; at
    # 1, 2 and 4 workers a weights row and a variance row give the same
    # bits
    configs = (dict(response="weights", omega2=0.01, sample_budget=256,
                    seed=0),
               dict(response="prediction_variance", sample_budget=256,
                    seed=5))
    results = []
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            results.append([_result_bits(run_study(**c)) for c in configs])
    finally:
        sys.setswitchinterval(switch)
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_weights_study_traced_peak(traced_peak):
    # one 1-D weights study at omega2 = 0.01, n = 256, seed 0 holds each
    # distinct system's factor once: 1.60 MB traced peak, where copying
    # factors back to every repeated row peaked at 2.62 MB (tracemalloc,
    # numpy 2.4.6). Each stack is now factored in place and solved
    # without a copy, so one call in flight peaks at 0.94 MB; the peak
    # grows with min(workers, calls, 2): 1.5-1.8 MB with two calls in
    # flight (2.8-3.4 MB when four were)
    assert traced_peak(lambda: run_study(
        response="weights", omega2=0.01, sample_budget=256, seed=0)
    ) < 2_100_000


@pytest.mark.parametrize("workers", [4, 8])
def test_weights_study_traced_peak_on_larger_pools(traced_peak, monkeypatch,
                                                   workers):
    # a study keeps at most two response calls in flight, so a pool sized
    # for a host with more cores stays under the same bound
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    assert traced_peak(lambda: run_study(
        response="weights", omega2=0.01, sample_budget=256, seed=0)
    ) < 2_100_000


def test_sobol_total_calls_f_two_at_a_time_from_pool_threads(monkeypatch):
    # f is called from pool threads, two calls at a time, so it must be
    # safe to call concurrently and keep no state between calls: each call
    # below waits at a two-party barrier, which only a partner call
    # running at the same time releases
    monkeypatch.setattr(parallel, "worker_count", lambda: 4)
    box = ParamBox(ranges=(("a", 0.0, 1.0), ("b", 0.0, 1.0)))
    barrier = threading.Barrier(2, timeout=60)
    lock = threading.Lock()
    threads, in_flight, most = set(), [0], [0]

    def f(rows):
        with lock:
            threads.add(threading.current_thread().name)
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
        barrier.wait()
        with lock:
            in_flight[0] -= 1
        return rows[:, 0] + 2.0 * rows[:, 1]

    res = sobol_total(f, box, base_count=256, seed=3)
    assert most[0] == 2
    assert all(name.startswith("krigesense") for name in threads)
    assert _result_bits(res) == _result_bits(
        sobol_total(lambda rows: rows[:, 0] + 2.0 * rows[:, 1], box,
                    base_count=256, seed=3))


# ------------------------------------------------------------ run_study


def test_run_study_validation():
    with pytest.raises(ValueError, match="grid_dimension"):
        run_study(grid_dimension=3, sample_budget=256)
    with pytest.raises(ValueError, match="unknown response 'mean'"):
        run_study(response="mean", sample_budget=256)
    with pytest.raises(ValueError, match="fixed omega2 must be one of"):
        run_study(omega2=0.05, sample_budget=256)
    with pytest.raises(ValueError, match="base_count must be >= 256"):
        run_study(sample_budget=255)
    assert run_study(omega2=0.0, sample_budget=256).inputs == (
        "rho", "nu", "x")


def test_run_study_active_inputs_and_cost():
    vary = run_study(response="weights", omega2=None,
                     sample_budget=256, seed=0)
    assert vary.inputs == ("rho", "nu", "omega2", "x")
    assert vary.evaluations == 256 * 6

    fixed = run_study(response="weights", omega2=0.01,
                      sample_budget=256, seed=0)
    assert fixed.inputs == ("rho", "nu", "x")
    assert fixed.evaluations == 256 * 5

    var_full = run_study(response="prediction_variance",
                         sample_budget=256, seed=0)
    assert var_full.inputs == ("sigma2", "rho", "nu", "omega2")


def test_run_study_deterministic():
    cfg = dict(response="weights", omega2=0.001, sample_budget=256, seed=4)
    a = run_study(**cfg)
    b = run_study(**cfg)
    assert np.array_equal(a.percent_share, b.percent_share)


def test_zero_nugget_row_share_pattern():
    res = run_study(grid_dimension=1, response="weights",
                    omega2=0.0, sample_budget=1024, seed=0)
    assert res.share_of("rho") < 1.0
    assert res.share_of("nu") > 5.0
    assert res.share_of("nu") > res.share_of("rho")
    assert res.share_of("x") > max(res.share_of("nu"), res.share_of("rho"))


def test_varying_nugget_row_all_inputs_active():
    res = run_study(grid_dimension=1, response="weights",
                    omega2=None, sample_budget=1024, seed=0)
    for name in ("rho", "nu", "omega2", "x"):
        assert res.share_of(name) > 1.0


def test_monotone_nugget_effect_on_rho():
    lo = run_study(grid_dimension=1, response="weights",
                   omega2=0.0, sample_budget=1024, seed=0)
    hi = run_study(grid_dimension=1, response="weights",
                   omega2=0.1, sample_budget=1024, seed=0)
    assert hi.share_of("rho") > lo.share_of("rho")


def test_variance_row_hyperparameter_ordering():
    # The stated order for the variance response is nu > sigma2 > rho >
    # omega2, and it breaks in the middle: at seed 0, N=1024 the shares
    # are nu 55.8, rho 25.3, sigma2 18.7, omega2 0.1. The converged
    # reference (tests/data/converged_shares.json, 16 scrambles x 8192
    # rows) gives nu 55.98, rho 22.67 +- 0.09, sigma2 21.27 +- 0.10 and
    # omega2 0.07, and run_study at N=16384 agrees (rho 23.0 vs sigma2
    # 21.4 at seed 7, 25.0 vs 20.1 at seed 8). So run_study computes the
    # study it defines, and the order does not hold for that study. Which
    # is wrong, the order or the study box and variance convention, waits
    # on the paper's study tables; the assertion is kept as stated.
    res = run_study(grid_dimension=1,
                    response="prediction_variance",
                    sample_budget=1024, seed=0)
    assert res.share_of("nu") > res.share_of("sigma2")
    assert res.share_of("sigma2") > res.share_of("rho")
    assert res.share_of("rho") > res.share_of("omega2")


def test_share_stability_under_budget_doubling():
    # Doubling the budget must give an answer that agrees with the first
    # within the estimator's own uncertainty, and is more certain.
    # sobol_total promises a Jansen Monte Carlo estimate with a 95%
    # bootstrap halfwidth and nothing tighter. Over 40 seeds at N=1024 the
    # shares of this row have standard deviations 2.43 (rho), 1.90 (nu),
    # 0.67 (omega2) and 2.55 (x) points, against mean halfwidth / 1.96 of
    # 2.30, 1.64, 0.57 and 2.63: the halfwidths are calibrated to about
    # 15%. A fixed 1-point band would need tens of thousands of base rows;
    # at seed 0 rho moves from 22.3 to 15.7 and x from 60.2 to 67.9.
    #
    # (a) Every share moves by at most (3.0 / 1.96) sqrt(hw_1024^2 +
    # hw_2048^2): the two-sample bound from the 95% halfwidths, widened by
    # Bonferroni over the four inputs to a 1% family-wise false-failure
    # rate. The runs share their first 1024 rows of continuous parameters,
    # which can only make the bound conservative. The worst measured
    # |delta| / sqrt(hw_1024^2 + hw_2048^2) is 1.25 at seed 0 (x) and
    # 1.25 over seeds 20-39; the unwidened 95% bound fails at seed 0.
    #
    # (b) The summed halfwidth at 2048 is at most 0.85 of the summed
    # halfwidth at 1024. Theory gives 1/sqrt(2) = 0.71; measured values
    # were 0.58-0.83 over 24 seeds, 0.65 at seed 0. A bootstrap that
    # resamples a fixed 1024 columns at every N gives 0.86-0.91. A
    # per-input shrink check is not usable: some input failed it in 4 of
    # 20 seeds (omega2 ratio up to 1.52).
    names = ("rho", "nu", "omega2", "x")
    small = run_study(grid_dimension=1, response="weights",
                      omega2=None, sample_budget=1024, seed=0)
    large = run_study(grid_dimension=1, response="weights",
                      omega2=None, sample_budget=2048, seed=0)
    for name in names:
        bound = (3.0 / 1.96) * math.hypot(small.halfwidth_of(name),
                                           large.halfwidth_of(name))
        moved = abs(small.share_of(name) - large.share_of(name))
        assert moved <= bound, (name, moved, bound)
    shrink = (sum(large.halfwidth_of(n) for n in names)
              / sum(small.halfwidth_of(n) for n in names))
    assert shrink <= 0.85, shrink


# the study rows the red share-ordering checks read, at the budgets they
# read them: the variance-ordering test above, and criteria 7 and 8
_REFERENCE_ROWS = (
    ("dim1/prediction_variance/omega2=vary", 1024),
    ("dim1/weights/omega2=vary", 2048),
    ("dim2/weights/omega2=vary", 2048),
    ("dim1/weights/omega2=0.01", 2048),
    ("dim1/weights/omega2=0.1", 2048),
    ("dim2/weights/omega2=0.01", 2048),
    ("dim2/weights/omega2=0.1", 2048),
)


def test_run_study_agrees_with_converged_reference():
    # run_study at seed 0 against the independent converged estimate in
    # tests/data/converged_shares.json (scrambled Sobol' points, scipy's
    # Bessel K, LU solves, exact average over x; see oracles.py). Each
    # share must lie within (3.0 / 1.96) times the combined 95% halfwidth
    # of the two; the reference halfwidths are all below 0.11 points, so
    # the run's bootstrap halfwidth sets the band. Agreement here is what
    # shows the program's estimator right on the rows the red checks read.
    reference = json.loads(CONVERGED_SHARES.read_text())["rows"]
    for key, budget in _REFERENCE_ROWS:
        ref = reference[key]
        res = run_study(
grid_dimension=ref["grid_dimension"], response=ref["response"],
omega2=ref["omega2_value"], sample_budget=budget, seed=0)
        assert res.inputs == tuple(ref["share"])
        for name in res.inputs:
            band = (3.0 / 1.96) * math.hypot(res.halfwidth_of(name),
                                              ref["halfwidth"][name])
            gap = abs(res.share_of(name) - ref["share"][name])
            assert gap <= band, (key, name, res.share_of(name),
                                 ref["share"][name], band)
