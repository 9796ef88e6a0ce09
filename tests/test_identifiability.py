"""Tests for finite-difference sensitivities and the collinearity index."""

import math
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from krigesense import identifiability, parallel
from krigesense.identifiability import (GAMMA_CAP, CollinearityCell,
                                        UndefinedCollinearityError, band_of,
                                        collinearity_index,
                                        collinearity_scan,
                                        local_sensitivities)
from krigesense.kernel import matern_correlation

from oracles import collinearity_gamma_oracle, refined_central_difference


DISTANCES = np.linspace(0.05, 2.0, 20)


def correlation_curve(theta):
    return matern_correlation(DISTANCES, rho=theta[1], nu=theta[0])


def columns(*cols):
    return np.column_stack([np.asarray(c, dtype=float) for c in cols])


# ------------------------------------------------- local_sensitivities


def test_linear_function_recovers_matrix():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 3))
    s = local_sensitivities(lambda t: a @ t, np.array([0.4, -1.2, 2.0]))
    assert s.shape == (6, 3)
    assert np.max(np.abs(s - a)) < 1e-8


def test_constant_function_gives_zero_matrix():
    s = local_sensitivities(lambda t: np.array([3.0, 3.0]), np.ones(2))
    assert np.all(s == 0.0)
    with pytest.raises(UndefinedCollinearityError, match=r"\(0, 1\)"):
        collinearity_index(s)


def test_correlation_curve_matches_refined_steps():
    theta = np.array([1.0, 1.0])
    s = local_sensitivities(correlation_curve, theta)
    for j in range(2):
        refined = refined_central_difference(correlation_curve, theta, j)
        assert np.max(np.abs(s[:, j] - refined)) < 1e-4


def test_step_scales_with_parameter_floor():
    # a parameter sitting at zero still gets a finite step via the 1e-3
    # floor, so the column is a usable derivative, not 0/0
    s = local_sensitivities(lambda t: np.array([t[0] ** 2 + t[1]]),
                            np.array([0.0, 5.0]))
    assert abs(s[0, 0] - 0.0) < 1e-6
    assert abs(s[0, 1] - 1.0) < 1e-8


def test_local_sensitivities_validation():
    with pytest.raises(ValueError):
        local_sensitivities(lambda t: t, np.array([]))
    with pytest.raises(ValueError):
        local_sensitivities(lambda t: t, np.array([np.inf]))


# ------------------------------------------------- collinearity_index


def test_orthogonal_columns_give_gamma_one():
    s = columns([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert collinearity_index(s) == pytest.approx(1.0, abs=1e-12)


def test_identical_columns_hit_cap():
    s = columns([1.0, 2.0, -1.0], [1.0, 2.0, -1.0])
    assert collinearity_index(s) == GAMMA_CAP


def test_sixty_degree_columns():
    phi = math.pi / 3.0
    s = columns([1.0, 0.0], [math.cos(phi), math.sin(phi)])
    assert collinearity_index(s) == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_collinearity_index_rejects_1d_and_non_finite_entries():
    with pytest.raises(ValueError, match="2-D"):
        collinearity_index(np.ones(3))
    with pytest.raises(ValueError, match="entries must be 2-D with at least"):
        collinearity_index(np.ones((3, 0)))
    with pytest.raises(ValueError, match="entries must be finite"):
        collinearity_index(np.array([[1.0, 0.0], [np.nan, 1.0]]))


def test_collinearity_index_leaves_the_callers_array_unmodified():
    rng = np.random.default_rng(5)
    entries = 10.0 ** rng.integers(-3, 4, size=3) * rng.normal(size=(7, 3))
    kept = entries.copy()
    collinearity_index(entries)
    assert np.array_equal(entries, kept)


def test_collinearity_index_column_scale_invariant():
    # the index scales every column to unit norm itself, so scaling a
    # column of a full-rank matrix by 1e-8 or 1e8 leaves gamma where it was
    rng = np.random.default_rng(34)
    for _ in range(10):
        base = rng.normal(size=(rng.integers(5, 10), rng.integers(2, 5)))
        g0 = collinearity_index(base)
        for j in range(base.shape[1]):
            for scale in (1e-8, 1e8):
                scaled = base.copy()
                scaled[:, j] *= scale
                assert collinearity_index(scaled) == pytest.approx(
                    g0, rel=1e-12)


def test_two_column_closed_form_against_eigen_route():
    # p = 2: gamma = 1 / sqrt(1 - |cos phi|) since the Gram eigenvalues
    # are 1 +- cos phi
    for phi in np.linspace(0.1, math.pi - 0.1, 17):
        s = columns([1.0, 0.0], [math.cos(phi), math.sin(phi)])
        closed = 1.0 / math.sqrt(1.0 - abs(math.cos(phi)))
        assert collinearity_index(s) == pytest.approx(closed, abs=1e-9)


def test_gamma_at_least_one_random_matrices():
    rng = np.random.default_rng(21)
    for _ in range(25):
        s = rng.normal(size=(rng.integers(3, 9), rng.integers(2, 5)))
        g = collinearity_index(s)
        assert 1.0 <= g <= GAMMA_CAP


def test_gamma_invariant_to_reorder_and_sign_flip():
    rng = np.random.default_rng(8)
    base = rng.normal(size=(10, 4))
    g0 = collinearity_index(base)
    perm = base[:, [2, 0, 3, 1]].copy()
    perm[:, 1] *= -1.0
    perm[:, 3] *= -1.0
    g1 = collinearity_index(perm)
    assert g1 == pytest.approx(g0, rel=1e-9)


def test_duplicate_column_never_decreases_gamma():
    rng = np.random.default_rng(13)
    for _ in range(10):
        base = rng.normal(size=(8, 3))
        g0 = collinearity_index(base)
        widened = np.column_stack([base, base[:, 0]])
        g1 = collinearity_index(widened)
        assert g1 >= g0


def test_gamma_matches_independent_oracle_on_matern_curve():
    for theta in (np.array([0.8, 1.5]), np.array([2.0, 0.5])):
        got = collinearity_index(local_sensitivities(correlation_curve,
                                                     theta))
        want = collinearity_gamma_oracle(correlation_curve, theta)
        assert got == pytest.approx(want, rel=1e-4)


# ------------------------------------------------------------ banding


def test_band_thresholds():
    assert band_of(1.0) == "identifiable"
    assert band_of(9.999) == "identifiable"
    assert band_of(10.0) == "borderline"
    assert band_of(20.0) == "borderline"
    assert band_of(20.0001) == "collinear"
    assert band_of(1e12) == "collinear"
    # a cell that could not be evaluated carries NaN gammas
    assert band_of(float("nan")) == "failed"


# --------------------------------------------------------------- scan


def test_scan_small_grid_structure():
    cells = collinearity_scan(grid_nu=(0.5, 2.0), grid_rho=(0.5, 2.0),
                              resolution=4)
    assert len(cells) == 16
    nus = np.linspace(0.5, 2.0, 4)
    rhos = np.linspace(0.5, 2.0, 4)
    for i, cell in enumerate(cells):
        assert isinstance(cell, CollinearityCell)
        assert cell.nu == pytest.approx(nus[i // 4])
        assert cell.rho == pytest.approx(rhos[i % 4])
        assert 1.0 <= cell.gamma_correlation <= GAMMA_CAP
        assert 1.0 <= cell.gamma_weights <= GAMMA_CAP
        assert cell.band == band_of(cell.gamma_correlation)


def test_scan_deterministic():
    kw = dict(grid_nu=(0.8, 1.6), grid_rho=(0.8, 1.6), resolution=3)
    a = collinearity_scan(**kw)
    b = collinearity_scan(**kw)
    assert [(c.nu, c.rho, c.gamma_correlation, c.gamma_weights, c.band)
            for c in a] == \
           [(c.nu, c.rho, c.gamma_correlation, c.gamma_weights, c.band)
            for c in b]



def test_scan_failed_cells_are_marked_and_counted():
    # at rho = 1e-6 every scan distance is ~1e5 ranges away, both outputs
    # are exactly zero and the sensitivity columns vanish
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cells = collinearity_scan(grid_nu=(0.5, 1.0), grid_rho=(1e-6, 1.0),
                                  resolution=2)
    assert len(cells) == 4
    for cell in cells:
        if cell.rho == 1e-6:
            assert math.isnan(cell.gamma_correlation)
            assert math.isnan(cell.gamma_weights)
            assert cell.band == "failed"
        else:
            assert cell.rho == 1.0
            for gamma in (cell.gamma_correlation, cell.gamma_weights):
                assert math.isfinite(gamma) and 1.0 <= gamma <= GAMMA_CAP
            assert cell.band == band_of(cell.gamma_correlation)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1
    assert "2 scan cell(s) failed" in str(runtime[0].message)
    assert "UndefinedCollinearityError" in str(runtime[0].message)


def test_scan_row_that_cannot_be_stacked_fails_cell_by_cell():
    # the nu = 50 row steps past NU_MAX, which rejects its whole stack;
    # the failure stays with that row's cells and the nu = 49 row is
    # unaffected
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cells = collinearity_scan(grid_nu=(49.0, 50.0), grid_rho=(0.5, 1.0),
                                  resolution=2)
    assert [c.band == "failed" for c in cells] == [False, False, True, True]
    assert all(1.0 <= c.gamma_weights <= GAMMA_CAP for c in cells[:2])
    assert len(caught) == 1
    assert "2 scan cell(s) failed" in str(caught[0].message)

def _index_per_cell(entries):
    try:
        return collinearity_index(entries), None
    except ValueError as exc:
        return math.nan, exc


_CELL_KINDS = ("generic", "collinear", "zero column", "non-finite")


@given(res=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(_CELL_KINDS), min_size=32,
                      max_size=32))
def test_batched_scan_gammas_equal_per_cell_index(res, seed, kinds):
    # the scan's rows of raw sensitivities are replaced by seeded ones in
    # the swapped-axes layout _central_differences returns; every cell's
    # gammas must be the public per-matrix index, bit for bit, and every
    # failed cell must carry the exception the per-matrix route raises
    rng = np.random.default_rng(seed)
    m = identifiability._SCAN_GRID.count
    raw = (rng.standard_normal((res, res, 2, 2 * m))
           * 10.0 ** rng.integers(-6, 4, size=(res, res, 2, 1)))
    # one kind each for the correlation and the weight part of every cell
    parts = [(cell, part) for cell in raw.reshape(-1, 2, 2 * m)
             for part in (slice(0, m), slice(m, 2 * m))]
    for (cell, part), kind in zip(parts, kinds):
        column = rng.integers(2)
        if kind == "collinear":
            cell[1 - column, part] = (rng.uniform(-3, 3) * cell[column, part]
                                      + 1e-9 * rng.standard_normal(m))
        elif kind == "zero column":
            cell[column, part] = 0.0
        elif kind == "non-finite":
            cell[column, part.start + rng.integers(m)] = rng.choice(
                [np.nan, np.inf, -np.inf])
    nus = rhos = np.linspace(0.5, 1.0, res)

    def rows(f, thetas):
        # each (nu, rho) theta, in whatever block it comes, gets its cell
        cell = [(int(np.flatnonzero(nus == nu)[0]),
                 int(np.flatnonzero(rhos == rho)[0])) for nu, rho in thetas]
        return np.stack([np.swapaxes(raw[i, j], -1, -2) for i, j in cell])

    with mock.patch.object(identifiability, "_central_differences", rows), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cells = collinearity_scan(grid_nu=(0.5, 1.0), grid_rho=(0.5, 1.0),
                                  resolution=res)
        reasons = [cell[2] for nu in nus for cell in
                   identifiability._scan_gammas(
                       np.column_stack([np.full(res, nu), rhos]))]
    assert len(cells) == len(reasons) == res * res
    entries = np.swapaxes(raw, -1, -2).reshape(-1, 2 * m, 2)
    failures = []
    for cell, cell_entries, got in zip(cells, entries, reasons):
        g_corr, corr_exc = _index_per_cell(cell_entries[:m])
        g_wts, wts_exc = _index_per_cell(cell_entries[m:])
        reason = corr_exc if corr_exc is not None else wts_exc
        assert repr(got) == repr(reason)
        if reason is not None:
            failures.append(reason)
            assert cell.band == "failed"
            assert math.isnan(cell.gamma_correlation)
            assert math.isnan(cell.gamma_weights)
        else:
            assert cell.gamma_correlation == g_corr
            assert cell.gamma_weights == g_wts
            assert cell.band == band_of(g_corr)
    assert len(caught) == (1 if failures else 0)
    if failures:
        message = str(caught[0].message)
        assert f"{len(failures)} scan cell(s) failed" in message
        assert repr(failures[0]) in message


def test_scan_prices_one_correlation_fill_per_block(matern_calls,
                                                    monkeypatch):
    # whole nu rows join a block until it holds _SCAN_BLOCK_CELLS cells:
    # a res-3 scan is one block, a res-12 scan two blocks of six rows
    cells = collinearity_scan(resolution=3)
    assert len(cells) == 9
    assert len(matern_calls) == 1
    collinearity_scan(resolution=12)
    assert len(matern_calls) == 1 + 2
    monkeypatch.setattr(identifiability, "_SCAN_BLOCK_CELLS", 3)
    collinearity_scan(resolution=3)
    assert len(matern_calls) == 1 + 2 + 3


def _scan_record(monkeypatch, block_cells, **kw):
    monkeypatch.setattr(identifiability, "_SCAN_BLOCK_CELLS", block_cells)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cells = collinearity_scan(**kw)
    # repr keeps NaN comparable and shows every bit of a float
    return ([repr((c.nu, c.rho, c.gamma_correlation, c.gamma_weights,
                   c.band)) for c in cells],
            [str(w.message) for w in caught])


@pytest.mark.parametrize("res", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("box", [
    # the rho = 1e-6 column fails in every row
    dict(grid_nu=(0.5, 2.0), grid_rho=(1e-6, 1.0)),
    # the nu = 50 row steps past NU_MAX and cannot be stacked, so a block
    # holding it is priced again cell by cell
    dict(grid_nu=(49.0, 50.0), grid_rho=(0.5, 1.0)),
    dict(grid_nu=(0.3, 2.4), grid_rho=(0.2, 4.0)),
])
def test_scan_cells_do_not_depend_on_rows_per_block(res, box, monkeypatch):
    # one row per block is the row-by-row scan; 2, 3 and all rows per
    # block must give every cell and the warning bit for bit the same
    want = _scan_record(monkeypatch, 1, resolution=res, **box)
    assert len(want[0]) == res * res
    for rows in (2, 3, res):
        assert _scan_record(monkeypatch, rows * res, resolution=res,
                            **box) == want
    if box["grid_rho"][0] == 1e-6 or (box["grid_nu"][1] == 50.0 and res > 1):
        assert len(want[1]) == 1 and "failed" in want[1][0]
        assert "nan" in " ".join(want[0])


def test_scan_cells_do_not_depend_on_worker_count(monkeypatch):
    # a res-12 scan is two blocks of six rows, priced concurrently on the
    # pool; at 1, 2 and 4 workers every cell and the warning are the same
    # bits, also where a column fails in every row and where a block
    # cannot be stacked and is priced again cell by cell
    boxes = [dict(),
             dict(grid_nu=(0.5, 2.0), grid_rho=(1e-6, 1.0)),
             dict(grid_nu=(49.0, 50.0), grid_rho=(0.5, 1.0))]
    threads = set()
    scan_gammas = identifiability._scan_gammas

    def recorded(thetas):
        threads.add(threading.current_thread().name)
        return scan_gammas(thetas)

    monkeypatch.setattr(identifiability, "_scan_gammas", recorded)
    results = []
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            results.append([_scan_record(
                monkeypatch, identifiability._SCAN_BLOCK_CELLS,
                resolution=12, **box) for box in boxes])
    finally:
        sys.setswitchinterval(switch)
    assert any(name.startswith("krigesense") for name in threads)
    assert [len(warned) for _, warned in results[0]] == [0, 1, 1]
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_small_scan_traced_peak_below_one_default_row(traced_peak):
    # a res-12 scan is priced in blocks of six rows (72 cells); its traced
    # peak stays below the 2.89 MB the row-by-row scan peaked at for one
    # 100-cell row of the default scan (tracemalloc, numpy 2.4.6). Each
    # stack is factored in place and solved without a copy, so one block
    # in flight peaks at 1.23 MB (2.15 MB when the factor and the solve
    # each held a copy of the stack); the peak grows with min(workers,
    # blocks), and the two blocks on a pool of 2 or 4 peak at 2.3-2.4 MB
    assert traced_peak(lambda: collinearity_scan(resolution=12)) < 2_890_000


def test_scan_curve_equals_the_separate_correlation_call():
    # the curve the scan reads from its kriging systems' cross rows is the
    # one a separate matern_correlation call on the distances to the
    # prediction point gives, bit for bit, closed forms included
    rng = np.random.default_rng(5)
    nu = np.concatenate([[0.5, 1.5, 2.5, 0.01, 2.5, 1.0],
                         rng.uniform(0.01, 2.5, 200)])
    rho = np.concatenate([[1.0, 0.01, 5.0, 1e-3, 1e-4, 1e-5],
                          rng.uniform(0.01, 5.0, 200)])
    grid = identifiability._SCAN_GRID
    outputs = identifiability._scan_outputs(np.column_stack([nu, rho]))
    distances = np.abs(grid.points[:, 0] - identifiability._SCAN_POINT)
    assert np.array_equal(outputs[:, :grid.count],
                          matern_correlation(distances, rho[:, None],
                                             nu[:, None]))


def test_scan_validation():
    with pytest.raises(ValueError):
        collinearity_scan(resolution=0)
    with pytest.raises(ValueError):
        collinearity_scan(grid_nu=(0.0, 1.0))
    with pytest.raises(ValueError):
        collinearity_scan(grid_rho=(2.0, 1.0))
