"""Tests for the kriging predictor: weights, mean, variance, likelihood."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from krigesense.kernel import (LocationSet, MaternParams, ReducedParams,
                               make_grid, matern_correlation)
from krigesense import kriging, linalg
from krigesense.kriging import (KrigingSystem, kriging_weights, predict_mean,
                                kriging_variance, log_likelihood,
                                nearest_neighbors)

from oracles import gauss_jordan_inverse, exhaustive_nearest


def dense_weight_oracle(train, pred, params):
    """Weights by explicit Gauss-Jordan inverse of the full system matrix.

    Rebuilds the system from pairwise distances directly, so it shares no
    code with KrigingSystem.build beyond the correlation function itself.
    """
    pts = train.points
    pt = np.atleast_1d(np.asarray(pred, dtype=float))
    diff = pts[:, None, :] - pts[None, :, :]
    dmat = np.sqrt(np.sum(diff * diff, axis=2))
    omega = matern_correlation(dmat, params.rho, params.nu)
    omega = omega + params.omega2 * np.eye(train.count)
    cross = matern_correlation(
        np.linalg.norm(pts - pt[None, :], axis=1), params.rho, params.nu)
    return gauss_jordan_inverse(omega) @ cross


# ---------------------------------------------------------------- weights


def test_single_point_weight_closed_form():
    # n=1: (1 + omega2) w = c(d), so w = c(d) / (1 + omega2)
    train = LocationSet(np.array([0.3]))
    for d, rho, nu, om in [(0.4, 1.0, 0.5, 0.0), (0.7, 2.0, 1.5, 0.05),
                           (1.3, 0.8, 2.5, 0.01)]:
        w = kriging_weights(train, 0.3 + d, ReducedParams(rho, nu, om))
        expected = matern_correlation(np.array([d]), rho, nu)[0] / (1.0 + om)
        assert w.shape == (1,)
        assert abs(w[0] - expected) < 1e-14


def test_symmetric_grid_weights_palindromic():
    grid = make_grid(1, 21, exclude=0.5)
    w = kriging_weights(grid, 0.5, ReducedParams(1.0, 1.5, 0.01))
    assert np.max(np.abs(w - w[::-1])) < 1e-12


def test_weights_match_dense_inverse_oracle():
    grid = make_grid(1, 21, exclude=0.5)
    rng = np.random.default_rng(42)
    for _ in range(8):
        params = ReducedParams(rho=float(rng.uniform(0.2, 4.0)),
                               nu=float(rng.uniform(0.3, 2.5)),
                               omega2=float(rng.uniform(0.0, 0.1)))
        got = kriging_weights(grid, 0.5, params)
        want = dense_weight_oracle(grid, 0.5, params)
        assert np.max(np.abs(got - want)) < 1e-9


def test_weights_match_oracle_2d():
    grid = make_grid(2, 4)
    pred = np.array([0.5, 0.5])
    params = ReducedParams(1.0, 1.5, 0.01)
    got = kriging_weights(grid, pred, params)
    want = dense_weight_oracle(grid, pred, params)
    assert np.max(np.abs(got - want)) < 1e-10
    # the 16-point lattice is symmetric about the center, so weights fall
    # into equal groups by distance class
    d = np.linalg.norm(grid.points - pred[None, :], axis=1)
    for cls in np.unique(np.round(d, 10)):
        group = got[np.abs(d - cls) < 1e-9]
        assert np.ptp(group) < 1e-12


def test_weights_bad_pred_shape():
    grid = make_grid(1, 5)
    with pytest.raises(ValueError):
        kriging_weights(grid, [0.1, 0.2], ReducedParams(1.0, 0.5, 0.01))
    with pytest.raises(ValueError):
        kriging_weights(grid, float("nan"), ReducedParams(1.0, 0.5, 0.01))


# ----------------------------------------------------------------- mean


def test_predict_mean_zero_observations():
    grid = make_grid(1, 11)
    w = kriging_weights(grid, 0.52, ReducedParams(1.0, 0.5, 0.01))
    assert predict_mean(w, np.zeros(11)) == 0.0


def test_predict_mean_picks_out_component():
    w = np.array([0.0, 1.0, 0.0])
    y = np.array([3.5, -2.25, 7.0])
    assert predict_mean(w, y) == -2.25


def test_predict_mean_matches_oracle_dot():
    grid = make_grid(1, 21, exclude=0.5)
    params = ReducedParams(1.3, 1.1, 0.02)
    rng = np.random.default_rng(7)
    y = rng.normal(size=20)
    got = predict_mean(kriging_weights(grid, 0.5, params), y)
    want = float(dense_weight_oracle(grid, 0.5, params) @ y)
    assert abs(got - want) < 1e-10


def test_predict_mean_rejects_bad_observations():
    grid = make_grid(1, 5)
    w = kriging_weights(grid, 0.4, ReducedParams(1.0, 0.5, 0.01))
    with pytest.raises(ValueError):
        predict_mean(w, np.zeros(4))
    with pytest.raises(ValueError):
        predict_mean(w, [1.0, 2.0, np.inf, 4.0, 5.0])


def test_predict_mean_rejects_weights_that_are_not_1d_or_2d():
    with pytest.raises(ValueError, match="1-D or 2-D"):
        predict_mean(np.float64(1.0), [1.0])
    with pytest.raises(ValueError, match="1-D or 2-D"):
        predict_mean(np.ones((2, 2, 3)), np.zeros(3))


# -------------------------------------------------------------- variance


def test_variance_single_point_closed_form():
    # n=1, no nugget: sigma2 (1 - c(d)^2)
    train = LocationSet(np.array([0.0]))
    for d, sigma2, rho, nu in [(0.5, 1.0, 1.0, 0.5), (0.2, 2.5, 0.7, 1.5)]:
        got = kriging_variance(train, d, MaternParams(sigma2, rho, nu, 0.0))
        c = matern_correlation(np.array([d]), rho, nu)[0]
        assert abs(got - sigma2 * (1.0 - c * c)) < 1e-13


def test_variance_matches_dense_oracle():
    grid = make_grid(1, 21, exclude=0.5)
    params = MaternParams(sigma2=2.0, rho=1.5, nu=1.2, tau2=0.02)
    got = kriging_variance(grid, 0.5, params)
    w = dense_weight_oracle(grid, 0.5, params.reduced())
    pts = grid.points
    cross = matern_correlation(
        np.linalg.norm(pts - 0.5, axis=1), params.rho, params.nu)
    want = params.sigma2 * (1.0 - float(cross @ w))
    assert abs(got - want) < 1e-10
    assert got > 0.0


def test_variance_coincident_point_clamps_to_zero():
    # prediction on top of a training point with no nugget: exact
    # interpolation, variance 0 up to roundoff (never negative)
    train = LocationSet(np.linspace(0.0, 1.0, 11))
    got = kriging_variance(train, 0.5, MaternParams(1.0, 1.0, 1.5, 0.0))
    assert 0.0 <= got < 1e-8


def test_variance_guard_raises_below_tolerance(monkeypatch):
    train = LocationSet(np.array([0.0, 1.0]))

    def bad_solve(factor, rhs):
        return np.full_like(np.atleast_1d(rhs), 10.0)

    monkeypatch.setattr(kriging.linalg, "spd_solve", bad_solve)
    with pytest.raises(ArithmeticError):
        kriging_variance(train, 0.5, MaternParams(1.0, 1.0, 0.5, 0.0))


# ------------------------------------------------------------ likelihood


def test_log_likelihood_unit_single_point():
    train = LocationSet(np.array([0.25]))
    ll = log_likelihood(train, [0.0], MaternParams(1.0, 1.0, 0.5, 0.0))
    assert abs(ll - (-0.5 * math.log(2.0 * math.pi))) < 1e-14


def test_log_likelihood_diagonal_limit():
    # rho tiny: off-diagonal correlations vanish and K is diagonal with
    # sigma2 + tau2, so the density is a product of n independent normals
    # with normalizing constant -(n/2) log(2 pi).
    pts = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    train = LocationSet(pts)
    params = MaternParams(sigma2=2.0, rho=1e-4, nu=0.5, tau2=0.5)
    y = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
    kd = params.sigma2 + params.tau2
    independent_sum = np.sum(-0.5 * np.log(kd) - 0.5 * y * y / kd)
    expected = independent_sum - 0.5 * train.count * math.log(2 * math.pi)
    got = log_likelihood(train, y, params)
    assert abs(got - expected) < 1e-12


def test_log_likelihood_matches_explicit_oracle():
    rng = np.random.default_rng(11)
    pts = np.sort(rng.uniform(0.0, 3.0, size=10))
    train = LocationSet(pts)
    params = MaternParams(sigma2=1.6, rho=0.9, nu=1.3, tau2=0.08)
    y = rng.normal(size=10)

    dmat = np.abs(pts[:, None] - pts[None, :])
    cov = params.sigma2 * matern_correlation(dmat, params.rho, params.nu)
    cov[np.diag_indices(10)] = params.sigma2 + params.tau2
    sign, log_det = np.linalg.slogdet(cov)
    assert sign > 0
    quad = float(y @ gauss_jordan_inverse(cov) @ y)
    expected = (-0.5 * train.count * math.log(2 * math.pi)
                - 0.5 * log_det - 0.5 * quad)
    assert abs(log_likelihood(train, y, params) - expected) < 1e-9


# ------------------------------------------------------------- neighbors


def test_nearest_neighbors_full_set():
    grid = make_grid(1, 7)
    idx = nearest_neighbors(grid, 0.31, 7)
    assert sorted(idx.tolist()) == list(range(7))


def test_nearest_neighbors_adjacent_pair():
    # 10-point grid on [0, 1] straddles 0.5: indices 4 and 5 are the two
    # adjacent points, equidistant, tie broken by lower index
    grid = make_grid(1, 10)
    idx = nearest_neighbors(grid, 0.5, 2)
    assert idx.tolist() == [4, 5]


def test_nearest_neighbors_tie_lower_index():
    train = LocationSet(np.array([0.0, 1.0, 3.0]))
    assert nearest_neighbors(train, 0.5, 1).tolist() == [0]
    assert nearest_neighbors(train, 0.5, 2).tolist() == [0, 1]


def test_nearest_neighbors_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(100, 2))
    train = LocationSet(pts)
    query = np.array([0.4, 0.6])
    got = nearest_neighbors(train, query, 50)
    want = exhaustive_nearest(pts, query, 50)
    assert got.tolist() == want


@given(st.data())
def test_neighbor_rule_matches_brute_force_with_ties(data):
    # coordinates on a half-unit lattice, so many distances tie exactly
    q = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(2, 30))
    coordinate = st.integers(0, 8).map(lambda v: v / 2.0)
    points = data.draw(arrays(np.float64, (m, q), elements=coordinate))
    exclude_self = data.draw(st.booleans())
    queries = points if exclude_self else data.draw(arrays(
        np.float64, (data.draw(st.integers(1, 8)), q), elements=coordinate))
    k = data.draw(st.integers(1, m - 1 if exclude_self else m))
    got = kriging._nearest(points, queries, k, exclude_self)
    assert got.shape == (len(queries), k)
    for i, query in enumerate(queries):
        index = np.arange(m)
        dist = np.sqrt(np.sum((points - query) ** 2, axis=1))
        if exclude_self:
            index, dist = index[index != i], dist[index != i]
        want = index[np.lexsort((index, dist))][:k]
        assert got[i].tolist() == want.tolist()


@pytest.mark.parametrize("exclude_self", [True, False])
@pytest.mark.parametrize("sort_values", [1, 45, 500, None])
def test_blocked_nearest_equals_whole_table_argsort(exclude_self,
                                                    sort_values, monkeypatch):
    # _nearest sorts a block of query rows at a time; on a lattice, where
    # most distances tie, every block size must give the whole table's
    # stable argsort, self dropped where asked
    if sort_values is not None:
        monkeypatch.setattr(kriging, "_SORT_VALUES", sort_values)
    g = np.arange(7.0) / 2.0
    points = np.column_stack([a.ravel() for a in np.meshgrid(g, g)])
    queries = points if exclude_self else np.vstack(
        [points[::3], np.random.default_rng(2).integers(0, 7, (20, 2)) / 4.0])
    nq, k = len(queries), 30
    order = np.argsort(cdist(queries, points), axis=1, kind="stable")
    if exclude_self:
        order = order[order != np.arange(nq)[:, None]].reshape(nq, -1)
    got = kriging._nearest(points, queries, k, exclude_self)
    assert got.dtype == order.dtype
    assert np.array_equal(got, order[:, :k])


def test_nearest_neighbors_k_out_of_range():
    grid = make_grid(1, 5)
    for k in (0, 6, -1):
        with pytest.raises(ValueError):
            nearest_neighbors(grid, 0.5, k)


# ------------------------------------------------------------ invariants


def test_scale_invariance_weights_and_variance():
    # scaling (sigma2, tau2) by c leaves omega2 and hence the weights
    # untouched, and scales the variance exactly linearly
    grid = make_grid(1, 21, exclude=0.5)
    rng = np.random.default_rng(3)
    for _ in range(12):
        sigma2 = float(rng.uniform(0.2, 4.0))
        rho = float(rng.uniform(0.3, 4.0))
        nu = float(rng.uniform(0.3, 2.5))
        tau2 = float(rng.uniform(0.0, 0.3)) * sigma2
        base = MaternParams(sigma2, rho, nu, tau2)
        v_base = kriging_variance(grid, 0.5, base)
        w_base = kriging_weights(grid, 0.5, base.reduced())
        for c in (0.1, 10.0):
            scaled = MaternParams(c * sigma2, rho, nu, c * tau2)
            w_scaled = kriging_weights(grid, 0.5, scaled.reduced())
            rel = np.max(np.abs(w_scaled - w_base) /
                         np.maximum(np.abs(w_base), 1e-300))
            assert rel < 1e-12
            v_scaled = kriging_variance(grid, 0.5, scaled)
            assert abs(v_scaled - c * v_base) < 1e-12 * max(1.0, c * v_base)


def test_weight_sum_band_small_nugget():
    # empirical sanity band: near-interpolating weights on the dense grid
    # sum close to 1 for smooth-enough kernels (not a theorem)
    grid = make_grid(1, 21, exclude=0.5)
    for om in (0.0, 1e-6):
        for rho in (1.0, 2.0, 3.5, 5.0):
            for nu in (0.5, 1.0, 1.5, 2.5):
                w = kriging_weights(grid, 0.5, ReducedParams(rho, nu, om))
                s = float(np.sum(w))
                assert 0.9 <= s <= 1.0001, (rho, nu, om, s)


def test_grid_density_stability_nearest_four():
    # halving the grid spacing barely moves the nearest-four weights
    params = ReducedParams(rho=3.0, nu=1.0, omega2=0.001)
    collected = []
    for h in (2.0, 1.0, 0.5):
        pts = np.arange(-8.0, 8.0, h) + h / 2.0
        w = kriging_weights(LocationSet(pts), 0.0, params)
        nearest = np.argsort(np.abs(pts), kind="stable")[:4]
        collected.append(np.sort(w[nearest])[::-1])
    for i, a in enumerate(collected):
        for b in collected[i + 1:]:
            assert np.max(np.abs(a - b)) < 0.05


def test_system_factor_shared_by_weight_and_variance_paths():
    grid = make_grid(1, 21, exclude=0.5)
    params = MaternParams(1.8, 1.2, 0.9, 0.03)
    system = KrigingSystem.build(grid, 0.5, params.reduced())
    w = kriging_weights(grid, 0.5, params.reduced())
    ratio = 1.0 - float(system.cross[system.rows] @ w)
    v = kriging_variance(grid, 0.5, params)
    assert abs(v - params.sigma2 * ratio) < 1e-12


# ----------------------------------------------------------------- stacks


def _study_box_stack(count, seed):
    # rows drawn over the study box of the Sobol studies
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.1, 5.0, count), rng.uniform(0.01, 5.0, count),
            rng.uniform(0.01, 2.5, count), rng.uniform(0.001, 0.1, count))


@pytest.mark.parametrize("grid, pred", [
    (make_grid(1, 21, exclude=0.5), np.array([0.5])),
    (make_grid(2, 4), np.array([0.5, 0.5])),
])
def test_stacked_weights_and_variances_match_dense_oracle(grid, pred):
    sigma2, rho, nu, omega2 = _study_box_stack(64, seed=17)
    weights = kriging_weights(grid, pred,
                              ReducedParams(rho, nu, omega2))
    variances = kriging_variance(
        grid, pred, MaternParams(sigma2, rho, nu, omega2 * sigma2))
    assert weights.shape == (64, grid.count)
    assert variances.shape == (64,)
    for i in range(64):
        params = ReducedParams(rho[i], nu[i], omega2[i])
        want = dense_weight_oracle(grid, pred, params)
        assert np.max(np.abs(weights[i] - want)) < 1e-9
        cross = matern_correlation(
            np.linalg.norm(grid.points - pred[None, :], axis=1),
            rho[i], nu[i])
        want_var = sigma2[i] * (1.0 - float(cross @ want))
        assert abs(variances[i] - want_var) < 1e-9 * sigma2[i]


def test_row_built_in_a_stack_equals_row_built_alone():
    grid = make_grid(1, 21, exclude=0.5)
    sigma2, rho, nu, omega2 = _study_box_stack(64, seed=23)
    nu[:3] = (0.5, 1.5, 2.5)
    stacked = KrigingSystem.build(grid, 0.5, ReducedParams(rho, nu, omega2))
    weights = kriging_weights(grid, 0.5,
                              ReducedParams(rho, nu, omega2))
    variances = kriging_variance(
        grid, 0.5, MaternParams(sigma2, rho, nu, omega2 * sigma2))
    for i in range(64):
        alone = KrigingSystem.build(grid, 0.5,
                                    ReducedParams(rho[i], nu[i], omega2[i]))
        assert np.array_equal(stacked.factor.lower[stacked.rows[i]],
                              alone.factor.lower[alone.rows])
        assert np.array_equal(stacked.cross[stacked.rows[i]],
                              alone.cross[alone.rows])
        w = kriging_weights(grid, 0.5,
                            ReducedParams(rho[i], nu[i], omega2[i]))
        assert np.array_equal(weights[i], w)
        v = kriging_variance(grid, 0.5, MaternParams(
            sigma2[i], rho[i], nu[i], omega2[i] * sigma2[i]))
        assert variances[i] == v


def test_predict_mean_on_a_stack_matches_each_row_alone():
    # the README quickstart's (3, 20) stack, then 64 rows over the study box
    grid = make_grid(1, 21, exclude=0.5)
    y = np.sin(2.0 * np.pi * grid.points[:, 0])
    _, rho, nu, omega2 = _study_box_stack(64, seed=29)
    rho[:3], nu[:3], omega2[:3] = (0.5, 1.0, 2.0), (0.5, 1.5, 2.5), 0.001
    means = predict_mean(kriging_weights(grid, 0.5,
                                         ReducedParams(rho, nu, omega2)), y)
    assert isinstance(means, np.ndarray) and means.shape == (64,)
    for i in range(64):
        alone = predict_mean(kriging_weights(
            grid, 0.5, ReducedParams(rho[i], nu[i], omega2[i])), y)
        assert isinstance(alone, float)
        assert means[i] == alone


def test_stack_with_a_jittered_row_matches_per_system_factors():
    # a zero-nugget nu = 10 system on the 20-point grid only factors at the
    # 1e-12 rung, so that row alone goes up the jitter ladder and every
    # row gets the factor it gets on its own
    grid = make_grid(1, 21, exclude=0.5)
    rho = np.ones(5)
    nu = np.array([1.0, 1.0, 10.0, 1.0, 1.0])
    omega2 = np.array([0.01, 0.01, 0.0, 0.01, 0.01])
    system = KrigingSystem.build(grid, 0.5, ReducedParams(rho, nu, omega2))
    weights = kriging_weights(grid, 0.5,
                              ReducedParams(rho, nu, omega2))
    jitter = system.factor.jitter_used[system.rows]
    assert jitter.tolist() == [0.0, 0.0, 1e-12, 0.0, 0.0]
    for i in range(5):
        params = ReducedParams(rho[i], nu[i], omega2[i])
        d = np.abs(grid.points - grid.points.T)
        alone = linalg.spd_factor(matern_correlation(d, rho[i], nu[i])
                                  + omega2[i] * np.eye(grid.count))
        s = system.rows[i]
        assert system.factor.jitter_used[s] == alone.jitter_used
        assert np.array_equal(system.factor.lower[s], alone.lower)
        assert np.array_equal(weights[i],
                              linalg.spd_solve(alone, system.cross[s]))
        assert np.array_equal(weights[i],
                              kriging_weights(grid, 0.5, params))


def test_scalar_parameters_keep_single_system_shapes():
    # a scalar system is a stack of one whose 0-d row map gives
    # single-system results
    grid = make_grid(2, 4)
    system = KrigingSystem.build(grid, [0.5, 0.5],
                                 ReducedParams(1.0, 1.5, 0.01))
    assert system.rows.shape == ()
    assert system.factor.lower.shape == (1, 16, 16)
    assert system.weights().shape == (16,)
    assert isinstance(system.variance(1.0), float)
    v = kriging_variance(grid, [0.5, 0.5], MaternParams(1.0, 1.0, 1.5, 0.01))
    assert isinstance(v, float)
    with pytest.raises(ValueError):
        KrigingSystem.build(grid, [0.5, 0.5],
                            ReducedParams(np.ones((2, 2)), 1.5, 0.01))


# ------------------------------------------------------------- properties


def _lattice_layout(seed, count, dim):
    """count distinct training points and a prediction point apart from
    them, on the 0.05 lattice of [0, 1]^dim."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(21 ** dim, size=count + 1, replace=False)
    pts = np.stack(np.unravel_index(cells, (21,) * dim), axis=1) * 0.05
    return pts[:count], pts[count], rng.permutation(count)


_STUDY_BOX = dict(rho=st.floats(0.01, 5.0), nu=st.floats(0.01, 2.5),
                  omega2=st.floats(0.001, 0.1))


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 20),
       dim=st.sampled_from([1, 2]), **_STUDY_BOX)
def test_weights_follow_the_training_points_when_reordered(
        seed, count, dim, rho, nu, omega2):
    pts, pred, order = _lattice_layout(seed, count, dim)
    params = ReducedParams(rho, nu, omega2)
    w = kriging_weights(LocationSet(pts), pred, params)
    reordered = kriging_weights(LocationSet(pts[order]), pred,
                                params)
    assert np.max(np.abs(reordered - w[order])) < 1e-9


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 19),
       dim=st.sampled_from([1, 2]), sigma2=st.floats(0.1, 5.0),
       **_STUDY_BOX)
def test_variance_within_prior_and_not_raised_by_another_point(
        seed, count, dim, sigma2, rho, nu, omega2):
    pts, pred, _ = _lattice_layout(seed, count + 1, dim)
    params = MaternParams(sigma2, rho, nu, omega2 * sigma2)
    fewer = kriging_variance(LocationSet(pts[:-1]), pred, params)
    more = kriging_variance(LocationSet(pts), pred, params)
    assert 0.0 <= more and 0.0 <= fewer <= sigma2
    assert more <= fewer + 1e-9 * sigma2


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 20),
       dim=st.sampled_from([1, 2]), index=st.integers(0, 19),
       rho=_STUDY_BOX["rho"], nu=_STUDY_BOX["nu"])
def test_zero_nugget_system_at_a_training_point_gives_a_unit_weight(
        seed, count, dim, index, rho, nu):
    pts, _, _ = _lattice_layout(seed, count, dim)
    i = index % count
    system = KrigingSystem.build(LocationSet(pts), pts[i],
                                 ReducedParams(rho, nu, 0.0))
    w = system.weights()
    # At rung delta the system is (Omega + delta I) w = Omega e_i, so
    # w = e_i - delta (Omega + delta I)^-1 e_i exactly, a deviation of at
    # most delta / lambda_min(Omega + delta I); the Cholesky solve adds
    # roundoff of at most about n eps cond(Omega + delta I). Over the
    # study box these layouts factor at rung 0 (all of 3,000 random
    # draws), where only the roundoff term is left; the error measured at
    # most 0.07 of it over 800 draws on the two study grids.
    jitter = system.factor.jitter_used[system.rows]
    eig = np.linalg.eigvalsh(matern_correlation(cdist(pts, pts), rho, nu)
                             + jitter * np.eye(count))
    tol = (jitter + count * np.finfo(float).eps * eig[-1]) / eig[0]
    assert np.max(np.abs(w - np.eye(count)[i])) <= tol


@given(seed=st.integers(0, 2 ** 32 - 1), extra=st.integers(0, 12),
       jittered=st.booleans(), dim=st.sampled_from([1, 2]))
def test_repeated_rows_build_as_each_row_alone(seed, extra, jittered, dim):
    # an exact duplicate, a (rho, nu) with two omega2 values, random picks
    # from those rows, and optionally a duplicated zero-nugget nu = 10 row,
    # which factors only at a jitter rung on the 20-point grid
    grid = make_grid(1, 21, exclude=0.5) if dim == 1 else make_grid(2, 4)
    pred = np.full(dim, 0.5)
    g = np.random.default_rng(seed)
    rho = g.uniform(0.01, 5.0, 4)
    nu = g.uniform(0.01, 2.5, 4)
    omega2 = g.uniform(0.001, 0.1, 4)
    rho[1], nu[1], omega2[1] = rho[0], nu[0], omega2[0]
    rho[3], nu[3] = rho[2], nu[2]
    if jittered:
        rho = np.append(rho, [1.0, 1.0])
        nu = np.append(nu, [10.0, 10.0])
        omega2 = np.append(omega2, [0.0, 0.0])
    picks = np.concatenate([np.arange(len(rho)),
                            g.integers(0, len(rho), extra)])
    picks = g.permutation(picks)
    rho, nu, omega2 = rho[picks], nu[picks], omega2[picks]
    sigma2 = g.uniform(0.1, 5.0, len(picks))
    params = ReducedParams(rho, nu, omega2)
    system = KrigingSystem.build(grid, pred, params)
    weights = kriging_weights(grid, pred, params)
    variances = kriging_variance(
        grid, pred, MaternParams(sigma2, rho, nu, omega2 * sigma2))
    # one factor per distinct row, however often the row repeats
    assert len(system.factor.lower) == len(set(zip(rho, nu, omega2)))
    jitter = system.factor.jitter_used[system.rows]
    if jittered and dim == 1:
        assert np.all(jitter[nu == 10.0] > 0.0)
    for i in range(len(picks)):
        row = ReducedParams(rho[i], nu[i], omega2[i])
        alone = KrigingSystem.build(grid, pred, row)
        s = system.rows[i]
        assert np.array_equal(system.factor.lower[s],
                              alone.factor.lower[alone.rows])
        assert jitter[i] == alone.factor.jitter_used[alone.rows]
        assert np.array_equal(system.cross[s], alone.cross[alone.rows])
        assert np.array_equal(weights[i],
                              kriging_weights(grid, pred, row))
        assert variances[i] == kriging_variance(grid, pred, MaternParams(
            sigma2[i], rho[i], nu[i], omega2[i] * sigma2[i]))
