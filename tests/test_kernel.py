"""Matern correlation/covariance, kernel matrices, and grid construction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.spatial.distance import cdist
from scipy.special import kve

from krigesense import linalg
from krigesense.kernel import (_CLOSED_FORMS, LocationSet, MaternParams,
                               ReducedParams, _distances, _distinct,
                               kernel_matrix, make_grid, matern_correlation,
                               matern_covariance)
from oracles import bessel_k_quadrature, charpoly_eigenvalues


def test_correlation_anchor_values():
    assert matern_correlation(0.0, 1.3, 0.7) == 1.0
    # at d = rho the exponential case is e^{-1}
    for rho in (0.2, 1.0, 4.0):
        assert math.isclose(matern_correlation(rho, rho, 0.5),
                            math.exp(-1.0), rel_tol=1e-12)
    # closed form at nu = 3/2: (1 + sqrt(3) d / rho) exp(-sqrt(3) d / rho)
    expected = (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))
    assert math.isclose(matern_correlation(1.0, 1.0, 1.5), expected,
                        rel_tol=1e-12)


def test_general_order_matches_quadrature_route():
    # rebuild the correlation from the quadrature Bessel oracle
    rng = np.random.default_rng(13)
    for _ in range(12):
        nu = rng.uniform(0.05, 2.6)
        if min(abs(nu - 0.5), abs(nu - 1.5), abs(nu - 2.5)) < 1e-6:
            continue
        rho = rng.uniform(0.1, 5.0)
        d = rng.uniform(0.01, 3.0)
        a = math.sqrt(2.0 * nu) * d / rho
        ref = (2.0 ** (1.0 - nu) / math.gamma(nu) * a ** nu
               * bessel_k_quadrature(nu, a))
        assert math.isclose(matern_correlation(d, rho, nu), ref,
                            rel_tol=1e-9), (d, rho, nu)


def test_correlation_tiny_distance_guard():
    # just above zero the value must stay in (0, 1] and approach 1
    for nu in (0.05, 0.3, 0.8, 1.7):
        c = matern_correlation(1e-13, 1.0, nu)
        assert 0.0 < c <= 1.0
        assert c > 0.9999 or nu < 0.1
    # continuity across the guard boundary for a rough order
    below = matern_correlation(0.9e-10 / math.sqrt(0.2), 1.0, 0.1)
    above = matern_correlation(1.1e-10 / math.sqrt(0.2), 1.0, 0.1)
    assert abs(below - above) < 1e-3


def test_correlation_array_and_bounds():
    d = np.array([0.0, 0.05, 0.3, 2.0, 10.0])
    for nu in (0.21, 0.5, 1.5, 2.5, 7.3):
        c = matern_correlation(d, 1.2, nu)
        assert c.shape == d.shape
        assert c[0] == 1.0
        assert np.all((c > 0.0) & (c <= 1.0))


def test_correlation_monotone_in_distance_and_range():
    ds = np.linspace(0.01, 3.0, 60)
    for nu in (0.3, 0.5, 1.5, 4.0):
        c = matern_correlation(ds, 1.0, nu)
        assert np.all(np.diff(c) < 0.0)
    for rho_lo, rho_hi in ((0.3, 0.5), (1.0, 2.0)):
        lo = matern_correlation(ds, rho_lo, 1.0)
        hi = matern_correlation(ds, rho_hi, 1.0)
        assert np.all(hi > lo)



@given(rho=st.floats(0.01, 5.0), nu=st.sampled_from([0.5, 1.5, 2.5])
       | st.floats(0.01, 50.0),
       log_d=st.lists(st.floats(-14.0, 2.0), min_size=1, max_size=60),
       zeros=st.integers(0, 2))
# the 5/2 closed form rounded to 1 + 2.2e-16 at these distances
@example(rho=1.0, nu=2.5, log_d=[-8.058, -8.031, -8.028], zeros=1)
def test_correlation_in_unit_interval_and_not_increasing(rho, nu, log_d,
                                                         zeros):
    d = np.sort(np.concatenate([np.zeros(zeros), 10.0 ** np.array(log_d)]))
    c = matern_correlation(d, rho, nu)
    assert np.all((c >= 0.0) & (c <= 1.0))
    assert np.all(c[d == 0.0] == 1.0)
    # a general order prices exp((1 - nu) ln 2 - ln Gamma(nu) + nu ln a
    # + ln K_nu(a)); near a = 0 the terms, of size up to
    # M = |(1 - nu) ln 2 - ln Gamma(nu)| + nu |ln a| each, cancel to about
    # 0, so a value carries an absolute error of about eps * 2M (1 eps * 2M
    # at worst over 6,000 random draws). A step may rise by 4 eps * 2M.
    a = (math.sqrt(2.0 * nu) / rho) * d
    with np.errstate(divide="ignore"):
        size = 2.0 * (abs((1.0 - nu) * math.log(2.0) - math.lgamma(nu))
                      + nu * np.abs(np.log(a))) + 1.0
    rise = np.diff(c)
    assert np.all(rise <= 4.0 * np.finfo(float).eps
                  * np.maximum(size[:-1], size[1:]))


def test_stacked_correlation_equals_row_by_row_calls():
    # (N, 1) parameter rows over a distance vector must reproduce every
    # scalar call bit for bit: each element keeps the formula its own nu
    # selects, whatever the other rows need
    d = np.concatenate([[0.0, 1e-12, 1e-9], np.linspace(0.05, 3.0, 25)])
    rows = [(1.0, 0.5), (0.7, 1.5), (2.0, 2.5),   # closed forms
            (1.0, 0.3), (1.0, 1.3),               # tiny argument at 1e-12
            (1.0, 45.0),                          # log-space series at 1e-9
            (3.0, 0.01), (0.05, 2.2), (4.5, 1.0)]
    rng = np.random.default_rng(21)
    rows += [(float(r), float(n)) for r, n in
             zip(rng.uniform(0.01, 5.0, 8), rng.uniform(0.01, 2.5, 8))]
    rho = np.array([r for r, _ in rows])[:, None]
    nu = np.array([n for _, n in rows])[:, None]
    # the chosen rows do reach the tiny-argument and log-series paths
    assert math.sqrt(2.0 * 0.3) * 1e-12 < 1e-10
    assert np.isinf(kve(45.0, math.sqrt(90.0) * 1e-9))
    stacked = matern_correlation(d, rho, nu)
    by_row = np.array([matern_correlation(d, r, n) for r, n in rows])
    assert stacked.shape == (len(rows), d.size)
    assert np.array_equal(stacked, by_row)
    # one stacked row against a scalar distance keeps scalar semantics
    assert matern_correlation(0.3, 1.0, 0.7) == float(
        matern_correlation(0.3, np.array([1.0]), np.array([0.7]))[0])


def textbook_closed_form(half, a):
    """The half-integer Matern correlations as written, one new array per
    operation."""
    if half == 0.5:
        return np.exp(-a)
    if half == 1.5:
        return (1.0 + a) * np.exp(-a)
    return (1.0 + a + a * a / 3.0) * np.exp(-a)


@pytest.mark.parametrize("half", [0.5, 1.5, 2.5])
def test_closed_forms_equal_textbook_expressions(half):
    rng = np.random.default_rng(17)
    a = np.concatenate([[0.0, 1e-300, 1e-12, 1e-6], rng.uniform(0.0, 8.0, 300),
                        rng.uniform(8.0, 800.0, 40)])
    # 1-D and 0-d arrays
    want = textbook_closed_form(half, a)
    assert _CLOSED_FORMS[half](a).tobytes() == want.tobytes()
    for value, expected in zip(a[::7], want[::7]):
        got = _CLOSED_FORMS[half](np.array(value))
        assert got.ndim == 0
        assert got.tobytes() == np.float64(expected).tobytes()
    # matern_correlation: the textbook value of its own scaled distance,
    # clipped to [0, 1] and exactly 1 at d = 0, for a scalar distance, a
    # distance vector, and (N, 1) rows that mix the forms with other orders
    d = np.concatenate([[0.0, 1e-12], rng.uniform(0.0, 6.0, 60)])
    rho = np.array([0.7, 2.0, 0.05, 1.3, 0.7])
    nu = np.array([half, half, half, 0.8, 0.5 if half != 0.5 else 1.5])

    def reference(r, n):
        scaled = (np.sqrt(2.0 * np.float64(n)) / r) * d
        out = np.clip(textbook_closed_form(n, scaled), 0.0, 1.0)
        out[d == 0.0] = 1.0
        return out

    for r in rho[:3]:
        assert matern_correlation(d, r, half).tobytes() == \
            reference(r, half).tobytes()
        for i in (0, 5, 17):
            assert matern_correlation(float(d[i]), r, half) == \
                reference(r, half)[i]
    stacked = matern_correlation(d, rho[:, None], nu[:, None])
    for row, (r, n) in enumerate(zip(rho, nu)):
        if n in _CLOSED_FORMS:
            assert stacked[row].tobytes() == reference(r, n).tobytes()
        assert stacked[row].tobytes() == matern_correlation(d, r, n).tobytes()


_COORDINATE = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0])


@given(q=st.integers(1, 8), rows=st.tuples(st.integers(1, 9),
                                           st.integers(1, 9)),
       scales=st.lists(st.integers(-8, 6), min_size=8, max_size=8),
       data=st.data())
def test_distances_equal_cdist_bitwise(q, rows, scales, data):
    # scipy's cdist stays the independent reference: every entry, including
    # exact zeros between shared rows, must carry cdist's bits
    scale = 10.0 ** np.array(scales[:q], dtype=float)
    a = data.draw(arrays(np.float64, (rows[0], q), elements=_COORDINATE))
    b = data.draw(arrays(np.float64, (rows[1], q), elements=_COORDINATE))
    a, b = a * scale, b * scale
    b[0] = a[-1]
    got = _distances(a[:, None], b)
    assert got.shape == (rows[0], rows[1])
    assert got.tobytes() == cdist(a, b).tobytes()
    # equal-length row sets give the paired distances, cdist's bits too
    pick = np.arange(rows[0]) % rows[1]
    paired = _distances(a, b[pick])
    assert paired.tobytes() == cdist(a, b)[np.arange(rows[0]), pick].tobytes()


def test_stacked_parameters_validated_elementwise():
    with pytest.raises(ValueError):
        matern_correlation(np.ones(3), np.array([[1.0], [-1.0]]), 1.0)
    with pytest.raises(ValueError):
        ReducedParams(rho=np.ones(2), nu=np.array([1.0, 51.0]), omega2=0.0)
    with pytest.raises(ValueError):
        MaternParams(sigma2=np.ones(2), rho=1.0, nu=1.0,
                     tau2=np.array([0.1, np.nan]))

def test_rbf_pointwise_limit_at_high_order():
    rho = 1.0
    for d in np.arange(0.1, 1.05, 0.1):
        gauss = math.exp(-d * d / (2.0 * rho * rho))
        assert abs(matern_correlation(float(d), rho, 50.0) - gauss) < 5e-3


def test_correlation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        matern_correlation(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        matern_correlation(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        matern_correlation(1.0, 1.0, 50.5)
    with pytest.raises(ValueError):
        matern_correlation(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        matern_correlation(float("nan"), 1.0, 1.0)


def test_covariance_values_and_nugget():
    p = MaternParams(sigma2=2.0, rho=1.0, nu=1.0, tau2=0.5)
    assert matern_covariance(0.0, p) == 2.5
    p = MaternParams(sigma2=1.0, rho=0.7, nu=0.5, tau2=0.0)
    assert math.isclose(matern_covariance(0.7, p), math.exp(-1.0),
                        rel_tol=1e-12)
    # derived spot value through the quadrature oracle
    nu, rho, d, sigma2 = 2.1, 0.9, 2.0, 1.7
    a = math.sqrt(2.0 * nu) * d / rho
    corr = (2.0 ** (1.0 - nu) / math.gamma(nu) * a ** nu
            * bessel_k_quadrature(nu, a))
    p = MaternParams(sigma2=sigma2, rho=rho, nu=nu, tau2=0.0)
    assert math.isclose(matern_covariance(d, p), sigma2 * corr, rel_tol=1e-9)


def test_covariance_scaling_identity():
    # scale sigma2 and tau2 together: covariance scales linearly, exactly
    rng = np.random.default_rng(23)
    d = np.array([0.0, 0.3, 1.4])
    for _ in range(20):
        sigma2 = rng.uniform(0.1, 5.0)
        omega2 = rng.uniform(0.0, 0.1)
        rho = rng.uniform(0.05, 5.0)
        nu = rng.uniform(0.05, 2.5)
        full = matern_covariance(
            d, MaternParams(sigma2, rho, nu, omega2 * sigma2))
        unit = matern_covariance(d, MaternParams(1.0, rho, nu, omega2))
        assert np.allclose(full, sigma2 * unit, rtol=1e-15)


def test_kernel_matrix_small_cases():
    one = LocationSet(points=np.array([[0.2]]))
    p = MaternParams(sigma2=1.3, rho=1.0, nu=0.5, tau2=0.2)
    assert np.allclose(kernel_matrix(one, one, p), [[1.5]], atol=0.0)
    two = LocationSet(points=np.array([[0.0], [0.7]]))
    p = MaternParams(sigma2=1.0, rho=0.7, nu=0.5, tau2=0.0)
    e = math.exp(-1.0)
    assert np.allclose(kernel_matrix(two, two, p),
                       [[1.0, e], [e, 1.0]], rtol=1e-12)


def test_kernel_matrix_exactly_symmetric():
    grid = make_grid(1, 20)
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = MaternParams(rng.uniform(0.1, 5.0), rng.uniform(0.05, 5.0),
                         rng.uniform(0.05, 2.5), rng.uniform(0.0, 0.1))
        k = kernel_matrix(grid, grid, p)
        assert np.array_equal(k, k.T)


def test_kernel_matrix_near_psd_on_grid():
    # smallest eigenvalue of subsampled blocks stays above -1e-10; the
    # LAPACK symmetric eigensolver is the reference here because these
    # blocks are too ill-conditioned for the characteristic-polynomial
    # route to resolve eigenvalues near zero
    grid = make_grid(1, 21, exclude=0.5)
    rng = np.random.default_rng(37)
    for _ in range(8):
        p = MaternParams(rng.uniform(0.1, 5.0), rng.uniform(0.05, 5.0),
                         rng.uniform(0.05, 2.5), rng.uniform(0.0, 0.1))
        k = kernel_matrix(grid, grid, p)
        idx = rng.choice(20, size=8, replace=False)
        block = k[np.ix_(idx, idx)]
        eig = np.linalg.eigvalsh(block)
        assert eig.min() >= -1e-10


def test_kernel_matrix_dimension_mismatch():
    a = make_grid(1, 4)
    b = make_grid(2, 2)
    p = MaternParams(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        kernel_matrix(a, b, p)


_SHAPES = array_shapes(min_dims=1, max_dims=2, max_side=40)


# distances with forced repeats; the classifier's integer pair keys are
# checked by test_classifier.py::test_key_inverse_matches_np_unique
@given(arrays(np.float64, _SHAPES, elements=st.sampled_from(
    [0.0, 0.25, 0.5, 2.0 ** 0.5]) | st.floats(0.0, 10.0)))
def test_distinct_round_trips_exactly(values):
    unique, inverse = _distinct(values)
    assert inverse.dtype == np.int32 and inverse.shape == values.shape
    assert np.array_equal(unique[inverse], values)
    assert np.all(np.diff(unique) > 0)
    assert np.array_equal(unique, np.unique(values))


def test_make_grid_cases():
    g = make_grid(1, 3)
    assert np.allclose(g.points[:, 0], [0.0, 0.5, 1.0], atol=0.0)
    g = make_grid(1, 21, exclude=0.5)
    assert g.count == 20
    assert not np.any(np.isclose(g.points[:, 0], 0.5))
    g = make_grid(2, 4)
    assert g.count == 16 and g.dimension == 2
    axis = np.linspace(0.0, 1.0, 4)
    expect = {(float(u), float(v)) for u in axis for v in axis}
    got = {tuple(map(float, row)) for row in g.points}
    assert got == expect


def test_make_grid_exclude_validation():
    with pytest.raises(ValueError):
        make_grid(2, 4, exclude=0.5)
    with pytest.raises(ValueError):
        make_grid(3, 4)
    # excluding a point not on the grid leaves it unchanged
    assert make_grid(1, 4, exclude=0.5).count == 4


def test_param_validation_and_reduction():
    with pytest.raises(ValueError):
        MaternParams(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        MaternParams(1.0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        MaternParams(1.0, 1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        MaternParams(1.0, 1.0, 51.0, 0.0)
    with pytest.raises(ValueError):
        ReducedParams(1.0, 0.0, 0.01)
    r = MaternParams(sigma2=4.0, rho=1.5, nu=0.8, tau2=0.02).reduced()
    assert r == ReducedParams(rho=1.5, nu=0.8, omega2=0.005)


def test_location_set_validation():
    with pytest.raises(ValueError):
        LocationSet(points=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        LocationSet(points=np.array([[0.1], [0.1]]))
    with pytest.raises(ValueError):
        LocationSet(points=np.array([[0.1], [0.1 + 1e-13]]))
    ls = LocationSet(points=np.array([0.0, 0.25, 1.0]))
    assert ls.points.shape == (3, 1)
    assert not ls.points.flags.writeable
