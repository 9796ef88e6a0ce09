"""Bessel K_nu checks against closed forms, a quadrature oracle, and
reference values frozen from mpmath 1.3 (mp.dps = 40)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from krigesense import specfun
from oracles import bessel_k_log_quadrature, bessel_k_quadrature

# mpmath.besselk reference points, frozen once
MPMATH_K_03_07 = 0.6895624897569750649
MPMATH_LOG_K_5_1E6 = 75.028195342409035104
MPMATH_LOG_K_2_600 = -602.96955107749971415
MPMATH_LOG_K_50_1E8 = 1099.5639929914004787


def test_half_integer_identity_values():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    assert math.isclose(specfun.bessel_k(0.5, 1.0),
                        math.sqrt(math.pi / 2.0) * math.exp(-1.0),
                        rel_tol=1e-12)
    assert math.isclose(specfun.bessel_k(0.5, 2.0),
                        math.sqrt(math.pi / 4.0) * math.exp(-2.0),
                        rel_tol=1e-12)


def test_half_integer_closed_forms_to_1e12():
    for x in np.linspace(0.05, 20.0, 40):
        base = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        expected = {
            0.5: base,
            1.5: base * (1.0 + 1.0 / x),
            2.5: base * (1.0 + 3.0 / x + 3.0 / x ** 2),
        }
        for nu, ref in expected.items():
            assert math.isclose(specfun.bessel_k(nu, x), ref, rel_tol=1e-12)


def test_matches_quadrature_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        nu = rng.uniform(0.05, 5.0)
        x = rng.uniform(0.05, 50.0)
        ref = bessel_k_quadrature(nu, x)
        assert math.isclose(specfun.bessel_k(nu, x), ref, rel_tol=1e-10)


def test_frozen_reference_point():
    assert math.isclose(specfun.bessel_k(0.3, 0.7), MPMATH_K_03_07,
                        rel_tol=1e-13)
    # quadrature oracle agrees with the frozen value too
    assert math.isclose(bessel_k_quadrature(0.3, 0.7), MPMATH_K_03_07,
                        rel_tol=1e-11)


def test_log_variant_identity_case():
    ref = math.log(math.sqrt(math.pi / 2.0) * math.exp(-1.0))
    assert math.isclose(specfun.bessel_k_log(0.5, 1.0), ref, rel_tol=1e-12)


def test_log_variant_extreme_corners():
    # small argument, moderate order: large positive log
    got = specfun.bessel_k_log(5.0, 1e-6)
    assert math.isclose(got, MPMATH_LOG_K_5_1E6, rel_tol=1e-12)
    # large argument: large negative log
    got = specfun.bessel_k_log(2.0, 600.0)
    assert math.isclose(got, MPMATH_LOG_K_2_600, rel_tol=1e-12)
    # overflow corner, series branch
    got = specfun.bessel_k_log(50.0, 1e-8)
    assert math.isclose(got, MPMATH_LOG_K_50_1E8, rel_tol=1e-12)


def test_log_variant_agrees_with_log_quadrature():
    for nu, x in ((0.25, 0.3), (1.7, 4.0), (7.0, 0.05), (20.0, 1.0)):
        ref = bessel_k_log_quadrature(nu, x)
        assert math.isclose(specfun.bessel_k_log(nu, x), ref,
                            rel_tol=1e-9), (nu, x)


def test_recurrence_residual():
    # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x)
    rng = np.random.default_rng(11)
    for _ in range(60):
        nu = rng.uniform(1.0, 10.0)
        x = rng.uniform(0.1, 50.0)
        lhs = specfun.bessel_k(nu + 1.0, x)
        rhs = specfun.bessel_k(nu - 1.0, x) + (2.0 * nu / x) * specfun.bessel_k(nu, x)
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def log_recurrence_gap(nu, x):
    """ln K_{nu+1} against logaddexp(ln K_{nu-1}, ln(2 nu / x) + ln K_nu),
    from one array-path call over the three orders, relative to
    max(1, |ln K_{nu+1}|)."""
    logs = specfun.bessel_k_log_array(np.array([nu - 1.0, nu, nu + 1.0]), x)
    rhs = np.logaddexp(logs[0], math.log(2.0 * nu / x) + logs[1])
    return abs(logs[2] - rhs) / max(1.0, abs(logs[2]))


# Both recurrence terms are positive, so nothing cancels. kve is good to a
# few 1e-15 relative (7.2e-15 at worst over 80,000 random draws) and a log
# value L carries ulps of L (up to 1100 in the small-x corner), so 1e-13 is
# 14x the worst gap seen.
RECURRENCE_TOL = 1e-13


@given(nu=st.floats(1.0, 49.0), log_x=st.floats(-8.0, math.log10(700.0)))
def test_recurrence_in_log_space_through_the_array_path(nu, log_x):
    assert log_recurrence_gap(nu, 10.0 ** log_x) <= RECURRENCE_TOL


def test_recurrence_holds_in_the_small_x_series_corner(monkeypatch):
    calls = []
    series = specfun._log_k_small_x
    monkeypatch.setattr(specfun, "_log_k_small_x",
                        lambda nu, x: calls.append(nu) or series(nu, x))
    assert log_recurrence_gap(49.0, 1e-8) <= RECURRENCE_TOL
    assert calls == [48.0, 49.0, 50.0]


def test_strictly_decreasing_in_argument():
    xs = np.linspace(0.05, 30.0, 100)
    for nu in (0.3, 0.5, 1.0, 2.5, 10.0):
        vals = [specfun.bessel_k(nu, float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_domain_errors():
    with pytest.raises(ValueError):
        specfun.bessel_k(-0.1, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_k(50.5, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        specfun.bessel_k(1.0, 700.5)
    with pytest.raises(ValueError):
        specfun.bessel_k(float("nan"), 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_k(1.0, float("inf"))


def test_linear_space_overflow_raises():
    # the linear value is the log path's, exponentiated, bit for bit over
    # criterion 1's grids
    grid = [(nu, x) for nu in np.linspace(0.05, 5.0, 10)
            for x in np.linspace(0.05, 50.0, 20)]
    grid += [(nu, x) for nu in (0.5, 1.5, 2.5)
             for x in np.linspace(0.05, 30.0, 25)]
    for nu, x in grid:
        assert specfun.bessel_k(nu, x) == math.exp(specfun.bessel_k_log(nu, x))
    # K_50(1e-8) is around e^1099, far over the double range
    with pytest.raises(OverflowError, match="bessel_k_log"):
        specfun.bessel_k(50.0, 1e-8)


def test_array_log_path_matches_scalar():
    xs = np.array([1e-9, 1e-3, 0.5, 10.0, 300.0])
    for nu in (0.3, 4.0, 35.0):
        got = specfun.bessel_k_log_array(nu, xs)
        ref = np.array([specfun.bessel_k_log(nu, float(x)) for x in xs])
        # the scalar call is the array path on one value
        assert np.array_equal(got, ref)
        assert got.shape == xs.shape
