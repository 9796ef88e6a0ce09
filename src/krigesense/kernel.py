"""Matern correlation and covariance, kernel matrices, evaluation grids
and the study layouts.

The correlation follows the sqrt(2 nu) d / rho argument convention inside
both the power term and the Bessel term. Half-integer smoothness values
use their textbook closed forms, each filling the rows whose order it
matches; every other order goes through the log-space Bessel path so the
Gamma(nu) / 2^(nu-1) prefactor cannot overflow at small nu or tiny
distance. Euclidean distances, as tables or between paired rows, come
from one numpy helper that forms the same sum as scipy.spatial's cdist,
so the package needs only scipy.special.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun

__all__ = [
    "MaternParams",
    "ReducedParams",
    "LocationSet",
    "matern_correlation",
    "matern_covariance",
    "kernel_matrix",
    "make_grid",
    "study_grid",
]

_LN2 = math.log(2.0)
_HALF_INTEGER_TOL = 1e-12
_TINY_ARG = 1e-10


def _check_params(**fields) -> tuple:
    """Check hyperparameters, scalars and arrays alike, and return them as
    float arrays: tau2 and omega2 finite and >= 0, the others finite and
    > 0, nu also <= NU_MAX."""
    out = []
    for name, value in fields.items():
        v = np.asarray(value, dtype=float)
        nugget = name in ("tau2", "omega2")
        ok = np.isfinite(v) & ((v >= 0.0) if nugget else (v > 0.0))
        if name == "nu":
            ok &= v <= specfun.NU_MAX
        if not np.all(ok):
            rule = (">= 0" if nugget else "> 0") + (
                f" and <= {specfun.NU_MAX}" if name == "nu" else "")
            raise ValueError(f"{name} must be a finite real {rule}, "
                             f"got {v[~ok].flat[0]}")
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class MaternParams:
    """Covariance hyperparameters (sigma2, rho, nu, tau2); arrays make a
    stack of parameter rows for kriging_variance."""

    sigma2: float
    rho: float
    nu: float
    tau2: float

    def __post_init__(self) -> None:
        _check_params(sigma2=self.sigma2, rho=self.rho, nu=self.nu,
                      tau2=self.tau2)

    def reduced(self) -> "ReducedParams":
        """The (rho, nu, omega2 = tau2/sigma2) triple that predictions
        actually depend on."""
        return ReducedParams(rho=self.rho, nu=self.nu,
                             omega2=self.tau2 / self.sigma2)


@dataclass(frozen=True)
class ReducedParams:
    """(rho, nu, omega2), scalars or arrays for a stack of parameter rows;
    omega2 is the nugget-to-variance ratio."""

    rho: float
    nu: float
    omega2: float

    def __post_init__(self) -> None:
        _check_params(rho=self.rho, nu=self.nu, omega2=self.omega2)


@dataclass(frozen=True)
class LocationSet:
    """A set of 1-D or 2-D locations with pairwise-distinct points."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"points must be (count, dim), got {pts.shape}")
        if pts.shape[1] not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {pts.shape[1]}")
        if pts.shape[0] < 1:
            raise ValueError("at least one location required")
        if not np.all(np.isfinite(pts)):
            raise ValueError("locations must be finite")
        if pts.shape[0] > 1:
            dist = _distances(pts[:, None], pts)
            np.fill_diagonal(dist, np.inf)
            if dist.min() <= 1e-12:
                raise ValueError(
                    "locations must be pairwise distinct (> 1e-12)")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of a and b, coordinates on the
    last axis, broadcast over the rest: _distances(a[:, None], b) is the
    (len(a), len(b)) table, and two equal-length row sets give their
    paired distances.

    The squared coordinate differences are summed in coordinate order,
    the sum scipy.spatial.distance.cdist forms, so every entry equals
    cdist's bit for bit. One array of the result's size is held beside it.
    """
    out = np.subtract(a[..., 0], b[..., 0])
    out *= out
    if a.shape[-1] > 1:
        diff = np.empty_like(out)
        for j in range(1, a.shape[-1]):
            np.subtract(a[..., j], b[..., j], out=diff)
            diff *= diff
            out += diff
    return np.sqrt(out, out=out)


_CLOSED_FORMS = {
    0.5: lambda a: np.exp(-a),
    1.5: lambda a: (1.0 + a) * np.exp(-a),
    2.5: lambda a: (1.0 + a + a * a / 3.0) * np.exp(-a),
}

# math.lgamma per parameter value: scipy's gammaln can differ from it in
# the last bit, and a stacked call must equal the scalar calls
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _at(values, mask: np.ndarray):
    # per-parameter values at the masked elements; a scalar stays one
    if np.ndim(values) == 0:
        return values
    return np.broadcast_to(values, mask.shape)[mask]


def matern_correlation(d, rho, nu):
    """Matern correlation at distance d (scalar or array).

    Exactly 1 at d = 0 and within [0, 1] everywhere. nu in {1/2, 3/2,
    5/2} (within 1e-12) uses the closed forms; other orders evaluate
    exp((1-nu) ln 2 - ln Gamma(nu) + nu ln a + ln K_nu(a)) with
    a = sqrt(2 nu) d / rho.

    rho and nu may be arrays that broadcast against d, such as (N, 1)
    parameter rows over (U,) distances. Each element gets the formula its
    own nu selects, so a stacked call equals the row-by-row calls bitwise.
    The result is a new array, and each formula fills its own elements by
    mask through a few temporaries of their size, so a caller bounds a
    large fill by calling on blocks of distances.
    """
    rho, nu = _check_params(rho=rho, nu=nu)
    arr = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("distances must be finite and >= 0")

    a = (np.sqrt(2.0 * nu) / rho) * arr
    out = np.ones(a.shape)
    general = np.ones(nu.shape, dtype=bool)
    for half, form in _CLOSED_FORMS.items():
        rows = np.abs(nu - half) <= _HALF_INTEGER_TOL
        general &= ~rows
        if rows.any():
            pick = np.broadcast_to(rows, a.shape)
            out[pick] = form(a[pick])
    if general.any():
        # leading small-argument behavior 1 - Gamma(1-nu)/Gamma(1+nu)
        # (a/2)^(2 nu) for nu < 1; above that the correction is O(a^2)
        # ~ 1e-20 and drops, so those elements keep their 1
        tiny = (a > 0.0) & (a < _TINY_ARG) & (nu < 1.0) & general
        main = (a >= _TINY_ARG) & general
        if np.any(tiny):
            at, nt = a[tiny], _at(nu, tiny)
            correction = np.exp(_lgamma(1.0 - nt) - _lgamma(1.0 + nt)
                                + 2.0 * nt * (np.log(at) - _LN2))
            out[tiny] = 1.0 - correction
        if np.any(main):
            am, nm = a[main], _at(nu, main)
            log_c = (_at((1.0 - nu) * _LN2 - _lgamma(nu), main)
                     + nm * np.log(am) + specfun.bessel_k_log_array(nm, am))
            out[main] = np.exp(log_c)
    # every formula can round just past 1 near d = 0
    np.clip(out, 0.0, 1.0, out=out)
    out[np.broadcast_to(arr == 0.0, out.shape)] = 1.0
    return float(out) if out.ndim == 0 else out


def matern_covariance(d, params: MaternParams):
    """sigma2 * correlation + tau2 exactly at d = 0 (scalar or array)."""
    arr = np.asarray(d, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    cov = matern_correlation(arr, params.rho, params.nu)
    cov *= params.sigma2
    if params.tau2 != 0.0:
        cov[arr == 0.0] += params.tau2
    return float(cov[0]) if scalar else cov


def _distinct(values: np.ndarray) -> tuple:
    """The sorted distinct entries of values and an int32 inverse of the
    same shape, with values == unique[inverse], by one sort: distances
    here, and the classifier's pair keys beyond its lookup table."""
    values = np.asarray(values)
    unique, inverse = np.unique(values.ravel(), return_inverse=True)
    return unique, inverse.astype(np.int32, copy=False).reshape(values.shape)


def kernel_matrix(a: LocationSet, b: LocationSet,
                  params: MaternParams) -> np.ndarray:
    """Covariance matrix with entries phi(||a_i - b_j||).

    Entries are computed once per distinct distance and scattered back,
    which keeps repeated-structure grids cheap and makes same-set matrices
    exactly symmetric.
    """
    if a.dimension != b.dimension:
        raise ValueError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}")
    uniq, inv = _distinct(_distances(a.points[:, None], b.points))
    return matern_covariance(uniq, params)[inv]


def make_grid(dimension: int, count_per_axis: int,
              exclude=None) -> LocationSet:
    """Uniform grid on [0, 1]^dimension, optionally minus one point; the
    study layouts below are two of these."""
    if dimension not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")
    if count_per_axis < 1:
        raise ValueError("count_per_axis must be >= 1")
    axis = np.linspace(0.0, 1.0, count_per_axis)
    if dimension == 1:
        pts = axis[:, None]
    else:
        u, v = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([u.ravel(), v.ravel()])
    if exclude is not None:
        target = np.atleast_1d(np.asarray(exclude, dtype=float))
        if target.shape != (dimension,):
            raise ValueError(
                f"exclude must be a {dimension}-coordinate, got {exclude}")
        pts = pts[_distances(pts, target) > 1e-12]
    return LocationSet(points=pts)


# the study layouts, each predicting at the centre of [0, 1]^d: in 1-D, 21
# equispaced points minus the prediction location, leaving 20; in 2-D, the
# 4 x 4 = 16-point lattice
_STUDY_LAYOUTS = {1: (make_grid(1, 21, exclude=0.5), np.array([0.5])),
                  2: (make_grid(2, 4), np.array([0.5, 0.5]))}


def study_grid(grid_dimension: int) -> tuple:
    """(training locations, prediction point) of the 1-D or 2-D study,
    which the Sobol studies and the collinearity scan share."""
    if grid_dimension not in _STUDY_LAYOUTS:
        raise ValueError(
            f"grid_dimension must be 1 or 2, got {grid_dimension}")
    return _STUDY_LAYOUTS[grid_dimension]
