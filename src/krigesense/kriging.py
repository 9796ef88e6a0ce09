"""Simple kriging predictor: weights, variance, likelihood, neighbors.

The linear system is (Omega + omega2 I) w = c with Omega the unit-diagonal
correlation matrix of the training locations and c the correlation vector
against the prediction location. Weights and the variance ratio depend on
(rho, nu, omega2) only; sigma2 returns as an overall factor of the
variance and tau2 only through omega2 = tau2 / sigma2.

(N,) arrays of (rho, nu, omega2) build a stack on one layout in one pass
that holds each distinct system once, factored and solved once; per-row
results come back through a row -> system map and carry a leading axis
of N. Scalar parameters build a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .kernel import (LocationSet, MaternParams, ReducedParams, _distances,
                     _distinct, kernel_matrix, matern_correlation)

__all__ = [
    "KrigingSystem",
    "kriging_weights",
    "predict_mean",
    "kriging_variance",
    "log_likelihood",
    "nearest_neighbors",
]

# _nearest sorts the distances of this many (query, point) pairs at a time
_SORT_VALUES = 16384


def _as_point(pred, dimension: int) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(pred, dtype=float))
    if pt.shape != (dimension,):
        raise ValueError(
            f"prediction location must have {dimension} coordinate(s), "
            f"got shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise ValueError("prediction location must be finite")
    return pt


def _as_observations(y, count: int) -> np.ndarray:
    vec = np.asarray(y, dtype=float).reshape(-1)
    if vec.shape != (count,):
        raise ValueError(
            f"expected {count} observations, got shape {np.shape(y)}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("observations must be finite")
    return vec


def _repeated_rows(rho: np.ndarray, nu: np.ndarray, omega2: np.ndarray):
    """((first, inverse) per distinct (rho, nu), (first, inverse) per
    distinct (rho, nu, omega2) row) of a stack: first indexes one row of
    each group and inverse maps every row to its group, so
    rows == rows[first][inverse]. One lexsort, then equal neighbors are
    one group."""
    order = np.lexsort((omega2, nu, rho))
    r, v, w = rho[order], nu[order], omega2[order]
    new_pair = np.ones(len(order), dtype=bool)
    new_pair[1:] = (r[1:] != r[:-1]) | (v[1:] != v[:-1])
    new_row = new_pair.copy()
    new_row[1:] |= w[1:] != w[:-1]

    def groups(starts: np.ndarray) -> tuple:
        inverse = np.empty(len(order), dtype=np.intp)
        inverse[order] = np.cumsum(starts) - 1
        return order[starts], inverse

    return groups(new_pair), groups(new_row)


@dataclass(frozen=True)
class KrigingSystem:
    """The distinct kriging systems of one parameter row or stack, each
    factored once, and the row -> system map.

    factor and cross hold one entry per distinct (rho, nu, omega2); rows
    has the broadcast shape of the parameters (0-d for scalars, (N,) for
    a stack) and gives each row's system, so a scalar system is a stack
    of one. weights() and variance() solve each system once and give
    per-row results through rows.
    """

    factor: linalg.SpdFactor
    cross: np.ndarray
    rows: np.ndarray

    @classmethod
    def build(cls, train: LocationSet, pred,
              params: ReducedParams) -> "KrigingSystem":
        """Price, assemble and factor the distinct systems of one
        (rho, nu, omega2) row or an (N,) stack of rows on one layout.

        Each distinct distance of the layout is priced once per distinct
        (rho, nu), and each distinct (rho, nu, omega2) is assembled and
        factored once, in place, by linalg._factor_in_place; a system
        that fails the plain Cholesky is assembled again for the jitter
        ladder and gets the factor and jitter_used spd_factor would
        give it. Every step works per system, so a row gives the
        same bits alone, in any stack, or as a repeat.
        """
        pt = _as_point(pred, train.dimension)
        fields = (params.rho, params.nu, params.omega2)
        rho, nu, omega2 = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(v, dtype=float)) for v in fields))
        if rho.ndim > 1:
            raise ValueError("a parameter stack must be 1-D")
        (pair_rows, pair_inv), (system_rows, system_inv) = _repeated_rows(
            rho, nu, omega2)
        # every distinct distance value of the layout (training points plus
        # the prediction point) is priced once per (rho, nu): the 1-D layout
        # has 420 distances but 54 values, where point pairs would give 230;
        # the diagonal distances are exactly 0
        n = train.count
        uniq, inv = _distinct(
            _distances(np.vstack([train.points, pt])[:, None], train.points))
        corr = matern_correlation(uniq, rho[pair_rows, None],
                                  nu[pair_rows, None])[pair_inv[system_rows]]
        diag = np.arange(n)

        def assemble(which) -> np.ndarray:
            systems = np.take(corr[which], inv[:n], axis=1)
            systems[:, diag, diag] += omega2[system_rows[which], None]
            return systems

        return cls(factor=linalg._factor_in_place(assemble(slice(None)),
                                                  assemble),
                   cross=np.take(corr, inv[n], axis=1),
                   rows=system_inv.reshape(np.broadcast(*fields).shape))

    def weights(self) -> np.ndarray:
        """(Omega + omega2 I)^{-1} c per row: (n,) for scalar parameters,
        (N, n) for a stack."""
        return linalg.spd_solve(self.factor, self.cross)[self.rows]

    def variance(self, sigma2):
        """sigma2 (1 - c^T (Omega + omega2 I)^{-1} c), clamped at -1e-10:
        a float for one system, an (N,) array for a stack; sigma2 is a
        scalar or one value per row."""
        solved = linalg.spd_solve(self.factor, self.cross)
        quad = np.matmul(self.cross[:, None, :], solved[:, :, None])
        variance = sigma2 * (1.0 - quad[self.rows, 0, 0])
        if np.any(variance < -1e-10):
            raise ArithmeticError(
                f"kriging variance {np.min(variance)} below the -1e-10 guard")
        variance = np.maximum(variance, 0.0)
        return float(variance) if variance.ndim == 0 else variance


def kriging_weights(train: LocationSet, pred,
                    params: ReducedParams) -> np.ndarray:
    """Solve (Omega + omega2 I) w = c for the weight vector(s): (n,) for
    scalar parameters, (N, n) for a stack."""
    return KrigingSystem.build(train, pred, params).weights()


def predict_mean(weights, y):
    """Weighted sum of the observations, w . y: a float for (n,) weights,
    an (N,) array for an (N, n) stack of weight rows."""
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2):
        raise ValueError(f"weights must be 1-D or 2-D, got shape {w.shape}")
    vec = _as_observations(y, w.shape[-1])
    if w.ndim == 1:
        return float(w @ vec)
    # row by row, so each mean is the same dot product as its row alone
    return np.array([row @ vec for row in w])


def kriging_variance(train: LocationSet, pred, params: MaternParams):
    """sigma2 (1 - c^T (Omega + omega2 I)^{-1} c), clamped at -1e-10.

    A float for scalar parameters, an (N,) array for a parameter stack.
    """
    system = KrigingSystem.build(train, pred, params.reduced())
    return system.variance(params.sigma2)


def log_likelihood(train: LocationSet, y, params: MaternParams) -> float:
    """Gaussian log density of y under the covariance model.

    For n observations the normalizing constant is -(n/2) ln(2 pi).
    """
    vec = _as_observations(y, train.count)
    cov = kernel_matrix(train, train, params)
    factor = linalg.spd_factor(cov)
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor.lower))))
    alpha = linalg.spd_solve(factor, vec)
    return (-0.5 * train.count * math.log(2.0 * math.pi)
            - 0.5 * log_det - 0.5 * float(vec @ alpha))


def _nearest(points: np.ndarray, queries: np.ndarray, k: int,
             exclude_self: bool = False) -> np.ndarray:
    """(nq, k) indices of the k nearest rows of points to each query row,
    nearest first, ties by lower index. With exclude_self, query i is
    points row i and is left out of its own list.

    Query rows are sorted in blocks of about _SORT_VALUES distances, so
    no (nq, len(points)) table is held; each row's sort is its own."""
    limit = len(points) - exclude_self
    if not 1 <= k <= limit:
        raise ValueError(f"k must be in [1, {limit}], got {k}")
    nq = len(queries)
    nearest = np.empty((nq, k), dtype=np.intp)
    block = max(1, _SORT_VALUES // len(points))
    for start in range(0, nq, block):
        stop = min(start + block, nq)
        order = np.argsort(_distances(queries[start:stop, None], points),
                           axis=1, kind="stable")
        if exclude_self:
            own = np.arange(start, stop)[:, None]
            order = order[order != own].reshape(stop - start, -1)
        nearest[start:stop] = order[:, :k]
    return nearest


def nearest_neighbors(train: LocationSet, pred, k: int) -> np.ndarray:
    """Indices of the k nearest training locations, ties by lower index."""
    pt = _as_point(pred, train.dimension)
    return _nearest(train.points, pt[None, :], k)[0]
