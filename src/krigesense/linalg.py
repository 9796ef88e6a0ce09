"""Small dense SPD factorization, solves, and symmetric eigenvalues.

The factorization wraps LAPACK Cholesky inside a jitter ladder so that
kernel matrices that are PSD-but-numerically-singular (nugget-free smooth
kernels) still factor; the ladder scales are relative to the mean
diagonal. Eigenvalues of the p <= 8 matrices the collinearity index needs,
one matrix or a stack, come from LAPACK's symmetric eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class NotPositiveDefiniteError(Exception):
    """Raised when the jitter ladder cannot make a matrix factorable."""


JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

__all__ = [
    "SpdFactor",
    "NotPositiveDefiniteError",
    "JITTER_LADDER",
    "spd_factor",
    "spd_factor_stack",
    "spd_solve",
    "sym_eigenvalues",
]


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor of (matrix + jitter_used * I), or of a stack."""

    dimension: int
    lower: np.ndarray
    jitter_used: float


def _require_symmetric(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    # one square matrix or an (..., n, n) stack, each checked on its own
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    asymmetry = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1))
    if np.any(asymmetry > tol * scale):
        raise ValueError("matrix is not symmetric within 1e-12")
    return a


def spd_factor(matrix: np.ndarray) -> SpdFactor:
    """Cholesky with an escalating diagonal jitter ladder.

    Ladder scales are multiples of the mean diagonal: 0, 1e-12, 1e-10,
    1e-8. jitter_used records the absolute jitter that succeeded.
    """
    a = _require_symmetric(matrix)
    if a.ndim != 2:
        raise ValueError(f"one square matrix required, got shape {a.shape}")
    n = a.shape[0]
    mean_diag = float(np.mean(np.diag(a))) if n else 0.0
    for scale in JITTER_LADDER:
        jitter = scale * mean_diag
        try:
            attempt = a if jitter == 0.0 else a + jitter * np.eye(n)
            lower = np.linalg.cholesky(attempt)
        except np.linalg.LinAlgError:
            continue
        return SpdFactor(dimension=n, lower=lower, jitter_used=jitter)
    raise NotPositiveDefiniteError(
        f"matrix not positive definite after jitter ladder {JITTER_LADDER} "
        f"x mean diagonal {mean_diag!r}")


def spd_factor_stack(stack: np.ndarray) -> SpdFactor:
    """Factor an (N, n, n) stack of symmetric matrices by one batched
    Cholesky. Only a stack where that raises walks spd_factor's jitter
    ladder system by system, which gives a system that factors at rung 0
    the same factor."""
    stack = np.asarray(stack, dtype=float)
    try:
        lower = np.linalg.cholesky(stack)
        jitter = np.zeros(stack.shape[0])
    except np.linalg.LinAlgError:
        factors = [spd_factor(matrix) for matrix in stack]
        lower = np.stack([f.lower for f in factors])
        jitter = np.array([f.jitter_used for f in factors])
    return SpdFactor(dimension=stack.shape[-1], lower=lower,
                     jitter_used=jitter)


def spd_solve(factor: SpdFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + jitter I) x = rhs from an SpdFactor; a factored stack
    takes one right-hand side per system, (N, n).

    A stack is not one batched LAPACK call: scipy's batch wrapper around
    cho_solve loops over the systems in Python, about 7-8 us each on
    20-point systems (scipy 1.17.1).
    """
    rhs = np.asarray(rhs, dtype=float)
    stacked = factor.lower.ndim == 3
    size = rhs.shape[-1] if stacked else rhs.shape[0]
    if size != factor.dimension:
        raise ValueError(
            f"rhs dimension {size} != factor dimension {factor.dimension}")
    if stacked:
        return scipy.linalg.cho_solve((factor.lower, True), rhs[..., None],
                                      check_finite=False)[..., 0]
    return scipy.linalg.cho_solve((factor.lower, True), rhs,
                                  check_finite=False)


def sym_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix, sorted nonincreasing; an
    (..., p, p) stack gives (..., p), each matrix checked on its own."""
    a = _require_symmetric(matrix)
    if a.shape[-1] > 8:
        raise ValueError(
            f"sym_eigenvalues supports p <= 8, got {a.shape[-1]}")
    return np.linalg.eigvalsh(a)[..., ::-1].copy()
