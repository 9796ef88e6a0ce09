"""Small dense SPD factorization, solves, and symmetric eigenvalues.

The factorization wraps LAPACK Cholesky inside a jitter ladder so that
kernel matrices that are PSD-but-numerically-singular (nugget-free smooth
kernels) still factor; the ladder scales are relative to the mean
diagonal. One factor or a factored stack is solved by the same forward
and back substitution, elementwise across the stack. Eigenvalues of the
p <= 8 matrices the collinearity index needs, one matrix or a stack, come
from LAPACK's symmetric eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    """Solve (A + jitter I) x = rhs from an SpdFactor: rhs is (n,) for one
    factor and (N, n) for a factored stack of N, one row per system.

    One factor is a stack of one. The forward (L z = rhs) and back
    (L^T x = z) substitutions go column by column over a copy of the
    factor with the stack axis last, so every step is one elementwise
    operation across the stack on contiguous rows, and a system solved
    in a stack of any size gives the bits it gives alone.
    """
    lower = factor.lower
    stacked = lower.ndim == 3
    n = factor.dimension
    want = (lower.shape[0], n) if stacked else (n,)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != want:
        raise ValueError(
            f"rhs shape {rhs.shape} does not match {want}, the shape the "
            f"factor of shape {lower.shape} solves")
    if not stacked:
        lower, rhs = lower[None], rhs[None]
    # (n, n, N) and (n, N): entry (i, j) of every system in one row
    factors = np.moveaxis(lower, 0, -1).copy()
    x = rhs.T.copy()
    for j in range(n):
        x[j] /= factors[j, j]
        x[j + 1:] -= factors[j + 1:, j] * x[j]
    for j in range(n - 1, -1, -1):
        x[j] /= factors[j, j]
        x[:j] -= factors[j, :j] * x[j]
    solved = np.ascontiguousarray(x.T)
    return solved if stacked else solved[0]


def sym_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix, sorted nonincreasing; an
    (..., p, p) stack gives (..., p), each matrix checked on its own."""
    a = _require_symmetric(matrix)
    if a.shape[-1] > 8:
        raise ValueError(
            f"sym_eigenvalues supports p <= 8, got {a.shape[-1]}")
    return np.linalg.eigvalsh(a)[..., ::-1].copy()
