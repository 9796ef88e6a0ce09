"""Small dense SPD factorization, solves, and symmetric eigenvalues.

The factorization wraps LAPACK Cholesky inside a jitter ladder so that
kernel matrices that are PSD-but-numerically-singular (nugget-free smooth
kernels) still factor; the ladder scales are relative to the mean
diagonal. spd_factor takes one matrix or a stack, checks its input once,
where it enters, and factors a copy in place by one routine, which the
kriging systems also use. One factor or a factored stack is solved by
the same forward and back substitution, elementwise across the stack.
One large matrix can instead be factored in place in square blocks,
which holds no work copy of it. Eigenvalues of one symmetric matrix or a
stack come from LAPACK's symmetric eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg


class NotPositiveDefiniteError(Exception):
    """Raised when the jitter ladder cannot make a matrix factorable."""


JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

# rows per diagonal block of _factor_blocked; its largest temporary is
# (m, _FACTOR_BLOCK)
_FACTOR_BLOCK = 64

__all__ = [
    "SpdFactor",
    "NotPositiveDefiniteError",
    "JITTER_LADDER",
    "spd_factor",
    "spd_solve",
    "sym_eigenvalues",
]


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor of (matrix + jitter_used * I): lower (n, n) and
    a float jitter_used for one matrix, (N, n, n) and (N,) for a stack."""

    lower: np.ndarray
    jitter_used: float | np.ndarray


def _require_symmetric(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    # one square matrix or an (..., n, n) stack, each checked on its own
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    # max |a| as max(max a, -min a), and |a - a^T| in place: the same
    # values without two full-size temporaries
    scale = np.maximum(1.0, np.maximum(a.max(axis=(-2, -1)),
                                       -a.min(axis=(-2, -1))))
    asymmetry = a - np.swapaxes(a, -1, -2)
    np.abs(asymmetry, out=asymmetry)
    if np.any(asymmetry.max(axis=(-2, -1)) > tol * scale):
        raise ValueError("matrix is not symmetric within 1e-12")
    return a


def spd_factor(matrix: np.ndarray) -> SpdFactor:
    """Cholesky with an escalating diagonal jitter ladder, of one square
    symmetric matrix or an (N, n, n) stack of them.

    Ladder scales are multiples of each matrix's mean diagonal: 0, 1e-12,
    1e-10, 1e-8. jitter_used records the absolute jitter that succeeded.
    A stack is checked once and factored on a copy, one batched Cholesky
    per rung; each system gets the factor and jitter_used it gets alone,
    and the first system the whole ladder cannot fix raises
    NotPositiveDefiniteError. Stacks inside the package go through
    _factor_in_place: a benchmark tracer wraps this name and reads
    jitter_used as one float.
    """
    a = _require_symmetric(matrix)
    if a.ndim > 3:
        raise ValueError(f"one square matrix or an (N, n, n) stack "
                         f"required, got shape {a.shape}")
    stack = a if a.ndim == 3 else a[None]
    factor = _factor_in_place(stack.copy(), stack.__getitem__)
    if a.ndim == 3:
        return factor
    return SpdFactor(lower=factor.lower[0],
                     jitter_used=float(factor.jitter_used[0]))


def _cholesky_or_nan(stack: np.ndarray, out=None) -> np.ndarray:
    """Lower Cholesky factor of every matrix of an (N, n, n) stack, by the
    gufunc np.linalg.cholesky calls, without its raise: a matrix that
    does not factor comes back filled with NaN. out=stack factors the
    stack in place."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore",
                     under="ignore"):
        return _umath_linalg.cholesky_lo(stack, signature="d->d", out=out)


def _failed(lower: np.ndarray) -> np.ndarray:
    """Which factors of a stack hold a NaN; row i of a factor feeds its
    diagonal entry i, so the diagonal shows it."""
    return np.isnan(np.diagonal(lower, axis1=-2, axis2=-1)).any(axis=-1)


def _factor_in_place(stack: np.ndarray, rebuild,
                     scale_over: int | None = None) -> SpdFactor:
    """Factor an assembled (N, n, n) stack of symmetric, finite systems in
    place at rung 0. rebuild(indices) gives those systems again as
    assembled; only the failed ones are rebuilt and go up the rungs
    above 0, each with its own jitter (the rung's scale times its own
    mean diagonal), those that still fail going on to the next rung. The
    mean diagonal is taken over the first scale_over diagonal entries
    (all n by default), so a system bordered by extra rows and columns
    can be jittered as its leading block alone would be. The first
    system the whole ladder cannot fix raises NotPositiveDefiniteError."""
    lower = _cholesky_or_nan(stack, out=stack)
    jitter = np.zeros(len(lower))
    failing = np.flatnonzero(_failed(lower))
    if failing.size:
        pending = rebuild(failing)
        diagonal = np.diagonal(pending, axis1=-2, axis2=-1)[:, :scale_over]
        mean_diag = np.mean(diagonal, axis=-1)
        eye = np.eye(pending.shape[-1])
        for scale in JITTER_LADDER[1:]:
            rung = scale * mean_diag
            attempt = _cholesky_or_nan(pending + rung[:, None, None] * eye)
            done = ~_failed(attempt)
            lower[failing[done]] = attempt[done]
            jitter[failing[done]] = rung[done]
            failing, pending, mean_diag = (
                failing[~done], pending[~done], mean_diag[~done])
            if not failing.size:
                break
        else:
            raise NotPositiveDefiniteError(
                f"matrix not positive definite after jitter ladder "
                f"{JITTER_LADDER} x mean diagonal {float(mean_diag[0])!r}")
    return SpdFactor(lower=lower, jitter_used=jitter)


def _factor_blocked(a: np.ndarray, rebuild) -> np.ndarray:
    """Lower Cholesky factor of one symmetric (m, m) matrix, written over
    a and returned, by the right-looking blocked algorithm (Golub & Van
    Loan, Matrix Computations, 4th ed., 4.2) in _FACTOR_BLOCK-row blocks.

    Each diagonal block goes through _factor_in_place at rung 0; rebuild
    is called, as there, if one fails, and must raise, since a jittered
    block is no block of a factor of a. The panel below the block is then
    solved against the block's factor, by one product with the factor's
    inverse, and the trailing lower triangle is updated one block column
    at a time, so no temporary is larger than (m, _FACTOR_BLOCK). Only
    the lower triangle is read; the upper one is zeroed.
    """
    m = a.shape[0]
    for start in range(0, m, _FACTOR_BLOCK):
        stop = min(start + _FACTOR_BLOCK, m)
        _factor_in_place(a[None, start:stop, start:stop], rebuild)
        a[start:stop, stop:] = 0.0
        # L21 = A21 L11^-T, then A22 -= L21 L21^T by block columns
        panel = a[stop:, start:stop]
        panel[...] = panel @ np.linalg.inv(a[start:stop, start:stop]).T
        for col in range(stop, m, _FACTOR_BLOCK):
            rows = panel[col - stop:]
            a[col:, col:col + _FACTOR_BLOCK] -= (
                rows @ rows[:_FACTOR_BLOCK].T)
    return a


def spd_solve(factor: SpdFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + jitter I) x = rhs from an SpdFactor: rhs is (n,) for one
    factor and (N, n) for a factored stack of N, one row per system.

    One factor is a stack of one. The forward (L z = rhs) and back
    (L^T x = z) substitutions go column by column over strided views of
    the factor with the stack axis last, read where the factor lies, so
    no copy of the stack is made; every step is one elementwise
    operation across the stack, and a system solved in a stack of any
    size gives the bits it gives alone.
    """
    lower = factor.lower
    stacked = lower.ndim == 3
    n = lower.shape[-1]
    want = (lower.shape[0], n) if stacked else (n,)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != want:
        raise ValueError(
            f"rhs shape {rhs.shape} does not match {want}, the shape the "
            f"factor of shape {lower.shape} solves")
    if not stacked:
        lower, rhs = lower[None], rhs[None]
    # an (n, n, N) view of the factor and an (n, N) copy of rhs: entry
    # (i, j) of every system in one row
    factors = np.moveaxis(lower, 0, -1)
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
    """Eigenvalues of a symmetric matrix, sorted nonincreasing; an
    (..., p, p) stack gives (..., p), each matrix checked on its own."""
    a = _require_symmetric(matrix)
    return np.linalg.eigvalsh(a)[..., ::-1].copy()
