"""Local sensitivity matrices and the collinearity index.

The index gamma = 1 / sqrt(min eigenvalue of S^T S) is evaluated on a
column-normalized sensitivity matrix; gamma near 1 means the parameters
act on the output in nearly orthogonal directions, large gamma means some
combination of them is locally unidentifiable. The (nu, rho) scan maps
gamma over the smoothness/range plane for two outputs: the correlation
curve seen from the prediction point and the kriging weight vector. The
grid is priced in blocks of whole nu rows, at least _SCAN_BLOCK_CELLS
cells each: the finite-difference thetas of a block are one stack of
kriging systems, whose prediction rows are the correlation curves and
whose solves are the weights, and the block's gammas come from one
stacked eigenvalue call per output. Every step works per system, so a
cell's gammas do not depend on the block it is priced in, and the
blocks are priced concurrently on one thread pool per scan.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import linalg
from .kernel import ReducedParams, study_grid
from .kriging import KrigingSystem
from .parallel import _in_chunks, _open_pool

__all__ = [
    "UndefinedCollinearityError",
    "CollinearityCell",
    "GAMMA_CAP",
    "band_of",
    "local_sensitivities",
    "collinearity_index",
    "collinearity_scan",
]

GAMMA_CAP = 1e12

_REL_STEP = 1e-5

_SCAN_OMEGA2 = 0.001
_SCAN_GRID, _SCAN_POINT = study_grid(1)
# a scan prices whole nu rows together until a block holds this many
# cells: a small scan takes few calls, and a res-100 row (100 cells, 400
# systems) stays one block, so the default scan's memory does not change
_SCAN_BLOCK_CELLS = 64


class UndefinedCollinearityError(ValueError):
    """Raised when a sensitivity matrix has an all-zero column."""


@dataclass(frozen=True)
class CollinearityCell:
    nu: float
    rho: float
    gamma_correlation: float
    gamma_weights: float
    band: str


def band_of(gamma: float) -> str:
    """identifiable below 10, borderline on [10, 20], collinear above;
    failed for the NaN gamma of a cell that could not be evaluated, which
    fails every comparison."""
    if gamma < 10.0:
        return "identifiable"
    if gamma <= 20.0:
        return "borderline"
    if gamma > 20.0:
        return "collinear"
    return "failed"


def _central_differences(f: Callable[[np.ndarray], np.ndarray],
                         theta: np.ndarray) -> np.ndarray:
    """(f(theta + h_j e_j) - f(theta - h_j e_j)) / (2 h_j) for every j,
    with h_j = _REL_STEP * max(|theta_j|, 1e-3). theta is (..., p); f maps
    (m, p) points to (m, outputs); the result is (..., outputs, p)."""
    h = _REL_STEP * np.maximum(np.abs(theta), 1e-3)
    step = h[..., None] * np.eye(theta.shape[-1])
    base = theta[..., None, :]
    points = np.stack([base + step, base - step], axis=-2)
    values = f(points.reshape(-1, theta.shape[-1]))
    values = values.reshape(points.shape[:-1] + (-1,))
    diff = (values[..., 0, :] - values[..., 1, :]) / (2.0 * h[..., None])
    return np.swapaxes(diff, -1, -2)


def local_sensitivities(f: Callable[[np.ndarray], np.ndarray],
                        theta) -> np.ndarray:
    """Central-difference sensitivity matrix of f at theta, (outputs, p).

    Step for parameter j is _REL_STEP * max(|theta_j|, 1e-3), so steps
    stay sensible for parameters near zero.
    """
    base = np.asarray(theta, dtype=float).reshape(-1)
    if base.size == 0 or not np.all(np.isfinite(base)):
        raise ValueError("theta must be a finite nonempty vector")

    def each_point(points: np.ndarray) -> np.ndarray:
        values = [np.atleast_1d(np.asarray(f(pt), dtype=float))
                  for pt in points]
        if values[0].ndim != 1 or any(v.shape != values[0].shape
                                      for v in values):
            raise ValueError("f must return a fixed-length vector")
        return np.stack(values)

    return _central_differences(each_point, base)


def _gammas(entries: np.ndarray
            ) -> Tuple[np.ndarray, List[Optional[Exception]]]:
    """gamma for every matrix of an (N, m, p) stack of sensitivities, each
    column scaled to unit Euclidean norm first. The stack is taken in C
    order, so a column's norm sums in the same order in any stack. A
    matrix with a non-finite entry or an all-zero column gets NaN, and
    the exception that says why in the returned list (None for the
    others)."""
    entries = np.ascontiguousarray(entries, dtype=float)
    norms = np.linalg.norm(entries, axis=-2)
    zero = norms == 0.0
    with np.errstate(invalid="ignore"):  # inf / inf: reported as non-finite
        unit = entries / np.where(zero, 1.0, norms)[..., None, :]
    finite = np.isfinite(unit).all(axis=(-2, -1))
    good = finite & ~zero.any(axis=-1)
    reasons: List[Optional[Exception]] = [None] * len(unit)
    for i in np.flatnonzero(~good):
        reasons[i] = (ValueError("entries must be finite") if not finite[i]
                      else UndefinedCollinearityError(
                          "all-zero sensitivity column(s) "
                          f"{tuple(np.flatnonzero(zero[i]).tolist())}: "
                          "collinearity is undefined"))
    cells = unit[good]
    smallest = linalg.sym_eigenvalues(
        np.swapaxes(cells, -1, -2) @ cells)[..., -1]
    floor = 1.0 / (GAMMA_CAP * GAMMA_CAP)
    gammas = np.full(len(unit), np.nan)
    gammas[good] = np.where(
        smallest <= floor, GAMMA_CAP,
        np.clip(1.0 / np.sqrt(np.maximum(smallest, floor)), 1.0, GAMMA_CAP))
    return gammas, reasons


def collinearity_index(entries) -> float:
    """gamma = 1 / sqrt(smallest eigenvalue of S^T S), in [1, 1e12], with
    S the (m, p) sensitivity matrix entries scaled to unit columns."""
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("entries must be 2-D with at least one column, "
                         f"got shape {arr.shape}")
    gammas, reasons = _gammas(arr[None])
    if reasons[0] is not None:
        raise reasons[0]
    return float(gammas[0])


def _scan_outputs(points: np.ndarray) -> np.ndarray:
    """Correlation curve and kriging weights side by side for (m, 2)
    points of (nu, rho), from one stack of m kriging systems: the curve
    seen from the prediction point is each system's cross row."""
    nu, rho = points.T
    system = KrigingSystem.build(
        _SCAN_GRID, _SCAN_POINT,
        ReducedParams(rho=rho, nu=nu, omega2=_SCAN_OMEGA2))
    return np.hstack([system.cross[system.rows], system.weights()])


def _scan_gammas(thetas: np.ndarray) -> list:
    """(gamma_correlation, gamma_weights, reason) for the scan cell at each
    of the (N, 2) (nu, rho) thetas; both gammas are NaN where either is
    undefined, and reason is then the first exception that says why."""
    entries = _central_differences(_scan_outputs, thetas)
    split = _SCAN_GRID.count
    (g_corr, corr_reasons), (g_wts, wts_reasons) = (
        _gammas(part) for part in (entries[:, :split], entries[:, split:]))
    reasons = [a if a is not None else b
               for a, b in zip(corr_reasons, wts_reasons)]
    failed = np.array([r is not None for r in reasons], dtype=bool)
    g_corr[failed] = g_wts[failed] = np.nan
    return list(zip(g_corr, g_wts, reasons))


def collinearity_scan(grid_nu=(0.01, 2.5), grid_rho=(0.01, 5.0),
                      resolution: int = 100) -> List[CollinearityCell]:
    """gamma over a (nu, rho) grid for both scan outputs.

    Every cell carries gamma for the correlation curve and for the
    kriging weights (fixed omega2 = 0.001, 20-point 1-D grid, prediction
    at 0.5); band is the correlation curve's band. Cells that fail to
    evaluate get NaN gammas and band "failed"; failures are collected and
    reported as a warning instead of aborting the scan. Cell order is
    row-major in (nu index, rho index). Consecutive nu rows form one
    block until it holds at least _SCAN_BLOCK_CELLS cells (a res-12 scan
    is two blocks of six rows, a res-100 row is a block of its own); a
    block is one stack of 4 systems per cell, and its gammas come from
    one stacked eigenvalue call per output. A block where that raises is
    priced again cell by cell, so a failure stays with its own cell.
    Blocks are priced concurrently on a thread pool opened for this call
    (one block runs inline) and put together in block order, so cells
    and the warning do not depend on the pool size.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    for name, (lo, hi) in (("grid_nu", tuple(grid_nu)),
                           ("grid_rho", tuple(grid_rho))):
        if not (0.0 < lo < hi):
            raise ValueError(f"{name} must satisfy 0 < lo < hi, got {lo},{hi}")

    nus = np.linspace(grid_nu[0], grid_nu[1], resolution)
    rhos = np.linspace(grid_rho[0], grid_rho[1], resolution)

    def price(start: int, stop: int) -> tuple:
        thetas = np.column_stack([np.repeat(nus[start:stop], resolution),
                                  np.tile(rhos, stop - start)])
        try:
            return thetas, _scan_gammas(thetas)
        except Exception:  # noqa: BLE001 - priced again cell by cell
            block = []
            for theta in thetas:
                try:
                    block += _scan_gammas(theta[None])
                except Exception as exc:  # noqa: BLE001 - per-cell aggregation
                    block.append((np.nan, np.nan, exc))
            return thetas, block

    with _open_pool() as pool:
        blocks = _in_chunks(pool, price, resolution,
                            -(-_SCAN_BLOCK_CELLS // resolution))
    failures: List[str] = []
    cells = []
    for thetas, block in blocks:
        for nu, rho, (g_corr, g_wts, reason) in zip(*thetas.T, block,
                                                    strict=True):
            if reason is not None:
                failures.append(f"(nu={nu:.6g}, rho={rho:.6g}): {reason!r}")
            cells.append(CollinearityCell(
                nu=float(nu), rho=float(rho), gamma_correlation=float(g_corr),
                gamma_weights=float(g_wts), band=band_of(g_corr)))
    if failures:
        warnings.warn(
            f"{len(failures)} scan cell(s) failed; first: {failures[0]}",
            RuntimeWarning, stacklevel=2)
    return cells
