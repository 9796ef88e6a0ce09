"""Global sensitivity of kriging weights and variance over standard ranges.

Total-effect Sobol indices come from the Jansen pick-freeze estimator on
paired i.i.d. sample matrices; a separate Latin hypercube sample
normalizes by the response variance. The kriging-weights response treats
the training-location index as one more input ("x"), a uniform discrete
factor, so the weight vector is analyzed as a functional response without
ever emulating it.
Responses take a matrix of sample rows at a time, and the study
responses price its rows as one stack of kriging systems. A pick-freeze
hybrid A_B^i equals A outside column i, so sobol_total hands f the same
base rows of every matrix in one call, and the kriging stack prices each
distinct (rho, nu) and factors each distinct (rho, nu, omega2) once: the
location factor's hybrid repeats A's systems exactly, and omega2's
repeats A's correlations. The calls run two at a time on one thread
pool per study, and their responses are put together in block order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import rng
from .kernel import ReducedParams, _check_params, study_grid
from .kriging import KrigingSystem, kriging_weights
from .parallel import _in_chunks, _open_pool

__all__ = [
    "UndefinedSharesError",
    "ParamBox",
    "SobolResult",
    "DEFAULT_RANGES",
    "FIXED_OMEGA2_CHOICES",
    "lhs_sample",
    "response_weights",
    "response_variance",
    "study_grid",
    "sobol_total",
    "run_study",
]

# hyperparameter ranges of the study box, in canonical column order
DEFAULT_RANGES: Tuple[Tuple[str, float, float], ...] = (
    ("sigma2", 0.1, 5.0),
    ("rho", 0.01, 5.0),
    ("nu", 0.01, 2.5),
    ("omega2", 0.001, 0.1),
)

FIXED_OMEGA2_CHOICES = (0.0, 0.001, 0.01, 0.1)

_BOOTSTRAP_REPLICATES = 200
_BOOTSTRAP_BLOCK = 25
# each response call in flight holds its own factored kriging stack
# (about 0.7 MB for a 1-D study at n = 256), so at most this many run at
# once and a study's memory does not grow with the host's core count
_CALLS_IN_FLIGHT = 2


class UndefinedSharesError(ArithmeticError):
    """Raised when the total variance or the index sum is not positive."""


@dataclass(frozen=True)
class ParamBox:
    """Named ranges of the active parameters."""

    ranges: Tuple[Tuple[str, float, float], ...]

    def __post_init__(self) -> None:
        ranges = tuple((str(n), float(lo), float(hi))
                       for n, lo, hi in self.ranges)
        names = [n for n, _, _ in ranges]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        for n, lo, hi in ranges:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"degenerate range for {n}: [{lo}, {hi}]")
        object.__setattr__(self, "ranges", ranges)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(n for n, _, _ in self.ranges)

    @property
    def size(self) -> int:
        return len(self.ranges)


@dataclass(frozen=True)
class SobolResult:
    """Total-effect indices and their percent shares, per input.

    replicates_kept counts the bootstrap replicates behind the halfwidths:
    a replicate whose resampled variance or index sum is not positive is
    dropped."""

    inputs: Tuple[str, ...]
    total_index: np.ndarray
    percent_share: np.ndarray
    bootstrap_halfwidth: np.ndarray
    base_count: int
    evaluations: int
    replicates_kept: int

    def share_of(self, name: str) -> float:
        return float(self.percent_share[self.inputs.index(name)])

    def halfwidth_of(self, name: str) -> float:
        return float(self.bootstrap_halfwidth[self.inputs.index(name)])


def lhs_sample(count: int, box: ParamBox, seed: int) -> np.ndarray:
    """Latin hypercube design over the active box, one point per stratum.

    Each column independently permutes the strata and jitters uniformly
    inside each one, then scales to [min, max].
    """
    p = box.size
    if count < max(p, 1):
        raise ValueError(f"count must be >= {max(p, 1)}, got {count}")
    g = rng.stream(seed)
    out = np.empty((count, p))
    for j, (_, lo, hi) in enumerate(box.ranges):
        strata = g.permutation(count)
        jitter = g.random(count)
        out[:, j] = lo + (hi - lo) * (strata + jitter) / count
    return out


def response_weights(params: ReducedParams, location_index,
                     grid_dimension: int = 1):
    """The location_index-th kriging weight on the study grid.

    The grids are the fixed study layouts (20-point 1-D grid with the
    prediction at 0.5; 16-point 2-D lattice with the prediction at the
    center). A float for scalar parameters; for (N,) parameter arrays,
    location_index holds one index per row and an (N,) array comes back.
    An index must be a whole number inside the grid.
    """
    idx = np.asarray(location_index).astype(int)
    if np.any(idx != location_index):
        raise ValueError(f"location_index {location_index} is not an integer")
    train, point = study_grid(grid_dimension)
    w = kriging_weights(train, point, params)
    if np.any((idx < 0) | (idx >= w.shape[-1])):
        raise ValueError(
            f"location_index {location_index} outside [0, {w.shape[-1]})")
    picked = np.take_along_axis(w, idx[..., None], axis=-1)[..., 0]
    return float(picked) if picked.ndim == 0 else picked


def response_variance(sigma2, rho, nu, omega2, grid_dimension: int = 1):
    """Kriging variance at the study prediction point, with omega2 the
    nugget ratio as sampled (the system is built from (rho, nu, omega2),
    never from tau2 = omega2 * sigma2). Scalars give a float, (N,)
    arrays an (N,) array."""
    train, point = study_grid(grid_dimension)
    (sigma2,) = _check_params(sigma2=sigma2)
    system = KrigingSystem.build(
        train, point, ReducedParams(rho=rho, nu=nu, omega2=omega2))
    return system.variance(sigma2)


def _evaluate(f: Callable[[np.ndarray], np.ndarray], matrices: np.ndarray,
              labels) -> np.ndarray:
    """f's responses to a (k, n, p) stack of sample matrices, as (k, n).

    f is called on row-aligned blocks: each call holds the same
    ceil(n / k) base rows of every matrix, stacked matrix by matrix, so a
    row and its copies in the other matrices always share a call, and
    there are at most k calls of about n rows each. The calls run
    concurrently, at most _CALLS_IN_FLIGHT at a time, on a thread pool
    opened for this call; every response is
    checked, and the first error in block order is raised once all calls
    are done, so it is the error a call-by-call loop would raise."""
    count, n, p = matrices.shape

    def call(start: int, stop: int) -> np.ndarray:
        rows = matrices[:, start:stop].reshape(-1, p)
        got = np.asarray(f(rows), dtype=float)
        if got.shape != (len(rows),):
            raise ValueError(
                f"f must give one response per row, got shape {got.shape} "
                f"for {len(rows)} rows")
        got = got.reshape(count, -1)
        bad = ~np.isfinite(got)
        if bad.any():
            matrix, row = np.argwhere(bad)[0]
            raise ArithmeticError(
                f"non-finite response value in {labels[matrix]} sample, "
                f"row {start + row}")
        return got

    with _open_pool(most=_CALLS_IN_FLIGHT) as pool:
        return np.concatenate(_in_chunks(pool, call, n, -(-n // count)),
                              axis=1)


def _balanced_indices(count: int, n_levels: int,
                      g: np.random.Generator) -> np.ndarray:
    reps = -(-count // n_levels)
    pool = np.tile(np.arange(n_levels), reps)[:count]
    return g.permutation(pool).astype(float)


def sobol_total(f: Callable[[np.ndarray], np.ndarray], box: ParamBox,
                base_count: int = 1024, seed: int = 0,
                location_count: Optional[int] = None) -> SobolResult:
    """Jansen pick-freeze total-effect indices of f over the box.

    f maps an (m, p) matrix of sample rows to its m responses, one per
    row; a row holds the active parameters in box order, then the
    location index when location_count is given. The rows of A, of every
    hybrid A_B^i (A with column i from B) and of the Latin hypercube
    sample go to f in row-aligned blocks: each call holds the same
    ceil(N / (p + 2)) base rows of A, then of each A_B^i in input order,
    then of the Latin hypercube sample, so row r of A_B^i shares a call
    with row r of A, which it equals outside column i, and a response
    that prices each distinct row once can skip the copies. f is called
    from pool threads, two calls at a time, on disjoint blocks that may
    finish in any order, so it must be safe to call concurrently and its
    responses must not depend on the order of its calls or on state kept
    between them. An error for a non-finite
    response names the matrix and row of the first bad value in the first
    call, in block order, that has one. Indices use
    T_i = sum((f(A) - f(A_B^i))^2) / (2 N varhat), with varhat taken from
    an independent Latin hypercube sample; 200 bootstrap resamples give a
    95% halfwidth on the percent-share scale (replicates with a
    non-positive resampled variance or index sum are dropped and counted
    in replicates_kept). Cost is exactly
    base_count * (p + 2) response evaluations, in at most p + 2 calls
    of f of about base_count rows each.
    """
    if base_count < 256:
        raise ValueError(f"base_count must be >= 256, got {base_count}")
    names = list(box.names)
    if location_count is not None:
        if location_count < 1:
            raise ValueError("location_count must be >= 1")
        names.append("x")
    p = len(names)
    if p == 0:
        raise ValueError("no active inputs")
    n = base_count

    lows = np.array([lo for _, lo, _ in box.ranges])
    highs = np.array([hi for _, _, hi in box.ranges])

    def draw_matrix(g: np.random.Generator) -> np.ndarray:
        cont = g.uniform(lows, highs, size=(n, box.size))
        if location_count is None:
            return cont
        x_col = g.integers(0, location_count, n).astype(float)
        return np.column_stack([cont, x_col])

    a = draw_matrix(rng.stream(seed, 1))
    b = draw_matrix(rng.stream(seed, 2))
    hybrids = np.repeat(a[None], p, axis=0)
    for i in range(p):
        hybrids[i, :, i] = b[:, i]

    var_rows = lhs_sample(n, box, seed)
    if location_count is not None:
        x_col = _balanced_indices(n, location_count, rng.stream(seed, 3))
        var_rows = np.column_stack([var_rows, x_col])

    values = _evaluate(f, np.concatenate([a[None], hybrids, var_rows[None]]),
                       ["A", *(f"A_B^{name}" for name in names), "variance"])
    f_a, f_var = values[0], values[-1]
    squared = (f_a - values[1:-1]) ** 2
    var_hat = float(np.var(f_var, ddof=1))
    if var_hat <= 0.0:
        raise UndefinedSharesError("response variance estimate is zero")

    totals = squared.mean(axis=1) / (2.0 * var_hat)
    total_sum = float(totals.sum())
    if total_sum <= 0.0:
        raise UndefinedSharesError("total-effect indices sum to zero")
    shares = 100.0 * totals / total_sum

    # replicates are priced a block at a time; in C order each replicate
    # draws its column resample and then its variance resample, the order
    # of one integers(0, n, n) call per resample, so the stream and the
    # halfwidths do not depend on the block size
    g_boot = rng.stream(seed, 4)
    replicate_shares = []
    for start in range(0, _BOOTSTRAP_REPLICATES, _BOOTSTRAP_BLOCK):
        count = min(_BOOTSTRAP_BLOCK, _BOOTSTRAP_REPLICATES - start)
        draws = g_boot.integers(0, n, (count, 2, n))
        var_b = np.var(f_var[draws[:, 1]], axis=1, ddof=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a zero resampled variance gives inf or nan here; kept drops it
            totals_b = squared[:, draws[:, 0]].mean(axis=2) / (2.0 * var_b)
            sum_b = totals_b.sum(axis=0)
        kept = (var_b > 0.0) & (sum_b > 0.0)
        replicate_shares.append((100.0 * totals_b[:, kept] / sum_b[kept]).T)
    stacked = np.vstack(replicate_shares)
    if not len(stacked):
        raise UndefinedSharesError("all bootstrap replicates degenerate")
    lo_q, hi_q = np.percentile(stacked, [2.5, 97.5], axis=0)
    halfwidth = 0.5 * (hi_q - lo_q)

    return SobolResult(
        inputs=tuple(names),
        total_index=totals,
        percent_share=shares,
        bootstrap_halfwidth=halfwidth,
        base_count=n,
        evaluations=n * (p + 2),
        replicates_kept=len(stacked),
    )


def run_study(grid_dimension: int = 1, response: str = "weights",
              omega2: Optional[float] = None, sample_budget: int = 1024,
              seed: int = 0) -> SobolResult:
    """One study row: wire the response and active inputs, run sobol_total.

    response is "weights" or "prediction_variance". omega2 None varies
    the nugget ratio over its DEFAULT_RANGES range; otherwise it is held
    at that value, one of FIXED_OMEGA2_CHOICES, and is not an input.
    Active inputs, in order: sigma2 (variance response only), rho, nu,
    omega2 (when varied), and the location factor x (weights response
    only). study_grid checks grid_dimension, and sobol_total checks
    sample_budget, its base_count.
    """
    if response not in ("weights", "prediction_variance"):
        raise ValueError(f"unknown response {response!r}")
    if omega2 is not None and omega2 not in FIXED_OMEGA2_CHOICES:
        raise ValueError(f"fixed omega2 must be one of "
                         f"{FIXED_OMEGA2_CHOICES}, got {omega2}")
    variance = response == "prediction_variance"
    active = (["sigma2"] if variance else []) + ["rho", "nu"]
    if omega2 is None:
        active.append("omega2")
    box = ParamBox(ranges=tuple(r for r in DEFAULT_RANGES if r[0] in active))

    train, _ = study_grid(grid_dimension)
    positions = {name: j for j, name in enumerate(active)}

    def f(rows: np.ndarray) -> np.ndarray:
        rho, nu = rows[:, positions["rho"]], rows[:, positions["nu"]]
        nugget = rows[:, positions["omega2"]] if omega2 is None else omega2
        if variance:
            return response_variance(rows[:, positions["sigma2"]], rho, nu,
                                     nugget, grid_dimension)
        params = ReducedParams(rho=rho, nu=nu, omega2=nugget)
        return response_weights(params, rows[:, len(active)].astype(int),
                                grid_dimension)

    return sobol_total(f, box, base_count=sample_budget, seed=seed,
                       location_count=None if variance else train.count)
