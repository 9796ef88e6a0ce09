"""Latent-GP binary classification benchmark on synthetic data.

Each test point is classified by kriging the +-1 labels of its k nearest
training neighbors and thresholding the predicted latent mean at zero.
Hyperparameters come from a leave-one-out grid search over nested subsets
of (nu, rho, omega2); the benchmark times the three subset searches on
shared splits to expose the cost/accuracy trade.

The search engine batches all per-point local systems, each keyed in
KrigingSystem.build's layout (its neighbors, then the query): their point
pairs are keyed and numbered in place, so the key table becomes its own
inverse into one distance table per training set, with kernel's one
distance sum, and each (nu, rho) prices that table once.
Each block of local systems is then gathered from those values once,
bordered by its cross rows and labels, and factored by linalg's jitter
ladder for every omega2 candidate of that (nu, rho), each system at the
rung its k x k system gets alone; the latent means are read off the
factors. No stack of all the systems is held, only one block per worker.
The fill and the gather-and-solve run in blocks of a fixed size that
never depends on the worker count, so every output is bitwise the same
on any machine and at any pool size. Each grid_search, classify or
loo_accuracy call opens its own thread pool (krigesense.parallel), sized
to the cores in the process's CPU affinity mask, and shuts it down before
returning, so no thread outlives the call.
Candidates are scored one after another.
"""

from __future__ import annotations

import ctypes
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import linalg, rng
from .kernel import MaternParams, ReducedParams, _check_params, _distances, \
    _distinct, matern_correlation, matern_covariance
from .kriging import _nearest
from .parallel import _in_chunks, _open_pool

__all__ = [
    "GENERATOR_PARAMS",
    "LabeledSet",
    "GridSpec",
    "TrialResult",
    "synth_dataset",
    "classify",
    "loo_accuracy",
    "grid_search",
    "run_benchmark",
]

# latent-field model behind the synthetic datasets
GENERATOR_PARAMS = MaternParams(sigma2=1.0, rho=0.7, nu=1.5, tau2=0.01)

_FIXED_RHO = 2.5
_FIXED_OMEGA2 = 0.01
_SUBSETS = ("nu_only", "nu_rho", "all")
# run_benchmark's datasets: feature dimension and held-out test points
_FEATURE_DIM = 2
_TEST_COUNT = 400

# the border diagonal (alpha, beta) of latent_means' bordered systems
_BORDER_ALPHA = 2.0
_BORDER_BETA = 1e200

# work per pool task: the fill prices this many distances, the gather and
# solve handles this many local systems; synth_dataset's covariance fill
# takes rows in blocks of about this many values too
_VALUES_PER_CHUNK = 16384
_SYSTEMS_PER_CHUNK = 50

# a plan whose pair keys stay below this (span**2 < _LUT_KEYS) numbers
# them through a lookup table of span**2 entries in place of a sort
_LUT_KEYS = 4_000_000

# glibc's malloc_trim, which returns the C heap's free pages to the OS, or
# None where the C library has none
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


@dataclass(frozen=True)
class LabeledSet:
    """Feature rows with +-1 labels; rows must be pairwise distinct."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError(f"features must be (m, q), got {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must be one per feature row")
        if not np.all(np.isin(labs, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        if np.unique(feats, axis=0).shape[0] != feats.shape[0]:
            raise ValueError("duplicate feature rows")
        feats = feats.copy()
        feats.setflags(write=False)
        labs = labs.astype(np.int64)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def _ten(lo: float, hi: float) -> Tuple[float, ...]:
    return tuple(float(v) for v in np.linspace(lo, hi, 10))


@dataclass(frozen=True)
class GridSpec:
    """Candidate values per parameter; inactive axes hold one fixed value.

    The canonical grids put 10 equispaced points on each active axis, so
    the subsets cost 10, 100, and 1000 candidate evaluations.
    """

    subset: str
    nu_values: Tuple[float, ...]
    rho_values: Tuple[float, ...]
    omega2_values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.subset not in _SUBSETS:
            raise ValueError(f"subset must be one of {_SUBSETS}")
        for name in ("nu", "rho", "omega2"):
            vals = tuple(float(v) for v in getattr(self, f"{name}_values"))
            if not vals:
                raise ValueError(f"{name}_values must be nonempty")
            object.__setattr__(self, f"{name}_values", vals)
        _check_params(nu=self.nu_values, rho=self.rho_values,
                      omega2=self.omega2_values)

    @classmethod
    def for_subset(cls, subset: str) -> "GridSpec":
        nu = _ten(0.01, 2.5)
        rho = _ten(0.01, 5.0) if subset in ("nu_rho", "all") else (_FIXED_RHO,)
        omega2 = _ten(0.001, 0.1) if subset == "all" else (_FIXED_OMEGA2,)
        return cls(subset=subset, nu_values=nu, rho_values=rho,
                   omega2_values=omega2)

    @property
    def size(self) -> int:
        return (len(self.nu_values) * len(self.rho_values)
                * len(self.omega2_values))


@dataclass(frozen=True)
class TrialResult:
    subset: str
    train_size: int
    accuracy: float
    wall_time: float
    evaluations: int
    iteration: int = 0


def synth_dataset(m: int, q: int, seed: int) -> LabeledSet:
    """Draw a labeled set from the latent-GP generator.

    Features are uniform on [0, 1]^q; the latent field is one draw from
    the GENERATOR_PARAMS Matern model over those features. Labels split
    the latent values at their median, which centers the draw and leaves
    exactly m/2 points per class. The m x m covariance is filled in
    blocks of whole rows, about _VALUES_PER_CHUNK entries each, so the
    fill holds no second table of its size; each entry carries the bits
    a whole-table fill gives it. The covariance is then factored in
    place, in blocks, by linalg._factor_blocked, so no work copy of it is
    made either. That factor is within roundoff of spd_factor's, not its
    bits, and the labels are those of the copying spd_factor route. The
    0.01 nugget keeps every eigenvalue above the ladder's rungs, so rung
    0 must succeed on every diagonal block, and the draw raises
    NotPositiveDefiniteError, never jitters, if it does not.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    feats = rng.stream(seed, 1).random((m, q))
    # Freed tables of earlier calls stay resident, and the small blocks a
    # caller keeps alive split that memory into pieces smaller than the
    # covariance, which then grows the heap instead (one more 1200 x 1200
    # table, 11 MiB, in some runs). With the free pages returned first,
    # the draw adds to the resident set what it touches, wherever its
    # tables land.
    if _malloc_trim is not None:
        _malloc_trim(0)
    cov = np.empty((m, m))
    block = max(1, _VALUES_PER_CHUNK // m)
    for start in range(0, m, block):
        rows = slice(start, start + block)
        cov[rows] = matern_covariance(_distances(feats[rows, None], feats),
                                      GENERATOR_PARAMS)

    def no_jitter(which):
        raise linalg.NotPositiveDefiniteError(
            "generator covariance did not factor at jitter rung 0")

    lower = linalg._factor_blocked(cov, no_jitter)
    latent = lower @ rng.stream(seed, 2).standard_normal(m)
    labels = np.where(latent - np.median(latent) > 0.0, 1, -1)
    return LabeledSet(features=feats, labels=labels)


def _pair_keys(nb: np.ndarray, query_ids: np.ndarray, span: int,
               pool: ThreadPoolExecutor) -> np.ndarray:
    """(nq, k + 1, k) keys min * span + max of every local system in
    KrigingSystem.build's layout, the k neighbors then the query: row j < k
    pairs neighbor j with each neighbor, row k pairs the query with them.
    Written in place block by block, int32 while span**2 fits, int64
    beyond. No view of the table outlives this call, so it is freed as
    soon as the caller drops it."""
    nq, k = nb.shape
    dtype = np.int32 if span * span < 2 ** 31 else np.int64
    keys = np.empty((nq, k + 1, k), dtype=dtype)
    rows = np.column_stack([nb, query_ids])[:, :, None]
    cols = nb[:, None, :]

    def build_keys(start: int, stop: int) -> None:
        a, b, out = rows[start:stop], cols[start:stop], keys[start:stop]
        np.multiply(np.minimum(a, b), span, out=out)
        out += np.maximum(a, b)

    _in_chunks(pool, build_keys, nq, _SYSTEMS_PER_CHUNK)
    return keys


def _key_inverse(keys: np.ndarray, span: int,
                 pool: ThreadPoolExecutor) -> tuple:
    """The sorted distinct keys of a _pair_keys table and an int32
    inverse of its shape, with unique[inverse] == keys.

    While span**2 < _LUT_KEYS, every key is marked in a lookup table of
    span**2 entries, the marked entries are numbered in order, and keys
    is overwritten with its inverse one _SYSTEMS_PER_CHUNK block at a
    time: the inverse returned is keys, and no second table of its size
    is held. Beyond that, kernel._distinct sorts.
    """
    if span * span >= _LUT_KEYS:
        return _distinct(keys)
    lut = np.zeros(span * span, dtype=np.int32)
    lut[keys] = 1
    unique = np.flatnonzero(lut)
    lut[unique] = np.arange(unique.size, dtype=np.int32)

    def invert(start: int, stop: int) -> None:
        block = keys[start:stop]
        block[...] = lut[block]

    _in_chunks(pool, invert, len(keys), _SYSTEMS_PER_CHUNK)
    return unique, keys


class _LocalPlan:
    """Precomputed neighbor structure for a (train, query, k) triple.

    Holds the k-nearest-neighbor table (kriging's neighbor rule: ties by
    lower training index), one deduplicated table of point-pair distances
    with int32 gather maps into it, the stacked neighbor labels, and one
    buffer for the correlations of that table. Points are the training
    rows plus m + i for held-out query i; a leave-one-out query is its own
    training row. Each system's pairs are keyed min-index first in
    KrigingSystem.build's (k + 1, k) layout by _pair_keys, and
    _key_inverse turns that key table into its own inverse, so every
    distinct pair, neighbor or cross, is priced once per (nu, rho);
    pair_inv and cross_inv are the views [:, :k] and [:, k] of that one
    inverse. Keys, not distance values, are deduplicated: that needs only
    the distinct pairs' distances, from kernel._distances, never all of
    them and a sort.

    Everything that does not depend on (nu, rho, omega2) happens here
    once. correlation(rho, nu) is one Matern fill over the distance
    table; latent_means(omega2) then gathers each block of systems from
    that fill and solves it for every omega2 asked, so every omega2
    candidate shares one fill and one gather. No (nq, k, k) stack is ever
    held. The fill and the blocks run on `pool`, which the caller keeps
    open for one whole search, in fixed blocks (_VALUES_PER_CHUNK
    distances or _SYSTEMS_PER_CHUNK systems), so the outputs are bitwise
    the same for any worker count.
    """

    def __init__(self, train: LabeledSet, query_features: np.ndarray,
                 k: int, exclude_self: bool,
                 pool: ThreadPoolExecutor) -> None:
        feats = train.features
        m = feats.shape[0]
        nq = query_features.shape[0]
        nb = _nearest(feats, query_features, k, exclude_self)
        if exclude_self:
            points, query_ids = feats, np.arange(nq)
        else:
            points = np.vstack([feats, query_features])
            query_ids = m + np.arange(nq)
        span = points.shape[0]

        unique_keys, inverse = _key_inverse(
            _pair_keys(nb, query_ids, span, pool), span, pool)
        self.pair_dist = _distances(points[unique_keys // span],
                                    points[unique_keys % span])
        self.pair_inv, self.cross_inv = inverse[:, :k], inverse[:, k]

        self.neighbor_labels = train.labels[nb].astype(float)
        self._pool = pool
        self._values = np.empty(self.pair_dist.size)

    def correlation(self, rho: float, nu: float) -> None:
        """Fill the distance table's correlations for (rho, nu)."""
        values = self._values

        def fill(start: int, stop: int) -> None:
            values[start:stop] = matern_correlation(
                self.pair_dist[start:stop], rho, nu)

        _in_chunks(self._pool, fill, values.size, _VALUES_PER_CHUNK)

    def latent_means(self, omega2) -> np.ndarray:
        """c^T A^-1 y of every local system of the last correlation, for
        one omega2 ((nq,)) or a sequence of them ((len(omega2), nq)).

        Each pool task gathers one block of systems A, cross rows c and
        labels y into bordered systems M = [[A, c, y], [c^T, alpha, 0],
        [y^T, 0, beta]], then per omega2 sets A's diagonal, which the
        correlation gives as exactly 1, to 1 + omega2 and factors a copy
        of the block by linalg._factor_in_place. Row k of M's factor L is
        (L_A^-1 c)^T, so the latent mean is -L[k + 1, k] * L[k, k] (L21 =
        B^T L11^-T; Golub & Van Loan, Matrix Computations, 4th ed., 4.2).
        M factors whenever A does, since alpha = 2 exceeds c^T A^-1 c <= 1
        of a correlation system, and beta feeds no entry that is read.
        The ladder's scale is A's mean diagonal alone (scale_over=k), so
        each system gets the jitter its k x k system gets alone. The copy
        keeps the block for the next omega2; the block is not checked,
        being symmetric and finite by construction.
        """
        omegas = np.atleast_1d(np.asarray(omega2, dtype=float))
        values, labels = self._values, self.neighbor_labels
        means = np.empty((omegas.size, len(labels)))
        k = labels.shape[1]
        diag = np.arange(k)

        # the inverses index values in range by construction; mode="clip"
        # skips the bounds check
        def solve(start: int, stop: int) -> None:
            bordered = np.empty((stop - start, k + 2, k + 2))
            np.take(values, self.pair_inv[start:stop], mode="clip",
                    out=bordered[:, :k, :k])
            np.take(values, self.cross_inv[start:stop], mode="clip",
                    out=bordered[:, k, :k])
            bordered[:, k + 1, :k] = labels[start:stop]
            bordered[:, :k, k:] = np.swapaxes(bordered[:, k:, :k], 1, 2)
            bordered[:, k:, k:] = ((_BORDER_ALPHA, 0.0), (0.0, _BORDER_BETA))
            for row, w in zip(means, omegas):
                bordered[:, diag, diag] = 1.0 + w
                lower = linalg._factor_in_place(
                    bordered.copy(), bordered.__getitem__, scale_over=k).lower
                row[start:stop] = -lower[:, k + 1, k] * lower[:, k, k]

        _in_chunks(self._pool, solve, len(labels), _SYSTEMS_PER_CHUNK)
        return means[0] if np.ndim(omega2) == 0 else means


def _signs(latent: np.ndarray) -> np.ndarray:
    """+-1 labels from latent means; an exact zero maps to +1."""
    return np.where(latent >= 0.0, 1, -1).astype(np.int64)


def _as_test_features(test_features, q: int) -> np.ndarray:
    feats = np.asarray(test_features, dtype=float)
    if feats.ndim == 1:
        feats = feats[None, :]
    if feats.ndim != 2 or feats.shape[1] != q:
        raise ValueError(
            f"test features must be (t, {q}), got {np.shape(test_features)}")
    if not np.all(np.isfinite(feats)):
        raise ValueError("test features must be finite")
    return feats


def classify(train: LabeledSet, test_features, params: ReducedParams,
             k: int) -> np.ndarray:
    """Label test points by the sign of the local kriged latent mean.

    An exact zero maps to +1. Neighbor ties are broken by lower training
    index, so the result does not depend on training-row order beyond
    that stated rule.
    """
    feats = _as_test_features(test_features, train.feature_dim)
    with _open_pool() as pool:
        plan = _LocalPlan(train, feats, k, exclude_self=False, pool=pool)
        plan.correlation(params.rho, params.nu)
        return _signs(plan.latent_means(params.omega2))


def loo_accuracy(train: LabeledSet, params: ReducedParams, k: int) -> float:
    """Fraction of training points recovered from their k nearest others."""
    with _open_pool() as pool:
        plan = _LocalPlan(train, train.features, k, exclude_self=True,
                          pool=pool)
        plan.correlation(params.rho, params.nu)
        latent = plan.latent_means(params.omega2)
    return float(np.mean(_signs(latent) == train.labels))


def grid_search(train: LabeledSet, grid: GridSpec,
                k: int) -> Tuple[ReducedParams, TrialResult]:
    """Score every candidate by LOO accuracy; ties return the mean point.

    The returned TrialResult carries the best LOO accuracy, the candidate
    count, and the wall time of the whole search.
    """
    started = time.perf_counter()
    best = -1.0
    tied: List[Tuple[float, float, float]] = []
    with _open_pool() as pool:
        plan = _LocalPlan(train, train.features, k, exclude_self=True,
                          pool=pool)
        for nu in grid.nu_values:
            for rho in grid.rho_values:
                plan.correlation(rho, nu)
                latents = plan.latent_means(grid.omega2_values)
                for omega2, latent in zip(grid.omega2_values, latents,
                                          strict=True):
                    score = float(np.mean(_signs(latent) == train.labels))
                    if score > best:
                        best = score
                        tied = [(rho, nu, omega2)]
                    elif score == best:
                        tied.append((rho, nu, omega2))
    chosen = np.mean(np.asarray(tied), axis=0)
    selected = ReducedParams(rho=float(chosen[0]), nu=float(chosen[1]),
                             omega2=float(chosen[2]))
    wall = time.perf_counter() - started
    trial = TrialResult(subset=grid.subset, train_size=train.count,
                        accuracy=best, wall_time=wall,
                        evaluations=grid.size)
    return selected, trial


def run_benchmark(train_sizes: Sequence[int] = (200, 400, 800),
                  iterations: int = 10, seed: int = 0, k: int = 50,
                  subsets: Sequence[str] = _SUBSETS) -> List[TrialResult]:
    """Time the subset searches on shared synthetic splits.

    Per iteration, one pooled dataset is drawn and split into a fixed
    test set (_TEST_COUNT points, one more if that makes the pool even)
    plus nested training sets (each smaller training set is a prefix of
    the larger one). Each emitted row covers one subset's full
    pipeline: grid search plus labeling the test set with the selected
    parameters. accuracy is test accuracy; wall_time is that pipeline's
    wall clock; evaluations is the subset's grid size. All three subsets
    run by default; subsets narrows the comparison.
    """
    sizes = sorted({int(s) for s in train_sizes})
    if not sizes or sizes[0] < 2:
        raise ValueError(f"train sizes must be >= 2, got {train_sizes}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    chosen = tuple(dict.fromkeys(subsets))
    unknown = [s for s in chosen if s not in _SUBSETS]
    if unknown or not chosen:
        raise ValueError(f"subsets must be drawn from {_SUBSETS}")
    active_subsets = tuple(s for s in _SUBSETS if s in chosen)

    pool_count = sizes[-1] + _TEST_COUNT
    if pool_count % 2 != 0:
        pool_count += 1
    held_out = pool_count - sizes[-1]

    # one throwaway search first, so lazy numpy/LAPACK setup is paid before
    # any timed trial instead of inside whichever subset happens to run first
    warm = synth_dataset(12, _FEATURE_DIM, seed=0)
    warm_grid = GridSpec(subset="nu_only", nu_values=(1.0,),
                         rho_values=(1.0,), omega2_values=(0.01,))
    warm_params, _ = grid_search(warm, warm_grid, k=3)
    classify(warm, warm.features[:2], warm_params, k=3)

    results: List[TrialResult] = []
    for iteration in range(iterations):
        data_seed = int(rng.stream(seed, 10, iteration).integers(2 ** 63))
        pool = synth_dataset(pool_count, _FEATURE_DIM, data_seed)
        order = rng.stream(seed, 11, iteration).permutation(pool_count)
        test_idx = order[:held_out]
        train_order = order[held_out:]
        test_features = pool.features[test_idx]
        test_labels = pool.labels[test_idx]
        for size in sizes:
            subset_idx = train_order[:size]
            train = LabeledSet(features=pool.features[subset_idx],
                               labels=pool.labels[subset_idx])
            k_eff = min(k, size - 1)
            for subset in active_subsets:
                started = time.perf_counter()
                selected, trial = grid_search(
                    train, GridSpec.for_subset(subset), k_eff)
                predicted = classify(train, test_features, selected, k_eff)
                wall = time.perf_counter() - started
                accuracy = float(np.mean(predicted == test_labels))
                results.append(TrialResult(
                    subset=subset, train_size=size, accuracy=accuracy,
                    wall_time=wall, evaluations=trial.evaluations,
                    iteration=iteration))
    return results
