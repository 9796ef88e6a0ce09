"""Latent-GP binary classification benchmark on synthetic data.

Each test point is classified by kriging the +-1 labels of its k nearest
training neighbors and thresholding the predicted latent mean at zero.
Hyperparameters come from a leave-one-out grid search over nested subsets
of (nu, rho, omega2); the benchmark times the three subset searches on
shared splits to expose the cost/accuracy trade.

The search engine batches all per-point local systems: neighbor pairs and
query-neighbor pairs are deduplicated into one distance table per
training set, each (nu, rho) combination prices that table once and
shares it across the omega2 candidates, and the stacked systems go
through one solve per candidate. The fill, the gather into the stack and
the solve run on one thread pool sized to the cores in the process's CPU
affinity mask, in blocks of a fixed size that never depends on the
worker count, so every output is bitwise the same on any machine and at
any pool size. Candidates are scored one after another.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from . import linalg, rng
from .kernel import MaternParams, ReducedParams, matern_correlation, \
    matern_covariance

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
    "worker_count",
]

# latent-field model behind the synthetic datasets
GENERATOR_PARAMS = MaternParams(sigma2=1.0, rho=0.7, nu=1.5, tau2=0.01)

_FIXED_RHO = 2.5
_FIXED_OMEGA2 = 0.01
_SUBSETS = ("nu_only", "nu_rho", "all")

# below this nugget ratio the stacked systems get an explicit
# positive-definiteness probe before the batched solve
_PD_PROBE_BELOW = 1e-6

# work per pool task: the fill prices this many distances, the gather and
# the solve handle this many local systems
_VALUES_PER_CHUNK = 16384
_SYSTEMS_PER_CHUNK = 50


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
        for name, values, zero_ok in (("nu", self.nu_values, False),
                                      ("rho", self.rho_values, False),
                                      ("omega2", self.omega2_values, True)):
            vals = tuple(float(v) for v in values)
            if not vals:
                raise ValueError(f"{name}_values must be nonempty")
            if not all(math.isfinite(v) and (v > 0.0 or (zero_ok and v == 0.0))
                       for v in vals):
                raise ValueError(f"invalid {name} value in {vals}")
            object.__setattr__(self, f"{name}_values", vals)

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

    def candidates(self) -> List[ReducedParams]:
        """All grid points, nu outermost, omega2 innermost."""
        return [ReducedParams(rho=r, nu=n, omega2=o)
                for n in self.nu_values
                for r in self.rho_values
                for o in self.omega2_values]


@dataclass(frozen=True)
class TrialResult:
    subset: str
    train_size: int
    accuracy: float
    wall_time: float
    evaluations: int
    iteration: int = 0


def synth_dataset(m: int, q: int, seed: int,
                  normalize: bool = False) -> LabeledSet:
    """Draw a labeled set from the latent-GP generator.

    Features are uniform on [0, 1]^q (optionally scaled to unit row
    norm); the latent field is one draw from the GENERATOR_PARAMS Matern
    model over those features. Labels split the latent values at their
    median, which centers the draw and leaves exactly m/2 points per
    class.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be even and >= 2, got {m}")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    feats = rng.stream(seed, 1).random((m, q))
    if normalize:
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        if not np.all(norms > 0.0):
            raise ArithmeticError("zero-norm feature row")
        feats = feats / norms
    cov = matern_covariance(cdist(feats, feats), GENERATOR_PARAMS)
    factor = linalg.spd_factor(cov)
    latent = factor.lower @ rng.stream(seed, 2).standard_normal(m)
    labels = np.where(latent - np.median(latent) > 0.0, 1, -1)
    return LabeledSet(features=feats, labels=labels)


def worker_count() -> int:
    """Size of the classifier's thread pool: the cores in this process's
    CPU affinity mask, or os.cpu_count() where there is no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _LazyPool:
    """The process-wide thread pool of worker_count() threads. It starts
    on the first submit, so importing the module starts no thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None

    def submit(self, fn, *args) -> Future:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=worker_count(),
                    thread_name_prefix="krigesense")
            return self._executor.submit(fn, *args)

    def forget(self) -> None:
        """Drop the executor in a forked child: the child inherits it
        without its threads, so work submitted to it would never run."""
        self._lock = threading.Lock()
        self._executor = None


_POOL = _LazyPool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOL.forget)


def _in_chunks(task: Callable[[int, int], None], total: int,
               size: int) -> None:
    """Run task(start, stop) over [0, total) in blocks of `size`.

    Block boundaries depend only on total and size, never on the pool, and
    every task writes its own slice, so results do not depend on the
    worker count. A single block runs inline.
    """
    if total <= size:
        task(0, total)
        return
    futures = [_POOL.submit(task, start, min(start + size, total))
               for start in range(0, total, size)]
    wait(futures)
    for future in futures:
        future.result()


class _LocalPlan:
    """Precomputed neighbor structure for a (train, query, k) triple.

    Holds the k-nearest-neighbor table (ties by lower training index), one
    deduplicated table of point-pair distances with int32 gather maps into
    it, the stacked neighbor labels, and reusable buffers. Points are the
    training rows plus m + i for held-out query i; a leave-one-out query is
    its own training row. Neighbor pairs (j, l) and cross pairs (query i,
    neighbor j) are both keyed min-index first in that one key space, so
    every distinct pair, of either kind, is priced once per (nu, rho).

    Everything that does not depend on (nu, rho, omega2) happens here
    once. Scoring a candidate is one Matern fill over the distance table,
    one gather into the (nq, k, k) systems and (nq, k) cross correlations,
    and one solve of the stack. Each of the three runs on the module's
    thread pool in fixed blocks (_VALUES_PER_CHUNK distances or
    _SYSTEMS_PER_CHUNK systems), so the outputs are bitwise the same for
    any worker count.
    """

    def __init__(self, train: LabeledSet, query_features: np.ndarray,
                 k: int, exclude_self: bool) -> None:
        feats = train.features
        m = feats.shape[0]
        nq = query_features.shape[0]
        dist = cdist(query_features, feats)
        order = np.argsort(dist, axis=1, kind="stable")
        if exclude_self:
            keep = order != np.arange(nq)[:, None]
            order = order[keep].reshape(nq, m - 1)
        nb = order[:, :k].astype(np.int64)
        del dist, order
        if exclude_self:
            points, query_ids = feats, np.arange(nq)
        else:
            points = np.vstack([feats, query_features])
            query_ids = m + np.arange(nq)
        span = points.shape[0]

        # pair keys of all systems, then cross keys, written in place block
        # by block so no full-size temporary exists
        keys = np.empty(nq * k * (k + 1), dtype=np.int64)
        pair_keys = keys[:nq * k * k].reshape(nq, k, k)
        cross_keys = keys[nq * k * k:].reshape(nq, k)

        def key(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
            np.multiply(np.minimum(a, b), span, out=out)
            out += np.maximum(a, b)

        def build_keys(start: int, stop: int) -> None:
            block = nb[start:stop]
            key(block[:, :, None], block[:, None, :], pair_keys[start:stop])
            key(query_ids[start:stop, None], block, cross_keys[start:stop])

        _in_chunks(build_keys, nq, _SYSTEMS_PER_CHUNK)
        if span * span <= 4_000_000:
            seen = np.zeros(span * span, dtype=bool)
            seen[keys] = True
            unique_keys = np.flatnonzero(seen)
            lut = np.empty(span * span, dtype=np.int32)
            lut[unique_keys] = np.arange(len(unique_keys), dtype=np.int32)
            inverse = lut[keys]
        else:
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            inverse = inverse.astype(np.int32)
        del keys
        diff = points[unique_keys // span] - points[unique_keys % span]
        self.pair_dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        self.pair_inv = inverse[:nq * k * k].reshape(nq, k, k)
        self.cross_inv = inverse[nq * k * k:].reshape(nq, k)

        self.neighbor_labels = train.labels[nb].astype(float)
        self.k = k
        self._values = np.empty(self.pair_dist.size)
        self._system_buffer = np.empty((nq, k, k))
        self._cross_buffer = np.empty((nq, k))
        self._solved = np.empty((nq, k))
        self._diag = np.arange(k)

    def correlation(self, rho: float, nu: float
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fill the shared buffers with the correlation for (rho, nu)."""
        values = self._values

        def fill(start: int, stop: int) -> None:
            values[start:stop] = matern_correlation(
                self.pair_dist[start:stop], rho, nu)

        def gather(start: int, stop: int) -> None:
            np.take(values, self.pair_inv[start:stop],
                    out=self._system_buffer[start:stop])
            np.take(values, self.cross_inv[start:stop],
                    out=self._cross_buffer[start:stop])

        _in_chunks(fill, values.size, _VALUES_PER_CHUNK)
        _in_chunks(gather, len(self._cross_buffer), _SYSTEMS_PER_CHUNK)
        return self._system_buffer, self._cross_buffer

    def latent_means(self, systems: np.ndarray, cross: np.ndarray,
                     omega2: float) -> np.ndarray:
        """Solve every local system at this omega2 and return w . y.

        The correlation diagonal is exactly 1, so the system diagonal is
        rewritten to 1 + omega2 in place for each candidate. The stacked
        matrices are positive definite by construction once omega2
        clears roundoff scale; below that a Cholesky probe of the whole
        stack walks the jitter ladder first, and every system gets the
        first rung at which the whole stack factors.
        """
        base = 1.0 + omega2
        probe = omega2 < _PD_PROBE_BELOW
        if probe:
            for scale in linalg.JITTER_LADDER:
                systems[:, self._diag, self._diag] = base + scale * base
                try:
                    np.linalg.cholesky(systems)
                    break
                except np.linalg.LinAlgError:
                    continue
            else:
                raise linalg.NotPositiveDefiniteError(
                    "local kriging systems not positive definite")
        solved = self._solved

        def solve(start: int, stop: int) -> None:
            block = systems[start:stop]
            if not probe:
                block[:, self._diag, self._diag] = base
            solved[start:stop] = np.linalg.solve(
                block, self.neighbor_labels[start:stop, :, None])[:, :, 0]

        _in_chunks(solve, len(solved), _SYSTEMS_PER_CHUNK)
        return np.einsum("nk,nk->n", cross, solved)


def _check_k(k: int, limit: int, what: str) -> None:
    if not 1 <= k <= limit:
        raise ValueError(f"k must be in [1, {limit}] for {what}, got {k}")


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
    _check_k(k, train.count, "classify")
    feats = _as_test_features(test_features, train.feature_dim)
    plan = _LocalPlan(train, feats, k, exclude_self=False)
    systems, cross = plan.correlation(params.rho, params.nu)
    latent = plan.latent_means(systems, cross, params.omega2)
    return np.where(latent >= 0.0, 1, -1).astype(np.int64)


def _loo_score(plan: _LocalPlan, labels: np.ndarray, systems, cross,
               omega2: float) -> float:
    latent = plan.latent_means(systems, cross, omega2)
    predicted = np.where(latent >= 0.0, 1, -1)
    return float(np.mean(predicted == labels))


def loo_accuracy(train: LabeledSet, params: ReducedParams, k: int) -> float:
    """Fraction of training points recovered from their k nearest others."""
    _check_k(k, train.count - 1, "leave-one-out")
    plan = _LocalPlan(train, train.features, k, exclude_self=True)
    systems, cross = plan.correlation(params.rho, params.nu)
    return _loo_score(plan, train.labels, systems, cross, params.omega2)


def grid_search(train: LabeledSet, grid: GridSpec,
                k: int) -> Tuple[ReducedParams, TrialResult]:
    """Score every candidate by LOO accuracy; ties return the mean point.

    The returned TrialResult carries the best LOO accuracy, the candidate
    count, and the wall time of the whole search.
    """
    _check_k(k, train.count - 1, "grid search")
    started = time.perf_counter()
    plan = _LocalPlan(train, train.features, k, exclude_self=True)
    labels = train.labels
    best = -1.0
    tied: List[Tuple[float, float, float]] = []
    evaluations = 0
    for nu in grid.nu_values:
        for rho in grid.rho_values:
            systems, cross = plan.correlation(rho, nu)
            for omega2 in grid.omega2_values:
                score = _loo_score(plan, labels, systems, cross, omega2)
                evaluations += 1
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
                        evaluations=evaluations)
    return selected, trial


def run_benchmark(train_sizes: Sequence[int] = (200, 400, 800),
                  iterations: int = 10, seed: int = 0, k: int = 50,
                  q: int = 2, test_count: int = 400,
                  subsets: Sequence[str] = _SUBSETS) -> List[TrialResult]:
    """Time the subset searches on shared synthetic splits.

    Per iteration, one pooled dataset is drawn and split into a fixed
    test set plus nested training sets (each smaller training set is a
    prefix of the larger one). Each emitted row covers one subset's full
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
    if test_count < 1:
        raise ValueError(f"test_count must be >= 1, got {test_count}")
    chosen = tuple(dict.fromkeys(subsets))
    unknown = [s for s in chosen if s not in _SUBSETS]
    if unknown or not chosen:
        raise ValueError(f"subsets must be drawn from {_SUBSETS}")
    active_subsets = tuple(s for s in _SUBSETS if s in chosen)

    pool_count = sizes[-1] + test_count
    if pool_count % 2 != 0:
        pool_count += 1
    held_out = pool_count - sizes[-1]

    # one throwaway search first, so lazy numpy/LAPACK setup is paid before
    # any timed trial instead of inside whichever subset happens to run first
    warm = synth_dataset(12, q, seed=0)
    warm_grid = GridSpec(subset="nu_only", nu_values=(1.0,),
                         rho_values=(1.0,), omega2_values=(0.01,))
    warm_params, _ = grid_search(warm, warm_grid, k=3)
    classify(warm, warm.features[:2], warm_params, k=3)

    results: List[TrialResult] = []
    for iteration in range(iterations):
        data_seed = int(rng.stream(seed, 10, iteration).integers(2 ** 63))
        pool = synth_dataset(pool_count, q, data_seed)
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
