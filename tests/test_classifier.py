"""Tests for the latent-GP classification benchmark components."""

import itertools
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from krigesense import classifier, linalg, parallel, rng
from krigesense.classifier import (GENERATOR_PARAMS, GridSpec, LabeledSet,
                                   TrialResult, classify, grid_search,
                                   loo_accuracy, run_benchmark, synth_dataset)
from krigesense.kernel import (LocationSet, MaternParams, ReducedParams,
                               _distances, matern_correlation,
                               matern_covariance)
from krigesense.kriging import kriging_weights
from oracles import kriging_latent_mean_mp

TRUE_PARAMS = GENERATOR_PARAMS.reduced()


def cluster_set(seed: int = 7) -> LabeledSet:
    """Two tight, well-separated clusters labeled by membership."""
    g = rng.stream(seed)
    a = g.random((10, 2)) * 0.2
    b = g.random((10, 2)) * 0.2 + 3.0
    return LabeledSet(features=np.vstack([a, b]),
                      labels=np.array([1] * 10 + [-1] * 10))


# ------------------------------------------------------------------ data


def test_synth_smoke_shapes_and_balance():
    data = synth_dataset(10, 2, seed=0)
    assert data.features.shape == (10, 2)
    assert data.count == 10 and data.feature_dim == 2
    assert np.all((data.features >= 0.0) & (data.features <= 1.0))
    assert set(np.unique(data.labels)) <= {-1, 1}
    assert abs(int(data.labels.sum())) <= 1


def test_synth_deterministic_and_seed_sensitive():
    a = synth_dataset(24, 3, seed=5)
    b = synth_dataset(24, 3, seed=5)
    c = synth_dataset(24, 3, seed=6)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


@given(q=st.integers(2, 5), block=st.sampled_from([1, 7, None]),
       general=st.booleans(), data=st.data())
def test_covariance_row_blocks_equal_whole_table_rows(q, block, general,
                                                      data):
    # synth_dataset fills its covariance a block of rows at a time; every
    # block must carry the bits of the same rows of a whole-table fill,
    # for the generator's closed form and a general order with a nugget
    params = (MaternParams(sigma2=1.7, rho=0.4, nu=1.3, tau2=0.2)
              if general else GENERATOR_PARAMS)
    m = data.draw(st.integers(1, 30))
    x = data.draw(arrays(np.float64, (m, q), elements=st.floats(0.0, 1.0)))
    whole = matern_covariance(_distances(x[:, None], x), params)
    block = block or m
    for start in range(0, m, block):
        rows = slice(start, start + block)
        got = matern_covariance(_distances(x[rows, None], x), params)
        assert got.tobytes() == whole[rows].tobytes()


def test_synth_dataset_traced_peak(traced_peak):
    # the 1200 x 1200 covariance is filled a block of rows at a time into
    # one table and factored in place in 64-row blocks, with no temporary
    # above 1200 x 64: 12.4 MB traced peak and no untraced work copy, where
    # a copying spd_factor peaked at 23.1 MB and a whole-table in-place
    # factor held an untraced 11.5 MB gufunc work copy besides
    # (tracemalloc, numpy 2.4.6)
    assert traced_peak(lambda: synth_dataset(1200, 2, seed=3)) < 14_000_000


def copying_route(m: int, q: int, seed: int):
    """Features, factor and labels of synth_dataset's draw by a copying
    spd_factor of the whole covariance."""
    feats = rng.stream(seed, 1).random((m, q))
    factor = linalg.spd_factor(
        matern_covariance(_distances(feats[:, None], feats), GENERATOR_PARAMS))
    assert factor.jitter_used == 0.0
    latent = factor.lower @ rng.stream(seed, 2).standard_normal(m)
    labels = np.where(latent - np.median(latent) > 0.0, 1, -1)
    return feats, factor.lower, labels


@pytest.mark.parametrize("m, q", [(40, 2), (300, 3), (1200, 2)])
def test_synth_dataset_matches_copying_spd_factor(m, q, monkeypatch):
    # the draw factors its covariance in place in blocks, one rung-0
    # Cholesky per diagonal block, to within roundoff of spd_factor's
    # factor, and its features and labels are the copying route's
    seed = m + q
    feats, lower, labels = copying_route(m, q, seed)
    rung_zero, factors = [], []
    cholesky, blocked = linalg._cholesky_or_nan, linalg._factor_blocked

    def counted(stack, out=None):
        rung_zero.append((stack.shape, out is stack))
        return cholesky(stack, out=out)

    def recorded(a, rebuild):
        factors.append(blocked(a, rebuild).copy())
        return factors[-1]

    monkeypatch.setattr(linalg, "_cholesky_or_nan", counted)
    monkeypatch.setattr(linalg, "_factor_blocked", recorded)
    data = synth_dataset(m, q, seed)
    block = linalg._FACTOR_BLOCK
    sizes = [min(block, m - start) for start in range(0, m, block)]
    assert rung_zero == [((1, b, b), True) for b in sizes]
    assert len(factors) == 1
    assert np.max(np.abs(factors[0] - lower)) <= 1e-12
    assert np.array_equal(data.features, feats)
    assert np.array_equal(data.labels, labels)


# the 1200-point pools of perfbench's first three seed-0 classify-nu-rho
# ops (seed = op) and of criterion 9's first iteration (800 training plus
# 400 test points)
@pytest.mark.parametrize("seed", [0, 1, 2, int(
    rng.stream(0, 10, 0).integers(2 ** 63))])
def test_benchmark_draws_keep_the_copying_routes_labels(seed):
    feats, _, labels = copying_route(1200, 2, seed)
    data = synth_dataset(1200, 2, seed)
    assert np.array_equal(data.features, feats)
    assert np.array_equal(data.labels, labels)


def test_synth_dataset_raises_when_rung_zero_fails(monkeypatch):
    monkeypatch.setattr(linalg, "_cholesky_or_nan",
                        lambda stack, out=None: np.full_like(stack, np.nan))
    with pytest.raises(linalg.NotPositiveDefiniteError):
        synth_dataset(10, 2, seed=0)


def test_synth_dataset_returns_free_heap_first(monkeypatch):
    # the draw gives the C heap's free pages back before its m x m tables,
    # and its bits do not depend on it
    calls = []
    monkeypatch.setattr(classifier, "_malloc_trim",
                        lambda pad: calls.append(pad) or 1)
    data = synth_dataset(40, 2, seed=1)
    assert calls == [0]
    monkeypatch.setattr(classifier, "_malloc_trim", None)
    again = synth_dataset(40, 2, seed=1)
    assert again.features.tobytes() == data.features.tobytes()
    assert again.labels.tobytes() == data.labels.tobytes()


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_dataset(11, 2, seed=0)
    with pytest.raises(ValueError):
        synth_dataset(0, 2, seed=0)
    with pytest.raises(ValueError):
        synth_dataset(10, 1, seed=0)


def test_synth_generator_recovers_its_own_labels():
    # classify a held-out half with the true generating parameters; the
    # generating model should top 0.9 accuracy on its own draws (measured
    # 0.952 at this seed; 0.900 and 0.940 at the two adjacent seeds)
    data = synth_dataset(500, 2, seed=1)
    train = LabeledSet(features=data.features[:250],
                       labels=data.labels[:250])
    predicted = classify(train, data.features[250:], TRUE_PARAMS, k=50)
    accuracy = float(np.mean(predicted == data.labels[250:]))
    assert accuracy >= 0.9


def test_labeled_set_validation():
    with pytest.raises(ValueError):
        LabeledSet(features=np.zeros((3, 2)),
                   labels=np.array([1, -1, 1]))  # duplicate rows
    with pytest.raises(ValueError):
        LabeledSet(features=np.random.default_rng(0).random((3, 2)),
                   labels=np.array([1, 0, -1]))
    with pytest.raises(ValueError):
        LabeledSet(features=np.random.default_rng(0).random((3, 2)),
                   labels=np.array([1, -1]))
    data = synth_dataset(6, 2, seed=0)
    assert not data.features.flags.writeable
    assert not data.labels.flags.writeable


# -------------------------------------------------------------- classify


def test_classify_coincident_point_returns_label():
    data = synth_dataset(40, 2, seed=3)
    params = ReducedParams(rho=0.7, nu=1.5, omega2=1e-6)
    for i in (0, 7, 21):
        got = classify(data, data.features[i], params, k=10)
        assert got.shape == (1,)
        assert got[0] == data.labels[i]


def test_classify_full_k_matches_dense_kriging():
    data = synth_dataset(16, 2, seed=4)
    params = ReducedParams(rho=0.7, nu=1.5, omega2=0.01)
    test_features = rng.stream(44).random((5, 2))
    got = classify(data, test_features, params, k=16)
    train_locs = LocationSet(data.features)
    for j in range(5):
        w = kriging_weights(train_locs, test_features[j], params)
        mean = float(w @ data.labels)
        assert got[j] == (1 if mean >= 0.0 else -1)


def test_classify_training_order_invariant():
    data = synth_dataset(30, 2, seed=9)
    params = ReducedParams(rho=1.0, nu=1.0, omega2=0.01)
    test_features = rng.stream(45).random((10, 2))
    base = classify(data, test_features, params, k=8)
    perm = rng.stream(46).permutation(30)
    shuffled = LabeledSet(features=data.features[perm],
                          labels=data.labels[perm])
    assert np.array_equal(classify(shuffled, test_features, params, k=8),
                          base)


def test_classify_validation():
    data = synth_dataset(10, 2, seed=0)
    params = ReducedParams(1.0, 1.0, 0.01)
    with pytest.raises(ValueError):
        classify(data, data.features[:2], params, k=0)
    with pytest.raises(ValueError):
        classify(data, data.features[:2], params, k=11)
    with pytest.raises(ValueError):
        classify(data, np.zeros((2, 3)), params, k=3)
    with pytest.raises(ValueError):
        classify(data, np.array([[0.1, np.nan]]), params, k=3)


# ------------------------------------------------------------------- LOO


def test_loo_separable_clusters_perfect():
    clusters = cluster_set()
    acc = loo_accuracy(clusters, ReducedParams(1.0, 1.5, 0.01), k=3)
    assert acc == 1.0


def test_loo_shuffled_labels_near_chance():
    data = synth_dataset(200, 2, seed=5)
    labels = rng.stream(99).permutation(data.labels)
    shuffled = LabeledSet(features=data.features, labels=labels)
    acc = loo_accuracy(shuffled, TRUE_PARAMS, k=20)
    # chance level with 4 sigma binomial slack at m=200
    assert 0.35 <= acc <= 0.65


def test_loo_deterministic_and_bounds():
    data = synth_dataset(30, 2, seed=1)
    params = ReducedParams(1.0, 1.0, 0.01)
    assert loo_accuracy(data, params, k=5) == loo_accuracy(data, params, k=5)
    with pytest.raises(ValueError):
        loo_accuracy(data, params, k=30)


# ------------------------------------------------------------ local plan


def neighbor_table(train, query, k, loo):
    """k nearest training rows per query, ties by lower index, self
    dropped in leave-one-out."""
    order = np.argsort(cdist(query, train.features), axis=1, kind="stable")
    if loo:
        order = np.array([row[row != i] for i, row in enumerate(order)])
    return order[:, :k]


def plain_latent_means(train, query, k, loo, params):
    """Reference: cdist, matern_correlation over the full (nq, k, k) and
    (nq, k) distances, one solve of the whole stack, then w . y."""
    nb = neighbor_table(train, query, k, loo)
    feats = train.features
    systems = matern_correlation(np.stack([cdist(feats[row], feats[row])
                                           for row in nb]),
                                 params.rho, params.nu)
    cross = matern_correlation(cdist(query, feats)[np.arange(len(nb))[:, None],
                                                   nb],
                               params.rho, params.nu)
    systems = systems + params.omega2 * np.eye(k)
    # no jitter rung: the plan's probe must stop at the first (zero) rung
    np.linalg.cholesky(systems)
    solved = np.linalg.solve(systems, train.labels[nb].astype(float)[..., None])
    return np.einsum("nk,nk->n", cross, solved[:, :, 0])


def latent_from_plan(train, query, k, loo, params):
    with ThreadPoolExecutor(max_workers=parallel.worker_count()) as pool:
        plan = classifier._LocalPlan(train, query, k, exclude_self=loo,
                                     pool=pool)
        plan.correlation(params.rho, params.nu)
        return plan.latent_means(params.omega2)


def small_chunks(monkeypatch):
    # uneven blocks that split every stage of a small plan many times
    monkeypatch.setattr(classifier, "_VALUES_PER_CHUNK", 97)
    monkeypatch.setattr(classifier, "_SYSTEMS_PER_CHUNK", 7)


CHUNK = classifier._SYSTEMS_PER_CHUNK


@pytest.mark.parametrize("loo", [True, False])
@pytest.mark.parametrize("count", [CHUNK // 2, 2 * CHUNK + 7])
@pytest.mark.parametrize("omega2", [0.01, 0.0])
@pytest.mark.parametrize("chunks", ["default", "small"])
def test_local_plan_latent_means_match_plain_solve(loo, count, omega2,
                                                   chunks, monkeypatch):
    if chunks == "small":
        small_chunks(monkeypatch)
    # a stack of `count` systems: LOO over `count` training rows, or
    # `count` held-out queries against 80 training rows
    data = synth_dataset(count + 80 + count % 2, 3, seed=count)
    split = count if loo else count + count % 2
    train = LabeledSet(features=data.features[:split] if loo
                       else data.features[split:],
                       labels=data.labels[:split] if loo
                       else data.labels[split:])
    query = train.features if loo else data.features[:count]
    params = ReducedParams(rho=0.3, nu=0.8, omega2=omega2)
    want = plain_latent_means(train, query, 12, loo, params)
    got = latent_from_plan(train, query, 12, loo, params)
    assert got.shape == (len(query),)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_latent_means_match_30_digit_oracle_on_ill_conditioned_systems():
    # seed 5, m = 800, k = 50, nu = 2.5, omega2 = 0.001: per rho, the three
    # systems whose latent mean cancels most (sum |c_i x_i| / |c^T x| from
    # 5.9e6 to 9.0e7) against a 30-digit solve of the same float64 inputs.
    # Worst relative error measured (numpy 2.4.6, OpenBLAS 0.3.31): 2.1e-9
    # for the bordered factor; 1.1e-9 for the LU solve plus dot it
    # replaced, which the bordered factor beat on the other five
    data = synth_dataset(800, 2, seed=5)
    k, nu, omega2 = 50, 2.5, 0.001
    with ThreadPoolExecutor(max_workers=2) as pool:
        plan = classifier._LocalPlan(data, data.features, k,
                                     exclude_self=True, pool=pool)
        for rho in (4.4, 5.0):
            plan.correlation(rho, nu)
            got = plan.latent_means(omega2)
            systems = plan._values[plan.pair_inv]
            systems[:, np.arange(k), np.arange(k)] = 1.0 + omega2
            cross, labels = plan._values[plan.cross_inv], plan.neighbor_labels
            terms = cross * np.linalg.solve(systems, labels[..., None])[..., 0]
            cancel = np.abs(terms).sum(axis=1) / np.abs(terms.sum(axis=1))
            for i in np.argsort(cancel)[-3:]:
                want = kriging_latent_mean_mp(systems[i], cross[i], labels[i])
                assert abs(got[i] - want) <= 4e-9 * abs(want)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("loo", [True, False])
def test_local_plan_gathers_cdist_correlations_exactly(q, loo, monkeypatch):
    # the plan's distance table comes from kernel._distances, the same
    # floating-point sum as cdist in any dimension, so the gathered values
    # are exact
    small_chunks(monkeypatch)
    data = synth_dataset(160, q, seed=11)
    train = LabeledSet(features=data.features[:120],
                       labels=data.labels[:120])
    query = train.features if loo else data.features[120:]
    k, rho, nu = 9, 0.4, 1.3
    nb = neighbor_table(train, query, k, loo)
    rows = np.arange(len(query))[:, None]
    with ThreadPoolExecutor(max_workers=2) as pool:
        plan = classifier._LocalPlan(train, query, k, exclude_self=loo,
                                     pool=pool)
        plan.correlation(rho, nu)
    systems, cross = plan._values[plan.pair_inv], plan._values[plan.cross_inv]
    assert np.array_equal(
        cross, matern_correlation(cdist(query, train.features)[rows, nb],
                                  rho, nu))
    feats = train.features
    assert np.array_equal(
        systems, matern_correlation(
            np.stack([cdist(feats[row], feats[row]) for row in nb]), rho, nu))
    assert np.array_equal(plan.neighbor_labels, train.labels[nb])


def test_pair_keys_switch_to_int64_once_span_squared_passes_int32():
    # span**2 is 2,147,395,600 < 2**31 at 46,340 and 2.5e9 at 50,000; the
    # largest keys, near span**2, then overflow int32
    for span, dtype in ((46_340, np.int32), (50_000, np.int64)):
        nb = np.array([[0, span - 1, 7], [span - 2, 3, span - 1]],
                      dtype=np.intp)
        query_ids = np.array([span - 3, 1], dtype=np.intp)
        with ThreadPoolExecutor(max_workers=2) as pool:
            keys = classifier._pair_keys(nb, query_ids, span, pool)
        assert keys.dtype == dtype
        rows = np.column_stack([nb, query_ids]).astype(np.int64)[:, :, None]
        cols = nb.astype(np.int64)[:, None, :]
        want = np.minimum(rows, cols) * span + np.maximum(rows, cols)
        assert np.array_equal(keys, want)
        check_key_inverse(keys, span)


def check_key_inverse(keys: np.ndarray, span: int) -> None:
    """_key_inverse of a copy of keys gives np.unique's distinct keys and
    inverse, as int32, and below the lookup table's limit it is that
    copy, overwritten."""
    want_unique, want_inverse = np.unique(keys, return_inverse=True)
    table = keys.copy()
    with ThreadPoolExecutor(max_workers=2) as pool:
        unique, inverse = classifier._key_inverse(table, span, pool)
    assert (inverse is table) == (span * span < classifier._LUT_KEYS)
    assert inverse.dtype == np.int32 and inverse.shape == keys.shape
    assert np.array_equal(unique[inverse], keys)
    assert np.array_equal(unique, want_unique)
    assert np.array_equal(inverse, want_inverse.reshape(keys.shape))


@given(span=st.integers(1, 40) | st.sampled_from([1999, 2000, 2001]),
       data=st.data())
def test_key_inverse_matches_np_unique(span, data):
    # small spans number their keys through the lookup table in place;
    # from span**2 = _LUT_KEYS on the sort takes over, and at 2001 the
    # keys fall on both sides of _LUT_KEYS
    top = span * span
    near = min(top, classifier._LUT_KEYS)
    elements = (st.sampled_from([0, top - 1]) | st.integers(0, top - 1)
                | st.integers(max(0, near - 40), min(top, near + 40) - 1))
    nq = data.draw(st.integers(1, 2 * CHUNK + 7))
    k = data.draw(st.integers(1, 3))
    check_key_inverse(
        data.draw(arrays(np.int32, (nq, k + 1, k), elements=elements)), span)


def test_local_plan_init_traced_peak(traced_peak):
    # int32 pair keys (8.2 MB at m=800, k=50) overwritten with their own
    # inverse and neighbor rows sorted in blocks, with no (800, 50, 50)
    # system buffer: 12.7 MB traced peak, where a separate inverse beside
    # the keys peaked at 19.8 MB, and int64 keys, a whole-table neighbor
    # sort and that buffer at 27.9 MB (tracemalloc, numpy 2.4.6)
    train = synth_dataset(800, 2, seed=1)
    with ThreadPoolExecutor(max_workers=2) as pool:
        peak = traced_peak(lambda: classifier._LocalPlan(
            train, train.features, 50, exclude_self=True, pool=pool))
    assert peak < 22_000_000


def test_grid_search_traced_peak(traced_peak):
    # each worker gathers and solves one 50-system block at a time, so a
    # search holds no (800, 50, 50) stack: 13.5 MB traced peak (19.8 MB
    # with a separate pair-key inverse), where a whole gathered stack
    # peaked at 28.2 MB (tracemalloc, numpy 2.4.6)
    train = synth_dataset(800, 2, seed=1)
    grid = GridSpec(subset="nu_rho", nu_values=(0.5, 1.7),
                    rho_values=(0.3, 2.0), omega2_values=(0.01,))
    assert traced_peak(lambda: grid_search(train, grid, 50)) < 22_000_000


def bordered_stack(plan, omega2: float) -> np.ndarray:
    """Every system A + omega2 I of the plan's last correlation, bordered
    by its cross row c and labels y as [[A, c, y], [c^T, alpha, 0],
    [y^T, 0, beta]]."""
    labels = plan.neighbor_labels
    n, k = labels.shape
    stack = np.zeros((n, k + 2, k + 2))
    stack[:, :k, :k] = plan._values[plan.pair_inv]
    stack[:, np.arange(k), np.arange(k)] = 1.0 + omega2
    stack[:, k, :k] = stack[:, :k, k] = plan._values[plan.cross_inv]
    stack[:, k + 1, :k] = stack[:, :k, k + 1] = labels
    stack[:, k, k] = classifier._BORDER_ALPHA
    stack[:, k + 1, k + 1] = classifier._BORDER_BETA
    return stack


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunks", ["default", "small"])
def test_latent_means_over_omega2_values_match_whole_stack(workers, chunks,
                                                           monkeypatch):
    # several omega2 values in one call, from zero nugget up, give the
    # single-value calls' bits and those of one bordered factor of the
    # whole stack gathered from the filled values
    if chunks == "small":
        small_chunks(monkeypatch)
    data = synth_dataset(130, 2, seed=4)
    train = LabeledSet(features=data.features[:120],
                       labels=data.labels[:120])
    omegas = (0.0, 1e-7, 0.001, 0.01, 0.1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        plan = classifier._LocalPlan(train, train.features, 11,
                                     exclude_self=True, pool=pool)
        plan.correlation(0.3, 0.8)
        got = plan.latent_means(omegas)
        alone = [plan.latent_means(w) for w in omegas]
    assert got.shape == (len(omegas), train.count)
    for row, single, omega2 in zip(got, alone, omegas):
        stack = bordered_stack(plan, omega2)
        lower = linalg._factor_in_place(stack.copy(), stack.__getitem__,
                                        scale_over=11).lower
        want = -lower[:, 12, 11] * lower[:, 11, 11]
        assert single.shape == (train.count,)
        assert row.tobytes() == single.tobytes() == want.tobytes()


def rung_mix_set() -> LabeledSet:
    """A spread 5 x 5 lattice plus two 12-point lines, spacings 0.2 and
    0.02: at k=8, (nu, rho) = (5, 1) and no nugget, 6 of the 49
    leave-one-out systems need jitter rung 1e-12 and 43 factor at rung 0."""
    g = np.arange(5.0)
    spread = 3.0 * np.column_stack([a.ravel() for a in np.meshgrid(g, g)])
    line = np.column_stack([np.arange(12.0), np.zeros(12)])
    feats = np.vstack([spread, (40.0, 0.0) + 0.2 * line,
                       (0.0, 40.0) + 0.02 * line])
    return LabeledSet(features=feats,
                      labels=np.where(np.arange(len(feats)) % 3, -1, 1))


@pytest.mark.parametrize("chunks", ["default", "small"])
def test_pd_probe_gives_each_system_its_own_rung(chunks, monkeypatch):
    if chunks == "small":
        small_chunks(monkeypatch)
    train, k, rho, nu = rung_mix_set(), 8, 1.0, 5.0
    with ThreadPoolExecutor(max_workers=2) as pool:
        plan = classifier._LocalPlan(train, train.features, k,
                                     exclude_self=True, pool=pool)
        plan.correlation(rho, nu)
        systems = plan._values[plan.pair_inv]
        got = plan.latent_means(0.0)
    # each bordered system is factored as it is alone, at the rung its
    # k x k system gets alone
    jitter = np.array([linalg.spd_factor(s).jitter_used for s in systems])
    assert np.count_nonzero(jitter == 0.0) == 43
    assert np.count_nonzero(jitter == 1e-12) == 6
    lower = np.array([np.linalg.cholesky(m + j * np.eye(k + 2))
                      for m, j in zip(bordered_stack(plan, 0.0), jitter)])
    assert np.array_equal(got, -lower[:, k + 1, k] * lower[:, k, k])


def test_rung_mix_stack_factors_as_each_system_alone():
    # the batched ladder retries only the 6 systems that fail at rung 0;
    # every factor and jitter is still spd_factor's for that system
    train = rung_mix_set()
    with ThreadPoolExecutor(max_workers=2) as pool:
        plan = classifier._LocalPlan(train, train.features, 8,
                                     exclude_self=True, pool=pool)
        plan.correlation(1.0, 5.0)
    systems = plan._values[plan.pair_inv]
    systems[:, np.arange(8), np.arange(8)] = 1.0
    f = linalg.spd_factor(systems)
    assert np.count_nonzero(f.jitter_used) == 6
    for i, matrix in enumerate(systems):
        alone = linalg.spd_factor(matrix)
        assert f.jitter_used[i] == alone.jitter_used
        assert f.lower[i].tobytes() == alone.lower.tobytes()


def test_pd_probe_raises_when_the_ladder_cannot_fix_a_system():
    train = rung_mix_set()
    with ThreadPoolExecutor(max_workers=2) as pool:
        plan = classifier._LocalPlan(train, train.features, 8,
                                     exclude_self=True, pool=pool)
        plan.correlation(1.0, 0.5)
        # off-diagonal 1.5 against a unit diagonal: eigenvalue -0.5; pairs
        # are keyed min-index first, so entries (0, 1) and (1, 0) share it
        plan._values[plan.pair_inv[3, 0, 1]] = 1.5
        with pytest.raises(linalg.NotPositiveDefiniteError):
            plan.latent_means(0.0)


def test_classifier_outputs_independent_of_worker_count(monkeypatch):
    small_chunks(monkeypatch)
    data = synth_dataset(150, 2, seed=12)
    train = LabeledSet(features=data.features[:110],
                       labels=data.labels[:110])
    test_features = data.features[110:]
    grid = GridSpec(subset="all", nu_values=(0.5, 1.2, 2.2),
                    rho_values=(0.3, 1.0), omega2_values=(0.0, 0.01))

    def run():
        selected, trial = grid_search(train, grid, k=10)
        latent = [latent_from_plan(train, train.features, 10, True,
                                   ReducedParams(rho=r, nu=n, omega2=o))
                  for n, r, o in itertools.product(
                      grid.nu_values, grid.rho_values, grid.omega2_values)]
        return (selected, trial.accuracy, trial.evaluations,
                classify(train, test_features, selected, k=10), latent)

    results = []
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4):
            monkeypatch.setattr(parallel, "worker_count", lambda: workers)
            results.append(run())
    finally:
        sys.setswitchinterval(switch)
    first = results[0]
    for other in results[1:]:
        assert other[:3] == first[:3]
        assert np.array_equal(other[3], first[3])
        assert all(np.array_equal(a, b) for a, b in zip(other[4], first[4]))


def run_python(code):
    src = os.path.dirname(os.path.dirname(classifier.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env, timeout=120).stdout


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_pool():
    # every call shuts its pool down before returning, so a child forked
    # after a first call inherits no pool and runs its own
    code = """
import os
from krigesense import classifier as c
from krigesense.kernel import ReducedParams
data = c.synth_dataset(300, 2, seed=1)
params = ReducedParams(1.0, 1.0, 0.01)
before = c.classify(data, data.features[:200], params, k=10)
pid = os.fork()
if pid == 0:
    after = c.classify(data, data.features[:200], params, k=10)
    os._exit(0 if (after == before).all() else 1)
print(os.waitpid(pid, 0)[1])
"""
    assert run_python(code).split() == ["0"]


def test_import_starts_no_thread():
    # importing starts no thread, and a call that used a pool (the
    # classifier, a two-block scan, a Sobol study) shuts it down first
    code = """
import threading
import krigesense.classifier as c, krigesense.cli
from krigesense.identifiability import collinearity_scan
from krigesense.kernel import ReducedParams
from krigesense.sensitivity import run_study
print(threading.active_count())
data = c.synth_dataset(300, 2, seed=1)
c.classify(data, data.features[:200], ReducedParams(1.0, 1.0, 0.01), k=10)
print(threading.active_count())
collinearity_scan(resolution=12)
print(threading.active_count())
run_study(sample_budget=256)
print(threading.active_count())
"""
    assert run_python(code).split() == ["1", "1", "1", "1"]


# ----------------------------------------------------------- grid search


def test_grid_search_single_candidate_returns_it():
    data = synth_dataset(20, 2, seed=2)
    grid = GridSpec(subset="nu_only", nu_values=(1.3,), rho_values=(2.5,),
                    omega2_values=(0.01,))
    params, trial = grid_search(data, grid, k=5)
    assert params == ReducedParams(rho=2.5, nu=1.3, omega2=0.01)
    assert isinstance(trial, TrialResult)
    assert trial.evaluations == 1 == grid.size
    assert trial.subset == "nu_only"
    assert trial.train_size == 20
    assert 0.0 <= trial.accuracy <= 1.0
    assert trial.wall_time >= 0.0


def test_grid_search_tie_returns_mean_point():
    clusters = cluster_set()
    grid = GridSpec(subset="nu_only", nu_values=(1.0, 2.0),
                    rho_values=(2.5,), omega2_values=(0.01,))
    params, trial = grid_search(clusters, grid, k=3)
    # both candidates score a perfect LOO accuracy, so the tie resolves
    # to the coordinate-wise mean
    assert trial.accuracy == 1.0
    assert params == ReducedParams(rho=2.5, nu=1.5, omega2=0.01)
    assert trial.evaluations == 2


def test_grid_search_matches_manual_loo_scores():
    # scoring a candidate repeatedly (as a dummy variance axis would)
    # yields the same LOO accuracy, and the selection equals the tie-mean
    # over manually computed argmax candidates
    data = synth_dataset(40, 2, seed=8)
    nus = (0.8, 1.5, 2.2)
    grid = GridSpec(subset="nu_only", nu_values=nus, rho_values=(2.5,),
                    omega2_values=(0.01,))
    scores = []
    for nu in nus:
        candidate = ReducedParams(rho=2.5, nu=nu, omega2=0.01)
        first = loo_accuracy(data, candidate, k=7)
        again = loo_accuracy(data, candidate, k=7)
        assert first == again
        scores.append(first)
    best = max(scores)
    tied = [nu for nu, s in zip(nus, scores) if s == best]
    params, trial = grid_search(data, grid, k=7)
    assert trial.accuracy == best
    assert params.nu == pytest.approx(float(np.mean(tied)))
    assert params.rho == 2.5 and params.omega2 == 0.01


def test_grid_spec_subset_layouts():
    sizes = {"nu_only": 10, "nu_rho": 100, "all": 1000}
    for subset, size in sizes.items():
        grid = GridSpec.for_subset(subset)
        assert grid.size == size
        assert len(list(itertools.product(
            grid.nu_values, grid.rho_values, grid.omega2_values))) == size
        assert grid.nu_values[0] == 0.01 and grid.nu_values[-1] == 2.5
        assert len(grid.nu_values) == 10
    assert GridSpec.for_subset("nu_only").rho_values == (2.5,)
    assert GridSpec.for_subset("nu_only").omega2_values == (0.01,)
    assert GridSpec.for_subset("nu_rho").omega2_values == (0.01,)
    assert len(GridSpec.for_subset("all").omega2_values) == 10


def test_grid_search_default_grid_costs():
    data = synth_dataset(12, 2, seed=6)
    _, nu_trial = grid_search(data, GridSpec.for_subset("nu_only"), k=3)
    assert nu_trial.evaluations == 10
    _, all_trial = grid_search(data, GridSpec.for_subset("all"), k=3)
    assert all_trial.evaluations == 1000
    assert all_trial.evaluations == 100 * nu_trial.evaluations


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(subset="rho_only", nu_values=(1.0,), rho_values=(1.0,),
                 omega2_values=(0.01,))
    with pytest.raises(ValueError):
        GridSpec(subset="all", nu_values=(), rho_values=(1.0,),
                 omega2_values=(0.01,))
    with pytest.raises(ValueError):
        GridSpec(subset="all", nu_values=(0.0,), rho_values=(1.0,),
                 omega2_values=(0.01,))
    with pytest.raises(ValueError):
        GridSpec(subset="all", nu_values=(1.0,), rho_values=(-1.0,),
                 omega2_values=(0.01,))
    with pytest.raises(ValueError):
        GridSpec(subset="nu_only", nu_values=(60.0,), rho_values=(2.5,),
                 omega2_values=(0.01,))
    grid = GridSpec(subset="all", nu_values=(1.0,), rho_values=(1.0,),
                    omega2_values=(0.0,))
    assert grid.omega2_values == (0.0,)


# ------------------------------------------------------------- benchmark


@pytest.fixture(scope="module")
def smoke_rows():
    return run_benchmark(train_sizes=(20,), iterations=2, seed=0, k=5)


def test_benchmark_smoke_structure(smoke_rows):
    assert len(smoke_rows) == 6
    for row in smoke_rows:
        assert row.subset in ("nu_only", "nu_rho", "all")
        assert row.train_size == 20
        assert row.iteration in (0, 1)
        assert 0.0 <= row.accuracy <= 1.0
        assert row.wall_time >= 0.0
    by_subset = {s: [r for r in smoke_rows if r.subset == s]
                 for s in ("nu_only", "nu_rho", "all")}
    assert all(len(rows) == 2 for rows in by_subset.values())
    assert {r.evaluations for r in by_subset["nu_only"]} == {10}
    assert {r.evaluations for r in by_subset["nu_rho"]} == {100}
    assert {r.evaluations for r in by_subset["all"]} == {1000}


def test_benchmark_evaluation_ratio(smoke_rows):
    nu_evals = sum(r.evaluations for r in smoke_rows
                   if r.subset == "nu_only")
    all_evals = sum(r.evaluations for r in smoke_rows if r.subset == "all")
    assert all_evals == 100 * nu_evals


def test_benchmark_accuracy_deterministic(smoke_rows):
    again = run_benchmark(train_sizes=(20,), iterations=2, seed=0, k=5)
    key = [(r.subset, r.train_size, r.iteration, r.accuracy, r.evaluations)
           for r in smoke_rows]
    assert key == [(r.subset, r.train_size, r.iteration, r.accuracy,
                    r.evaluations) for r in again]


def test_benchmark_subset_filter_and_validation():
    rows = run_benchmark(train_sizes=(16,), iterations=1, seed=0, k=3,
                         subsets=("nu_only",))
    assert [r.subset for r in rows] == ["nu_only"]
    with pytest.raises(ValueError):
        run_benchmark(train_sizes=(), iterations=1)
    with pytest.raises(ValueError):
        run_benchmark(train_sizes=(1,), iterations=1)
    with pytest.raises(ValueError):
        run_benchmark(train_sizes=(16,), iterations=0)
    with pytest.raises(ValueError):
        run_benchmark(train_sizes=(16,), iterations=1, subsets=("bogus",))
