"""Tests for the latent-GP classification benchmark components."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from krigesense import classifier, rng
from krigesense.classifier import (GENERATOR_PARAMS, GridSpec, LabeledSet,
                                   TrialResult, classify, grid_search,
                                   loo_accuracy, run_benchmark, synth_dataset)
from krigesense.kernel import LocationSet, ReducedParams, matern_correlation
from krigesense.kriging import kriging_weights

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


def test_synth_normalized_rows():
    data = synth_dataset(16, 4, seed=2, normalize=True)
    norms = np.linalg.norm(data.features, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


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
        w = kriging_weights(train_locs, test_features[j], params).weights
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
    plan = classifier._LocalPlan(train, query, k, exclude_self=loo)
    systems, cross = plan.correlation(params.rho, params.nu)
    return plan.latent_means(systems, cross, params.omega2)


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


@pytest.mark.parametrize("loo", [True, False])
def test_local_plan_gathers_cdist_correlations_exactly(loo, monkeypatch):
    # in two dimensions the plan's distance table forms the same
    # floating-point sum as cdist, so the gathered values are exact
    small_chunks(monkeypatch)
    data = synth_dataset(160, 2, seed=11)
    train = LabeledSet(features=data.features[:120],
                       labels=data.labels[:120])
    query = train.features if loo else data.features[120:]
    k, rho, nu = 9, 0.4, 1.3
    nb = neighbor_table(train, query, k, loo)
    rows = np.arange(len(query))[:, None]
    plan = classifier._LocalPlan(train, query, k, exclude_self=loo)
    systems, cross = plan.correlation(rho, nu)
    assert np.array_equal(
        cross, matern_correlation(cdist(query, train.features)[rows, nb],
                                  rho, nu))
    feats = train.features
    assert np.array_equal(
        systems, matern_correlation(
            np.stack([cdist(feats[row], feats[row]) for row in nb]), rho, nu))
    assert np.array_equal(plan.neighbor_labels, train.labels[nb])


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
        latent = [latent_from_plan(train, train.features, 10, True, c)
                  for c in grid.candidates()]
        return (selected, trial.accuracy, trial.evaluations,
                classify(train, test_features, selected, k=10), latent)

    results = []
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 4):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                monkeypatch.setattr(classifier, "_POOL", pool)
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
    # the child inherits the parent's pool object without its threads
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
    code = ("import threading, krigesense.classifier as c, krigesense.cli; "
            "print(threading.active_count(), c._POOL._executor is None)")
    assert run_python(code).split() == ["1", "True"]


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
        assert len(grid.candidates()) == size
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
    grid = GridSpec(subset="all", nu_values=(1.0,), rho_values=(1.0,),
                    omega2_values=(0.0,))
    assert grid.omega2_values == (0.0,)


# ------------------------------------------------------------- benchmark


@pytest.fixture(scope="module")
def smoke_rows():
    return run_benchmark(train_sizes=(20,), iterations=2, seed=0, k=5,
                         q=2, test_count=24)


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
    again = run_benchmark(train_sizes=(20,), iterations=2, seed=0, k=5,
                          q=2, test_count=24)
    key = [(r.subset, r.train_size, r.iteration, r.accuracy, r.evaluations)
           for r in smoke_rows]
    assert key == [(r.subset, r.train_size, r.iteration, r.accuracy,
                    r.evaluations) for r in again]


def test_benchmark_subset_filter_and_validation():
    rows = run_benchmark(train_sizes=(16,), iterations=1, seed=0, k=3,
                         q=2, test_count=10, subsets=("nu_only",))
    assert [r.subset for r in rows] == ["nu_only"]
    with pytest.raises(ValueError):
        run_benchmark(train_sizes=(), iterations=1)
    with pytest.raises(ValueError):
        run_benchmark(train_sizes=(1,), iterations=1)
    with pytest.raises(ValueError):
        run_benchmark(train_sizes=(16,), iterations=0)
    with pytest.raises(ValueError):
        run_benchmark(train_sizes=(16,), iterations=1, test_count=0)
    with pytest.raises(ValueError):
        run_benchmark(train_sizes=(16,), iterations=1, subsets=("bogus",))
