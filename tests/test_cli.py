"""End-to-end tests of the command-line interface and its CSV outputs."""

import csv
import datetime
import json

import numpy as np
import pytest

from krigesense.cli import main
from krigesense.identifiability import band_of
from krigesense.kernel import matern_correlation
from krigesense.sensitivity import study_grid

from oracles import gauss_jordan_inverse


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def read_manifest(csv_path):
    manifest_path = str(csv_path)[: -len(".csv")] + ".manifest.json"
    with open(manifest_path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------- usage


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_and_flag(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["weights", "--wavelength", "3"]) == 2
    capsys.readouterr()


# -------------------------------------------------------------- weights


def test_weights_csv_matches_dense_oracle(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["weights", "--dim", "1", "--rho", "1", "--nu", "0.5",
                 "--omega2", "0.01", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["location", "weight"]
    assert len(rows) == 20

    train, point = study_grid(1)
    locations = np.array([float(r[0]) for r in rows])
    assert np.max(np.abs(locations - train.points[:, 0])) < 1e-12

    dmat = np.abs(train.points[:, 0][:, None] - train.points[:, 0][None, :])
    omega = matern_correlation(dmat, 1.0, 0.5) + 0.01 * np.eye(20)
    cross = matern_correlation(np.abs(train.points[:, 0] - 0.5), 1.0, 0.5)
    want = gauss_jordan_inverse(omega) @ cross
    got = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(got - want)) < 1e-10


def test_weights_dim2_lattice(tmp_path):
    out = tmp_path / "w2.csv"
    assert main(["weights", "--dim", "2", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x1", "x2", "weight"]
    assert len(rows) == 16


def test_weights_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    flags = ["weights", "--dim", "1", "--rho", "2", "--nu", "1.5"]
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_weights_manifest_contents(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["weights", "--rho", "1.5", "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["command"] == "weights"
    assert manifest["flags"]["rho"] == 1.5
    assert manifest["flags"]["nu"] == 0.5
    assert manifest["seed"] is None
    assert manifest["outputs"] == [str(out)]
    assert isinstance(manifest["threads"], int)
    assert isinstance(manifest["workers"], int) and manifest["workers"] >= 1
    assert "krigesense" in manifest["versions"]
    started = datetime.datetime.fromisoformat(manifest["started"])
    finished = datetime.datetime.fromisoformat(manifest["finished"])
    assert finished >= started


def test_weights_invalid_parameter_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["weights", "--rho", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not out.exists()


# --------------------------------------------------------- collinearity


def test_collinearity_small_scan_csv(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["collinearity", "--res", "3", "--nu-min", "0.5",
                 "--nu-max", "2.0", "--rho-min", "0.5", "--rho-max", "2.0",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["nu", "rho", "gamma_correlation", "gamma_weights",
                      "band_correlation", "band_weights"]
    assert len(rows) == 9
    for row in rows:
        g_corr, g_wts = float(row[2]), float(row[3])
        assert g_corr >= 1.0 and g_wts >= 1.0
        assert row[4] == band_of(g_corr)
        assert row[5] == band_of(g_wts)


def test_collinearity_rerun_byte_identical(tmp_path):
    flags = ["collinearity", "--res", "3", "--nu-min", "0.8",
             "--nu-max", "1.6", "--rho-min", "0.8", "--rho-max", "1.6"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_collinearity_bad_range_is_runtime_error(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["collinearity", "--nu-min", "0", "--out", str(out)]) == 1


# ---------------------------------------------------------------- sobol


def test_sobol_varying_study_and_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    flags = ["sobol", "--dim", "1", "--response", "weights",
             "--omega2", "vary", "--seed", "7"]
    assert main(flags + ["--out", str(a)]) == 0
    header, rows = read_csv(a)
    assert header == ["input", "total_index", "percent_share",
                      "bootstrap_halfwidth"]
    assert [r[0] for r in rows] == ["rho", "nu", "omega2", "x"]
    shares = np.array([float(r[2]) for r in rows])
    assert abs(float(shares.sum()) - 100.0) <= 0.1
    assert np.all(np.array([float(r[3]) for r in rows]) >= 0.0)

    assert main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = read_manifest(a)
    assert manifest["seed"] == 7
    assert manifest["flags"]["n"] == 1024


def test_sobol_fixed_zero_drops_omega2(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sobol", "--omega2", "0", "--n", "256",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["rho", "nu", "x"]


def test_sobol_variance_response_inputs(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sobol", "--response", "variance", "--n", "256",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["sigma2", "rho", "nu", "omega2"]


def test_sobol_small_budget_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sobol", "--n", "128", "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_sobol_output_independent_of_thread_level(tmp_path, monkeypatch):
    flags = ["sobol", "--n", "256", "--seed", "3"]
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    monkeypatch.delenv("KRIGESENSE_THREADS", raising=False)
    assert main(flags + ["--out", str(serial)]) == 0
    monkeypatch.setenv("KRIGESENSE_THREADS", "2")
    assert main(flags + ["--out", str(threaded)]) == 0
    assert serial.read_bytes() == threaded.read_bytes()
    assert read_manifest(threaded)["threads"] == 2


# ------------------------------------------------------- classify-bench


def strip_wall_column(path):
    header, rows = read_csv(path)
    drop = header.index("wall_time_s")
    return [tuple(v for i, v in enumerate(row) if i != drop)
            for row in ([header] + rows)]


def test_classify_bench_compare_smoke(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["classify-bench", "--sizes", "16", "--iters", "1",
                 "--seed", "0", "--subset", "compare", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["subset", "train_size", "iteration", "accuracy",
                      "wall_time_s", "evaluations"]
    assert [r[0] for r in rows] == ["nu_only", "nu_rho", "all"]
    assert [int(r[5]) for r in rows] == [10, 100, 1000]
    assert all(int(r[1]) == 16 for r in rows)
    # default k follows the reference setting even when clamped by size
    assert read_manifest(out)["flags"]["k"] == 50


def test_classify_bench_rerun_identical_without_walls(tmp_path):
    flags = ["classify-bench", "--sizes", "16", "--iters", "1",
             "--seed", "1", "--k", "3", "--subset", "nu"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(flags + ["--out", str(a)]) == 0
    assert main(flags + ["--out", str(b)]) == 0
    assert strip_wall_column(a) == strip_wall_column(b)
    _, rows = read_csv(a)
    assert [r[0] for r in rows] == ["nu_only"]


def test_classify_bench_bad_sizes_is_runtime_error(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["classify-bench", "--sizes", "1", "--iters", "1",
                 "--out", str(out)]) == 1
    assert main(["classify-bench", "--sizes", "", "--iters", "1",
                 "--out", str(out)]) == 1
