"""A catalogue of small wrong edits to the package, each with the tests
that must catch it.

    python3 tools/mutants.py [TREE]

Every entry names a file under ``src/krigesense``, an exact text in it, the
text that replaces it, and pytest node ids. The tree's ``src/``,
``tests/`` and ``pyproject.toml`` (default tree: this checkout) are
copied once to a temporary directory. For each entry the edit is made
there, only the named tests run, in one pytest child with a timeout of
``TIMEOUT`` seconds, and the file is restored for the next entry. The
mutant is killed when that run reports a failed test, and survives when
every named test passes. One line per mutant is printed: killed, survived or timeout, the
run's seconds, and the name.

The old text must appear exactly once in its file, or the tool stops
with an error naming the entry, so the catalogue follows the code. The
named tests of every entry first run once on an unedited copy, and the
tool stops if any of them fails there, since a kill only means something
when the tests pass without the edit. The exit status is 1 when a mutant
survives or times out.

``pool-dependent-fmt`` is only killed on a machine with at least two
cores in this process's CPU mask: its test compares a one-core child's
CSV with one at the full mask.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 60.0  # seconds per pytest run


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


_MATERN_ARG = "    a = (np.sqrt(2.0 * nu) / rho) * arr\n"

CATALOGUE = (
    Mutant("nearest-block-local-self-exclusion", "kriging.py",
           "own = np.arange(start, stop)[:, None]",
           "own = np.arange(stop - start)[:, None]",
           ("tests/test_kriging.py::"
            "test_blocked_nearest_equals_whole_table_argsort",)),
    Mutant("distances-by-expansion", "kernel.py",
           """    out = np.subtract(a[..., 0], b[..., 0])
    out *= out
    if a.shape[-1] > 1:
        diff = np.empty_like(out)
        for j in range(1, a.shape[-1]):
            np.subtract(a[..., j], b[..., j], out=diff)
            diff *= diff
            out += diff
    return np.sqrt(out, out=out)
""",
           """    out = (np.sum(a * a, axis=-1) + np.sum(b * b, axis=-1)
           - 2.0 * np.sum(a * b, axis=-1))
    return np.sqrt(np.maximum(out, 0.0))
""",
           ("tests/test_kernel.py::test_distances_equal_cdist_bitwise",)),
    Mutant("distinct-lut-off-by-one", "classifier.py",
           "lut[unique] = np.arange(unique.size, dtype=np.int32)",
           "lut[unique] = np.arange(1, unique.size + 1, dtype=np.int32)",
           ("tests/test_classifier.py::test_key_inverse_matches_np_unique",)),
    Mutant("distinct-int64-inverse", "kernel.py",
           "inverse.astype(np.int32, copy=False)",
           "inverse.astype(np.int64, copy=False)",
           ("tests/test_classifier.py::test_key_inverse_matches_np_unique",)),
    Mutant("key-map-skips-last-block", "classifier.py",
           "_in_chunks(pool, invert, len(keys), _SYSTEMS_PER_CHUNK)",
           "_in_chunks(pool, invert, (len(keys) - 1) // _SYSTEMS_PER_CHUNK\n"
           "               * _SYSTEMS_PER_CHUNK, _SYSTEMS_PER_CHUNK)",
           ("tests/test_classifier.py::test_key_inverse_matches_np_unique",
            "tests/test_classifier.py::"
            "test_local_plan_latent_means_match_plain_solve")),
    Mutant("draw-skips-last-trailing-update", "linalg.py",
           "for col in range(stop, m, _FACTOR_BLOCK):",
           "for col in range(stop, m - _FACTOR_BLOCK, _FACTOR_BLOCK):",
           ("tests/test_classifier.py::"
            "test_synth_dataset_matches_copying_spd_factor",)),
    Mutant("bootstrap-fixed-1024-columns", "sensitivity.py",
           "draws = g_boot.integers(0, n, (count, 2, n))",
           "draws = g_boot.integers(0, n, (count, 2, 1024))",
           ("tests/test_sensitivity.py::"
            "test_share_stability_under_budget_doubling",)),
    Mutant("global-symmetry-scale", "linalg.py",
           """    scale = np.maximum(1.0, np.maximum(a.max(axis=(-2, -1)),
                                       -a.min(axis=(-2, -1))))
""",
           """    scale = np.maximum(1.0, np.abs(a).max())
""",
           ("tests/test_linalg.py::"
            "test_eigenvalues_of_a_stack_match_per_matrix_calls",)),
    Mutant("block-drops-its-last-element", "parallel.py",
           "pool.submit(task, start, min(start + size, total))",
           "pool.submit(task, start, min(start + size, total) - 1)",
           ("tests/test_classifier.py::"
            "test_latent_means_over_omega2_values_match_whole_stack",)),
    Mutant("pool-dependent-fmt", "cli.py",
           "    return str(float(value))\n",
           "    return str(float(value) + 1e-3 * (worker_count() > 1))\n",
           ("tests/test_cli.py::test_output_independent_of_thread_level",)),
    Mutant("matern-argument-scaled-1.001", "kernel.py", _MATERN_ARG,
           "    a = (1.001 * np.sqrt(2.0 * nu) / rho) * arr\n",
           ("tests/test_kernel.py::test_correlation_anchor_values",)),
    Mutant("nugget-added-off-the-diagonal", "kriging.py",
           "systems[:, diag, diag] += omega2[system_rows[which], None]",
           "systems += omega2[system_rows[which], None, None]",
           ("tests/test_kriging.py::test_weights_match_dense_inverse_oracle",)),
    Mutant("nu-and-rho-swapped", "kernel.py", _MATERN_ARG,
           "    a = (np.sqrt(2.0 * rho) / nu) * arr\n",
           ("tests/test_kernel.py::test_correlation_anchor_values",)),
    Mutant("jansen-factor-2-dropped", "sensitivity.py",
           "totals = squared.mean(axis=1) / (2.0 * var_hat)",
           "totals = squared.mean(axis=1) / var_hat",
           ("tests/test_sensitivity.py::test_ishigami_total_indices",)),
    Mutant("loo-query-keeps-itself", "classifier.py",
           "nb = _nearest(feats, query_features, k, exclude_self)",
           "nb = _nearest(feats, query_features, k, False)",
           ("tests/test_classifier.py::"
            "test_local_plan_latent_means_match_plain_solve",)),
    Mutant("global-jitter-scale", "linalg.py",
           "mean_diag = np.mean(np.diagonal(pending, axis1=-2, axis2=-1), "
           "axis=-1)",
           "mean_diag = np.full(len(pending), np.mean(np.diagonal(pending, "
           "axis1=-2, axis2=-1)))",
           ("tests/test_linalg.py::"
            "test_stack_ladder_gives_each_system_its_own_rung",)),
    Mutant("omega2-taken-as-tau2-in-variance-response", "sensitivity.py",
           "ReducedParams(rho=rho, nu=nu, omega2=omega2))",
           "ReducedParams(rho=rho, nu=nu, omega2=omega2 / sigma2))",
           ("tests/test_sensitivity.py::"
            "test_response_variance_sigma2_scaling_exact",)),
    Mutant("spd-factor-factors-the-callers-stack", "linalg.py",
           "_factor_in_place(stack.copy(), stack.__getitem__)",
           "_factor_in_place(stack, stack.__getitem__)",
           ("tests/test_linalg.py::"
            "test_stack_factor_leaves_the_callers_stack_as_it_was",)),
    Mutant("probe-factors-the-gathered-block", "classifier.py",
           "systems.copy(), systems.__getitem__), block)",
           "systems, systems.__getitem__), block)",
           ("tests/test_classifier.py::"
            "test_latent_means_over_omega2_values_match_whole_stack",)),
    Mutant("variance-row-drops-sigma2", "sensitivity.py",
           'active = (["sigma2"] if variance else []) + ["rho", "nu"]',
           'active = ["rho", "nu"]',
           ("tests/test_sensitivity.py::"
            "test_run_study_active_inputs_and_cost",)),
    Mutant("fixed-omega2-treated-as-varied", "cli.py",
           'omega2 = None if args.omega2 == "vary" else float(args.omega2)',
           "omega2 = None",
           ("tests/test_cli.py::test_sobol_fixed_zero_drops_omega2",)),
    Mutant("scan-band-from-gamma-weights", "identifiability.py",
           "band=band_of(g_corr)",
           "band=band_of(g_wts)",
           ("tests/test_identifiability.py::"
            "test_scan_small_grid_structure",)),
    Mutant("gamma-on-raw-columns", "identifiability.py",
           "unit = entries / np.where(zero, 1.0, norms)[..., None, :]",
           "unit = entries",
           ("tests/test_identifiability.py::"
            "test_collinearity_index_column_scale_invariant",
            "tests/test_identifiability.py::"
            "test_gamma_matches_independent_oracle_on_matern_curve")),
    Mutant("predict-mean-count-from-stack-axis", "kriging.py",
           "_as_observations(y, w.shape[-1])",
           "_as_observations(y, w.shape[0])",
           ("tests/test_kriging.py::"
            "test_predict_mean_on_a_stack_matches_each_row_alone",)),
    Mutant("run-study-accepts-any-fixed-omega2", "sensitivity.py",
           "if omega2 is not None and omega2 not in FIXED_OMEGA2_CHOICES:",
           "if omega2 is not None and omega2 < 0.0:",
           ("tests/test_sensitivity.py::test_run_study_validation",)),
    Mutant("grid-search-drops-a-candidate", "classifier.py",
           "return means[0] if np.ndim(omega2) == 0 else means",
           "return (means[0] if np.ndim(omega2) == 0\n"
           "                else means[:max(1, len(means) - 1)])",
           ("tests/test_classifier.py::test_grid_search_default_grid_costs",)),
    Mutant("collinearity-index-accepts-no-columns", "identifiability.py",
           "if arr.ndim != 2 or arr.shape[1] == 0:",
           "if arr.ndim != 2:",
           ("tests/test_identifiability.py::"
            "test_collinearity_index_rejects_1d_and_non_finite_entries",)),
)


def copy_tree(tree: str, into: str) -> None:
    """Copy the parts of tree a test run reads into the directory into."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(tree, part), os.path.join(into, part),
                        ignore=skip)
    shutil.copy(os.path.join(tree, "pyproject.toml"), into)


def mutated(mutant: Mutant, tree: str) -> str:
    """The text of mutant's file in tree with its edit made; stop unless
    the old text appears exactly once."""
    with open(os.path.join(tree, "src", "krigesense", mutant.path)) as handle:
        text = handle.read()
    found = text.count(mutant.old)
    if found != 1:
        sys.exit(f"{mutant.name}: old text found {found} times in "
                 f"src/krigesense/{mutant.path}, expected once")
    return text.replace(mutant.old, mutant.new)


def run_tests(into: str, tests, timeout: float) -> Tuple[str, float]:
    """Run tests in the copy at into: ('passed', 'failed' or 'timeout',
    seconds). Failed covers failing tests and errors in collection; any
    other pytest exit status, such as a node id that names no test,
    stops the tool."""
    env = dict(os.environ, PYTHONPATH=os.path.join(into, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x",
             "-p", "no:cacheprovider", *tests],
            cwd=into, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - started
    seconds = time.perf_counter() - started
    if done.returncode not in (0, 1, 2):
        sys.exit(f"pytest exited {done.returncode} on {' '.join(tests)}:\n"
                 f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return ("failed" if done.returncode else "passed"), seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", default=ROOT,
                        help="source tree whose src/ and tests/ are copied")
    args = parser.parse_args()
    tree = os.path.abspath(args.tree)
    edits = [mutated(mutant, tree) for mutant in CATALOGUE]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        clean = os.path.join(scratch, "clean")
        copy_tree(tree, clean)
        tests = sorted({t for m in CATALOGUE for t in m.tests})
        verdict, seconds = run_tests(clean, tests, TIMEOUT * len(tests))
        print(f"unedited  {seconds:6.1f} s  {len(tests)} test(s) {verdict}",
              flush=True)
        if verdict != "passed":
            sys.exit("the named tests must pass on the unedited tree")
        survivors = 0
        for mutant, text in zip(CATALOGUE, edits):
            path = os.path.join(clean, "src", "krigesense", mutant.path)
            with open(path) as handle:
                original = handle.read()
            with open(path, "w") as handle:
                handle.write(text)
            verdict, seconds = run_tests(clean, mutant.tests, TIMEOUT)
            status = {"failed": "killed", "passed": "survived"}.get(
                verdict, verdict)
            survivors += status != "killed"
            print(f"{status:9s} {seconds:6.1f} s  {mutant.name}", flush=True)
            with open(path, "w") as handle:
                handle.write(original)
    print(f"{len(CATALOGUE) - survivors} of {len(CATALOGUE)} killed in "
          f"{time.perf_counter() - started:.1f} s")
    if survivors:
        sys.exit(1)


if __name__ == "__main__":
    main()
