"""Factor/solve/eigenvalue checks against hand cases and dense oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from krigesense import linalg
from oracles import charpoly_eigenvalues, gauss_jordan_inverse


def random_spd(n, rng, spread=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + spread * np.eye(n)


def test_factor_identity():
    f = linalg.spd_factor(np.eye(3))
    assert f.lower.shape == (3, 3)
    assert f.jitter_used == 0.0
    assert np.allclose(f.lower, np.eye(3), atol=0.0)


def test_factor_hand_2x2():
    f = linalg.spd_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
    expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    assert np.allclose(f.lower, expected, rtol=1e-15)


def test_factor_rank_one_needs_jitter():
    f = linalg.spd_factor(np.ones((2, 2)))
    assert f.jitter_used > 0.0
    recon = f.lower @ f.lower.T
    assert np.allclose(recon, np.ones((2, 2)) + f.jitter_used * np.eye(2),
                       rtol=1e-12)


def test_factor_rejects_indefinite():
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_factor_rejects_asymmetric():
    with pytest.raises(ValueError):
        linalg.spd_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="one square matrix"):
        linalg.spd_factor(np.stack([np.eye(2), np.eye(2)])[None])


def test_solve_identity_and_hand_case():
    f = linalg.spd_factor(np.eye(4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(linalg.spd_solve(f, b), b, atol=0.0)
    f = linalg.spd_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert np.allclose(linalg.spd_solve(f, np.array([6.0, 5.0])),
                       np.array([1.0, 1.0]), rtol=1e-14)


def test_solve_matches_gauss_jordan_inverse():
    rng = np.random.default_rng(3)
    a = random_spd(20, rng)
    b = rng.standard_normal(20)
    x = linalg.spd_solve(linalg.spd_factor(a), b)
    assert np.allclose(x, gauss_jordan_inverse(a) @ b, rtol=1e-10)


def test_solve_round_trip_property():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        a = random_spd(n, rng, spread=rng.uniform(0.5, 3.0))
        b = rng.standard_normal(n)
        f = linalg.spd_factor(a)
        assert np.allclose(linalg.spd_solve(f, a @ b), b, rtol=1e-8)



def test_stack_factor_and_solve_match_per_system_calls():
    rng = np.random.default_rng(29)
    stack = np.stack([random_spd(6, rng) for _ in range(5)])
    rhs = rng.standard_normal((5, 6))
    f = linalg.spd_factor(stack)
    assert f.lower.shape == (5, 6, 6)
    assert f.jitter_used.tolist() == [0.0] * 5
    x = linalg.spd_solve(f, rhs)
    for i in range(5):
        alone = linalg.spd_factor(stack[i])
        assert np.array_equal(f.lower[i], alone.lower)
        assert np.array_equal(x[i], linalg.spd_solve(alone, rhs[i]))
    with pytest.raises(ValueError):
        linalg.spd_solve(f, np.zeros((5, 4)))
    # only a singular member goes up the jitter ladder
    stack[2] = np.ones((6, 6))
    f = linalg.spd_factor(stack)
    assert f.jitter_used[2] > 0.0
    assert np.count_nonzero(f.jitter_used) == 1

def _needing(smallest: float, rng, n: int = 6) -> np.ndarray:
    """A symmetric n x n matrix with smallest eigenvalue `smallest` and
    the others in [0.5, 1.5]: the ladder rung it needs follows from it."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ev = np.concatenate([[smallest], rng.uniform(0.5, 1.5, n - 1)])
    a = (q * ev) @ q.T
    return (a + a.T) / 2.0


def test_stack_ladder_gives_each_system_its_own_rung():
    # systems at every rung, shuffled: each factor and jitter_used is the
    # one spd_factor gives that system alone, bit for bit
    rng = np.random.default_rng(4)
    stack = np.stack([_needing(lam, rng)
                      for lam in (1e-3, -5e-13, -5e-11, -5e-9) * 3])
    stack = stack[rng.permutation(len(stack))]
    f = linalg.spd_factor(stack)
    rungs = []
    for i, matrix in enumerate(stack):
        alone = linalg.spd_factor(matrix)
        assert f.jitter_used[i] == alone.jitter_used
        assert f.lower[i].tobytes() == alone.lower.tobytes()
        scale = alone.jitter_used / np.mean(np.diag(matrix))
        rungs.append(min(linalg.JITTER_LADDER, key=lambda r: abs(r - scale)))
    assert sorted(rungs) == sorted(linalg.JITTER_LADDER * 3)


def test_stack_ladder_raises_spd_factors_error_for_the_first_failure():
    rng = np.random.default_rng(5)
    stack = np.stack([_needing(lam, rng)
                      for lam in (1e-3, -5e-11, -1e-6, -5e-9, -1e-5)])
    with pytest.raises(linalg.NotPositiveDefiniteError) as alone:
        linalg.spd_factor(stack[2])
    with pytest.raises(linalg.NotPositiveDefiniteError) as stacked:
        linalg.spd_factor(stack)
    assert str(stacked.value) == str(alone.value)
    # a system that needs a rung is checked as spd_factor checks it
    stack[1, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.spd_factor(stack)


@pytest.mark.parametrize("bad, message", [
    ([[4.0, 100.0], [1.0, 3.0]], "not symmetric within 1e-12"),
    ([[1.0, 0.5], [0.5, np.inf]], "non-finite entries"),
], ids=["asymmetric", "non-finite"])
def test_stack_input_is_checked_as_spd_factor_checks_it(bad, message):
    # both factor at rung 0 (from the lower triangle, and to an inf
    # diagonal), so only a check of the whole stack before the factor
    # catches them
    rng = np.random.default_rng(6)
    stack = np.stack([random_spd(2, rng), np.array(bad), random_spd(2, rng)])
    with pytest.raises(ValueError, match=message):
        linalg.spd_factor(stack[1])
    with pytest.raises(ValueError, match=message):
        linalg.spd_factor(stack)


def test_stack_factor_leaves_the_callers_stack_as_it_was():
    # the stack is factored in place, so spd_factor must work on a
    # copy, also for a system that goes up the ladder
    rng = np.random.default_rng(7)
    stack = np.stack([random_spd(4, rng), np.ones((4, 4)),
                      random_spd(4, rng)])
    before = stack.copy()
    f = linalg.spd_factor(stack)
    assert f.jitter_used.tolist()[::2] == [0.0, 0.0]
    assert f.jitter_used[1] > 0.0
    assert stack.tobytes() == before.tobytes()


def test_solve_shape_mismatch():
    f = linalg.spd_factor(np.eye(3))
    with pytest.raises(ValueError):
        linalg.spd_solve(f, np.zeros(4))


@pytest.mark.parametrize("stack, rhs_shape, want", [
    # one factor takes (n,) only; a stack of 5 takes (5, n) only
    (False, (1, 3), "(3,)"),
    (False, (3, 1), "(3,)"),
    (True, (3,), "(5, 3)"),
    (True, (1, 3), "(5, 3)"),
    (True, (4, 3), "(5, 3)"),
    (True, (5, 3, 1), "(5, 3)"),
])
def test_solve_rejects_rhs_of_the_wrong_shape(stack, rhs_shape, want):
    # a (3,) or (1, 3) rhs would otherwise broadcast over the 5 systems
    f = (linalg.spd_factor(np.stack([np.eye(3)] * 5)) if stack
         else linalg.spd_factor(np.eye(3)))
    with pytest.raises(ValueError) as caught:
        linalg.spd_solve(f, np.ones(rhs_shape))
    assert str(rhs_shape) in str(caught.value)
    assert want in str(caught.value)


def _spd_stack(seed, count, n):
    rng = np.random.default_rng(seed)
    spread = rng.uniform(0.5, 3.0, (count, 1, 1))
    a = rng.standard_normal((count, n, n))
    return (a @ np.swapaxes(a, -1, -2) + spread * np.eye(n),
            rng.standard_normal((count, n)))


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 64),
       n=st.integers(1, 24))
def test_stacked_solve_equals_each_system_alone(seed, count, n):
    stack, rhs = _spd_stack(seed, count, n)
    f = linalg.spd_factor(stack)
    x = linalg.spd_solve(f, rhs)
    assert x.shape == (count, n)
    for i in range(count):
        alone = linalg.SpdFactor(f.lower[i], 0.0)
        assert np.array_equal(x[i], linalg.spd_solve(alone, rhs[i]))


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 8),
       n=st.integers(1, 24))
def test_stacked_solve_matches_gauss_jordan_inverse(seed, count, n):
    stack, rhs = _spd_stack(seed, count, n)
    x = linalg.spd_solve(linalg.spd_factor(stack), rhs)
    for i in range(count):
        assert np.allclose(x[i], gauss_jordan_inverse(stack[i]) @ rhs[i],
                           rtol=1e-10)


def test_eigenvalues_hand_cases():
    assert np.allclose(linalg.sym_eigenvalues(np.diag([3.0, 1.0])),
                       [3.0, 1.0], atol=0.0)
    got = linalg.sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(got, [3.0, 1.0], rtol=1e-12)


def test_eigenvalues_match_charpoly_oracle():
    rng = np.random.default_rng(5)
    for _ in range(15):
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2.0 + 3.0 * np.eye(4)
        got = linalg.sym_eigenvalues(a)
        ref = charpoly_eigenvalues(a)
        assert np.allclose(got, ref, atol=1e-9)


def test_eigenvalue_trace_and_determinant():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = random_spd(4, rng)
        eig = linalg.sym_eigenvalues(a)
        assert math.isclose(float(np.sum(eig)), float(np.trace(a)),
                            rel_tol=1e-9)
        f = linalg.spd_factor(a)
        det_from_factor = float(np.prod(np.diag(f.lower))) ** 2
        assert math.isclose(float(np.prod(eig)), det_from_factor,
                            rel_tol=1e-9)


def test_eigenvalues_of_a_stack_match_per_matrix_calls():
    rng = np.random.default_rng(41)
    for p in (3, 12):
        stack = np.stack([random_spd(p, rng) for _ in range(6)])
        got = linalg.sym_eigenvalues(stack)
        assert got.shape == (6, p)
        for eig, matrix in zip(got, stack):
            assert np.array_equal(eig, linalg.sym_eigenvalues(matrix))
    # the symmetry tolerance scales with each matrix's own entries, so a
    # large neighbor in the stack does not hide a small one's asymmetry
    lopsided = np.stack([1e6 * np.eye(2), np.array([[1.0, 1e-9],
                                                    [0.0, 1.0]])])
    with pytest.raises(ValueError):
        linalg.sym_eigenvalues(lopsided)
