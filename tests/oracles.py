"""Independent numerical oracles used only by the test suite.

Every routine here is deliberately implemented with a different algorithm
than the library path it checks, so agreement between the two is evidence
rather than tautology:

* Bessel K via adaptive quadrature of the integral representation
  (the library path goes through AMOS / a log-space series).
* Dense kriging weights via an explicit Gauss-Jordan inverse
  (the library never forms an inverse).
* Kriging latent means c^T A^-1 y via mpmath's LU solve at 30 digits
  (the library factors the system bordered by c and y in double).
* Eigenvalues via characteristic-polynomial companion roots
  (the library calls LAPACK's symmetric eigensolver, eigvalsh).
* Collinearity via step-refined central differences plus the
  companion-root eigenvalues (the library uses fixed-step differences
  plus eigvalsh).
* Total-effect shares of the kriging study rows via scrambled Sobol'
  points, scipy's Bessel K, batched LU solves and an exact average over
  the location factor, with replicate scrambles for the interval (the
  library uses i.i.d. pick-freeze matrices, its own Bessel path,
  Cholesky per system, a sampled location factor and a bootstrap).

Nothing here imports krigesense.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaln, kve


# ---------------------------------------------------------------------------
# Bessel K oracle: K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt
# ---------------------------------------------------------------------------

def bessel_k_quadrature(nu: float, x: float) -> float:
    """Adaptive quadrature of the integral representation on t in [0, 60].

    The exact factor exp(-x) is pulled out of the integrand so the
    quadrature keeps relative precision when K itself is ~1e-300; the
    integral computed is exp(-x) * int exp(-x(cosh t - 1)) cosh(nu t) dt.
    """
    peak = math.asinh(nu / x) if nu > 0 else 0.0

    def integrand(t: float) -> float:
        # evaluated through logs so the huge-cosh / zero-exp product
        # cannot overflow on the way to 0
        expo = -x * (math.cosh(t) - 1.0) + _log_cosh(nu * t)
        return math.exp(expo) if expo > -745.0 else 0.0

    breaks = sorted({min(max(peak, 1e-3), 59.0), 10.0, 30.0})
    value, _ = quad(integrand, 0.0, 60.0, epsabs=1e-14, epsrel=1e-13,
                    limit=800, points=breaks)
    return math.exp(-x) * value


def _log_cosh(z: float) -> float:
    z = abs(z)
    return z - math.log(2.0) + math.log1p(math.exp(-2.0 * z))


def bessel_k_log_quadrature(nu: float, x: float) -> float:
    """ln K_nu(x) by peak-normalized quadrature; usable where K overflows."""

    def g(t: float) -> float:
        return -x * math.cosh(t) + _log_cosh(nu * t)

    # the integrand exp(g) peaks where x sinh t = nu tanh(nu t) ~ nu
    peak = math.asinh(nu / x) if nu > 0 else 0.0
    ts = np.linspace(0.0, 60.0, 4001)
    gs = np.array([g(t) for t in ts])
    gmax = float(gs.max())
    if abs(g(peak)) > abs(gmax) or g(peak) > gmax:
        gmax = g(peak)

    def integrand(t: float) -> float:
        return math.exp(g(t) - gmax)

    breaks = sorted({min(max(peak, 1e-3), 59.0), 10.0, 30.0})
    value, _ = quad(integrand, 0.0, 60.0, epsabs=1e-14, epsrel=1e-13,
                    limit=800, points=breaks)
    return gmax + math.log(value)


# ---------------------------------------------------------------------------
# Dense linear-algebra oracles
# ---------------------------------------------------------------------------

def gauss_jordan_inverse(matrix: np.ndarray) -> np.ndarray:
    """Explicit inverse by Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(matrix, dtype=float).copy()
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("square matrix required")
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-300:
            raise ValueError("singular matrix in Gauss-Jordan oracle")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def charpoly_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Real symmetric eigenvalues via Faddeev-LeVerrier coefficients and
    companion-matrix roots, sorted nonincreasing."""
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    # Faddeev-LeVerrier recursion for the characteristic coefficients
    coeffs = [1.0]
    mk = a.copy()
    for k in range(1, n + 1):
        if k > 1:
            mk = a @ mk
        ck = -np.trace(mk) / k
        coeffs.append(ck)
        mk = mk + ck * np.eye(n)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def kriging_latent_mean_mp(system, cross, labels, digits: int = 30) -> float:
    """c^T A^-1 y for one kriging system A (n, n), its cross row c and
    labels y, all taken exactly from their float64 values, by mpmath's LU
    solve at `digits` significant digits; rounded once to float."""
    with mp.workdps(digits):
        x = mp.lu_solve(mp.matrix(np.asarray(system, dtype=float).tolist()),
                        mp.matrix(np.asarray(labels, dtype=float).tolist()))
        return float(mp.fsum(mp.mpf(c) * xi for c, xi in
                             zip(np.asarray(cross, dtype=float).tolist(), x)))


# ---------------------------------------------------------------------------
# Finite-difference oracle with step refinement
# ---------------------------------------------------------------------------

def refined_central_difference(f, theta, j: int, rel_steps=(1e-4, 1e-5, 1e-6)):
    """Central differences over a ladder of steps; returns the pair of
    closest successive estimates' midpoint (step refinement)."""
    theta = np.asarray(theta, dtype=float)
    estimates = []
    for rel in rel_steps:
        h = rel * max(abs(theta[j]), 1e-3)
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        estimates.append((np.asarray(f(up), dtype=float)
                          - np.asarray(f(dn), dtype=float)) / (2.0 * h))
    gaps = [float(np.max(np.abs(estimates[i + 1] - estimates[i])))
            for i in range(len(estimates) - 1)]
    best = int(np.argmin(gaps))
    return 0.5 * (estimates[best] + estimates[best + 1])


def collinearity_gamma_oracle(f, theta) -> float:
    """Collinearity index from refined differences + companion-root
    eigenvalues, fully independent of the library path."""
    theta = np.asarray(theta, dtype=float)
    cols = [refined_central_difference(f, theta, j) for j in range(theta.size)]
    s = np.column_stack(cols)
    norms = np.sqrt((s * s).sum(axis=0))
    if np.any(norms == 0.0):
        raise ValueError("all-zero sensitivity column in oracle")
    s = s / norms
    eigs = charpoly_eigenvalues(s.T @ s)
    smallest = float(eigs[-1])
    if smallest <= 0.0:
        return 1e12
    return 1.0 / math.sqrt(smallest)


# ---------------------------------------------------------------------------
# Exhaustive nearest-neighbor oracle
# ---------------------------------------------------------------------------

def exhaustive_nearest(points, query, k: int) -> list[int]:
    """Full sort of (distance, index) pairs in pure Python."""
    pts = [tuple(map(float, p)) for p in np.atleast_2d(points)]
    q = tuple(map(float, np.atleast_1d(query)))
    order = sorted(range(len(pts)), key=lambda i: (math.dist(pts[i], q), i))
    return order[:k]


# ---------------------------------------------------------------------------
# Analytic Sobol benchmarks
# ---------------------------------------------------------------------------

ISHIGAMI_A = 7.0
ISHIGAMI_B = 0.1


def ishigami(x: np.ndarray) -> np.ndarray:
    """Ishigami function on (-pi, pi)^3, a = 7, b = 0.1."""
    x = np.atleast_2d(x)
    return (np.sin(x[:, 0])
            + ISHIGAMI_A * np.sin(x[:, 1]) ** 2
            + ISHIGAMI_B * x[:, 2] ** 4 * np.sin(x[:, 0]))


def ishigami_total_indices() -> np.ndarray:
    """Closed-form total-effect indices for the Ishigami function."""
    a, b = ISHIGAMI_A, ISHIGAMI_B
    pi = math.pi
    variance = a ** 2 / 8 + b * pi ** 4 / 5 + b ** 2 * pi ** 8 / 18 + 0.5
    vt1 = 0.5 * (1 + b * pi ** 4 / 5) ** 2 + 8 * b ** 2 * pi ** 8 / 225
    vt2 = a ** 2 / 8
    vt3 = 8 * b ** 2 * pi ** 8 / 225
    return np.array([vt1, vt2, vt3]) / variance


# ---------------------------------------------------------------------------
# Converged total-effect shares of the kriging study rows
# ---------------------------------------------------------------------------

# the study box and layouts, restated from the documented definitions
STUDY_RANGES = {
    "sigma2": (0.1, 5.0),
    "rho": (0.01, 5.0),
    "nu": (0.01, 2.5),
    "omega2": (0.001, 0.1),
}


def study_layout(grid_dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """Training points and prediction point of a study row: 21 equispaced
    points on [0, 1] minus the prediction at 0.5, or the 4 x 4 lattice on
    [0, 1]^2 with the prediction at its center."""
    if grid_dimension == 1:
        axis = np.linspace(0.0, 1.0, 21)
        return np.delete(axis, 10)[:, None], np.array([0.5])
    if grid_dimension == 2:
        axis = np.linspace(0.0, 1.0, 4)
        pts = np.array([(u, v) for u in axis for v in axis])
        return pts, np.array([0.5, 0.5])
    raise ValueError(f"grid_dimension must be 1 or 2, got {grid_dimension}")


def matern_correlation_kv(d, rho, nu) -> np.ndarray:
    """2^(1-nu) / Gamma(nu) a^nu K_nu(a) with a = sqrt(2 nu) d / rho, by
    scipy's exponentially scaled kve in log space; exactly 1 at d = 0.
    d, rho and nu broadcast against each other."""
    a = np.sqrt(2.0 * nu) * np.asarray(d, dtype=float) / rho
    safe = np.where(a > 0.0, a, 1.0)
    log_c = ((1.0 - nu) * math.log(2.0) - gammaln(nu) + nu * np.log(safe)
             + np.log(kve(nu, safe)) - safe)
    return np.where(a > 0.0, np.exp(log_c), 1.0)


def batched_kriging(pts: np.ndarray, pred: np.ndarray, rho: np.ndarray,
                    nu: np.ndarray, omega2: np.ndarray):
    """Weights (N, n) solving (Omega + omega2 I) w = c for N parameter
    rows at once, plus the cross-correlation vectors c (N, n)."""
    n = len(pts)
    dmat = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    dcross = np.sqrt(((pts - pred[None, :]) ** 2).sum(axis=1))
    uniq, inv = np.unique(np.concatenate([dmat.ravel(), dcross]),
                          return_inverse=True)
    corr = matern_correlation_kv(uniq[None, :], rho[:, None], nu[:, None])
    gathered = corr[:, inv]
    system = (gathered[:, :n * n].reshape(-1, n, n)
              + omega2[:, None, None] * np.eye(n))
    cross = gathered[:, n * n:]
    weights = np.linalg.solve(system, cross[:, :, None])[:, :, 0]
    return weights, cross


def _study_response(rows: np.ndarray, names, pts, pred, response,
                    omega2_value) -> np.ndarray:
    col = {name: rows[:, j] for j, name in enumerate(names)}
    omega2 = col.get("omega2", np.full(len(rows), omega2_value))
    weights, cross = batched_kriging(pts, pred, col["rho"], col["nu"],
                                     omega2)
    if response == "weights":
        return weights
    return col["sigma2"] * (1.0 - np.sum(cross * weights, axis=1))


def study_jansen_numerators(rows_a, rows_b, names, grid_dimension,
                            response, omega2_value=None) -> np.ndarray:
    """Jansen numerators E[(f(A) - f(A_B^i))^2] per input of a study row.

    For the weights response the location factor x is averaged exactly:
    each continuous input's numerator is the mean over all training
    points, and x's own numerator is 2 Var_x w(theta), the mean over
    every ordered pair of locations. Shares are ratios of numerators, so
    the response variance never enters.
    """
    pts, pred = study_layout(grid_dimension)

    def f(rows):
        out = _study_response(rows, names, pts, pred, response,
                              omega2_value)
        if not np.all(np.isfinite(out)):
            raise ArithmeticError("non-finite response in oracle")
        return out

    f_a = f(rows_a)
    nums = []
    for i in range(len(names)):
        hybrid = rows_a.copy()
        hybrid[:, i] = rows_b[:, i]
        diff = f_a - f(hybrid)
        nums.append(float(np.mean(diff * diff)))
    if response == "weights":
        nums.append(float(np.mean(2.0 * np.var(f_a, axis=1))))
    return np.array(nums)


def converged_study_shares(grid_dimension: int, response: str,
                           omega2_value=None, scrambles: int = 16,
                           log2_rows: int = 13, seed: int = 0):
    """Total-effect percent shares of one study row with 95% intervals.

    Inputs follow the study convention: sigma2 (variance response), rho,
    nu, omega2 (when omega2_value is None, i.e. varying) and x (weights
    response). Each of `scrambles` independent Owen-scrambled Sobol'
    sequences of 2^log2_rows points supplies the A and B matrices of one
    estimate; the result is the mean share over the replicates and the
    Student-t 95% halfwidth. Returns (names, shares, halfwidths).
    """
    if response == "weights":
        names = ["rho", "nu"]
    elif response == "prediction_variance" and omega2_value is None:
        names = ["sigma2", "rho", "nu"]
    else:
        raise ValueError("the oracle covers the weights rows and the "
                         "variance row with varying omega2")
    if omega2_value is None:
        names.append("omega2")
    if scrambles < 2:
        raise ValueError("at least two scrambles are needed for an interval")
    lows = np.array([STUDY_RANGES[n][0] for n in names])
    highs = np.array([STUDY_RANGES[n][1] for n in names])
    p = len(names)
    shares = []
    for child in np.random.SeedSequence(seed).spawn(scrambles):
        u = stats.qmc.Sobol(d=2 * p, scramble=True,
                            seed=np.random.default_rng(child)
                            ).random_base2(log2_rows)
        rows_a = lows + (highs - lows) * u[:, :p]
        rows_b = lows + (highs - lows) * u[:, p:]
        nums = study_jansen_numerators(rows_a, rows_b, names,
                                       grid_dimension, response,
                                       omega2_value)
        shares.append(100.0 * nums / nums.sum())
    shares = np.array(shares)
    t = float(stats.t.ppf(0.975, scrambles - 1))
    halfwidth = t * shares.std(axis=0, ddof=1) / math.sqrt(scrambles)
    if response == "weights":
        names.append("x")
    return tuple(names), shares.mean(axis=0), halfwidth
