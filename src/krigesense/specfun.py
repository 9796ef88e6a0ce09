"""Modified Bessel function of the second kind, K_nu, for real order.

Every value comes from one log-space array path, the package's only
call into scipy's AMOS routines: the scalar log call runs it on a single
value, and the linear-space call exponentiates that. It works from the
exponentially scaled form so that it stays finite over the whole
supported domain (nu in [0, 50], x in (0, 700]); in the corner where even
the scaled value overflows (large nu together with tiny x) it switches
to an ascending series evaluated fully in log space.
"""

from __future__ import annotations

import math
import numpy as np
from scipy.special import kve

NU_MAX = 50.0
X_MAX = 700.0

__all__ = ["bessel_k", "bessel_k_log", "NU_MAX", "X_MAX"]


def _check_domain(nu: float, x: float) -> tuple[float, float]:
    nu = float(nu)
    x = float(x)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be a finite real >= 0, got {nu}")
    if nu > NU_MAX:
        raise ValueError(f"order must be <= {NU_MAX}, got {nu}")
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"argument must be a finite real > 0, got {x}")
    if x > X_MAX:
        raise ValueError(f"argument must be <= {X_MAX}, got {x}")
    return nu, x


def bessel_k(nu: float, x: float) -> float:
    """K_nu(x) in linear space: exp(bessel_k_log(nu, x)).

    Raises OverflowError when the value exceeds the double range (small x
    with large nu); callers that need that regime use bessel_k_log.
    """
    try:
        return math.exp(bessel_k_log(nu, x))
    except OverflowError:
        raise OverflowError(f"K_{float(nu)}({float(x)}) exceeds the double "
                            "range; use bessel_k_log") from None


def bessel_k_log(nu: float, x: float) -> float:
    """ln K_nu(x), finite over the whole supported domain: the domain
    check, then bessel_k_log_array on one value."""
    nu, x = _check_domain(nu, x)
    # one element, not a 0-d array: the array path's fallback indexes the
    # entries np.nonzero returns
    return float(bessel_k_log_array(nu, np.array([x]))[0])


def _log_k_small_x(nu: float, x: float) -> float:
    """Ascending series in log space for the overflow corner.

    K_nu(x) = (1/2) (x/2)^(-nu) * sum_k Gamma(nu-k)/k! (-x^2/4)^k + O((x/2)^nu),
    valid when (2/x)^nu dominates; the branch is only reached once
    Gamma(nu) (2/x)^nu has overflowed the scaled forward path, which forces
    nu >> 1 and x << 1, so the neglected I_nu contribution is below 1e-300
    relative and the series needs only a few terms.
    """
    # correction series in ratio form: term_{k+1}/term_k = (-x^2/4)/((k+1)(nu-k-1))
    series = 1.0
    term = 1.0
    quarter = -0.25 * x * x
    for k in range(8):
        denom = (k + 1.0) * (nu - k - 1.0)
        if denom == 0.0:
            break
        term *= quarter / denom
        series += term
        if abs(term) < 1e-18 * abs(series):
            break
    return (math.lgamma(nu) - math.log(2.0)
            + nu * (math.log(2.0) - math.log(x)) + math.log(series))


def bessel_k_log_array(nu, x: np.ndarray) -> np.ndarray:
    """Vectorized ln K_nu over an array of positive arguments.

    The one log-space path: kernel-matrix assembly calls it directly (the
    kernel layer has already validated its parameters) and bessel_k_log
    calls it on one value after its domain check. Elements where the
    scaled form overflows take the small-x series. nu is one order or an
    array of orders that broadcasts against x.
    """
    x = np.asarray(x, dtype=float)
    scaled = kve(nu, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(scaled) - x
    bad = ~np.isfinite(out)
    if np.any(bad):
        orders = np.broadcast_to(nu, out.shape)
        args = np.broadcast_to(x, out.shape)
        for idx in zip(*np.nonzero(bad)):
            out[idx] = _log_k_small_x(float(orders[idx]), float(args[idx]))
    return out
