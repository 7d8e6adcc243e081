"""Modified Bessel functions K0 and K1.

Two fixed regimes with the switch at x = 2:

* ``x <= 2``: ascending series with the logarithmic term (DLMF 10.31.2),
  which converges to machine precision in at most ~20 terms there;
* ``x > 2``: the asymptotic expansion summed in its continued-fraction
  (Steed CF2) form, cf. Thompson & Barnett, which keeps full accuracy all
  the way down to the switch point where the truncated divergent series
  would lose digits.

The continued fraction gives the exponentially scaled e^x K_nu(x), so the
values only underflow (to 0.0) once e^{-x} itself leaves the double range
around x ~ 746.
"""

import numpy as np

from ..errors import InvalidInputError

_EULER_GAMMA = 0.5772156649015328606

_SERIES_TERMS = 32
_CF2_MAXIT = 400
_CF2_EPS = 1e-16


def _k01_series(x):
    """K0 and K1 on 0 < x <= 2 by the ascending series with log term."""
    q = 0.25 * x * x
    lg = np.log(0.5 * x) + _EULER_GAMMA

    i0 = np.ones_like(x)
    i1 = np.ones_like(x)          # sum for 2*I1/x
    k0_sum = np.zeros_like(x)     # sum of H_k q^k / (k!)^2
    k1_sum = np.ones_like(x)      # sum of (H_k + H_{k+1}) q^k / (k! (k+1)!), k=0 term = 1
    term0 = np.ones_like(x)
    term1 = np.ones_like(x)
    harmonic = 0.0
    for k in range(1, _SERIES_TERMS):
        term0 = term0 * q / (k * k)
        term1 = term1 * q / (k * (k + 1))
        harmonic += 1.0 / k
        i0 += term0
        i1 += term1
        k0_sum += term0 * harmonic
        k1_sum += term1 * (2.0 * harmonic + 1.0 / (k + 1))
    i1 = 0.5 * x * i1
    k0 = -lg * i0 + k0_sum
    k1 = 1.0 / x + lg * i1 - 0.25 * x * k1_sum
    return k0, k1


def _k01_cf2(x):
    """Scaled e^x K0, e^x K1 on x >= 2 by the Steed CF2 recurrence."""
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d.copy()
    delh = d.copy()
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    a1 = 0.25
    q = np.full_like(x, a1)
    c = np.full_like(x, a1)
    a = -a1
    s = 1.0 + q * delh
    active = np.ones(x.shape, dtype=bool)
    for i in range(2, _CF2_MAXIT):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        active &= np.abs(dels) >= _CF2_EPS * np.abs(s)
        if not active.any():
            break
    else:
        raise InvalidInputError("CF2 for K0/K1 failed to converge")
    h = a1 * h
    k0 = np.sqrt(np.pi / (2.0 * x)) / s
    k1 = k0 * (x + 0.5 - h) / x
    return k0, k1


def bessel_k(order, x):
    """Modified Bessel function of the second kind, order 0 or 1.

    Parameters
    ----------
    order : int
        0 or 1.
    x : float or array_like
        Strictly positive argument(s).

    Returns
    -------
    float or ndarray
        Relative accuracy better than 1e-13 on x in [1e-8, 700].  Values
        underflow to 0.0 once ``exp(-x)`` does (x >~ 746).
    """
    if order not in (0, 1):
        raise InvalidInputError("order must be 0 or 1")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    if np.any(~np.isfinite(x_arr)) or np.any(x_arr <= 0.0):
        raise InvalidInputError("bessel_k requires finite x > 0")

    out = np.empty_like(x_arr)
    small = x_arr <= 2.0
    with np.errstate(under="ignore"):
        if small.any():
            k0, k1 = _k01_series(x_arr[small])
            out[small] = k0 if order == 0 else k1
        large = ~small
        if large.any():
            k0, k1 = _k01_cf2(x_arr[large])
            out[large] = (k0 if order == 0 else k1) * np.exp(-x_arr[large])
    return float(out[0]) if scalar else out
