"""Reference values computed apart from airywell.

Nothing here imports the package: the spectrum and the Airy kernel come
from mpmath, and the frozen time integrals g, k, s, w of a sampled
history come from scipy.integrate.  scipy's Airy routine is not used.
"""

from __future__ import annotations

import functools

import mpmath
import numpy as np
from scipy.integrate import cumulative_simpson

mpmath.mp.dps = 30

# sub-intervals per table interval for the time integrals
_REFINE = 8


@functools.lru_cache(maxsize=None)
def level(n: int):
    """(lambda_n, N_n) from mpmath's zeros of Ai (odd n) or Ai' (even n)."""
    if n % 2 == 0:
        a = mpmath.airyaizero(n // 2 + 1, derivative=1)
        norm = 1 / (mpmath.sqrt(-2 * a) * mpmath.airyai(a))
    else:
        a = mpmath.airyaizero((n + 1) // 2)
        norm = 1 / (mpmath.sqrt(2) * mpmath.airyai(a, derivative=1))
    return -a, norm


def density(n: int, x: float) -> float:
    """phi_n(x)^2 = N_n^2 Ai(|x| - lambda_n)^2."""
    lam, norm = level(n)
    return float((norm * mpmath.airyai(abs(mpmath.mpf(x)) - lam)) ** 2)


def branch_modulus(n: int, x: float, g: float, k: float, s: float, w: float) -> float:
    """|Psi_n(x, t)| = e^{-g b/2} e^{+-k x/2} N_n |Ai(+-x + S - i b - lambda_n)|.

    Upper signs for x >= 0, lower for x < 0; S = (k^2 - g^2 + 4s)/4 and
    b = g k/2 - w.  The phase factors have modulus one and drop out.
    """
    lam, norm = level(n)
    g, k, s, w, x = (mpmath.mpf(v) for v in (g, k, s, w, x))
    shift = (k * k - g * g + 4 * s) / 4
    b = g * k / 2 - w
    sign = 1 if x >= 0 else -1
    z = mpmath.mpc(sign * x + shift - lam, -b)
    value = mpmath.exp(-g * b / 2 + sign * k * x / 2) * abs(norm * mpmath.airyai(z))
    return float(value)


def frozen_integrals(rows_t, rows_m, rows_f, times):
    """g, k, s, w of the piecewise-linear histories at the given times.

    g = -int 1/m, k = 2 int f, s = -int f k, w = int f g, all from 0.
    Each table interval is cut into _REFINE equal parts, so the grid holds
    every row and the integrands are smooth between grid points except
    at the rows themselves.
    """
    rows_t = np.asarray(rows_t, dtype=float)
    fine = np.concatenate([
        np.linspace(a, b, _REFINE + 1)[:-1] for a, b in zip(rows_t[:-1], rows_t[1:])
    ] + [rows_t[-1:]])
    m = np.interp(fine, rows_t, rows_m)
    f = np.interp(fine, rows_t, rows_f)
    g = -cumulative_simpson(1.0 / m, x=fine, initial=0.0)
    k = 2.0 * cumulative_simpson(f, x=fine, initial=0.0)
    s = -cumulative_simpson(f * k, x=fine, initial=0.0)
    w = cumulative_simpson(f * g, x=fine, initial=0.0)
    return {float(t): tuple(float(np.interp(t, fine, v)) for v in (g, k, s, w))
            for t in times}
