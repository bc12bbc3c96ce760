"""Static spectrum of the invariant eigenproblem -psi'' + |x| psi = lambda psi.

With hbar = 1 and the mass scaled out, the matched solutions on the two
half-lines are Airy functions of the shifted coordinate, and the matching
condition at the origin picks the eigenvalues from the negative zeros of
Ai or Ai':

    even n:  psi'(0) = 0  ->  lambda_n = -a'_{n/2+1}
    odd  n:  psi(0)  = 0  ->  lambda_n = -a_{(n+1)/2}

Eigenfunctions are phi_n(x) = N_n Ai(|x| - lambda_n) for even n and
sgn(x) N_n Ai(|x| - lambda_n) for odd n (sgn(0) = 0), with

    even: N_n = 1 / (sqrt(-2 a') Ai(a'))
    odd:  N_n = 1 / (sqrt(2) Ai'(a))

which normalize the full-line integral to 1 through the tail identity
int_a^inf Ai^2 = Ai'(a)^2 - a Ai(a)^2; the same identity makes each
half-line carry exactly 1/2.  The analytic continuation used by the
time-dependent solution is that of the x >= 0 branch, N Ai(z - lambda),
because |.| of a complex argument would be meaningless; the x <= 0
branch is sigma_n times it at -z (see `wavefunction`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# airy_eval_many is not called here, but the benchmark tracer in
# bench/tracing.py rebinds it in this namespace
from .airy import (airy_ai_many, airy_derivative_zero, airy_eval, airy_eval_many,  # noqa: F401
                   airy_function_zero)

__all__ = [
    "MAX_LEVEL",
    "SpectralLevel",
    "level",
    "eigenfunction",
    "eigenfunction_continued",
    "density",
    "tail_integral",
]

MAX_LEVEL = 40


@dataclass(frozen=True)
class SpectralLevel:
    """One bound level of the invariant: index, parity, lambda, N."""

    n: int
    parity: str              # "even" | "odd"
    eigenvalue: float
    norm_const: float


@functools.lru_cache(maxsize=None)
def level(n: int) -> SpectralLevel:
    """Level data for quantum number n (0-based, n <= 40)."""
    if not 0 <= n <= MAX_LEVEL:
        raise ValueError(f"level index must lie in 0..{MAX_LEVEL}")
    if n % 2 == 0:
        a = airy_derivative_zero(n // 2 + 1)
        lam = -a
        norm = 1.0 / (np.sqrt(-2.0 * a) * airy_eval(a).ai.real)
        return SpectralLevel(n=n, parity="even", eigenvalue=lam, norm_const=float(norm))
    a = airy_function_zero((n + 1) // 2)
    lam = -a
    norm = 1.0 / (np.sqrt(2.0) * airy_eval(a).ai_prime.real)
    return SpectralLevel(n=n, parity="odd", eigenvalue=lam, norm_const=float(norm))


def _at_distinct_abs(read, x):
    """read(u) at the sorted distinct u = |x|, scattered back to x's shape:
    K + 1 points on a centered grid of 2K + 1 nodes.  A 0-d x is read as is."""
    if np.ndim(x) == 0:
        return read(np.abs(x))
    # raveled: numpy 2.x shapes the inverse of an N-d input differently
    u, inv = np.unique(np.abs(x).ravel(), return_inverse=True)
    return read(u)[inv].reshape(np.shape(x))


def eigenfunction(n: int, x):
    """phi_n at real x (scalar or array): the continued branch once per
    distinct |x|, times sgn(x) for odd n."""
    xa = np.asarray(x, dtype=float)
    vals = _at_distinct_abs(lambda u: eigenfunction_continued(n, u).real, xa)
    if n % 2:
        vals = vals * np.sign(xa)        # sgn(0) = 0 zeroes the origin exactly
    return float(vals) if xa.ndim == 0 else vals


def eigenfunction_continued(n: int, z):
    """Analytic continuation N Ai(z - lambda) of phi_n's x >= 0 branch.

    A 0-d z is read in Python scalars and gives a Python complex.
    """
    lev = level(n)
    if isinstance(z, (int, float, complex)) or np.ndim(z) == 0:
        return complex(airy_ai_many(z - lev.eigenvalue) * lev.norm_const)
    return airy_ai_many(np.asarray(z, dtype=complex) - lev.eigenvalue) * lev.norm_const


def density(n: int, x):
    """Probability density phi_n(x)^2 on the real line."""
    vals = eigenfunction(n, x)
    return vals * vals


def tail_integral(a: float) -> float:
    """int_a^inf Ai^2, by the closed identity Ai'(a)^2 - a Ai(a)^2."""
    v = airy_eval(a)
    return float(v.ai_prime.real**2 - a * v.ai.real**2)
