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

Every real-grid reader, here and in `wavefunction`, reads N Ai once per
distinct |x| through `_kernel_at_abs`, on a lattice by `_lattice_read`.
Off a lattice, `eigenfunction_continued` reads Ai directly: the Ai
column of `airy.airy_ai_and_prime` on an array, `airy._ai_scalar` at one
point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# airy_eval_many is not called here, but the benchmark tracer in
# bench/tracing.py rebinds it in this namespace
from .airy import (_ai_scalar, airy_ai_and_prime, airy_ai_and_prime_lattice,  # noqa: F401
                   airy_derivative_zero, airy_eval, airy_eval_many, airy_function_zero)

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


def _lattice_read(levels, shifts, h: float, ks: range) -> list:
    """For each level n of levels and its shift, the rows N_n Ai and N_n Ai'
    at shift + k h - lambda_n, k in ks, from one anchored lattice read of
    every level's start (`airy.airy_ai_and_prime_lattice`).  Each level's
    rows are scaled by its N_n on their own, so they are bitwise the read
    of that level alone."""
    levs = [level(n) for n in levels]
    ai, aip = airy_ai_and_prime_lattice(
        np.array([shift - lev.eigenvalue for lev, shift in zip(levs, shifts)]), h, ks)
    return [np.stack(rows) * lev.norm_const for lev, rows in zip(levs, zip(ai, aip))]


def _kernel_at_abs(n: int, shift: complex, x) -> tuple:
    """(u, N Ai(u + shift - lambda_n), inv) at the sorted distinct u = |x|,
    with u[inv] = |x| in x's shape; a ValueError unless x is finite.  The
    kernel is `_lattice_read`'s when u is exactly k h, k = 0 ... K (every
    `Grid1D` grid), and read directly otherwise.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)):
        raise ValueError("grid must be finite")
    # the distinct values and their inverse by np.unique's own sort; on
    # numpy 2.4 some np.unique calls import numpy.ma, which costs about 8 ms
    a = np.abs(xa).ravel()
    order = a.argsort()
    sorted_a = a[order]
    first = np.empty(a.shape, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_a[1:], sorted_a[:-1], out=first[1:])
    u = sorted_a[first]
    inv = np.empty(a.shape, dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    if u.size > 1 and np.array_equal(u, np.arange(u.size) * u[1]):
        kernel = _lattice_read((n,), (shift,), u[1], range(u.size))[0][0]
    else:
        kernel = eigenfunction_continued(n, u + shift)
    return u, kernel, inv.reshape(xa.shape)


def eigenfunction(n: int, x):
    """phi_n at real x (scalar or array): the continued branch once per
    distinct |x|, times sgn(x) for odd n."""
    xa = np.asarray(x, dtype=float)
    _, kernel, inv = _kernel_at_abs(n, 0.0, xa)
    vals = kernel.real[inv]
    if n % 2:
        vals = vals * np.sign(xa)        # sgn(0) = 0 zeroes the origin exactly
    return float(vals) if xa.ndim == 0 else vals


def eigenfunction_continued(n: int, z):
    """Analytic continuation N Ai(z - lambda) of phi_n's x >= 0 branch.

    An array z is read by `airy_ai_and_prime`, whose Ai column this
    takes; a 0-d z by `_ai_scalar` in Python scalars, giving a Python
    complex.  It is scaled by N as a complex, which rounds as numpy's
    complex product does on every Python (3.14 multiplies a complex by a
    float part by part, which can flip the sign of a zero).
    """
    lev = level(n)
    if isinstance(z, (int, float, complex)) or np.ndim(z) == 0:
        return _ai_scalar(complex(z - lev.eigenvalue)) * complex(lev.norm_const)
    return airy_ai_and_prime(np.asarray(z, dtype=complex) - lev.eigenvalue)[0] * lev.norm_const


def density(n: int, x):
    """Probability density phi_n(x)^2 on the real line."""
    vals = eigenfunction(n, x)
    return vals * vals


def tail_integral(a: float) -> float:
    """int_a^inf Ai^2, by the closed identity Ai'(a)^2 - a Ai(a)^2."""
    v = airy_eval(a)
    return float(v.ai_prime.real**2 - a * v.ai.real**2)
