"""Airy functions Ai, Bi and their first-kind zeros on the complex plane.

The solver in this package needs Ai(z), Ai'(z) at complex arguments with
moduli up to about 40, plus the negative real zeros a_k of Ai and a'_k of
Ai'.  Values come from `scipy.special.airy`, which wraps D. E. Amos's
complex Airy routines (ACM TOMS Algorithm 644, 1986); against mpmath they
are accurate to about 1e-13 relative across the working disc |z| <= 40,
away from zeros of the respective function.

Two details are handled here rather than left to callers:

  * Signed zero.  For a negative real part with |z| > 1, Amos's routine
    takes an imaginary part of -0.0 as the lower side of a branch cut and
    returns a wrong value (scipy 1.17.1 gives Ai(-5 - 0.0j) =
    -0.175 + 0.069j, the true value being 0.351).  Region 2 of the
    time-dependent states produces such arguments as -z - lambda, so every
    argument is normalized with `+ 0.0`, which turns -0.0 into +0.0.

  * Zeros.  `scipy.special.ai_zeros` is off by up to 8e-12 in the first
    50 zeros, so each is polished by three Newton steps on real arguments:
    Ai / Ai' for a_k, and Ai' / Ai'' for a'_k with Ai'' = z Ai.  Indices
    1 <= k <= 50 are supported, which keeps |a_k| < 38 inside the disc.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ai_zeros, airy

__all__ = [
    "AiryPair",
    "AiryZero",
    "airy_eval",
    "airy_eval_many",
    "airy_function_zero",
    "airy_derivative_zero",
    "MAX_ABS_Z",
    "MAX_ZERO_INDEX",
]

MAX_ABS_Z = 40.0
MAX_ZERO_INDEX = 50
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class AiryPair:
    """Values of the two Airy solutions and their derivatives at one point."""

    ai: complex
    ai_prime: complex
    bi: complex
    bi_prime: complex

    @property
    def wronskian(self) -> complex:
        """ai bi' - ai' bi; exactly 1/pi for the true functions."""
        return self.ai * self.bi_prime - self.ai_prime * self.bi


@dataclass(frozen=True)
class AiryZero:
    """A negative real zero of Ai (kind "function") or Ai' (kind "derivative")."""

    kind: str
    index: int
    location: float


def airy_eval_many(z) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (Ai, Ai', Bi, Bi') on an array of complex points.

    Points must satisfy |z| <= 40; a ValueError flags anything outside the
    supported disc, NaN included.
    """
    # + 0.0 maps a -0.0 imaginary part to +0.0 (see the module docstring)
    zarr = np.asarray(z, dtype=complex) + 0.0
    if not np.all(np.abs(zarr) <= MAX_ABS_Z):
        raise ValueError(f"|z| > {MAX_ABS_Z} is outside the supported disc")
    return airy(zarr)


def airy_eval(z) -> AiryPair:
    """Evaluate the Airy functions at one complex (or real) point."""
    a, ap, b, bp = airy_eval_many(np.array([complex(z)]))
    return AiryPair(ai=a[0], ai_prime=ap[0], bi=b[0], bi_prime=bp[0])


@functools.lru_cache(maxsize=None)
def _zero_tables() -> tuple[np.ndarray, np.ndarray]:
    """The first MAX_ZERO_INDEX zeros a_k and a'_k, Newton-polished."""
    a, ap, _, _ = ai_zeros(MAX_ZERO_INDEX)
    for _ in range(_NEWTON_STEPS):
        ai, aip, _, _ = airy(a)
        a = a - ai / aip
        ai, aip, _, _ = airy(ap)
        ap = ap - aip / (ap * ai)
    return a, ap


def _check_index(k: int):
    if not 1 <= k <= MAX_ZERO_INDEX:
        raise ValueError(f"zero index must lie in 1..{MAX_ZERO_INDEX}")


def airy_function_zero(k: int) -> AiryZero:
    """k-th negative zero a_k of Ai, counted from the origin (k >= 1)."""
    _check_index(k)
    return AiryZero(kind="function", index=k, location=float(_zero_tables()[0][k - 1]))


def airy_derivative_zero(k: int) -> AiryZero:
    """k-th negative zero a'_k of Ai', counted from the origin (k >= 1)."""
    _check_index(k)
    return AiryZero(kind="derivative", index=k, location=float(_zero_tables()[1][k - 1]))
