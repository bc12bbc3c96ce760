"""Airy functions Ai, Bi and their first-kind zeros on the complex plane.

The solver in this package needs Ai(z) at complex arguments with moduli
up to about 40, Ai'(z) at the real zeros, and the negative real zeros a_k
of Ai and a'_k of Ai'.  Two evaluators share one input contract:

  * `airy_ai_many` gives Ai alone through the modified Bessel function
    K_{1/3} (`scipy.special.kv`; DLMF 9.6.1 and 9.2.12, see its
    docstring).  Every eigenfunction and branch state reads only Ai, so
    they all use it.  Against mpmath its relative error is about 4e-14 on
    the working disc |z| <= 40, away from the zeros of Ai.

  * `airy_eval_many` gives Ai, Ai', Bi and Bi' from `scipy.special.airy`,
    which wraps D. E. Amos's complex Airy routines (ACM TOMS Algorithm
    644, 1986), with the same accuracy on the same disc.  It serves the
    readers of Ai', Bi and Bi': the levels, the zeros and the tail
    identity, through `airy_eval`.

Three details are handled here rather than left to callers:

  * Signed zero.  For a negative real part with |z| > 1, Amos's routine
    takes an imaginary part of -0.0 as the lower side of a branch cut and
    returns a wrong value (scipy 1.17.1 gives Ai(-5 - 0.0j) =
    -0.175 + 0.069j, the true value being 0.351).  Region 2 of the
    time-dependent states produces such arguments as -z - lambda, so every
    argument is normalized with `+ 0.0`, which turns -0.0 into +0.0.

  * The origin.  K_{1/3} is infinite at 0, so `airy_ai_many` returns
    Ai(0) = 3^(-2/3)/Gamma(2/3) for |z| < 1e-17, where Ai(z) rounds to
    Ai(0) in double precision; kv itself overflows below |z| ~ 1e-205.

  * Zeros.  `scipy.special.ai_zeros` is off by up to 8e-12 in the first
    50 zeros, so each is polished by three Newton steps on real arguments:
    Ai / Ai' for a_k, and Ai' / Ai'' for a'_k with Ai'' = z Ai.  Indices
    1 <= k <= 50 are supported, which keeps |a_k| < 38 inside the disc.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ai_zeros, airy, kv

__all__ = [
    "AiryPair",
    "AiryZero",
    "airy_eval",
    "airy_eval_many",
    "airy_ai_many",
    "airy_function_zero",
    "airy_derivative_zero",
    "MAX_ABS_Z",
    "MAX_ZERO_INDEX",
]

MAX_ABS_Z = 40.0
MAX_ZERO_INDEX = 50
_NEWTON_STEPS = 3

_K_SCALE = 1.0 / (np.pi * np.sqrt(3.0))
_AI_AT_ZERO = 0.35502805388781723926     # 3^(-2/3) / Gamma(2/3)
_NEAR_ZERO = 1e-17                        # |Ai'(0) z / Ai(0)| < 1e-17 below


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


def _in_disc(z):
    """z as complex, -0.0 imaginary parts made +0.0, with its moduli.

    A ValueError flags any point outside |z| <= 40, NaN included.
    """
    # + 0.0 maps a -0.0 imaginary part to +0.0 (see the module docstring)
    zarr = np.asarray(z, dtype=complex) + 0.0
    mod = np.abs(zarr)
    # written so that a NaN modulus fails the test
    if not mod.max(initial=0.0) <= MAX_ABS_Z:
        raise ValueError(f"|z| > {MAX_ABS_Z} is outside the supported disc")
    return zarr, mod


def airy_eval_many(z) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (Ai, Ai', Bi, Bi') on an array of complex points.

    Points must satisfy |z| <= 40; a ValueError flags anything outside the
    supported disc, NaN included.
    """
    return airy(_in_disc(z)[0])


def airy_ai_many(z) -> np.ndarray:
    """Evaluate Ai alone on an array of complex points.

    Same contract as `airy_eval_many`, whose first output this matches in
    shape and dtype.  With K = K_{1/3}, c = 1/(pi sqrt 3) and
    zeta = (2/3) z^(3/2), all on principal branches,

        |arg z| <  2 pi/3:  Ai(z) = c sqrt(z) K(zeta)                (DLMF 9.6.1)
        |arg z| >= 2 pi/3:  Ai(z) = c sqrt(z) [K(-zeta) - K(zeta)]

    The second line is Ai(z) = -w Ai(w z) - w^2 Ai(w^2 z), w = e^(2 pi i/3)
    (DLMF 9.2.12), with the rotations multiplied out: w z and w^2 z have
    3/2 powers zeta and -zeta, and their square roots turn the factors -w
    and -w^2 into -1 and +1.  So both rotations are one stacked kv call,
    made together with the points of the first line.

    The sector |arg z| >= 2 pi/3 (Re z <= -|z|/2) is where the 3/2 power
    wraps onto the other side of K's branch cut, so it is read off the
    computed zeta: its imaginary part has the sign opposite to Im z there.
    A point on the boundary ray then always gets the formula that matches
    the side of the cut kv sees.
    """
    zarr, mod = _in_disc(z)
    flat = zarr.reshape(-1)
    root = np.sqrt(flat)
    zeta = (2.0 / 3.0) * flat * root
    # opposite signs as the sign of the product; Im z = +0.0 on the real
    # axis, where the product keeps the sign of Im zeta
    far = np.signbit(zeta.imag * flat.imag)
    kval = kv(1.0 / 3.0, np.concatenate((zeta, -zeta[far])))
    val = kval[:flat.size]
    val[far] = kval[flat.size:] - val[far]
    val *= _K_SCALE * root
    if mod.min(initial=np.inf) < _NEAR_ZERO:
        val[mod.reshape(-1) < _NEAR_ZERO] = _AI_AT_ZERO
    return val.reshape(zarr.shape)[()]


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
