"""Airy functions Ai, Bi and their first-kind zeros on the complex plane.

The solver in this package needs Ai(z) at complex arguments with moduli
up to about 40, Ai'(z) at the real zeros, and the negative real zeros a_k
of Ai and a'_k of Ai'.  The evaluators share one input contract:

  * `airy_ai_many` gives Ai alone through the modified Bessel function
    K_{1/3} (`scipy.special.kv`; DLMF 9.6.1 and 9.2.12, see its
    docstring).  The eigenfunctions and the assembled states read only
    Ai, so they use it.  Against mpmath its relative error is about 4e-14 on
    the working disc |z| <= 40, away from the zeros of Ai.  A 0-d input
    (one point, as the Crank-Nicolson boundary feed asks for on every
    step) is read in Python scalars with the same formulas, which costs
    a fraction of the same work on one-element arrays.

  * `airy_ai_and_prime` gives Ai and Ai' from one kv call over the orders
    1/3 and 2/3 (DLMF 9.6.1 and 9.6.2), with Ai' read in the same sectors
    and its Ai column bitwise that of `airy_ai_many`.  Against mpmath Ai'
    is within about 5e-14 relative on the same disc.

  * `airy_ai_and_prime_lattice` gives Ai and Ai' on a lattice c + k h
    with a real step h.  It reads `airy_ai_and_prime` at the anchors,
    the nodes k = 0 mod 8, and sums every other node from the anchor at
    most 4 nodes away by the Taylor series that Ai'' = z Ai supplies,
    with a stated bound on its remainder (Gil, Segura and Temme,
    Numerical Methods for Special Functions, SIAM 2007, on Taylor methods
    for the ODEs of special functions).  A step too coarse for the series
    is read directly.  `verify` reads every state through it, once per
    state and time, and takes the state's d/dt from Ai' by the chain rule
    (see `wavefunction`).  On the default grid it costs about a quarter
    of the direct read, within 4e-14 of it in units of
    |Ai| + |Ai'|/sqrt(41).

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
    argument is normalized by adding +0.0 to its imaginary part, which
    turns -0.0 into +0.0.  A one-point read adds it to the float
    `z.imag`: `z + 0.0` on a Python complex keeps -0.0 under the C99
    mixed-mode arithmetic of Python 3.14.

  * The origin.  K_{1/3} is infinite at 0, so `airy_ai_many` returns
    Ai(0) = 3^(-2/3)/Gamma(2/3) for |z| < 1e-17, where Ai(z) rounds to
    Ai(0) in double precision; kv itself overflows below |z| ~ 1e-205.
    `airy_ai_and_prime` returns Ai'(0) = -3^(-1/3)/Gamma(1/3) there too,
    where z K_{2/3} would read 0 times infinity.

  * Zeros.  `scipy.special.ai_zeros` is off by up to 8e-12 in the first
    50 zeros, so each is polished by three Newton steps on real arguments:
    Ai / Ai' for a_k, and Ai' / Ai'' for a'_k with Ai'' = z Ai.  Indices
    1 <= k <= 50 are supported, which keeps |a_k| < 38 inside the disc.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ai_zeros, airy, kv

__all__ = [
    "AiryPair",
    "airy_eval",
    "airy_eval_many",
    "airy_ai_many",
    "airy_ai_and_prime",
    "airy_ai_and_prime_lattice",
    "airy_function_zero",
    "airy_derivative_zero",
    "MAX_ABS_Z",
    "MAX_ZERO_INDEX",
]

MAX_ABS_Z = 40.0
MAX_ZERO_INDEX = 50
_NEWTON_STEPS = 3

_K_SCALE = 1.0 / (math.pi * math.sqrt(3.0))
_AI_AT_ZERO = 0.35502805388781723926     # 3^(-2/3) / Gamma(2/3)
_AIP_AT_ZERO = -0.25881940379280679841   # -3^(-1/3) / Gamma(1/3)
_NEAR_ZERO = 1e-17                        # |Ai'(0) z / Ai(0)| < 1e-17 below
_ORDERS = np.array([[1.0 / 3.0], [2.0 / 3.0]])    # kv orders of Ai and Ai'


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


def _refuse_outside_disc(largest_modulus):
    """A ValueError unless the largest |z| lies in the disc; NaN fails too."""
    # written so that a NaN modulus fails the test
    if not largest_modulus <= MAX_ABS_Z:
        raise ValueError(f"|z| > {MAX_ABS_Z} is outside the supported disc")


def _in_disc(z):
    """z as complex, -0.0 imaginary parts made +0.0, with its moduli.

    A ValueError flags any point outside |z| <= 40, NaN included.
    """
    # + 0.0 maps a -0.0 imaginary part to +0.0 (see the module docstring)
    zarr = np.asarray(z, dtype=complex) + 0.0
    mod = np.abs(zarr)
    _refuse_outside_disc(mod.max(initial=0.0))
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

    A 0-d input (a Python or numpy number, or a 0-d array) is read by
    `_ai_point` in Python scalars and gives an np.complex128.
    """
    if isinstance(z, (int, float, complex)) or np.ndim(z) == 0:
        return _ai_point(complex(z))
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
    return val.reshape(zarr.shape)


def _ai_point(z: complex) -> np.complex128:
    """`airy_ai_many` at one point: the same formulas, refusals and Ai(0)
    rule, in Python scalars and one or two scalar kv calls."""
    # the float sum clears a -0.0 imaginary part; z + 0.0 need not
    z = complex(z.real, z.imag + 0.0)
    mod = abs(z)
    _refuse_outside_disc(mod)
    if mod < _NEAR_ZERO:
        return np.complex128(_AI_AT_ZERO)
    root = cmath.sqrt(z)
    zeta = (2.0 / 3.0) * z * root
    val = kv(1.0 / 3.0, zeta)
    if math.copysign(1.0, zeta.imag * z.imag) < 0.0:      # the far sector
        val = kv(1.0 / 3.0, -zeta) - val
    return val * (_K_SCALE * root)


def airy_ai_and_prime(z) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate Ai and Ai' on an array of complex points, from one kv call.

    Same contract as `airy_eval_many`, whose first two outputs these match
    in shape and dtype; the Ai output is bitwise that of `airy_ai_many`,
    whose formulas, sector read and refusals it shares.  With K = K_{2/3}
    and c, zeta as there,

        |arg z| <  2 pi/3:  Ai'(z) = -c z K(zeta)                    (DLMF 9.6.2)
        |arg z| >= 2 pi/3:  Ai'(z) = c z [K(zeta) + K(-zeta)]

    the second line being the derivative of DLMF 9.2.12 with the same
    rotations multiplied out.  Both orders go into one kv call over the
    same stacked arguments.  Below |z| = 1e-17 the pair is (Ai(0), Ai'(0)).
    """
    zarr, mod = _in_disc(z)
    flat = zarr.reshape(-1)
    root = np.sqrt(flat)
    zeta = (2.0 / 3.0) * flat * root
    far = np.signbit(zeta.imag * flat.imag)
    kval = kv(_ORDERS, np.concatenate((zeta, -zeta[far])))
    val, der = kval[:, :flat.size]
    val[far] = kval[0, flat.size:] - val[far]
    val *= _K_SCALE * root
    der[far] = -(kval[1, flat.size:] + der[far])
    der *= -_K_SCALE * flat
    if mod.min(initial=np.inf) < _NEAR_ZERO:
        tiny = mod.reshape(-1) < _NEAR_ZERO
        val[tiny] = _AI_AT_ZERO
        der[tiny] = _AIP_AT_ZERO
    return val.reshape(zarr.shape)[()], der.reshape(zarr.shape)[()]


# the anchor spacing of `airy_ai_and_prime_lattice`, and the terms of its
# series: J with cosh(1) q^J <= 2^-53, q = (_STRIDE/2) |h| _KAPPA, at most
# _MAX_TERMS (see its docstring for the bound)
_STRIDE = 8
_KAPPA = math.sqrt(1.0 + MAX_ABS_Z)
_LOG_TOL = math.log(2.0 ** -53 / math.cosh(1.0))
_MAX_TERMS = 32


def _lattice_terms(h: float) -> int:
    """Series terms J for the lattice step h, or 0 if h needs the direct read."""
    q = _STRIDE // 2 * abs(h) * _KAPPA
    if not 0.0 < q < 1.0:               # h = 0, or |h| too coarse or not finite
        return 0
    # at least 3, so that each sum of `_taylor_rows` reads both Ai and Ai'
    terms = max(3, math.ceil(_LOG_TOL / math.log(q)))
    return terms if terms <= _MAX_TERMS else 0


def _taylor_rows(za, ai, aip, steps, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Ai and Ai' at za[i] + steps[i, j] from Ai and Ai' at each anchor za[i].

    Horner's rule on `terms` terms of the Taylor series at za,

        Ai(za + d)  = sum_j c_j d^j,           c_0 = Ai(za), c_1 = Ai'(za),
        Ai'(za + d) = sum_j (j + 1) c_{j+1} d^j,
        c_{j+2} = (za c_j + c_{j-1}) / ((j + 2)(j + 1))   (Ai'' = z Ai, DLMF 9.2.1),

    for real steps.  A non-finite Ai or Ai' at an anchor makes every value
    of its row non-finite: with terms >= 3 each sum reads both c_0 and
    c_1 (Ai' through c_2 = za c_0 / 2), and the last Horner step adds one
    of them, so a NaN or infinity reaches every step, 0 included.
    """
    coef = np.empty((terms + 1, za.size), dtype=complex)
    coef[0], coef[1] = ai, aip
    for j in range(terms - 1):
        np.multiply(za, coef[j], out=coef[j + 2])
        if j:
            coef[j + 2] += coef[j - 1]
        coef[j + 2] /= (j + 2) * (j + 1)
    # rows[j] = (c_j, (j + 1) c_{j+1}), the j-th coefficients of both sums
    rows = np.stack((coef[:-1], coef[1:] * np.arange(1.0, terms + 1.0)[:, None]), axis=1)
    acc = np.empty((2,) + steps.shape, dtype=complex)
    acc[...] = rows[-1, :, :, None]
    # a real step scales the real and imaginary parts alike
    parts, step2 = acc.view(float), np.repeat(steps, 2, axis=-1)
    for row in rows[-2::-1, :, :, None]:
        parts *= step2
        acc += row
    return acc[0], acc[1]


def airy_ai_and_prime_lattice(c: complex, h: float, ks: range) -> tuple[np.ndarray, np.ndarray]:
    """Ai and Ai' at the lattice nodes z_k = c + k h, k in ks, for a real step h.

    The values are those of `airy_ai_and_prime(c + np.arange(ks.start,
    ks.stop) * h)` to within the kernel's accuracy, and it refuses what
    that call refuses, NaN included.  The kernel is read only at the
    anchors, the nodes k = 0 mod 8; each other node is summed from the
    anchor at most 4 nodes away by `_taylor_rows`, over the exact step
    z_k - z_anchor.  The remainder after J terms is bounded through a
    majorant: the Taylor coefficients a_j = Ai^(j)(z) obey
    a_{j+2} = z a_j + j a_{j-1}, so with R >= |z|, B_0 = |a_0|,
    B_1 = |a_1| and B_{j+2} = R B_j + j B_{j-1}, every |a_j| <= B_j; the
    B_j are the coefficients of Y'' = (R + d) Y, which stays below
    B_0 cosh(kappa d) + (B_1/kappa) sinh(kappa d) for 0 <= d <= 1/kappa,
    kappa = sqrt(1 + R).  So with q = 4 |h| kappa the remainder of Ai
    after J terms, and that of Ai'/kappa, is at most
    cosh(1) q^J (|Ai| + |Ai'|/kappa) at the anchor.  R = 40 for every
    anchor in the disc, so J, the least count with cosh(1) q^J <= 2^-53,
    depends on h alone: 19 at |h| = 0.005, 28 at 0.01.

    Where J would exceed 32 (|h| above about 0.0122; at 0.04, q > 1 and
    the series diverges), the whole range is read directly.  So is the
    block of an anchor outside |z| <= 40, which can happen within 4 nodes
    past either end of a range whose nodes all lie inside.  Every node's
    value depends on c, h and k alone, so two reads that share nodes of
    one lattice give the same bits there, and an anchor's value is
    bitwise the direct read's.
    """
    if ks.step != 1:
        raise ValueError("the lattice range must have step 1")
    c = complex(c)
    terms = _lattice_terms(h)
    if not terms or not len(ks):
        # an infinite or huge h gives NaN or infinite points, which are refused
        with np.errstate(over="ignore", invalid="ignore"):
            return airy_ai_and_prime(c + np.arange(ks.start, ks.stop) * h)
    half = _STRIDE // 2
    first = (ks.start + half) // _STRIDE        # the anchor of node k is 8 ((k + 4) // 8)
    last = (ks.stop - 1 + half) // _STRIDE
    nodes = np.arange(first * _STRIDE - half, last * _STRIDE + half)
    block = c + nodes * h                       # the blocks of the anchors, one per row
    lo = ks.start - nodes[0]
    z = block[lo:lo + len(ks)]
    _refuse_outside_disc(np.abs(z).max())       # NaN included
    block = block.reshape(-1, _STRIDE)
    za = block[:, half]
    inside = np.abs(za) <= MAX_ABS_Z
    ai = np.empty(block.shape, dtype=complex)
    aip = np.empty(block.shape, dtype=complex)
    ai[inside], aip[inside] = _taylor_rows(
        za[inside], *airy_ai_and_prime(za[inside]),
        (block[inside] - za[inside, None]).real, terms)
    ai = ai.reshape(-1)[lo:lo + len(ks)]
    aip = aip.reshape(-1)[lo:lo + len(ks)]
    if not inside.all():
        direct = ~np.repeat(inside, _STRIDE)[lo:lo + len(ks)]
        ai[direct], aip[direct] = airy_ai_and_prime(z[direct])
    return ai, aip


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


def airy_function_zero(k: int) -> float:
    """k-th negative zero a_k of Ai, counted from the origin (k >= 1)."""
    _check_index(k)
    return float(_zero_tables()[0][k - 1])


def airy_derivative_zero(k: int) -> float:
    """k-th negative zero a'_k of Ai', counted from the origin (k >= 1)."""
    _check_index(k)
    return float(_zero_tables()[1][k - 1])
