"""Airy functions Ai, Bi and their first-kind zeros on the complex plane.

The solver in this package needs Ai(z) at complex arguments with moduli
up to about 40, Ai'(z) at the real zeros, and the negative real zeros a_k
of Ai and a'_k of Ai'.  The evaluators share one input contract:

  * `airy_ai_and_prime` gives Ai and Ai' through the modified Bessel
    functions K_{1/3} and K_{2/3} (`scipy.special.kv`; DLMF 9.6.1, 9.6.2
    and 9.2.12, see its docstring), from one kv call over both orders.
    Against mpmath Ai is within about 4e-14 relative, and Ai' about
    5e-14, on the working disc |z| <= 40, away from the zeros.

  * `_ai_point` gives Ai alone at one point (as the Crank-Nicolson
    boundary feed asks for on every step), in Python scalars with
    `airy_ai_and_prime`'s formulas, which costs a fraction of the same
    work on a one-element array.  The eigenfunctions, states and densities
    off a lattice read Ai through it, or through `airy_ai_and_prime`'s Ai
    column on an array (see `spectrum`).

  * `airy_ai_and_prime_lattice` gives Ai and Ai' on a lattice c + k h
    with a real step h.  It reads `airy_ai_and_prime` at the anchors,
    the nodes k = 0 mod 64, and sums every other node from the anchor at
    most 32 nodes away by the Taylor series that Ai'' = z Ai supplies,
    with a stated bound on its remainder (Gil, Segura and Temme,
    Numerical Methods for Special Functions, SIAM 2007, on Taylor methods
    for the ODEs of special functions); the sums of a whole read are one
    matrix product with a step matrix built once per h.  A step too
    coarse for the series is read directly, by `airy_ai_and_prime`.
    `verify` reads every state through it, once per state and time, and
    takes the state's d/dt from Ai' by the chain rule (see
    `wavefunction`); `solve`'s states and densities, and the
    eigenfunctions, read it once each on a lattice grid's distinct |x|,
    at any step (see `spectrum`).  On the default grid it costs about a
    twentieth of the direct read, within 9e-14 of it in units of
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

  * The origin.  K_{1/3} is infinite at 0, so `airy_ai_and_prime`
    returns Ai(0) = 3^(-2/3)/Gamma(2/3) for |z| < 1e-17, where Ai(z)
    rounds to Ai(0) in double precision (kv itself overflows below
    |z| ~ 1e-205), and Ai'(0) = -3^(-1/3)/Gamma(1/3) there too, where
    z K_{2/3} would read 0 times infinity.

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


def _ai_point(z: complex) -> np.complex128:
    """Ai at one point: `airy_ai_and_prime`'s Ai formulas, refusals and
    Ai(0) rule, in Python scalars and one or two scalar kv calls."""
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
    in shape and dtype.  With K_nu the modified Bessel function,
    c = 1/(pi sqrt 3) and zeta = (2/3) z^(3/2), all on principal branches,

        |arg z| <  2 pi/3:  Ai(z)  = c sqrt(z) K_{1/3}(zeta)          (DLMF 9.6.1)
                            Ai'(z) = -c z K_{2/3}(zeta)               (DLMF 9.6.2)
        |arg z| >= 2 pi/3:  Ai(z)  = c sqrt(z) [K_{1/3}(-zeta) - K_{1/3}(zeta)]
                            Ai'(z) = c z [K_{2/3}(zeta) + K_{2/3}(-zeta)]

    The Ai line of the far sector is Ai(z) = -w Ai(w z) - w^2 Ai(w^2 z),
    w = e^(2 pi i/3) (DLMF 9.2.12), with the rotations multiplied out: w z
    and w^2 z have 3/2 powers zeta and -zeta, and their square roots turn
    the factors -w and -w^2 into -1 and +1; the Ai' line is its
    derivative.  So both rotations and both orders are one kv call over
    the stacked arguments, made together with the points of the first
    sector.

    The sector |arg z| >= 2 pi/3 (Re z <= -|z|/2) is where the 3/2 power
    wraps onto the other side of K's branch cut, so it is read off the
    computed zeta: its imaginary part has the sign opposite to Im z there.
    A point on the boundary ray then always gets the formula that matches
    the side of the cut kv sees.  Below |z| = 1e-17 the pair is
    (Ai(0), Ai'(0)).
    """
    zarr, mod = _in_disc(z)
    flat = zarr.reshape(-1)
    root = np.sqrt(flat)
    zeta = (2.0 / 3.0) * flat * root
    # opposite signs as the sign of the product; Im z = +0.0 on the real
    # axis, where the product keeps the sign of Im zeta
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


# the anchor spacing of `airy_ai_and_prime_lattice`, the longest step
# D = (_STRIDE/2) |h| for which it takes the series, and the log of
# 2^-53 / cosh(_KAPPA): its J terms are the least count with
# cosh(_KAPPA) D^J / (1 - D) <= 2^-53 (see its docstring for the bound)
_STRIDE = 64
_KAPPA = math.sqrt(1.0 + MAX_ABS_Z)
_MAX_REACH = 2.5 / _KAPPA
_LOG_TOL = math.log(2.0 ** -53 / math.cosh(_KAPPA))


def _lattice_terms(h: float) -> int:
    """Series terms J for the lattice step h, or 0 if h needs the direct read."""
    reach = _STRIDE // 2 * abs(h)
    if not 0.0 < reach <= _MAX_REACH:   # h = 0, or |h| too coarse or not finite
        return 0
    return math.ceil((_LOG_TOL + math.log1p(-reach)) / math.log(reach))


@functools.lru_cache(maxsize=16)
def _step_matrix(h: float, terms: int) -> np.ndarray:
    """The two real (4 W) x (2 _STRIDE) matrices, for Ai and for Ai', that
    sum `terms` terms of the Taylor series at the steps
    d_s = (s - _STRIDE/2) h, s = 0 ... _STRIDE - 1, with W = terms // 2 + 1;
    read-only, and built once per (h, terms).

    The coefficients of the series at an anchor za are
    c_j = P_j(za) Ai(za) + Q_j(za) Ai'(za), with P_0 = 1, Q_0 = 0, P_1 = 0,
    Q_1 = 1 and c_{j+2} = (za c_j + c_{j-1}) / ((j + 2)(j + 1)), so P_j and
    Q_j are fixed polynomials of degree at most j/2, with non-negative
    coefficients.  The rows are (P or Q, power k of za, real or imaginary
    part) and the columns (s, real or imaginary part), and an entry is
    non-zero only where both parts agree.  There it holds, for the P rows,
    the sum over j < terms of the coefficient of za^k in P_j times d_s^j
    (for Ai), or of that in P_{j+1} times (j + 1) d_s^j (for Ai'); the Q
    rows hold the same for Q.
    """
    width = terms // 2 + 1
    poly = np.zeros((terms + 1, 2, width))           # (j, P or Q, power of za)
    poly[0, 0, 0] = poly[1, 1, 0] = 1.0
    for j in range(terms - 1):
        poly[j + 2, :, 1:] = poly[j, :, :-1]
        if j:
            poly[j + 2] += poly[j - 1]
        poly[j + 2] /= (j + 2) * (j + 1)
    step = (np.arange(_STRIDE) - _STRIDE // 2) * h
    power = step ** np.arange(terms)[:, None]                    # d_s^j, j < terms
    coef = np.stack((poly[:-1], poly[1:] * np.arange(1.0, terms + 1.0)[:, None, None]))
    sums = np.einsum("ojpk,js->opks", coef, power).reshape(2, 2 * width, _STRIDE)
    # a row's real part sums into the outputs' real parts, its imaginary part
    # into their imaginary parts
    steps = np.stack([np.kron(m, np.eye(2)) for m in sums])
    steps.flags.writeable = False
    return steps


def _taylor_rows(za, ai, aip, h: float, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Ai and Ai' at za[i] + d_s from Ai and Ai' at each anchor za[i], for
    the steps d_s = (s - _STRIDE/2) h, s = 0 ... _STRIDE - 1.

    `terms` terms of the Taylor series at za,

        Ai(za + d)  = sum_j c_j d^j,           c_0 = Ai(za), c_1 = Ai'(za),
        Ai'(za + d) = sum_j (j + 1) c_{j+1} d^j,
        c_{j+2} = (za c_j + c_{j-1}) / ((j + 2)(j + 1))   (Ai'' = z Ai, DLMF 9.2.1),

    with each c_j written as P_j(za) Ai(za) + Q_j(za) Ai'(za), so that
    Ai(za + d_s) is the sum over k of Ai(za) za^k and Ai'(za) za^k, each
    times a real number that depends on h, s and k alone, and the same for
    Ai'.  One cumulative product gives Ai(za) za^k and Ai'(za) za^k, and
    one matrix product per output sums every anchor and step: their real
    and imaginary parts, one row per anchor, times `_step_matrix`, whose
    columns give the outputs' real and imaginary parts side by side.  Every
    anchor shares that matrix, so the value at za[i] + d_s depends on
    za[i], h, s and the anchor's own Ai and Ai' alone, and the anchor,
    whose column takes Ai (or Ai') times za^0 and nothing else, keeps its
    Ai and Ai'.  OpenBLAS (0.3.31 measured) gives a row of the product the
    same bits whatever the count of rows; with the anchors as the
    product's columns instead, the last few columns' bits depend on the
    count.  Each column multiplies every entry of a row, zeros included,
    and 0 times an infinity is NaN, so a non-finite Ai or Ai' at an anchor
    makes every value of its row non-finite, and no other anchor's.
    """
    steps = _step_matrix(h, terms)
    width = steps.shape[1] // 4
    # rows (Ai or Ai', za, za, ...) whose running products are Ai za^k, Ai' za^k
    seq = np.empty((za.size, 2, width), dtype=complex)
    seq[:, 0, 0], seq[:, 1, 0] = ai, aip
    seq[:, :, 1:] = za[:, None, None]
    np.cumprod(seq, axis=2, out=seq)
    sums = (seq.view(float).reshape(za.size, 4 * width) @ steps).view(complex)
    return sums[0], sums[1]


def airy_ai_and_prime_lattice(c: complex, h: float, ks: range) -> tuple[np.ndarray, np.ndarray]:
    """Ai and Ai' at the lattice nodes z_k = c + k h, k in ks, for a real step h.

    The values are those of `airy_ai_and_prime(c + np.arange(ks.start,
    ks.stop) * h)` to within the kernel's accuracy, and it refuses what
    that call refuses, NaN included.  The kernel is read only at the
    anchors, the nodes k = 0 mod 64; each other node is summed from the
    anchor at most 32 nodes away by `_taylor_rows`, over the step
    (k - k_anchor) h, in one matrix product for the whole range.  The
    remainder after J terms is bounded through a majorant: the Taylor
    coefficients a_j = Ai^(j)(z) obey a_{j+2} = z a_j + j a_{j-1}, so with
    R >= |z|, B_0 = |a_0|, B_1 = |a_1| and B_{j+2} = R B_j + j B_{j-1},
    every |a_j| <= B_j; the B_j are the derivatives at 0 of the solution
    Y of Y'' = (R + d) Y, which for 0 <= d <= 1 stays below
    Z = B_0 cosh(kappa d) + (B_1/kappa) sinh(kappa d), kappa = sqrt(1 + R),
    and Y' below Z'.  The B_j are non-negative, so B_j/j! <= Y(1) and
    B_{j+1}/j! <= Y'(1), and both Y(1) and Y'(1)/kappa are at most
    cosh(kappa) (B_0 + B_1/kappa).  So with D = 32 |h| < 1, the longest
    step, the remainder of Ai after J terms, and that of Ai'/kappa, is at
    most cosh(kappa) D^J / (1 - D) (|Ai| + |Ai'|/kappa) at the anchor.
    R = 40 for every anchor in the disc, so J, the least count with
    cosh(kappa) D^J / (1 - D) <= 2^-53, depends on h alone: 24 at
    |h| = 0.005, 38 at 0.01, 45 at 0.012.  It sets only the step matrix,
    built once per h (`_step_matrix`).

    The same majorant at reach D bounds the sum of the terms' moduli,
    which sets the rounding, by cosh(kappa D) (|Ai| + |Ai'|/kappa).  The
    series is taken while kappa D <= 2.5, so that factor stays below
    cosh(2.5) = 6.1: |h| up to about 0.0122.  A coarser step is read
    directly over the whole range.  So is the block of an anchor outside
    |z| <= 40, which can happen within 32 nodes past either end of a
    range whose nodes all lie inside.  Every node's value depends on c, h
    and k alone, so two reads that share nodes of one lattice give the
    same bits there, and an anchor's value is the direct read's.
    """
    if ks.step != 1:
        raise ValueError("the lattice range must have step 1")
    c = complex(c)
    terms = _lattice_terms(h)
    if not terms or not len(ks):
        # an infinite or huge h gives NaN or infinite points, which are refused
        with np.errstate(over="ignore", invalid="ignore"):
            return airy_ai_and_prime(c + np.arange(ks.start, ks.stop) * h)
    # |c + k h| is convex in k, so the end nodes hold its largest value; NaN included
    _refuse_outside_disc(np.abs(c + np.array((ks.start, ks.stop - 1)) * h).max())
    half = _STRIDE // 2
    # the anchor of node k is 64 ((k + 32) // 64), and its block the nodes
    # from 32 before it to 31 after it
    first = (ks.start + half) // _STRIDE
    anchors = np.arange(first, (ks.stop - 1 + half) // _STRIDE + 1)
    za = c + anchors * _STRIDE * h
    inside = np.abs(za) <= MAX_ABS_Z
    ai = np.empty((anchors.size, _STRIDE), dtype=complex)
    aip = np.empty((anchors.size, _STRIDE), dtype=complex)
    ai[inside], aip[inside] = _taylor_rows(za[inside], *airy_ai_and_prime(za[inside]), h, terms)
    lo = ks.start - (first * _STRIDE - half)
    ai = ai.reshape(-1)[lo:lo + len(ks)]
    aip = aip.reshape(-1)[lo:lo + len(ks)]
    if not inside.all():
        direct = ~np.repeat(inside, _STRIDE)[lo:lo + len(ks)]
        ai[direct], aip[direct] = airy_ai_and_prime(c + np.arange(ks.start, ks.stop)[direct] * h)
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
