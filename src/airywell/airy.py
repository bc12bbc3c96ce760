"""Airy functions Ai, Bi and their first-kind zeros on the complex plane.

The solver in this package needs Ai(z) at complex arguments with moduli
up to about 40, Ai'(z) at the real zeros, and the negative real zeros a_k
of Ai and a'_k of Ai'.  All of it is computed here with numpy alone.  Ai
and Ai' come from three representations that split the working disc
|z| <= 40 by modulus, as Gil, Segura and Temme split the plane between
series, asymptotics and steps of the ODE (Numerical Methods for Special
Functions, SIAM 2007; ACM TOMS Algorithm 819, 2002):

  * |z| <= 1.5: the Maclaurin series (DLMF 9.4.1 and 9.4.2), 33 terms,
    whose coefficients follow c_{j+3} = c_j / ((j + 3)(j + 2)) from
    c_0 = Ai(0), c_1 = Ai'(0) and c_2 = 0; the terms left out sum to
    below 1e-19 at |z| = 1.5.

  * |z| >= 9.5: the Poincare expansions DLMF 9.7.5 and 9.7.6 in powers of
    1/zeta, zeta = (2/3) z^(3/2), |zeta| >= 19.5, with 30 terms; the first
    term left out is below 3e-18.  They are read directly for
    |arg z| < 2 pi/3; for |arg z| >= 2 pi/3 the connection formula
    DLMF 9.2.11,
    Ai(z) = e^(pi i/3) Ai(z e^(-2 pi i/3)) + e^(-pi i/3) Ai(z e^(2 pi i/3)),
    and its derivative read them at two images in |arg| <= 2 pi/3.

  * In between: one Taylor step from the nearest base point p of the
    lattice 0.5 (m + i n), |p| <= 10, so |z - p| <= sqrt(2)/4, by 24
    terms of the series that Ai'' = z Ai supplies (DLMF 9.2.1),
    c_{j+2} = (p c_j + c_{j-1}) / ((j + 2)(j + 1)) from c_0 = Ai(p) and
    c_1 = Ai'(p).  By the majorant of `airy_ai_and_prime_lattice`'s
    docstring at reach 3, the remainder of Ai, and that of
    Ai'/sqrt(13), is below 2e-18 (|Ai(p)| + |Ai'(p)|/sqrt(13)).  The
    table of these coefficients is built once per process, vectorised
    over the base points (`_table`): each is reached in 32 Taylor steps
    along its ray, in the direction in which Ai grows, inward from the
    9.5 circle where Ai decays outward (|arg p| <= pi/3), and outward
    from the 1.5 circle elsewhere.

The same table also holds the Maclaurin and the Poincare coefficients, so
each point's Ai and Ai' are one power sum over one of its rows, in the
point's variable z, z - p or -1/zeta.  Against mpmath on 3,000 seeded
points of the disc, 401 of the negative real axis and 100 on the circles
|z| = 1.5 and 9.5, Ai and Ai' lie within 1e-15 (|z| <= 1.5), 4e-15 (the
ring between) and 5e-14 (|z| >= 9.5, where the rounding of zeta reaches
e^(-zeta)) in units of |Ai| + |Ai'|/sqrt(41).  The evaluators share one input contract:

  * `airy_ai_and_prime` gives Ai and Ai' on an array, each point by its
    own row and variable, elementwise, so a value does not depend on the
    array it is read in.

  * `_ai_scalar` gives Ai alone at one point (as the Crank-Nicolson
    boundary feed asks for on every step) as a Python complex, in Python
    scalars with `airy_ai_and_prime`'s regions, table and coefficients,
    which costs a fraction of the same work on a one-element array;
    `_ai_point` gives the same value typed as the array reads type it,
    an np.complex128.  The eigenfunctions, states and densities off a
    lattice read Ai through `_ai_scalar`, or through
    `airy_ai_and_prime`'s Ai column on an array (see `spectrum`).

  * `airy_ai_and_prime_lattice` gives Ai and Ai' on a lattice c + k h
    with a real step h.  It reads `airy_ai_and_prime` at the anchors,
    the nodes k = 0 mod 64, and sums every other node from the anchor at
    most 32 nodes away by the Taylor series that Ai'' = z Ai supplies,
    with a stated bound on its remainder; the sums of a whole read are
    one matrix product with a step matrix built once per h.  A step too
    coarse for the series is read directly, by `airy_ai_and_prime`.
    `verify` reads every state through it, all levels' states at one
    time in one read of an array of starts, and takes each state's d/dt
    from Ai' by the chain rule (see `wavefunction`); `solve`'s states
    and densities, and the eigenfunctions, read it once each on a
    lattice grid's distinct |x|, at any step (see `spectrum`).  On the default grid it costs about a
    twentieth of the direct read, within 9e-14 of it in units of
    |Ai| + |Ai'|/sqrt(41).

  * `airy_eval_many` gives Ai, Ai', Bi and Bi', the last two by
    DLMF 9.2.10, Bi(z) = e^(pi i/6) Ai(z e^(2 pi i/3))
    + e^(-pi i/6) Ai(z e^(-2 pi i/3)), and its derivative, from one read
    of z and its two rotations.  It serves the
    readers of Ai', Bi and Bi': the levels, the zeros and the tail
    identity, through `airy_eval`.

Three details are handled here rather than left to callers:

  * Signed zero.  Region 2 of the time-dependent states produces
    arguments -z - lambda whose imaginary part can be -0.0, the lower side
    of the negative real axis for a principal square root.  No value here
    takes a root across that axis (the Poincare expansions are read only
    at |arg| <= 2 pi/3), but every argument is still normalized by adding
    +0.0 to its imaginary part, which turns -0.0 into +0.0, so that the
    sign of a zero can reach no branch choice.  A one-point read adds it
    to the float `z.imag`: `z + 0.0` on a Python complex keeps -0.0 under
    the C99 mixed-mode arithmetic of Python 3.14.

  * The origin.  For |z| < 1e-17, where Ai(z) rounds to Ai(0) in double
    precision, `airy_ai_and_prime` returns Ai(0) = 3^(-2/3)/Gamma(2/3) and
    Ai'(0) = -3^(-1/3)/Gamma(1/3) exactly: the series alone would keep an
    imaginary part of order |z| there (Ai(0) - 2.6e-301i at z = 1e-300i).

  * Zeros.  a_k and a'_k start from the asymptotic forms DLMF 9.9.6,
    9.9.18 and 9.9.19, with two correction terms each (5.7e-4 and 5.0e-2
    from the first zeros, 1.6e-9 by the tenth), and take six Newton steps on
    real arguments: Ai / Ai' for a_k, and Ai' / Ai'' for a'_k with
    Ai'' = z Ai.  Indices 1 <= k <= 50 are supported, which keeps
    |a_k| < 38 inside the disc.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

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
_NEWTON_STEPS = 6

_AI_AT_ZERO = 0.35502805388781723926     # 3^(-2/3) / Gamma(2/3)
_AIP_AT_ZERO = -0.25881940379280679841   # -3^(-1/3) / Gamma(1/3)
_NEAR_ZERO = 1e-17                        # |Ai'(0) z / Ai(0)| < 1e-17 below

# the three regions: the Maclaurin disc, the Poincare ring, and between them
# the Taylor table on the lattice 0.5 (m + i n), |m|, |n| <= _SIDE
_INNER = 1.5
_OUTER = 9.5
_SIDE = 20
_MACLAURIN_TERMS = 33
_POINCARE_TERMS = 30
_TAYLOR_TERMS = 24
_BUILD_STEPS = 32
_BLOCK = 512
_MACLAURIN_ROW = (2 * _SIDE + 1) ** 2
_POINCARE_ROW = _MACLAURIN_ROW + 1

# e^(2 pi i/3) and the connection factors of DLMF 9.2.10 and 9.2.11
_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
_E_PI_3 = complex(0.5, math.sqrt(3.0) / 2.0)          # e^(pi i/3)
_E_PI_6 = complex(math.sqrt(3.0) / 2.0, 0.5)          # e^(pi i/6)
_E_5PI_6 = complex(-math.sqrt(3.0) / 2.0, 0.5)        # e^(5 pi i/6)
_TWO_ROOT_PI = 2.0 * math.sqrt(math.pi)


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
    """z as complex, -0.0 imaginary parts made +0.0.

    A ValueError flags any point outside |z| <= 40, NaN included.
    """
    # + 0.0 maps a -0.0 imaginary part to +0.0 (see the module docstring)
    zarr = np.asarray(z, dtype=complex) + 0.0
    _refuse_outside_disc(np.abs(zarr).max(initial=0.0))
    return zarr


def _taylor_coefficients(p, ai, aip, terms: int) -> np.ndarray:
    """The (terms, 2, N) coefficients of the Taylor series at the points p:
    [j, 0] is c_j and [j, 1] is (j + 1) c_{j+1}, so that the sums over j of
    [j] h^j are Ai and Ai' at p + h.  c_0 = Ai(p), c_1 = Ai'(p), and
    c_{j+2} = (p c_j + c_{j-1}) / ((j + 2)(j + 1)), from Ai'' = z Ai."""
    coef = np.empty((terms, 2, np.size(p)), dtype=complex)
    c = coef[:, 0]
    c[0], c[1] = ai, aip
    c[2] = p * c[0] / 2.0
    for j in range(1, terms - 2):
        np.multiply(p, c[j], out=c[j + 2])
        c[j + 2] += c[j - 1]
        c[j + 2] /= (j + 2) * (j + 1)
    np.multiply(c[1:], np.arange(1.0, terms)[:, None], out=coef[:-1, 1])
    # c_terms, which only the last Ai' coefficient reads
    coef[-1, 1] = terms * ((p * c[-2] + c[-3]) / (terms * (terms - 1)))
    return coef


def _poincare_coefficients(terms: int) -> np.ndarray:
    """The (terms, 2) coefficients u_k and v_k of DLMF 9.7.5 and 9.7.6, the
    sums being over (-1/zeta)^k: u_0 = v_0 = 1,
    u_k = u_{k-1} (6k - 5)(6k - 3)(6k - 1) / (216 k (2k - 1)) and
    v_k = -u_k (6k + 1) / (6k - 1) (DLMF 9.7.2)."""
    u = [1.0]
    for k in range(1, terms):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216 * k * (2 * k - 1)))
    v = [1.0] + [-u[k] * (6 * k + 1) / (6 * k - 1) for k in range(1, terms)]
    return np.array([u, v], dtype=complex).T


# the Maclaurin series is the Taylor series at p = 0
_MACLAURIN = _taylor_coefficients(0.0, _AI_AT_ZERO, _AIP_AT_ZERO, _MACLAURIN_TERMS)[:, :, 0]
_POINCARE = _poincare_coefficients(_POINCARE_TERMS)


def _power_sums(coef, x) -> np.ndarray:
    """The (2, N) sums over j of coef[j] x^j, for coef of shape (T, 2, N)
    or (T, 2) and the N points x: one cumulative product of the powers of
    x and one row-wise dot.  Both run elementwise per point, the dot
    summing j in order (einsum without optimize calls no BLAS), so a
    point's bits do not depend on the other points of the call."""
    if coef.ndim == 2:
        coef = np.broadcast_to(coef[:, :, None], coef.shape + (x.size,))
    powers = np.empty((coef.shape[0], x.size), dtype=complex)
    powers[0] = 1.0
    np.cumprod(np.broadcast_to(x, powers[1:].shape), axis=0, out=powers[1:])
    return np.einsum("jkn,jn->kn", coef, powers, optimize=False)


def _poincare_terms(w) -> tuple[np.ndarray, np.ndarray]:
    """The variable -1/zeta of the Poincare sums at the points w,
    |arg w| <= 2 pi/3, and the (2, N) factors that turn the sums over u_k
    and v_k into Ai and Ai': e^(-zeta) / (2 sqrt(pi) w^(1/4)) and
    -w^(1/4) e^(-zeta) / (2 sqrt(pi)) (DLMF 9.7.5, 9.7.6)."""
    root = np.sqrt(w)
    zeta = (2.0 / 3.0) * w * root
    quarter = np.sqrt(root)
    scale = np.exp(-zeta) / _TWO_ROOT_PI
    return -1.0 / zeta, np.stack((scale / quarter, -scale * quarter))


@functools.lru_cache(maxsize=None)
def _table() -> np.ndarray:
    """The (_MACLAURIN_TERMS, 2, 41^2 + 2) coefficients of the kernel's
    power sums, zero past each row's own count: the Taylor coefficients at
    the base points p = 0.5 (m + i n), |p| <= 10, in the rows
    (m + 20) 41 + (n + 20) (the rows of the square's corners stay zero),
    then the Maclaurin row and the Poincare row; read-only, and built once
    per process.

    Ai and Ai' at a base point come from the Maclaurin series for
    |p| <= 1.5 and from the Poincare expansions for |p| >= 9.5 where
    |arg p| <= pi/3.  Every other base point is reached in 32 Taylor steps
    along its ray, in the direction in which Ai grows, so that the error
    of a step shrinks relative to Ai in later steps: inward from the 9.5
    circle where |arg p| <= pi/3, where Ai decays outward, and outward from
    the 1.5 circle elsewhere, with steps of length at most 0.27.
    """
    side = 0.5 * np.arange(-_SIDE, _SIDE + 1)
    p = (side[:, None] + 1j * side[None, :]).reshape(-1)
    mod = np.abs(p)
    decays = p.real >= 0.5 * mod                   # |arg p| <= pi/3
    used = mod <= 0.5 * _SIDE
    inner = mod <= _INNER
    direct = used & decays & (mod >= _OUTER)
    ray = used & ~inner & ~direct
    vals = np.zeros((2, p.size), dtype=complex)
    vals[:, inner] = _power_sums(_MACLAURIN, p[inner])
    t, factor = _poincare_terms(p[direct])
    vals[:, direct] = _power_sums(_POINCARE, t) * factor
    end, radius, inward = p[ray], mod[ray], decays[ray]
    start = end / radius * np.where(inward, _OUTER, _INNER)
    at = np.empty((2, end.size), dtype=complex)
    t, factor = _poincare_terms(start[inward])
    at[:, inward] = _power_sums(_POINCARE, t) * factor
    at[:, ~inward] = _power_sums(_MACLAURIN, start[~inward])
    # the nodes of the steps, the last of them the base point itself
    nodes = start + (end - start) * (np.arange(_BUILD_STEPS + 1.0) / _BUILD_STEPS)[:, None]
    nodes[-1] = end
    for here, there in zip(nodes[:-1], nodes[1:]):
        at = _power_sums(_taylor_coefficients(here, at[0], at[1], _TAYLOR_TERMS), there - here)
    vals[:, ray] = at
    table = np.zeros((_MACLAURIN_TERMS, 2, p.size + 2), dtype=complex)
    table[:_TAYLOR_TERMS, :, :p.size] = _taylor_coefficients(p, vals[0], vals[1], _TAYLOR_TERMS)
    table[:, :, _MACLAURIN_ROW] = _MACLAURIN
    table[:_POINCARE_TERMS, :, _POINCARE_ROW] = _POINCARE
    table.flags.writeable = False
    return table


def _direct_sums(w) -> np.ndarray:
    """(Ai, Ai') at the 1-d points w, each read directly by its region, with
    one power sum over table rows: the Maclaurin row at w for |w| <= 1.5,
    the Poincare row at -1/zeta for |w| >= 9.5 (so |arg w| <= 2 pi/3 is
    the caller's to ensure there), and otherwise the row of the nearest
    base point p at w - p.  Long arrays are read in blocks of _BLOCK
    points, which bounds the (T, 2, N) gather of their rows."""
    if w.size > _BLOCK:
        return np.concatenate([_direct_sums(w[i:i + _BLOCK])
                               for i in range(0, w.size, _BLOCK)], axis=1)
    mod = np.abs(w)
    m, n = np.rint(2.0 * w.real), np.rint(2.0 * w.imag)
    rows = (m + _SIDE) * (2 * _SIDE + 1) + (n + _SIDE)
    step = w - (0.5 * m + 0.5j * n)
    inner, outer = mod <= _INNER, mod >= _OUTER
    rows[inner] = _MACLAURIN_ROW
    step[inner] = w[inner]
    if outer.any():
        rows[outer] = _POINCARE_ROW
        step[outer], factor = _poincare_terms(w[outer])
    sums = _power_sums(_table()[:, :, rows.astype(np.intp)], step)
    if outer.any():
        sums[:, outer] *= factor
    return sums


def _ai_and_prime(z) -> np.ndarray:
    """(Ai, Ai') at the 1-d points z, normalized and inside the disc (up to
    rounding), in one `_direct_sums` call: for |z| >= 9.5 and
    |arg z| >= 2 pi/3 the call also reads z e^(-+2 pi i/3), and DLMF 9.2.11
    combines them."""
    mod = np.abs(z)
    # |arg z| >= 2 pi/3 is Re z <= -|z|/2; Ai is entire, so either side of
    # the negative real axis gives the same sum
    far = (mod >= _OUTER) & (z.real <= -0.5 * mod)
    rotated = z[far]
    sums = _direct_sums(np.concatenate((z, rotated * _OMEGA.conjugate(), rotated * _OMEGA))
                        if rotated.size else z)
    out = sums[:, :z.size]
    if rotated.size:
        below, above = np.split(sums[:, z.size:], 2, axis=1)
        # Ai(z) = e^(pi i/3) Ai(z e^(-2 pi i/3)) + e^(-pi i/3) Ai(z e^(2 pi i/3)),
        # and its derivative
        out[0, far] = _E_PI_3 * below[0] + _E_PI_3.conjugate() * above[0]
        out[1, far] = _E_PI_3.conjugate() * below[1] + _E_PI_3 * above[1]
    if mod.min(initial=np.inf) < _NEAR_ZERO:
        tiny = mod < _NEAR_ZERO
        out[0, tiny] = _AI_AT_ZERO
        out[1, tiny] = _AIP_AT_ZERO
    return out


def airy_eval_many(z) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (Ai, Ai', Bi, Bi') on an array of complex points.

    Points must satisfy |z| <= 40; a ValueError flags anything outside the
    supported disc, NaN included.  Bi and Bi' come from Ai and Ai' at
    z e^(+-2 pi i/3) (DLMF 9.2.10).
    """
    zarr = _in_disc(z)
    flat = zarr.reshape(-1)
    size = flat.size
    ai, aip = _ai_and_prime(np.concatenate((flat, flat * _OMEGA, flat * _OMEGA.conjugate())))
    bi = _E_PI_6 * ai[size:2 * size] + _E_PI_6.conjugate() * ai[2 * size:]
    bip = _E_5PI_6 * aip[size:2 * size] + _E_5PI_6.conjugate() * aip[2 * size:]
    return tuple(v.reshape(zarr.shape)[()] for v in (ai[:size], aip[:size], bi, bip))


@functools.lru_cache(maxsize=None)
def _python_row(row: int) -> tuple:
    """The Ai column of table row `row` as Python complex numbers, highest
    power first, without the zeros past the row's own count."""
    return tuple(np.trim_zeros(_table()[:, 0, row], "b")[::-1].tolist())


def _horner(coef, x: complex) -> complex:
    """The sum over j of coef[-1 - j] x^j in Python scalars, by Horner's rule."""
    acc = 0j
    for c in coef:
        acc = acc * x + c
    return acc


def _poincare_point(w: complex) -> complex:
    """Ai at one point w, |w| >= 9.5 and |arg w| <= 2 pi/3, by DLMF 9.7.5."""
    root = cmath.sqrt(w)
    zeta = (2.0 / 3.0) * w * root
    return (_horner(_python_row(_POINCARE_ROW), -1.0 / zeta)
            * (cmath.exp(-zeta) / _TWO_ROOT_PI / cmath.sqrt(root)))


def _ai_point(z: complex) -> np.complex128:
    """Ai at one point typed as `airy_ai_and_prime` types it: `_ai_scalar`'s
    value as an np.complex128."""
    return np.complex128(_ai_scalar(z))


def _ai_scalar(z: complex) -> complex:
    """Ai at one point as a Python complex: `airy_ai_and_prime`'s regions,
    table, refusals and Ai(0) rule, in Python scalars, its power sums taken
    by Horner's rule."""
    # the float sum clears a -0.0 imaginary part; z + 0.0 need not
    z = complex(z.real, z.imag + 0.0)
    mod = abs(z)
    _refuse_outside_disc(mod)
    if mod < _NEAR_ZERO:
        return complex(_AI_AT_ZERO)
    if mod >= _OUTER:
        if z.real > -0.5 * mod:
            return _poincare_point(z)
        return (_E_PI_3 * _poincare_point(z * _OMEGA.conjugate())
                + _E_PI_3.conjugate() * _poincare_point(z * _OMEGA))
    if mod <= _INNER:
        return _horner(_python_row(_MACLAURIN_ROW), z)
    m, n = round(2.0 * z.real), round(2.0 * z.imag)
    row = (m + _SIDE) * (2 * _SIDE + 1) + (n + _SIDE)
    return _horner(_python_row(row), z - complex(0.5 * m, 0.5 * n))


def airy_ai_and_prime(z) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate Ai and Ai' on an array of complex points.

    Same contract as `airy_eval_many`, whose first two outputs these match
    in shape, dtype and value: each point is read by its region of the
    module docstring, |z| <= 1.5 by the Maclaurin series, |z| >= 9.5 by
    the Poincare expansions (rotated by DLMF 9.2.11 where
    |arg z| >= 2 pi/3), and the ring between by one Taylor step from the
    nearest base point of the table.  Below |z| = 1e-17 the pair is
    (Ai(0), Ai'(0)).
    """
    zarr = _in_disc(z)
    ai, aip = _ai_and_prime(zarr.reshape(-1))
    return ai.reshape(zarr.shape)[()], aip.reshape(zarr.shape)[()]


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


def airy_ai_and_prime_lattice(c, h: float, ks: range) -> tuple[np.ndarray, np.ndarray]:
    """Ai and Ai' at the lattice nodes z_k = c + k h, k in ks, for a real step h.

    c is one complex start, or a 1-d array of starts that share h and ks;
    then each output has one row per start, and a row is bitwise the read
    of its start alone.  The values are those of `airy_ai_and_prime(c +
    np.arange(ks.start, ks.stop) * h)` to within the kernel's accuracy,
    and it refuses what that call refuses, NaN included.  The kernel is
    read only at the anchors, the nodes k = 0 mod 64; each other node is
    summed from the anchor at most 32 nodes away by `_taylor_rows`, over
    the step (k - k_anchor) h, in one kernel call and one matrix product
    for the whole range and every start.  The
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
    range whose nodes all lie inside.  Every node's value depends on its
    start, h and k alone, so two reads that share nodes of one lattice
    give the same bits there, and an anchor's value is the direct read's.
    """
    if ks.step != 1:
        raise ValueError("the lattice range must have step 1")
    starts = np.asarray(c, dtype=complex)
    if starts.ndim > 1:
        raise ValueError("the lattice starts must be one complex or a 1-d array")
    shape = starts.shape + (len(ks),)
    # one row per start; the kernel is elementwise, so a row's bits do not
    # depend on the other rows
    c = starts.reshape(-1, 1)
    terms = _lattice_terms(h)
    if not terms or not len(ks):
        # an infinite or huge h gives NaN or infinite points, which are refused
        with np.errstate(over="ignore", invalid="ignore"):
            ai, aip = airy_ai_and_prime(c + np.arange(ks.start, ks.stop) * h)
        return ai.reshape(shape), aip.reshape(shape)
    # |c + k h| is convex in k, so the end nodes hold its largest value; NaN included
    _refuse_outside_disc(np.abs(c + np.array((ks.start, ks.stop - 1)) * h).max())
    half = _STRIDE // 2
    # the anchor of node k is 64 ((k + 32) // 64), and its block the nodes
    # from 32 before it to 31 after it
    first = (ks.start + half) // _STRIDE
    anchors = np.arange(first, (ks.stop - 1 + half) // _STRIDE + 1)
    za = c + anchors * _STRIDE * h
    inside = np.abs(za) <= MAX_ABS_Z
    ai = np.empty(za.shape + (_STRIDE,), dtype=complex)
    aip = np.empty(za.shape + (_STRIDE,), dtype=complex)
    ai[inside], aip[inside] = _taylor_rows(za[inside], *airy_ai_and_prime(za[inside]), h, terms)
    lo = ks.start - (first * _STRIDE - half)
    ai = ai.reshape(c.size, -1)[:, lo:lo + len(ks)]
    aip = aip.reshape(c.size, -1)[:, lo:lo + len(ks)]
    if not inside.all():
        direct = ~np.repeat(inside, _STRIDE, axis=1)[:, lo:lo + len(ks)]
        ai[direct], aip[direct] = airy_ai_and_prime(
            (c + np.arange(ks.start, ks.stop) * h)[direct])
    return ai.reshape(shape), aip.reshape(shape)


def airy_eval(z) -> AiryPair:
    """Evaluate the Airy functions at one complex (or real) point."""
    a, ap, b, bp = airy_eval_many(np.array([complex(z)]))
    return AiryPair(ai=a[0], ai_prime=ap[0], bi=b[0], bi_prime=bp[0])


@functools.lru_cache(maxsize=None)
def _zero_tables() -> tuple[np.ndarray, np.ndarray]:
    """The first MAX_ZERO_INDEX zeros a_k and a'_k, Newton-polished from
    a_k = -T(3 pi/8 (4k - 1)) and a'_k = -U(3 pi/8 (4k - 3)) (DLMF 9.9.6),
    with T(t) = t^(2/3) (1 + 5/48 t^-2 - 5/36 t^-4) (DLMF 9.9.18) and
    U(t) = t^(2/3) (1 - 7/48 t^-2 + 35/288 t^-4) (DLMF 9.9.19)."""
    k = np.arange(1.0, MAX_ZERO_INDEX + 1.0)
    t = 3.0 * math.pi / 8.0 * (4.0 * k - 1.0)
    a = -t ** (2.0 / 3.0) * (1.0 + 5.0 / 48.0 / t**2 - 5.0 / 36.0 / t**4)
    t = 3.0 * math.pi / 8.0 * (4.0 * k - 3.0)
    ap = -t ** (2.0 / 3.0) * (1.0 - 7.0 / 48.0 / t**2 + 35.0 / 288.0 / t**4)
    for _ in range(_NEWTON_STEPS):
        ai, aip = _ai_and_prime(np.concatenate((a, ap)) + 0j).real
        a = a - ai[:k.size] / aip[:k.size]
        ap = ap - aip[k.size:] / (ap * ai[k.size:])
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
