"""Time-dependent states built from the static Airy eigenfunctions, and their phases.

The state is written once, for region 1 (x >= 0), from two maps built
out of the frozen time integrals g, k, s, w (module `profiles`):

  * a shift-tilt unitary U: a plane-wave factor exp(-i g x / 2) together
    with a real coordinate shift by S = (k^2 - g^2 + 4s)/4 = -g^2/4.
    Splitting the single exponential that defines U into (phase) x
    (plane wave) x (translation) produces a real scalar phase bch from
    the commutator of the shift and tilt generators: the symmetric (Weyl)
    split gives -g S/4, and the generator ordering adds the exact
    int_0^t (k^2 + g^2 + 4s)/(8m) = int_0^t (chi2 - chi1) = -g^3/24, since
    g' = -1/m (`shift_reorder_phase`); the checks in `verify` validate it.

  * the inverse metric root rho^{-1} = exp[k x/2 + b p] with b = gk/2 - w:
    a real exponential tilt exp(kx/2), an imaginary coordinate
    translation by -ib, and the scalar phase zeta = -k b/4 from the same
    Weyl split.

S and b are the `shift` and `b` fields of `CoefficientSet`.  The phase
of level n in region j (`phase`) is eps^j = int chi_j + lambda_n g/2,
and eps^1 plus the reorder integral in bch is eps^2, so the branch reads

  Psi_n,1(x,t) = e^{i(eps^2 + zeta - g S/4)} e^{-g b/2}
                 e^{(k - ig)x/2} N_n Ai(x + S - ib - lambda_n),

with every scalar taken from the one `CoefficientSet` at t.  The sign of
the imaginary translation is the one the time-dependent equation itself
selects; the opposite choice fails the residual checks.  Undoing both
maps returns the branch to e^{i eps} phi_n.  The density reconstruction
below undoes only their real parts: the tilt e^{-k(x-S)/2}, the shift S
and the translation ib.  What is left of the round trip is a product of
unit-modulus factors (e^{i eps}, e^{i zeta}, e^{-i bch} and the plane
wave), which |.|^2 cannot see, so they are not computed there.

Written as E N_n Ai(x + D - lambda_n), E = e^{i phi + a + sigma x}
(`_exponents`), the branch depends on t through phi, a, sigma and D
alone, so by the chain rule

  d/dt Psi_n,1 = Psi_n,1 (i phi' + a' + sigma' x) + E N_n Ai'(x + D - lambda_n) D'.

On a grid x = k dx the kernel argument x + D - lambda_n is itself a
lattice, so the residual checks read Ai and Ai' there with
`airy.airy_ai_and_prime_lattice` (`wavefunction_branch_on_lattice` and
`wavefunction_branch_and_dt`), which reads the kernel at every 8th node
and sums the others by a Taylor series; arbitrary complex x, and the
assembled states and densities, read the kernel directly.

Region 2 (x <= 0) needs no formula of its own.  H(t) = -d^2/dx^2 / (2m)
+ i f |x| commutes with parity P, the region-2 invariant is P I_1 P, and
the phases agree: eps^2 - eps^1 = int_0^t (chi2 - chi1) is exactly the
reorder integral inside bch.  So the paper's region-2 branch is

  Psi_n,2(x,t) = sigma_n Psi_n,1(-x,t),

with sigma_n the parity sign, and that is how it is evaluated.

For odd n the two branches take opposite values at x = 0, which are not
zero for t > 0: the glued function is discontinuous there (and the even
branches meet with a slope kink).  Both facts are measured rather than
hidden; see the origin tests and the residual checks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .airy import airy_ai_and_prime_lattice
from .profiles import CoefficientSet, TimeProfile, coefficients_at
from .spectrum import _at_distinct_abs, eigenfunction_continued, level

__all__ = [
    "WavefunctionSample",
    "wavefunction_branch",
    "wavefunction_branch_on_lattice",
    "wavefunction_branch_and_dt",
    "assemble_wavefunction",
    "reconstructed_density",
    "phase",
    "shift_reorder_phase",
]


@dataclass(frozen=True)
class WavefunctionSample:
    """One assembled state on a real grid."""

    grid: np.ndarray
    values: np.ndarray


def _epsilon(n: int, cum_chi: float, g: float) -> float:
    """eps^j = int_0^t chi_j - lambda_n int_0^t dtau/(2m) = int_0^t chi_j + lambda_n g/2."""
    return cum_chi + level(n).eigenvalue * g / 2.0


def phase(profile: TimeProfile, n: int, region: int, t: float) -> float:
    """Accumulated phase eps of level n in one region up to time t."""
    if region not in (1, 2):
        raise ValueError("region must be 1 (x >= 0) or 2 (x <= 0)")
    if n < 0:
        raise ValueError("the level index n starts at 0")
    c = coefficients_at(profile, t)
    return _epsilon(n, c.cum_chi1 if region == 1 else c.cum_chi2, c.g)


def shift_reorder_phase(profile: TimeProfile, t: float) -> float:
    """int_0^t (k^2 + g^2 + 4s)/(8m) = int_0^t (chi2 - chi1) = -g^3/24: the
    scalar phase produced when the combined shift-and-tilt transform is
    split into its displayed factors; it equals eps^2 - eps^1."""
    return -coefficients_at(profile, t).g ** 3 / 24.0


def _exponents(n: int, c: CoefficientSet) -> tuple:
    """(phi, a, sigma, D) of Psi_n,1 = e^{i phi + a + sigma x} N_n Ai(x + D - lambda_n) at c:
    phi = eps^2 + zeta - g S/4, a = -g b/2, sigma = (k - ig)/2 and D = S - ib."""
    return (_epsilon(n, c.cum_chi2, c.g) + c.zeta - c.g * c.shift / 4.0, -c.g * c.b / 2.0,
            c.k / 2.0 + 1j * (-c.g / 2.0), c.shift - 1j * c.b)


def _branch1(n: int, c: CoefficientSet, x, continued=None):
    """Psi_n,1 at the complex points x, from the coefficients c at one instant.

    x is an array, or one Python complex, which is read in Python scalars.
    continued, when given, stands in for the kernel factor
    `eigenfunction_continued(n, x + S - ib)` at c; stacked rows of it give
    one row of the result each.
    """
    exp = cmath.exp if isinstance(x, complex) else np.exp
    phi, a, slope, shift = _exponents(n, c)
    if continued is None:
        continued = eigenfunction_continued(n, x + shift)
    return exp(1j * phi) * exp(a) * exp(slope * x) * continued


def _on_lattice(n: int, region: int, c: CoefficientSet, ks: range, dx: float) -> tuple:
    """(x, Psi_n,1, E N_n Ai'(x + D - lambda_n)) at one region's nodes k dx, k in ks.

    x is the region-1 coordinate of each node, k dx in region 1 and -k dx
    in region 2, in the order of ks; Psi_n,1 and the Ai' term of its d/dt
    (see the module docstring) come from one `airy_ai_and_prime_lattice`
    read on the region-1 nodes, so two reads that share nodes of one
    lattice give the same bits there.
    """
    if region not in (1, 2):
        raise ValueError("region must be 1 (x >= 0) or 2 (x <= 0)")
    if region == 2:
        ks = range(1 - ks.stop, 1 - ks.start)       # the region-1 nodes -k, ascending
    lev = level(n)
    kernel = np.stack(airy_ai_and_prime_lattice(_exponents(n, c)[3] - lev.eigenvalue, dx, ks))
    x = np.arange(ks.start, ks.stop) * dx
    psi, edge = _branch1(n, c, x, kernel * lev.norm_const)
    if region == 2:
        return x[::-1], psi[::-1], edge[::-1]
    return x, psi, edge


def wavefunction_branch_on_lattice(profile: TimeProfile, n: int, region: int, ks: range,
                                   dx: float, t: float) -> np.ndarray:
    """One region's branch at t on the grid nodes k dx, k in ks (a range of step 1).

    It agrees with `wavefunction_branch` on the same nodes to within the
    kernel's accuracy, and bitwise with `wavefunction_branch_and_dt`'s
    branch on the nodes the two share.
    """
    _, psi, _ = _on_lattice(n, region, coefficients_at(profile, t), ks, dx)
    return -psi if region == 2 and n % 2 else psi


def wavefunction_branch_and_dt(profile: TimeProfile, n: int, region: int, ks: range,
                               dx: float, t: float, d_dt) -> tuple:
    """`wavefunction_branch_on_lattice` and its d/dt by the module
    docstring's chain rule, from the same one kernel read at t.

    d_dt(fn) returns the derivative at t of fn, a function of time with
    array values; it is taken of the scalars phi, a, sigma and D alone.
    """
    x, psi, edge = _on_lattice(n, region, coefficients_at(profile, t), ks, dx)
    d = d_dt(lambda s: np.array(_exponents(n, coefficients_at(profile, s))))
    dpsi = psi * (1j * d[0] + d[1] + d[2] * x) + edge * d[3]
    if region == 2 and n % 2:
        return -psi, -dpsi
    return psi, dpsi


def wavefunction_branch(profile: TimeProfile, n: int, region: int, x, t: float):
    """One region's branch of the assembled state, valid at complex x.

    The branch is entire in x; evaluating it off its own half-line is what
    the finite-difference residual checks need near the origin.  Region 2
    is sigma_n times region 1 at -x.

    A one-element x (the Crank-Nicolson boundary feed reads one point per
    step) is read as a Python complex through the same `_branch1`, whose
    scalar arithmetic costs a fraction of the same work on a one-element
    array; the result keeps x's shape.  It agrees with the array read to
    rounding, not bitwise: numpy's array complex multiply may fuse.
    """
    if region not in (1, 2):
        raise ValueError("region must be 1 (x >= 0) or 2 (x <= 0)")
    c = coefficients_at(profile, t)
    xa = np.asarray(x, dtype=complex)
    points = xa.item() if xa.size == 1 else xa
    if region == 1:
        vals = _branch1(n, c, points)
    else:
        vals = (-1.0 if n % 2 else 1.0) * _branch1(n, c, -points)
    if xa.size == 1 and xa.ndim:
        return np.full(xa.shape, vals)
    return vals


def assemble_wavefunction(profile: TimeProfile, n: int, t: float, grid) -> WavefunctionSample:
    """Piecewise state on a real grid: Psi_n,1(x) for x >= 0, sigma_n Psi_n,1(|x|) for x < 0.

    One region-1 read per distinct |x|, negated at x < 0 for odd n.  The
    grid must contain the origin, the boundary the two regions share.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if np.min(np.abs(xs)) > 1e-12:
        raise ValueError("grid must include x = 0 (the region boundary)")
    c = coefficients_at(profile, t)
    values = _at_distinct_abs(lambda u: _branch1(n, c, u.astype(complex)), xs)
    if n % 2:
        values[xs < 0.0] *= -1.0
    return WavefunctionSample(grid=xs, values=values)


def reconstructed_density(profile: TimeProfile, n: int, t: float, grid):
    """|Psi|^2 pulled back through both maps: the static density |phi_n|^2.

    Undoing the metric root and the shift-tilt unitary returns the branch
    to e^{i eps} phi_n.  Only the real parts of that round trip are
    applied, once per distinct u = |x| (by parity the density at x is the
    one at |x|, which region 1 reconstructs):

      |e^{-k(u - S)/2} Psi_n,1(u - S + ib)|^2 = |phi_n(u)|^2.

    The unit-modulus factors of the round trip and of the assembly (eps,
    zeta, g S/4, the plane wave) drop out of the modulus, so this pins only
    the real factors; the evolution residual and the phase checks
    (acceptance criteria 6 and 8) pin the phases.
    """
    xs = np.asarray(grid, dtype=float)
    c = coefficients_at(profile, t)

    def modulus2(u):
        inner = u.astype(complex) - c.shift
        rec = np.exp((-c.k / 2.0) * inner) * _branch1(n, c, inner + 1j * c.b)
        return np.abs(rec) ** 2
    out = _at_distinct_abs(modulus2, np.atleast_1d(xs))
    return float(out[0]) if xs.ndim == 0 else out
