"""Time-dependent states assembled from the static Airy eigenfunctions.

The state is written once, for region 1 (x >= 0), from two maps built
out of the frozen time integrals g, k, s, w (module `profiles`):

  * a shift-tilt unitary U: a plane-wave factor exp(-i g x / 2) together
    with a real coordinate shift by S = (k^2 - g^2 + 4s)/4 = -g^2/4.
    Splitting the single exponential that defines U into (phase) x
    (plane wave) x (translation) produces a real scalar phase bch from
    the commutator of the shift and tilt generators.  That scalar is
    fixed numerically, not assumed: the symmetric (Weyl) split gives
    -g S/4, and the generator ordering adds the time integral
    int_0^t (k^2 + g^2 + 4s)/(8m) = int_0^t (chi2 - chi1)
    (`shift_reorder_phase`).  The residual checks in `verify` validate it.

  * the inverse metric root rho^{-1} = exp[k x/2 + b p] with b = gk/2 - w:
    a real exponential tilt exp(kx/2), an imaginary coordinate
    translation by -ib, and the scalar phase zeta = -k b/4 from the same
    Weyl split.

S and b are the `shift` and `b` fields of `CoefficientSet`.  The
accumulated phase eps^1 = int chi1 + lambda_n g/2 plus the reorder
integral in bch is eps^2 = int chi2 + lambda_n g/2, so the branch reads

  Psi_n,1(x,t) = e^{i(eps^2 + zeta - g S/4)} e^{-g b/2}
                 e^{(k - ig)x/2} N_n Ai(x + S - ib - lambda_n),

with every scalar taken from the one `CoefficientSet` at t.  The sign of
the imaginary translation is the one the time-dependent equation itself
selects; the opposite choice fails the residual checks.  Undoing both
maps recovers e^{i eps} phi_n exactly, which is what the density
reconstruction below does.

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

from dataclasses import dataclass

import numpy as np

# phase and shift_reorder_phase are not called here, but the benchmark
# tracer in bench/tracing.py rebinds them in this namespace; the branch
# reads both phases from its CoefficientSet
from .profiles import (CoefficientSet, TimeProfile, coefficients_at, phase,  # noqa: F401
                       shift_reorder_phase)
from .spectrum import eigenfunction_continued, level

__all__ = [
    "WavefunctionSample",
    "wavefunction_branch",
    "assemble_wavefunction",
    "reconstructed_density",
]


@dataclass(frozen=True)
class WavefunctionSample:
    """One assembled state on a real grid."""

    n: int
    t: float
    grid: np.ndarray
    values: np.ndarray


def _branch1(n: int, c: CoefficientSet, x: np.ndarray) -> np.ndarray:
    """Psi_n,1 at the complex points x, from the coefficients c at c.t."""
    eps2 = c.cum_chi2 + level(n).eigenvalue * c.g / 2.0
    amp = np.exp(1j * (eps2 + c.zeta - c.g * c.shift / 4.0)) * np.exp(-c.g * c.b / 2.0)
    slope = c.k / 2.0 + 1j * (-c.g / 2.0)
    return amp * np.exp(slope * x) * eigenfunction_continued(n, x + (c.shift - 1j * c.b))


def wavefunction_branch(profile: TimeProfile, n: int, region: int, x, t: float):
    """One region's branch of the assembled state, valid at complex x.

    The branch is entire in x; evaluating it off its own half-line is what
    the finite-difference residual checks need near the origin.  Region 2
    is sigma_n times region 1 at -x.
    """
    if region not in (1, 2):
        raise ValueError("region must be 1 (x >= 0) or 2 (x <= 0)")
    c = coefficients_at(profile, t)
    xa = np.asarray(x, dtype=complex)
    if region == 1:
        vals = _branch1(n, c, xa)
    else:
        vals = (-1.0 if n % 2 else 1.0) * _branch1(n, c, -xa)
    return complex(vals) if xa.ndim == 0 else vals


def assemble_wavefunction(profile: TimeProfile, n: int, t: float, grid) -> WavefunctionSample:
    """Piecewise state on a real grid; x >= 0 from region 1, x < 0 from 2.

    The grid must contain the origin so both regions are represented up to
    their shared boundary.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if np.min(np.abs(xs)) > 1e-12:
        raise ValueError("grid must include x = 0 (the region boundary)")
    values = np.empty(xs.size, dtype=complex)
    pos = xs >= 0.0
    values[pos] = wavefunction_branch(profile, n, 1, xs[pos].astype(complex), t)
    values[~pos] = wavefunction_branch(profile, n, 2, xs[~pos].astype(complex), t)
    return WavefunctionSample(n=n, t=float(t), grid=xs, values=values)


def _undo_maps(profile: TimeProfile, n: int, x: np.ndarray, t: float) -> np.ndarray:
    """Apply U^dagger rho to the region-1 branch: recovers e^{i eps} phi_n.

    rho psi(x)      = e^{i zeta} e^{-k x/2} psi(x + i b)
    U^dagger chi(x) = e^{-i bch} e^{i g (x - S)/2} chi(x - S),
    bch             = -g S/4 + int (chi2 - chi1)

    Note rho alone does not reduce the branch to phi_n pointwise: it
    leaves the real shift S and the plane wave in place, so the full
    return trip needs U^dagger as well.
    """
    c = coefficients_at(profile, t)
    inner = x - c.shift
    chi = (np.exp(1j * c.zeta)
           * np.exp((-c.k / 2.0) * inner)
           * _branch1(n, c, inner + 1j * c.b))
    bch = -c.g * c.shift / 4.0 + (c.cum_chi2 - c.cum_chi1)
    return (np.exp(-1j * bch)
            * np.exp(-1j * (-c.g / 2.0) * inner)
            * chi)


def reconstructed_density(profile: TimeProfile, n: int, t: float, grid):
    """|Psi|^2 pulled back through both maps.

    Undoing the metric root and the shift-tilt unitary returns the branch
    to e^{i eps} phi_n, so the reconstruction reproduces the static density
    at every time; this exercises every factor of the assembly.  By parity
    the density at x equals the one at |x|, which region 1 reconstructs.
    """
    xs = np.asarray(grid, dtype=float)
    rec = _undo_maps(profile, n, np.abs(np.atleast_1d(xs)).astype(complex), t)
    out = np.abs(rec) ** 2
    return float(out[0]) if xs.ndim == 0 else out
