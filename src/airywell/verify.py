"""Independent numerical checks of the closed-form states.

Nothing here reuses the analytic machinery being tested beyond evaluating
it: the Hamiltonian and invariant are rebuilt as banded grid operators,
the evolution is re-run with Crank-Nicolson, and the metric relation is
checked at the level of operator coefficients where it is exact algebra.

Grid conventions: 3-point stencil for the second derivative, central
difference for the first, diagonal multiplication for the potential.
The |x| kink makes full-line residuals of region formulas meaningless
near the origin, so residual stencils are fed branch-consistently: every
stencil value for a node in one region comes from that region's branch
(the branches are entire, so evaluating them slightly across x = 0 is
legitimate).  Only the Crank-Nicolson propagator works with the glued
full-line state, because that is the point of the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from .profiles import TimeProfile, coefficients_at, invariant_coefficients
from .spectrum import level
from .wavefunction import assemble_wavefunction, wavefunction_branch

__all__ = [
    "Grid1D",
    "DiscretizedOperator",
    "PropagationResult",
    "build_hamiltonian",
    "build_invariant",
    "crank_nicolson_propagate",
    "tdse_residual",
    "invariant_eigen_residual",
    "von_neumann_residual",
    "pseudo_hermiticity_check",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid that always contains x = 0 as a node."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 5:
            raise ValueError("grid needs at least 5 points")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        dx = self.dx
        off = abs(round(-self.x_min / dx) * dx + self.x_min)
        if self.x_min > 0.0 or self.x_max < 0.0 or off > 1e-9 * dx:
            raise ValueError("x = 0 must be a grid node")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @staticmethod
    def centered(half_width: float, dx: float) -> "Grid1D":
        n = int(round(half_width / dx))
        return Grid1D(-n * dx, n * dx, 2 * n + 1)

    @staticmethod
    def half_line(extent: float, dx: float, region: int) -> "Grid1D":
        n = int(round(extent / dx))
        if region == 1:
            return Grid1D(0.0, n * dx, n + 1)
        if region == 2:
            return Grid1D(-n * dx, 0.0, n + 1)
        raise ValueError("region must be 1 or 2")


@dataclass(frozen=True)
class DiscretizedOperator:
    """Tridiagonal operator: diag[i], upper[i] = A[i,i+1], lower[i] = A[i+1,i]."""

    grid: Grid1D
    diag: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.lower * v[:-1]
        return out

    def max_row_sum(self) -> float:
        rows = np.abs(self.diag).astype(float)
        rows[:-1] += np.abs(self.upper)
        rows[1:] += np.abs(self.lower)
        return float(np.max(rows))


def build_hamiltonian(profile: TimeProfile, t: float, grid: Grid1D) -> DiscretizedOperator:
    """H = -(1/2m) d^2/dx^2 + i f |x| on the grid (Dirichlet ends)."""
    m = float(profile.mass.value(t))
    if m <= 0.0:
        raise ValueError("mass must stay positive")
    f = float(profile.coupling.value(t))
    x = grid.nodes
    dx = grid.dx
    kin = 1.0 / (2.0 * m * dx * dx)
    diag = (2.0 * kin + 1j * (f * np.abs(x))).astype(complex)
    off = np.full(grid.n_points - 1, -kin, dtype=complex)
    return DiscretizedOperator(grid=grid, diag=diag, upper=off, lower=off.copy())


def build_invariant(profile: TimeProfile, region: int, t: float, grid: Grid1D,
                    freeze_tilt: bool = False) -> DiscretizedOperator:
    """The region invariant p^2 +- x + c_p p + c_0 as a tridiagonal operator.

    freeze_tilt zeroes the p coefficient (a deliberate mutilation used as
    a negative control; the conservation residual must then blow up).
    """
    co = invariant_coefficients(profile, t, region)
    x = grid.nodes
    dx = grid.dx
    c_p = 0.0 + 0.0j if freeze_tilt else co.p
    diag = (2.0 / dx**2) * co.p2 + co.x * x + co.const
    # p = -i d/dx: upper -i/(2dx), lower +i/(2dx)
    upper = np.full(grid.n_points - 1, -co.p2 / dx**2 + c_p * (-1j) / (2 * dx))
    lower = np.full(grid.n_points - 1, -co.p2 / dx**2 + c_p * (+1j) / (2 * dx))
    return DiscretizedOperator(grid=grid, diag=diag.astype(complex), upper=upper, lower=lower)


@dataclass(frozen=True)
class PropagationResult:
    """Final state of a Crank-Nicolson run plus diagnostics."""

    grid: Grid1D
    t_final: float
    values: np.ndarray
    steps: int
    boundary_probe: float         # max |psi| two nodes in from either edge


def crank_nicolson_propagate(profile: TimeProfile, initial, t0: float, t1: float,
                             dt: float,
                             boundary: Optional[Callable[[float], tuple]] = None,
                             ) -> PropagationResult:
    """March the glued state with midpoint-coefficient Crank-Nicolson.

    Each step solves (1 + i dt/2 H(t_mid)) psi_new = (1 - i dt/2 H(t_mid)) psi
    by banded elimination.  Ends are Dirichlet: zero by default, or values
    from `boundary(t_new) -> (left, right)` when the run is fed analytic
    edge data (the half-line cross-checks).

    H(t_mid) is the operator `build_hamiltonian` gives; its bands are
    filled in place each step from m(t_mid) and f(t_mid), with the same
    arithmetic, into arrays allocated once per run.
    """
    if not (np.isfinite(dt) and 0.0 < dt <= 1e-3):
        raise ValueError("dt must be finite and in (0, 1e-3]")
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 <= t1):
        raise ValueError("t0 and t1 must be finite with t0 <= t1")
    if not (hasattr(initial, "values") and hasattr(initial, "grid")):
        raise ValueError("initial state must carry .grid and .values")
    psi = np.asarray(initial.values, dtype=complex).copy()
    xs = np.asarray(initial.grid, dtype=float)
    if xs.ndim != 1 or xs.size != psi.size:
        raise ValueError("initial state grid/values shape mismatch")
    dxs = np.diff(xs)
    if not np.allclose(dxs, dxs[0], rtol=1e-9, atol=0):
        raise ValueError("propagation grid must be uniform")
    grid = Grid1D(float(xs[0]), float(xs[-1]), xs.size)

    m_min = float(np.min(profile.mass.value(np.linspace(t0, t1, 33))))
    if dt / grid.dx**2 > 10.0 * m_min:
        raise ValueError("time step too large for this grid (dt/dx^2 guard)")

    n_steps = int(round((t1 - t0) / dt))
    if abs(t0 + n_steps * dt - t1) > 1e-9:
        raise ValueError("(t1 - t0) must be an integer number of steps")

    dx = grid.dx
    abs_x = np.abs(grid.nodes)
    half_step = 0.5j * dt
    diag = np.empty(grid.n_points, dtype=complex)   # H's main band; its side bands are -kin
    h_psi = np.empty(grid.n_points, dtype=complex)
    band = np.empty((3, grid.n_points), dtype=complex)
    probe = 0.0
    t = t0
    for step in range(n_steps):
        tm = t + 0.5 * dt
        m = float(profile.mass.value(tm))
        if m <= 0.0:
            raise ValueError("mass must stay positive")
        f = float(profile.coupling.value(tm))
        kin = 1.0 / (2.0 * m * dx * dx)
        diag.real = 2.0 * kin
        np.multiply(f, abs_x, out=diag.imag)

        # right-hand side (1 - i dt/2 H) psi, built over psi itself
        np.multiply(diag, psi, out=h_psi)
        h_psi[:-1] -= kin * psi[1:]
        h_psi[1:] -= kin * psi[:-1]
        psi -= half_step * h_psi
        band[0, 1:] = band[2, :-1] = half_step * -kin
        np.multiply(half_step, diag, out=band[1])
        band[1] += 1.0
        left, right = (0.0, 0.0) if boundary is None else boundary(t + dt)
        band[0, 1] = 0.0
        band[1, 0] = 1.0
        band[2, -2] = 0.0
        band[1, -1] = 1.0
        psi[0] = left
        psi[-1] = right
        try:
            psi = solve_banded((1, 1), band, psi, overwrite_ab=True, overwrite_b=True,
                               check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"tridiagonal solve broke down at step {step}") from exc
        if not np.all(np.isfinite(psi)):
            raise RuntimeError(f"propagation diverged at step {step}")

        probe = max(probe, float(abs(psi[2])), float(abs(psi[-3])))
        t = t0 + (step + 1) * dt

    return PropagationResult(grid=grid, t_final=t, values=psi, steps=n_steps,
                             boundary_probe=probe)


def _time_derivative(fn, t: float, delta: float, window: float):
    """d/dt of fn at t, second order in delta.

    Central difference inside the window; within delta of t = 0 or of
    t = window, the one-sided three-point formula that stays inside it.
    """
    if t - delta < 0.0:
        stencil = ((0.0, -3.0), (delta, 4.0), (2.0 * delta, -1.0))
    elif t + delta > window:
        stencil = ((0.0, 3.0), (-delta, -4.0), (-2.0 * delta, 1.0))
    else:
        stencil = ((delta, 1.0), (-delta, -1.0))
    return sum(weight * fn(t + step) for step, weight in stencil) / (2.0 * delta)


def tdse_residual(profile: TimeProfile, n: int, t: float, grid: Grid1D,
                  delta: float = 1e-5, flip_coupling_sign: bool = False) -> float:
    """Relative L2 residual of i d(psi)/dt = H psi for the closed form.

    Stencils are branch-consistent: rows at x > 0 use region-1 branch
    values everywhere in the stencil (likewise x < 0 / region 2), so the
    |x| kink of the glued state never contaminates the difference.  The
    x = 0 row comes from region 1 and is dropped for odd n, where the two
    branches genuinely disagree there; three rows at each edge are dropped
    because the Dirichlet stencil is wrong for a non-vanishing tail.

    flip_coupling_sign builds H with -f while the state keeps +f: a
    negative control that must fail loudly.
    """
    xs = grid.nodes
    dx = grid.dx
    m = float(profile.mass.value(t))
    f = float(profile.coupling.value(t))
    if flip_coupling_sign:
        f = -f

    res = np.zeros(grid.n_points, dtype=complex)
    psi_mid = np.zeros(grid.n_points, dtype=complex)
    for region, mask in ((1, xs >= 0.0), (2, xs < 0.0)):
        idx = np.where(mask)[0]
        if idx.size == 0:
            continue
        lo, hi = idx[0], idx[-1]
        # evaluate the branch one node beyond each end so every row owns a
        # complete stencil (the branch is entire, crossing x = 0 is fine)
        ext = np.concatenate(([xs[lo] - dx], xs[lo:hi + 1], [xs[hi] + dx])).astype(complex)
        mid = wavefunction_branch(profile, n, region, ext, t)
        lap = (mid[2:] - 2.0 * mid[1:-1] + mid[:-2]) / dx**2
        mid = mid[1:-1]
        nodes = xs[idx].astype(complex)
        dpsi = _time_derivative(lambda s: wavefunction_branch(profile, n, region, nodes, s),
                                t, delta, profile.window)
        res[idx] = 1j * dpsi - (-lap / (2.0 * m) + 1j * f * np.abs(xs[idx]) * mid)
        psi_mid[idx] = mid

    keep = np.zeros(grid.n_points, dtype=bool)
    keep[3:grid.n_points - 3] = True
    if n % 2 == 1:
        keep &= np.abs(xs) > 1e-12
    return float(np.linalg.norm(res[keep]) / np.linalg.norm(psi_mid[keep]))


def invariant_eigen_residual(profile: TimeProfile, n: int, region: int, t: float,
                             grid: Grid1D) -> float:
    """Relative L2 residual of (invariant - lambda) on one region branch.

    The grid must live in the region's half-line; interior rows only (the
    end rows of a tridiagonal operator see truncated stencils).
    """
    xs = grid.nodes
    if region == 1 and xs[0] < -1e-12:
        raise ValueError("region 1 residual needs a grid on x >= 0")
    if region == 2 and xs[-1] > 1e-12:
        raise ValueError("region 2 residual needs a grid on x <= 0")
    lam = level(n).eigenvalue
    op = build_invariant(profile, region, t, grid)
    psi = wavefunction_branch(profile, n, region, xs.astype(complex), t)
    res = op.apply(psi) - lam * psi
    return float(np.linalg.norm(res[1:-1]) / np.linalg.norm(psi[1:-1]))


def _tri_product_bands(a: DiscretizedOperator, b: DiscretizedOperator):
    """Pentadiagonal bands of A @ B for tridiagonal A, B.

    Returns (d2u, d1u, d0, d1l, d2l): second/first upper, main, first and
    second lower diagonals.
    """
    ad, au, al = a.diag, a.upper, a.lower
    bd, bu, bl = b.diag, b.upper, b.lower
    d0 = ad * bd
    d0[:-1] = d0[:-1] + au * bl
    d0[1:] = d0[1:] + al * bu
    # C[i, i+1] = A[i,i] B[i,i+1] + A[i,i+1] B[i+1,i+1]
    d1u = ad[:-1] * bu + au * bd[1:]
    # C[i+1, i] = A[i+1,i] B[i,i] + A[i+1,i+1] B[i+1,i]
    d1l = al * bd[:-1] + ad[1:] * bl
    d2u = au[:-1] * bu[1:]
    d2l = al[1:] * bl[:-1]
    return d2u, d1u, d0, d1l, d2l


def von_neumann_residual(profile: TimeProfile, region: int, t: float, grid: Grid1D,
                         delta: float = 1e-5, freeze_tilt: bool = False) -> float:
    """Conservation-law residual |dI/dt - i[I, H]| / |H| (max row sums).

    Region-wise so the potential is smooth on the grid.  The time
    derivative is second order everywhere: central inside the window,
    one-sided at either end.  Two rows at each end are excluded: banded
    products truncate there.
    """
    def bands(s):
        op = build_invariant(profile, region, s, grid, freeze_tilt=freeze_tilt)
        return np.concatenate((op.upper, op.diag, op.lower))

    n = grid.n_points
    dupper, ddiag, dlower = np.split(
        _time_derivative(bands, t, delta, profile.window), (n - 1, 2 * n - 1))

    inv = build_invariant(profile, region, t, grid, freeze_tilt=freeze_tilt)
    ham = build_hamiltonian(profile, t, grid)
    ih = _tri_product_bands(inv, ham)
    hi = _tri_product_bands(ham, inv)

    # residual bands: dI/dt - i(IH - HI)
    r2u = -1j * (ih[0] - hi[0])
    r1u = dupper - 1j * (ih[1] - hi[1])
    r0 = ddiag - 1j * (ih[2] - hi[2])
    r1l = dlower - 1j * (ih[3] - hi[3])
    r2l = -1j * (ih[4] - hi[4])

    rows = np.zeros(n, dtype=float)
    rows += np.abs(r0)
    rows[:-1] += np.abs(r1u)
    rows[1:] += np.abs(r1l)
    rows[:-2] += np.abs(r2u)
    rows[2:] += np.abs(r2l)
    interior = rows[2:-2]
    return float(np.max(interior) / ham.max_row_sum())


def pseudo_hermiticity_check(profile: TimeProfile, t: float, region: int,
                             alpha_offset: float = 0.0) -> float:
    """Coefficient-level mismatch of the metric similarity relation.

    The metric exponent is linear in x and p, so conjugating the invariant
    shifts x -> x + i*beta and p -> p - i*alpha exactly, with alpha and
    beta built from the frozen integrals (signs flip with the region).
    If the relation holds, the transformed coefficients are the complex
    conjugates of the originals; the return value is the largest absolute
    coefficient mismatch.  alpha_offset shifts alpha (negative control).
    """
    co = invariant_coefficients(profile, t, region)
    c = coefficients_at(profile, t)
    sgn = 1.0 if region == 1 else -1.0
    alpha = sgn * c.k + alpha_offset
    beta = sgn * 2.0 * c.b
    p_new = co.p - 2j * alpha * co.p2
    const_new = co.const - co.p2 * alpha**2 + 1j * co.x * beta - 1j * alpha * co.p
    return float(max(abs(p_new - np.conj(co.p)), abs(const_new - np.conj(co.const))))
