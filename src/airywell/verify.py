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
# solve_banded is not called here, but the benchmark tracer in
# bench/tracing.py rebinds it in this namespace
from scipy.linalg import solve_banded  # noqa: F401
from scipy.linalg.lapack import zgttrf, zgttrs

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
    "level_residuals",
    "von_neumann_residual",
    "pseudo_hermiticity_check",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid that always contains x = 0 as a node.

    The nodes are the integer multiples k dx for k = first_index ...
    first_index + n_points - 1.  So x = 0 is exactly a node, mirrored
    nodes are exact negatives of each other, and the grids `half_line`
    builds are bitwise the halves of the `centered` grid with the same
    extent and dx (all three compute the same dx).
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 5:
            raise ValueError("grid needs at least 5 points")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        dx = self.dx
        off = abs(self.first_index * dx - self.x_min)
        if self.x_min > 0.0 or self.x_max < 0.0 or off > 1e-9 * dx:
            raise ValueError("x = 0 must be a grid node")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def first_index(self) -> int:
        """k of the first node, x_min = k dx."""
        return round(self.x_min / self.dx)

    @property
    def nodes(self) -> np.ndarray:
        return (self.first_index + np.arange(self.n_points)) * self.dx

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


def _hamiltonian_bands(m: float, f: float, abs_x: np.ndarray, dx: float,
                       diag: np.ndarray, off: np.ndarray) -> float:
    """Write H's bands for mass m and coupling f into diag and off; return kin.

    diag = 2 kin + i f|x| and off = -kin, with kin = 1/(2 m dx^2).  Both
    `build_hamiltonian` and the Crank-Nicolson step fill H here.
    """
    kin = 1.0 / (2.0 * m * dx * dx)
    diag.real = 2.0 * kin
    np.multiply(f, abs_x, out=diag.imag)
    off.fill(-kin)
    return kin


def build_hamiltonian(profile: TimeProfile, t: float, grid: Grid1D) -> DiscretizedOperator:
    """H = -(1/2m) d^2/dx^2 + i f |x| on the grid (Dirichlet ends)."""
    m = float(profile.mass.value(t))
    if m <= 0.0:
        raise ValueError("mass must stay positive")
    f = float(profile.coupling.value(t))
    diag = np.empty(grid.n_points, dtype=complex)
    off = np.empty(grid.n_points - 1, dtype=complex)
    _hamiltonian_bands(m, f, np.abs(grid.nodes), grid.dx, diag, off)
    return DiscretizedOperator(diag=diag, upper=off, lower=off.copy())


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
    diag = 2.0 / dx**2 + co.x * x + co.const
    # p = -i d/dx: upper -i/(2dx), lower +i/(2dx)
    upper = np.full(grid.n_points - 1, -1.0 / dx**2 + c_p * (-1j) / (2 * dx))
    lower = np.full(grid.n_points - 1, -1.0 / dx**2 + c_p * (+1j) / (2 * dx))
    return DiscretizedOperator(diag=diag.astype(complex), upper=upper, lower=lower)


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
    with LAPACK's tridiagonal LU (`zgttrs` on `zgttrf` factors).  Ends are
    Dirichlet: zero by default, or values from `boundary(t_new) -> (left,
    right)` when the run is fed analytic edge data (the half-line
    cross-checks).

    H(t_mid) is the operator `build_hamiltonian` gives, filled by the same
    band helper into arrays allocated once per run.  Its bands are refilled
    and the left-hand matrix refactored only on steps where the pair
    (m(t_mid), f(t_mid)) differs from the previous step's, so a
    constant-coefficient profile factors once per run and a time-dependent
    one on every step.
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
    n = grid.n_points
    diag = np.empty(n, dtype=complex)        # H(t_mid)'s bands
    off = np.empty(n - 1, dtype=complex)
    h_psi = np.empty(n, dtype=complex)
    lower = np.empty(n - 1, dtype=complex)   # 1 + i dt/2 H, then its LU factors
    main = np.empty(n, dtype=complex)
    upper = np.empty(n - 1, dtype=complex)
    factored_for = None                      # the (m, f) the factors belong to
    probe = 0.0
    t = t0
    for step in range(n_steps):
        tm = t + 0.5 * dt
        m = float(profile.mass.value(tm))
        if m <= 0.0:
            raise ValueError("mass must stay positive")
        f = float(profile.coupling.value(tm))
        if (m, f) != factored_for:
            kin = _hamiltonian_bands(m, f, abs_x, dx, diag, off)
            np.multiply(half_step, off, out=upper)
            np.multiply(half_step, off, out=lower)
            np.multiply(half_step, diag, out=main)
            main += 1.0
            # Dirichlet rows: the edge values are set, not solved for
            upper[0] = 0.0
            main[0] = 1.0
            lower[-1] = 0.0
            main[-1] = 1.0
            lower, main, upper, upper2, pivots, info = zgttrf(
                lower, main, upper, overwrite_dl=True, overwrite_d=True, overwrite_du=True)
            if info > 0:
                raise RuntimeError(f"tridiagonal solve broke down at step {step}")
            factored_for = (m, f)

        # right-hand side (1 - i dt/2 H) psi, built over psi itself
        np.multiply(diag, psi, out=h_psi)
        h_psi[:-1] -= kin * psi[1:]
        h_psi[1:] -= kin * psi[:-1]
        psi -= half_step * h_psi
        left, right = (0.0, 0.0) if boundary is None else boundary(t + dt)
        psi[0] = left
        psi[-1] = right
        psi, _ = zgttrs(lower, main, upper, upper2, pivots, psi, overwrite_b=True)
        if not np.all(np.isfinite(psi)):
            raise RuntimeError(f"propagation diverged at step {step}")

        probe = max(probe, float(abs(psi[2])), float(abs(psi[-3])))
        t = t0 + (step + 1) * dt

    return PropagationResult(grid=grid, t_final=t, values=psi, steps=n_steps,
                             boundary_probe=probe)


# time step of the residuals' d/dt stencils
TIME_DELTA = 1e-5


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


def _branch_samples(profile: TimeProfile, n: int, t: float, grid: Grid1D, delta: float):
    """The region-1 branch at the nodes k dx that every residual of (n, t) reads.

    With K the largest |k| of grid, returns Psi_n,1 at t for k = -1 ...
    K + 1 and its d/dt (the `_time_derivative` stencil) for k = 0 ... K.
    Region 2 is read from these by parity: its value at k dx, k < 0, is
    sigma_n times the region-1 value at |k| dx, which on the exact grid is
    bitwise what `wavefunction_branch(..., 2, ...)` gives there.
    """
    k_max = max(-grid.first_index, grid.first_index + grid.n_points - 1)
    ks = np.arange(-1, k_max + 2) * grid.dx
    centre = wavefunction_branch(profile, n, 1, ks.astype(complex), t)
    nodes = ks[1:-1].astype(complex)
    dpsi = _time_derivative(lambda s: wavefunction_branch(profile, n, 1, nodes, s),
                            t, delta, profile.window)
    return centre, dpsi


def _tdse(profile: TimeProfile, n: int, t: float, grid: Grid1D, centre: np.ndarray,
          dpsi: np.ndarray, flip_coupling_sign: bool) -> float:
    """The evolution residual on grid from `_branch_samples` (see `tdse_residual`)."""
    xs = grid.nodes
    dx = grid.dx
    m = float(profile.mass.value(t))
    f = float(profile.coupling.value(t))
    if flip_coupling_sign:
        f = -f
    sigma = -1.0 if n % 2 else 1.0
    n_neg = -grid.first_index                 # region-2 nodes, k = -n_neg ... -1
    # per region: the branch at its nodes plus one beyond each end (the
    # branch is entire, crossing x = 0 is fine), its d/dt at its nodes
    regions = ((sigma * centre[n_neg + 2:0:-1], sigma * dpsi[n_neg:0:-1], xs[:n_neg]),
               (centre[:grid.n_points - n_neg + 2], dpsi[:grid.n_points - n_neg], xs[n_neg:]))
    res = []
    psi_mid = []
    for ext, d, x in regions:
        mid = ext[1:-1]
        lap = (ext[2:] - 2.0 * mid + ext[:-2]) / dx**2
        res.append(1j * d - (-lap / (2.0 * m) + 1j * f * np.abs(x) * mid))
        psi_mid.append(mid)
    res = np.concatenate(res)
    psi_mid = np.concatenate(psi_mid)

    keep = np.zeros(grid.n_points, dtype=bool)
    keep[3:grid.n_points - 3] = True
    if n % 2 == 1:
        keep &= np.abs(xs) > 1e-12
    return float(np.linalg.norm(res[keep]) / np.linalg.norm(psi_mid[keep]))


def tdse_residual(profile: TimeProfile, n: int, t: float, grid: Grid1D,
                  delta: float = TIME_DELTA, flip_coupling_sign: bool = False) -> float:
    """Relative L2 residual of i d(psi)/dt = H psi for the closed form.

    Stencils are branch-consistent: rows at x > 0 use region-1 branch
    values everywhere in the stencil (likewise x < 0 / region 2), so the
    |x| kink of the glued state never contaminates the difference.  The
    x = 0 row comes from region 1 and is dropped for odd n, where the two
    branches genuinely disagree there; three rows at each edge are dropped
    because the Dirichlet stencil is wrong for a non-vanishing tail.
    Region 2's values are read by parity from region 1's, so the branch is
    evaluated once per stencil instant.

    flip_coupling_sign builds H with -f while the state keeps +f: a
    negative control that must fail loudly.
    """
    centre, dpsi = _branch_samples(profile, n, t, grid, delta)
    return _tdse(profile, n, t, grid, centre, dpsi, flip_coupling_sign)


def _invariant_eigen(profile: TimeProfile, n: int, region: int, t: float, grid: Grid1D,
                     psi: np.ndarray) -> float:
    """The invariant residual of the state psi on grid (see `invariant_eigen_residual`)."""
    lam = level(n).eigenvalue
    op = build_invariant(profile, region, t, grid)
    res = op.apply(psi) - lam * psi
    return float(np.linalg.norm(res[1:-1]) / np.linalg.norm(psi[1:-1]))


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
    psi = wavefunction_branch(profile, n, region, xs.astype(complex), t)
    return _invariant_eigen(profile, n, region, t, grid, psi)


def level_residuals(profile: TimeProfile, n: int, t: float, grid: Grid1D,
                    flip_coupling_sign: bool = False) -> tuple:
    """The evolution residual and both invariant residuals of level n at t.

    Returns (`tdse_residual` on grid, `invariant_eigen_residual` of region
    1 on grid's x >= 0 half, that of region 2 on its x <= 0 half), all
    read from one `_branch_samples`: the region-2 state is sigma_n times
    the mirrored region-1 samples.  On a `centered` grid each value
    equals its standalone call (on the `half_line` grids for the
    invariant rows) bitwise.
    """
    centre, dpsi = _branch_samples(profile, n, t, grid, TIME_DELTA)
    n_neg = -grid.first_index
    sigma = -1.0 if n % 2 else 1.0
    half1 = Grid1D(0.0, grid.x_max, grid.n_points - n_neg)
    half2 = Grid1D(grid.x_min, 0.0, n_neg + 1)
    return (_tdse(profile, n, t, grid, centre, dpsi, flip_coupling_sign),
            _invariant_eigen(profile, n, 1, t, half1, centre[1:half1.n_points + 1]),
            _invariant_eigen(profile, n, 2, t, half2, sigma * centre[n_neg + 1:0:-1]))


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
                         freeze_tilt: bool = False) -> float:
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
        _time_derivative(bands, t, TIME_DELTA, profile.window), (n - 1, 2 * n - 1))

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
    p_new = co.p - 2j * alpha
    const_new = co.const - alpha**2 + 1j * co.x * beta - 1j * alpha * co.p
    return float(max(abs(p_new - np.conj(co.p)), abs(const_new - np.conj(co.const))))
