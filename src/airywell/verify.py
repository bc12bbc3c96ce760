"""Independent numerical checks of the closed-form states.

Nothing here reuses the analytic machinery being tested beyond evaluating
it: the Hamiltonian and invariant are rebuilt as banded grid operators,
the evolution is re-run with Crank-Nicolson, and the metric relation is
checked at the level of operator coefficients where it is exact algebra.

Grid conventions: 3-point stencil for the second derivative, central
difference for the first, diagonal multiplication for the potential.
The |x| kink makes full-line residuals of region formulas meaningless
near the origin, so every residual stencil reads one region's branch
(the branches are entire, so evaluating them slightly across x = 0 is
legitimate).  Region 2's state is sigma_n times the mirrored region-1
state (H commutes with parity), so each residual reads region 1's
branch once per (n, t) (`_branch_samples`) and region 2 by parity from
those samples.  The operators and the maps depend on t alone, and a
level enters only through its lambda_n, N_n and parity, so the rows of
several levels at one t are computed in one batch (`level_residuals_at`):
one coefficient read per instant, one tilt, one anchored lattice read of
every level's state, and one invariant operator per region, with the
per-node arithmetic done level by level, so that each level's rows are
bitwise those of its level alone.  Only the Crank-Nicolson propagator
works with the glued state on both half-lines, because that is the point
of the cross-check; an unfed run of a mirror-symmetric state steps
x >= 0 alone and unfolds by parity, which the full-line scheme commutes
with.

The time derivatives are finite differences over the instants of
`_stencil`.  For the closed-form state they act on its coefficient
scalars alone, and the chain rule on one read of Ai and Ai' at t gives
the state's d/dt (`wavefunction.wavefunction_branches_and_dt`).  Every
residual reads the state on the grid's lattice x = k dx through
`airy.airy_ai_and_prime_lattice`, which reads the kernel at every 64th
node and sums the others from it; reads that share nodes give the same
bits there, so a residual computed from shared samples equals its
standalone call bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .profiles import TimeProfile, coefficients_at, invariant_coefficients
from .spectrum import level
from .wavefunction import wavefunction_branches_and_dt
# wavefunction_branch is not called here, but the benchmark tracer in
# bench/tracing.py rebinds it in this namespace
from .wavefunction import wavefunction_branch  # noqa: F401

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
    "level_residuals_at",
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
        rows = np.abs(self.diag)
        rows[:-1] += np.abs(self.upper)
        rows[1:] += np.abs(self.lower)
        return float(np.max(rows))


def build_hamiltonian(profile: TimeProfile, t: float, grid: Grid1D) -> DiscretizedOperator:
    """H = -(1/2m) d^2/dx^2 + i f |x| on the grid (Dirichlet ends)."""
    m = float(profile.mass.value(t))
    if m <= 0.0:
        raise ValueError("mass must stay positive")
    f = float(profile.coupling.value(t))
    kin = 1.0 / (2.0 * m * grid.dx * grid.dx)
    diag = np.empty(grid.n_points, dtype=complex)
    diag.real = 2.0 * kin
    np.multiply(f, np.abs(grid.nodes), out=diag.imag)
    off = np.full(grid.n_points - 1, complex(-kin))
    return DiscretizedOperator(diag=diag, upper=off, lower=off)


def _p_entries(c: complex, dx: float) -> tuple:
    """The (upper, lower) entries of c p, with p = -i d/dx the central difference."""
    return c * (-1j) / (2 * dx), c * (+1j) / (2 * dx)


def build_invariant(profile: TimeProfile, region: int, t: float,
                    grid: Grid1D) -> DiscretizedOperator:
    """The region invariant p^2 +- x + c_p p + c_0 as a tridiagonal operator."""
    co = invariant_coefficients(profile, t, region)
    x = grid.nodes
    dx = grid.dx
    diag = 2.0 / dx**2 + co.x * x + co.const
    p_upper, p_lower = _p_entries(co.p, dx)
    upper = np.full(grid.n_points - 1, -1.0 / dx**2 + p_upper)
    lower = np.full(grid.n_points - 1, -1.0 / dx**2 + p_lower)
    return DiscretizedOperator(diag=diag, upper=upper, lower=lower)


@dataclass(frozen=True)
class PropagationResult:
    """Final state of a Crank-Nicolson run plus diagnostics."""

    grid: Grid1D
    t_final: float
    values: np.ndarray
    steps: int
    boundary_probe: float         # max |psi| two nodes in from either edge


def _mirror_parity(psi: np.ndarray, grid: Grid1D) -> Optional[int]:
    """sigma = +1 or -1 if psi is a bitwise sigma-mirrored state on a centered grid.

    Node x = 0 is not compared; for sigma = -1 it must be rounding-level,
    |psi(0)| <= 1e-12 max|psi|.  None for any other state or grid.
    """
    origin = -grid.first_index
    if 2 * origin + 1 != grid.n_points:
        return None
    right, left = psi[origin + 1:], psi[origin - 1::-1]
    if np.array_equal(right, left):
        return 1
    if (np.array_equal(right, -left)
            and abs(psi[origin]) <= 1e-12 * np.max(np.abs(psi))):
        return -1
    return None


def crank_nicolson_propagate(profile: TimeProfile, initial, t0: float, t1: float,
                             dt: float,
                             boundary: Optional[Callable[[float], tuple]] = None,
                             ) -> PropagationResult:
    """March the glued state with midpoint-coefficient Crank-Nicolson.

    Each step applies (1 + i tau H)^-1 (1 - i tau H), with tau = dt/2 and
    H = H(t_mid), in its Cayley form 2 (1 + i tau H)^-1 - 1: it solves
    A y = 2 psi with A = 1 + i tau H and sets psi_new = y - psi, so no
    product with H is formed.  A is solved by LAPACK's tridiagonal LU with
    partial pivoting: `zgttrf` factors and `zgttrs` solves, or `zgtsv`
    does both in one call for an A no other step reuses (see below).
    Both run the same elimination with the same pivoting.  Ends are Dirichlet:
    zero by default, or values from `boundary(t_new) -> (left, right)`
    when the run is fed analytic edge data (the half-line cross-checks).
    A's end rows are identity rows, so the right-hand side holds
    left + psi[0] and right + psi[-1] there (row 1 still sees A[1,0] left,
    as in the plain form), and psi_new's end nodes are set to left and
    right exactly.

    H commutes with parity, and so does the scheme on a centered grid
    with zero ends.  An unfed run (boundary None) whose state is bitwise
    sigma-mirrored about x = 0 (see `_mirror_parity`) is therefore
    stepped on the nodes x >= 0 alone and unfolded at the end: for
    sigma = +1 row 0 keeps its diagonal and doubles its upper entry (the
    ghost node psi(-dx) is psi(dx)), for sigma = -1 row 0 is the Dirichlet
    identity row with psi(0) = 0.  The far end stays Dirichlet, the
    result holds the full grid, and `boundary_probe` reads the mirrored
    node, so it equals the full-line probe.  Any other run, a fed one or
    an odd state with psi(0) above rounding level among them, is stepped
    on the full line.

    A's bands are written straight into their final form, in arrays
    allocated once per run, with no pass over H and no complex product:
    with kin = 1/(2 m dx^2), the main band is 1 - (f|x|) tau + i (2 kin) tau
    and both off-diagonals are -0.0 - i (kin tau).  These are the bits of
    numpy's complex products for 1 + (i tau) H on `build_hamiltonian`'s
    bands, the -0.0 real parts included; a test pins every A handed to
    LAPACK to that product.  m and f are read at every step midpoint in one
    call each before the first step: these masses, the only ones the run
    reads, must be positive and their least bounds dt/dx^2.  A is refilled
    only on steps where the pair (m(t_mid), f(t_mid)) differs from the
    previous step's.  A pair the next step shares is factored once by
    `zgttrf` and every step of it solves with `zgttrs`; a pair the next
    step does not share is solved by one `zgtsv` call, which skips storing
    factors no step reads.  So a constant-coefficient profile factors once
    per run, and a time-dependent one takes one `zgtsv` call per step.

    initial carries .values and .grid: the nodes, which must be uniform,
    or a `Grid1D`, so a run can start from another run's result.  The run
    must lie inside the profile window: t0 >= 0 and t1 <= window, with the
    1e-12 slack of the profile's table reads.  LAPACK is imported here, on
    the first run, so that no other command loads scipy.
    """
    from scipy.linalg.lapack import zgtsv, zgttrf, zgttrs

    if not (np.isfinite(dt) and 0.0 < dt <= 1e-3):
        raise ValueError("dt must be finite and in (0, 1e-3]")
    if not (np.isfinite(t0) and np.isfinite(t1) and t0 <= t1):
        raise ValueError("t0 and t1 must be finite with t0 <= t1")
    if t0 < -1e-12 or t1 > profile.window + 1e-12:
        raise ValueError(f"t0 and t1 must lie inside the profile window [0, {profile.window}]")
    if not (hasattr(initial, "values") and hasattr(initial, "grid")):
        raise ValueError("initial state must carry .grid and .values")
    full = np.asarray(initial.values, dtype=complex).copy()
    grid = initial.grid
    if not isinstance(grid, Grid1D):    # nodes, which must be uniform
        xs = np.asarray(grid, dtype=float)
        if xs.ndim != 1 or xs.size != full.size:
            raise ValueError("initial state grid/values shape mismatch")
        if xs.size < 5:                 # Grid1D's own floor, before the spacing is read
            raise ValueError("grid needs at least 5 points")
        dxs = np.diff(xs)
        if not np.allclose(dxs, dxs[0], rtol=1e-9, atol=0):
            raise ValueError("propagation grid must be uniform")
        grid = Grid1D(float(xs[0]), float(xs[-1]), xs.size)
    if full.shape != (grid.n_points,):
        raise ValueError("initial state grid/values shape mismatch")

    n_steps = int(round((t1 - t0) / dt))
    if abs(t0 + n_steps * dt - t1) > 1e-9:
        raise ValueError("(t1 - t0) must be an integer number of steps")

    t_mid = (t0 + np.arange(n_steps) * dt) + 0.5 * dt
    m_mid = profile.mass.value(t_mid)
    if not np.all(m_mid > 0.0):
        raise ValueError("mass must stay positive")
    if dt / grid.dx**2 > 10.0 * np.min(m_mid, initial=np.inf):
        raise ValueError("time step too large for this grid (dt/dx^2 guard)")
    pairs = list(zip(m_mid.tolist(), profile.coupling.value(t_mid).tolist()))

    sigma = None if boundary is not None else _mirror_parity(full, grid)
    origin = 0 if sigma is None else -grid.first_index
    psi = full[origin:]                      # a view: the stepped nodes change in place
    abs_x = np.abs(grid.nodes[origin:])
    near_left = 2 if sigma is None else -3   # the left probe node, or its mirror
    reflect = sigma == 1                     # row 0 sees the ghost psi(-dx) = psi(dx)
    dx = grid.dx
    tau = 0.5 * dt
    n = psi.size
    lower = np.empty(n - 1, dtype=complex)   # A = 1 + i tau H, then its LU factors
    main = np.empty(n, dtype=complex)
    upper = np.empty(n - 1, dtype=complex)
    b = np.empty(n, dtype=complex)
    # the real and imaginary parts of psi and b, interleaved
    psi_parts, b_parts = psi.view(float), b.view(float)
    potential = np.empty(n)                  # (f |x|) tau, off the real main band
    factored_for = None                      # the (m, f) the factors belong to
    probe = 0.0
    for step, (m, f) in enumerate(pairs):
        if (m, f) != factored_for:
            # A's bands in final form (see the docstring)
            kin = 1.0 / (2.0 * m * dx * dx)
            np.multiply(f, abs_x, out=potential)
            potential *= tau
            np.subtract(1.0, potential, out=main.real)
            main.imag = (2.0 * kin) * tau
            off = complex(-0.0, -(kin * tau))
            upper.fill(off)
            lower.fill(off)
            # Dirichlet rows (the edge values are set, not solved for),
            # or the mirror row at x = 0 of an even folded run
            if reflect:
                upper[0] *= 2.0
            else:
                upper[0] = 0.0
                main[0] = 1.0
            lower[-1] = 0.0
            main[-1] = 1.0
            # factor only for a pair the next step reuses; A of a one-off
            # pair is factored and solved by one zgtsv call below
            factored_for = (m, f) if pairs[step + 1:step + 2] == [(m, f)] else None
            if factored_for is not None:
                lower, main, upper, upper2, pivots, info = zgttrf(
                    lower, main, upper, overwrite_dl=True, overwrite_d=True, overwrite_du=True)
                if info > 0:
                    raise RuntimeError(f"tridiagonal solve broke down at step {step}")

        left, right = (0.0, 0.0) if boundary is None else boundary((t0 + step * dt) + dt)
        np.multiply(psi_parts, 2.0, out=b_parts)    # 2 psi: psi + psi, bit for bit
        if not reflect:
            b[0] = left + psi[0]
        b[-1] = right + psi[-1]
        # the solution y is b itself, solved in place; b is not rebound to
        # it, so b_parts stays b's view whatever LAPACK hands back
        if factored_for is None:
            # zgtsv overwrites the bands, which the next step refills
            _, _, _, y, info = zgtsv(lower, main, upper, b, overwrite_dl=True,
                                     overwrite_d=True, overwrite_du=True, overwrite_b=True)
            if info > 0:
                raise RuntimeError(f"tridiagonal solve broke down at step {step}")
        else:
            y, _ = zgttrs(lower, main, upper, upper2, pivots, b, overwrite_b=True)
        np.subtract(y, psi, out=psi)
        if not reflect:
            psi[0] = left
        psi[-1] = right
        # a NaN or infinity anywhere (or an overflowing state) makes the
        # squared norm non-finite
        if not math.isfinite(np.vdot(psi, psi).real):
            raise RuntimeError(f"propagation diverged at step {step}")

        probe = max(probe, float(abs(psi[near_left])), float(abs(psi[-3])))

    if sigma is not None and n_steps:      # a run of no steps returns its input as given
        full[:origin] = sigma * full[:origin:-1]
    return PropagationResult(grid=grid, t_final=t0 + n_steps * dt, values=full, steps=n_steps,
                             boundary_probe=probe)


def solve_banded(*args, **kwargs):
    """`scipy.linalg.solve_banded`, imported on the first call.  Nothing in
    the package calls it; the benchmark tracer in bench/tracing.py rebinds
    this name."""
    from scipy.linalg import solve_banded as solve

    return solve(*args, **kwargs)


# time step of the residuals' d/dt stencils
TIME_DELTA = 1e-5


def _stencil(t: float, window: float) -> tuple:
    """The (offset, weight) pairs of the d/dt stencil at t, step TIME_DELTA.

    Central difference inside the window; within TIME_DELTA of t = 0 or of
    t = window, the one-sided three-point formula that stays inside it.
    """
    if t - TIME_DELTA < 0.0:
        return ((0.0, -3.0), (TIME_DELTA, 4.0), (2.0 * TIME_DELTA, -1.0))
    if t + TIME_DELTA > window:
        return ((0.0, 3.0), (-TIME_DELTA, -4.0), (-2.0 * TIME_DELTA, 1.0))
    return ((TIME_DELTA, 1.0), (-TIME_DELTA, -1.0))


def _time_derivative(fn, t: float, window: float):
    """d/dt of fn at t over `_stencil`, second order in TIME_DELTA."""
    return sum(w * fn(t + s) for s, w in _stencil(t, window)) / (2.0 * TIME_DELTA)


def _branch_samples(profile: TimeProfile, levels, t: float, grid: Grid1D) -> list:
    """The region-1 branch at the nodes k dx that every residual of (n, t)
    reads, for each n of levels: a list of (centre, dpsi) in levels' order.

    With K the largest |k| of grid, centre is Psi_n,1 at t for k = -1 ...
    K + 1 and dpsi its d/dt for k = 0 ... K, from one lattice read of Ai
    and Ai' at t for all levels: `wavefunction_branches_and_dt` gives each
    branch and its d/dt by the chain rule, with `_time_derivative` taken
    of the coefficient scalars alone.  Region 2 is read from these by
    parity: its value at k dx, k < 0, is sigma_n times the region-1 value
    at |k| dx (`_invariant_eigen`), and the evolution residual's rows
    there are region 1's at |k|.
    """
    k_max = max(-grid.first_index, grid.first_index + grid.n_points - 1)
    samples = wavefunction_branches_and_dt(
        profile, levels, range(-1, k_max + 2), grid.dx, t,
        lambda fn: _time_derivative(fn, t, profile.window))
    return [(centre, dpsi[1:-1]) for centre, dpsi in samples]


def _tdse_rows(levels, grid: Grid1D) -> dict:
    """For each parity of levels, the sorted |k| of the rows the evolution
    residual keeps: all but three at each edge, and but x = 0 for odd n.
    A ValueError if that leaves none."""
    ks = np.arange(grid.first_index + 3, grid.first_index + grid.n_points - 3)
    rows = {}
    for parity in {n % 2 for n in levels}:
        kept = ks[ks != 0] if parity else ks
        if not kept.size:
            raise ValueError("tdse residual needs a node 3 nodes in from each end, "
                             "off x = 0 for odd n")
        rows[parity] = np.sort(np.abs(kept))
    return rows


def _tdse(profile: TimeProfile, levels, t: float, dx: float, samples: list,
          flip_coupling_sign: bool, rows: dict) -> list:
    """The evolution residual of each level at the rows |k| of `_tdse_rows`,
    from the region-1 samples of `_branch_samples` (see `tdse_residual`)."""
    m = float(profile.mass.value(t))
    f = float(profile.coupling.value(t))
    if flip_coupling_sign:
        f = -f
    # i f |x| on the rows k = 0 ... K, which every level's row shares
    potential = 1j * f * (np.arange(samples[0][1].size) * dx)
    out = []
    for n, (centre, dpsi) in zip(levels, samples):
        # the branch is entire, so the stencil at k = 0 may read k = -1
        mid = centre[1:-1]
        lap = (centre[2:] - 2.0 * mid + centre[:-2]) / dx**2
        res = 1j * dpsi - (-lap / (2.0 * m) + potential * mid)
        kept = rows[n % 2]
        out.append(float(np.linalg.norm(res[kept]) / np.linalg.norm(mid[kept])))
    return out


def tdse_residual(profile: TimeProfile, n: int, t: float, grid: Grid1D,
                  flip_coupling_sign: bool = False) -> float:
    """Relative L2 residual of i d(psi)/dt = H psi for the closed form.

    One stencil, on region 1's branch at |x| = k dx (`_branch_samples`), so
    the |x| kink of the glued state never enters a difference.  The row of
    a node k dx < 0 is sigma_n times region 1's row at |k| by parity, and
    the norms, taken over the sorted |k| of the kept rows, do not see
    sigma_n: a grid and its mirror image give the same bits.  The x = 0
    row is dropped for odd n, where the two branches genuinely disagree;
    three rows at each edge are dropped because the Dirichlet stencil is
    wrong for a non-vanishing tail.

    flip_coupling_sign builds H with -f while the state keeps +f: a
    negative control that must fail loudly.
    """
    rows = _tdse_rows((n,), grid)
    samples = _branch_samples(profile, (n,), t, grid)
    return _tdse(profile, (n,), t, grid.dx, samples, flip_coupling_sign, rows)[0]


def _invariant_eigen(profile: TimeProfile, levels, region: int, t: float, grid: Grid1D,
                     samples: list) -> list:
    """The invariant residual of each level on region's half-line grid (see
    `invariant_eigen_residual`), from the samples of `_branch_samples`,
    with one invariant operator for all levels: region 1's centre at
    k = 0 ... N - 1, with N grid's node count, or for region 2 sigma_n
    times them mirrored (parity)."""
    op = build_invariant(profile, region, t, grid)
    out = []
    for n, (centre, _) in zip(levels, samples):
        if region == 1:
            psi = centre[1:grid.n_points + 1]
        else:
            psi = (-1.0 if n % 2 else 1.0) * centre[grid.n_points:0:-1]
        res = op.apply(psi) - level(n).eigenvalue * psi
        out.append(float(np.linalg.norm(res[1:-1]) / np.linalg.norm(psi[1:-1])))
    return out


def invariant_eigen_residual(profile: TimeProfile, n: int, region: int, t: float,
                             grid: Grid1D) -> float:
    """Relative L2 residual of (invariant - lambda) on one region branch.

    The grid must live in the region's half-line; interior rows only (the
    end rows of a tridiagonal operator see truncated stencils).  The
    state is read as `level_residuals` reads it: region 1's branch on the
    grid's lattice (`_branch_samples`), and region 2 by parity from it.
    """
    xs = grid.nodes
    if region == 1 and xs[0] < -1e-12:
        raise ValueError("region 1 residual needs a grid on x >= 0")
    if region == 2 and xs[-1] > 1e-12:
        raise ValueError("region 2 residual needs a grid on x <= 0")
    return _invariant_eigen(profile, (n,), region, t, grid,
                            _branch_samples(profile, (n,), t, grid))[0]


def level_residuals_at(profile: TimeProfile, levels, t: float, grid: Grid1D,
                       flip_coupling_sign: bool = False) -> list:
    """The evolution residual and both invariant residuals of each level
    of levels at t: a list of `level_residuals` triples in levels' order.

    Every quantity that depends on t alone is computed once for all
    levels: the coefficient reads of the branches and of their d/dt
    stencil, the tilt, one anchored lattice read of every level's state
    (`_branch_samples`), m and f, each parity's kept rows and each
    region's invariant operator.  The per-node arithmetic is done level by
    level, so each triple is bitwise that of its level read alone.
    """
    n_neg = -grid.first_index
    if min(n_neg, grid.n_points - 1 - n_neg) < 4:
        raise ValueError("level residuals need at least 4 grid nodes on each side of x = 0")
    rows = _tdse_rows(levels, grid)
    samples = _branch_samples(profile, levels, t, grid)
    return list(zip(
        _tdse(profile, levels, t, grid.dx, samples, flip_coupling_sign, rows),
        _invariant_eigen(profile, levels, 1, t, Grid1D(0.0, grid.x_max, grid.n_points - n_neg),
                         samples),
        _invariant_eigen(profile, levels, 2, t, Grid1D(grid.x_min, 0.0, n_neg + 1), samples)))


def level_residuals(profile: TimeProfile, n: int, t: float, grid: Grid1D,
                    flip_coupling_sign: bool = False) -> tuple:
    """The evolution residual and both invariant residuals of level n at t.

    Returns (`tdse_residual` on grid, `invariant_eigen_residual` of region
    1 on grid's x >= 0 half, that of region 2 on its x <= 0 half), all
    read from one `_branch_samples`, one Airy read at t, with region 2 read
    by parity (`_invariant_eigen`): `level_residuals_at` of (n,).  Each
    value equals its standalone call (on grid's two halves for the
    invariant rows) bitwise.
    """
    return level_residuals_at(profile, (n,), t, grid, flip_coupling_sign)[0]


def _commutator_bands(a: DiscretizedOperator, b: DiscretizedOperator):
    """Pentadiagonal bands of [A, B] = A @ B - B @ A for tridiagonal A, B.

    Returns (d2u, d1u, d0, d1l, d2l): second/first upper, main, first and
    second lower diagonals.  Neither product is formed: the diagonal
    products A[i,i] B[i,i] cancel exactly, so they never appear.
    """
    ad, au, al = a.diag, a.upper, a.lower
    bd, bu, bl = b.diag, b.upper, b.lower
    # C[i, i] = e[i] - e[i-1], with e = A_up B_lo - B_up A_lo and no e beyond the ends
    e = au * bl - bu * al
    d0 = np.diff(e, prepend=0.0, append=0.0)
    # C[i, i+1] = A[i,i+1] (B[i+1,i+1] - B[i,i]) - B[i,i+1] (A[i+1,i+1] - A[i,i])
    da, db = np.diff(ad), np.diff(bd)
    d1u = au * db - bu * da
    d1l = bl * da - al * db
    d2u = au[:-1] * bu[1:] - bu[:-1] * au[1:]
    d2l = al[1:] * bl[:-1] - bl[1:] * al[:-1]
    return d2u, d1u, d0, d1l, d2l


def von_neumann_residual(profile: TimeProfile, region: int, t: float,
                         grid: Grid1D) -> float:
    """Conservation-law residual |dI/dt - i[I, H]| / |H| (max row sums).

    Region-wise so the potential is smooth on the grid.  Only c_p and c_0
    move, so dI/dt = c_p' p + c_0', with (c_p', c_0') from one
    `_time_derivative` of `invariant_coefficients` (central inside the
    window, one-sided at either end).  [I, H] is formed band by band
    (`_commutator_bands`), not as IH - HI, whose entries near
    (2/dx^2)|H| cancel; so the two regions' values agree to rounding
    (I_2 = P I_1 P, and H commutes with parity P).  Two rows at each end
    are excluded: banded products truncate there.
    """
    def coefficients(s):
        co = invariant_coefficients(profile, s, region)
        return np.array((co.p, co.const))

    dp, dconst = _time_derivative(coefficients, t, profile.window)
    dupper, dlower = _p_entries(dp, grid.dx)

    ham = build_hamiltonian(profile, t, grid)
    c2u, c1u, c0, c1l, c2l = _commutator_bands(build_invariant(profile, region, t, grid), ham)

    # row sums of |dI/dt - i[I, H]|
    rows = np.abs(dconst - 1j * c0)
    rows[:-1] += np.abs(dupper - 1j * c1u)
    rows[1:] += np.abs(dlower - 1j * c1l)
    rows[:-2] += np.abs(c2u)
    rows[2:] += np.abs(c2l)
    return float(np.max(rows[2:-2]) / ham.max_row_sum())


def pseudo_hermiticity_check(profile: TimeProfile, t: float, region: int) -> float:
    """Coefficient-level mismatch of the metric similarity relation.

    The metric exponent is linear in x and p, so conjugating the invariant
    shifts x -> x + i*beta and p -> p - i*alpha exactly, with alpha and
    beta built from the frozen integrals (signs flip with the region).
    If the relation holds, the transformed coefficients are the complex
    conjugates of the originals; the return value is the largest absolute
    coefficient mismatch.
    """
    co = invariant_coefficients(profile, t, region)
    c = coefficients_at(profile, t)
    sgn = 1.0 if region == 1 else -1.0
    alpha = sgn * c.k
    beta = sgn * 2.0 * c.b
    p_new = co.p - 2j * alpha
    const_new = co.const - alpha**2 + 1j * co.x * beta - 1j * alpha * co.p
    return float(max(abs(p_new - np.conj(co.p)), abs(const_new - np.conj(co.const))))
