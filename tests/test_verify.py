"""Grid-operator and propagation checks for the verifier module."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from airywell import cli, spectrum, verify
from airywell.profiles import TimeProfile, coefficients_at
from airywell.verify import (
    Grid1D,
    DiscretizedOperator,
    build_hamiltonian,
    build_invariant,
    crank_nicolson_propagate,
    tdse_residual,
    invariant_eigen_residual,
    level_residuals,
    von_neumann_residual,
    pseudo_hermiticity_check,
)
from airywell.wavefunction import assemble_wavefunction, wavefunction_branch

UNIT = TimeProfile.from_config({
    "mass": {"family": "constant", "m0": 1.0},
    "coupling": {"family": "constant", "f0": 1.0},
    "window": 3.0,
})
FREE = TimeProfile.from_config({
    "mass": {"family": "constant", "m0": 1.0},
    "coupling": {"family": "zero"},
    "window": 3.0,
})
WAVY = TimeProfile.from_config({
    "mass": {"family": "exponential", "m0": 1.0, "gamma": 1.0},
    "coupling": {"family": "sinusoidal", "f0": 1.0, "omega": 1.0},
    "window": 2.0,
})

GRID = Grid1D.centered(16.0, 0.005)
HALF1 = Grid1D.half_line(14.0, 0.005, 1)
HALF2 = Grid1D.half_line(14.0, 0.005, 2)


class _State:
    def __init__(self, grid, values):
        self.grid = grid
        self.values = values


# ------------------------------------------------------------------ grid


def test_grid_contains_origin():
    g = Grid1D(-2.0, 3.0, 51)
    assert g.dx == pytest.approx(0.1)
    assert np.any(np.abs(g.nodes) < 1e-12)
    with pytest.raises(ValueError, match="node"):
        Grid1D(-2.05, 3.0, 51)
    with pytest.raises(ValueError, match="node"):
        Grid1D(0.5, 3.0, 26)


def test_grid_validation():
    with pytest.raises(ValueError, match="5 points"):
        Grid1D(-1.0, 1.0, 3)
    with pytest.raises(ValueError, match="exceed"):
        Grid1D(1.0, -1.0, 11)
    with pytest.raises(ValueError, match="region"):
        Grid1D.half_line(4.0, 0.1, 3)


def test_grid_constructors():
    g = Grid1D.centered(4.0, 0.1)
    assert g.x_min == pytest.approx(-4.0) and g.x_max == pytest.approx(4.0)
    assert g.n_points == 81
    h1 = Grid1D.half_line(4.0, 0.1, 1)
    assert h1.x_min == 0.0 and h1.n_points == 41
    h2 = Grid1D.half_line(4.0, 0.1, 2)
    assert h2.x_max == 0.0 and h2.x_min == pytest.approx(-4.0)


@pytest.mark.parametrize("half_width, dx", [(16.0, 0.005), (4.0, 0.1)])
def test_grid_nodes_are_exact_multiples_of_dx(half_width, dx):
    # the parity reads of the residuals need mirrored nodes that are exact
    # negatives, and half-line grids that are the centered grid's halves
    g = Grid1D.centered(half_width, dx)
    x = g.nodes
    assert np.array_equal(x, -x[::-1])
    k = g.n_points // 2
    assert x[k] == 0.0
    assert np.array_equal(Grid1D.half_line(half_width, dx, 1).nodes, x[k:])
    assert np.array_equal(Grid1D.half_line(half_width, dx, 2).nodes, x[:k + 1])
    # linspace rounds each node on the scale of the grid's extent
    ref = np.linspace(g.x_min, g.x_max, g.n_points)
    assert np.max(np.abs(x - ref)) <= 4 * np.spacing(g.x_max)


def test_operator_apply_matches_dense():
    rng = np.random.default_rng(3)
    n = 17
    d = rng.normal(size=n) + 1j * rng.normal(size=n)
    u = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    lo = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    op = DiscretizedOperator(diag=d, upper=u, lower=lo)
    dense = np.diag(d) + np.diag(u, 1) + np.diag(lo, -1)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.allclose(op.apply(v), dense @ v, rtol=1e-13, atol=1e-13)
    assert op.max_row_sum() == pytest.approx(
        np.max(np.sum(np.abs(dense), axis=1)), rel=1e-13)


# ----------------------------------------------------------- Hamiltonian


def test_hamiltonian_zero_coupling_is_real_symmetric():
    h = build_hamiltonian(FREE, 0.7, GRID)
    assert np.max(np.abs(h.diag.imag)) == 0.0
    assert np.allclose(h.upper, h.lower)
    assert np.max(np.abs(h.upper.imag)) == 0.0


def test_hamiltonian_rejects_nonpositive_mass():
    shrinking = TimeProfile.from_config({
        "mass": {"family": "power", "m0": 1.0, "gamma": -0.6, "alpha": 1.0},
        "coupling": {"family": "zero"},
        "window": 1.5,
    })
    # inside the window the mass stays positive ...
    build_hamiltonian(shrinking, 1.0, GRID)
    # ... beyond it the linear ramp goes negative and must be refused
    with pytest.raises(ValueError, match="positive"):
        build_hamiltonian(shrinking, 2.0, GRID)


def test_cn_conserves_norm_without_coupling():
    g = Grid1D.centered(12.0, 0.01)
    x = g.nodes
    psi = np.exp(-x**2).astype(complex)
    psi /= np.linalg.norm(psi) * np.sqrt(g.dx)
    res = crank_nicolson_propagate(FREE, _State(x, psi), 0.0, 0.2, 1e-4)
    n0 = np.linalg.norm(psi) * np.sqrt(g.dx)
    n1 = np.linalg.norm(res.values) * np.sqrt(g.dx)
    assert abs(n1 - n0) / res.steps < 1e-10
    assert res.steps == 2000
    assert res.t_final == pytest.approx(0.2)
    assert res.boundary_probe < 1e-12


def test_cn_second_order_in_time():
    # successive halvings of dt shrink the solution difference about 4x.
    # Only the smooth-potential case shows the clean order: the |x| kink
    # feeds a weak origin singularity into the state and drags the
    # observed max-norm order down to ~1 (ratio 2), so the order check
    # lives on the coupling-free profile.
    g = Grid1D.centered(10.0, 0.02)
    x = g.nodes
    psi = np.exp(-(x - 0.5)**2).astype(complex)
    runs = {dt: crank_nicolson_propagate(FREE, _State(x, psi), 0.0, 0.1, dt).values
            for dt in (8e-4, 4e-4, 2e-4)}
    d1 = np.max(np.abs(runs[8e-4] - runs[4e-4]))
    d2 = np.max(np.abs(runs[4e-4] - runs[2e-4]))
    assert 3.6 < d1 / d2 < 4.4


def test_cn_validation():
    g = Grid1D.centered(8.0, 0.01)
    x = g.nodes
    psi = np.exp(-x**2).astype(complex)
    with pytest.raises(ValueError, match="1e-3"):
        crank_nicolson_propagate(FREE, _State(x, psi), 0.0, 0.1, 2e-3)
    with pytest.raises(ValueError, match="integer number"):
        crank_nicolson_propagate(FREE, _State(x, psi), 0.0, 0.10005, 1e-3)
    with pytest.raises(ValueError, match="carry"):
        crank_nicolson_propagate(FREE, psi, 0.0, 0.1, 1e-3)
    with pytest.raises(ValueError, match="mismatch"):
        crank_nicolson_propagate(FREE, _State(x[:-1], psi), 0.0, 0.1, 1e-3)
    warped = np.concatenate([x[:200], x[200:] + 0.004])
    with pytest.raises(ValueError, match="uniform"):
        crank_nicolson_propagate(FREE, _State(warped, psi), 0.0, 0.1, 1e-3)


@pytest.mark.parametrize("t0, t1, dt", [
    (0.0, 0.01, -2e-4), (0.0, 0.01, 0.0), (0.0, 0.01, np.nan), (0.0, 0.01, np.inf),
    (0.01, 0.0, 2e-4), (np.nan, 0.01, 2e-4), (0.0, np.nan, 2e-4), (0.0, np.inf, 2e-4),
], ids=["negative-dt", "zero-dt", "nan-dt", "inf-dt", "t1-before-t0", "nan-t0",
        "nan-t1", "inf-t1"])
def test_cn_rejects_bad_step_or_interval(t0, t1, dt):
    g = Grid1D.centered(8.0, 0.01)
    x = g.nodes
    psi = np.exp(-x**2).astype(complex)
    with pytest.raises(ValueError, match="dt must|t0 and t1"):
        crank_nicolson_propagate(FREE, _State(x, psi), t0, t1, dt)


def _reference_cn(profile, xs, values, t0, t1, dt, boundary=None):
    """The same Crank-Nicolson scheme, one fresh H(t_mid) per step."""
    grid = Grid1D(float(xs[0]), float(xs[-1]), xs.size)
    psi = np.asarray(values, dtype=complex).copy()
    band = np.zeros((3, xs.size), dtype=complex)
    probe = 0.0
    for step in range(int(round((t1 - t0) / dt))):
        t = t0 + step * dt
        ham = build_hamiltonian(profile, t + 0.5 * dt, grid)
        rhs = psi - 0.5j * dt * ham.apply(psi)
        band[0, 1:] = 0.5j * dt * ham.upper
        band[1] = 1.0 + 0.5j * dt * ham.diag
        band[2, :-1] = 0.5j * dt * ham.lower
        band[0, 1] = band[2, -2] = 0.0
        band[1, 0] = band[1, -1] = 1.0
        rhs[0], rhs[-1] = (0.0, 0.0) if boundary is None else boundary(t + dt)
        psi = solve_banded((1, 1), band, rhs)
        probe = max(probe, abs(psi[2]), abs(psi[-3]))
    return psi, probe


def test_cn_matches_reference_stepping():
    # pins the factor-reusing step loop to the scheme written out plainly:
    # a free full-line run, a fed half-line run of a time-dependent
    # profile, and two runs where only one coefficient moves, which a
    # factorization reused on a match of m alone (or f alone) gets wrong
    full = Grid1D.centered(10.0, 0.1).nodes
    gauss = np.exp(-(full - 0.5)**2).astype(complex)
    half = Grid1D.half_line(20.0, 0.1, 1).nodes
    branch = wavefunction_branch(WAVY, 1, 1, half.astype(complex), 0.0)
    coupling_only = TimeProfile.from_config({
        "mass": {"family": "constant", "m0": 1.0},
        "coupling": {"family": "sinusoidal", "f0": 1.0, "omega": 1.0},
        "window": 2.0,
    })
    mass_only = TimeProfile.from_config({
        "mass": {"family": "exponential", "m0": 1.0, "gamma": 1.0},
        "coupling": {"family": "constant", "f0": 1.0},
        "window": 2.0,
    })

    def feed(t):
        return complex(wavefunction_branch(WAVY, 1, 1, np.array([0j]), t)[0]), 0.0

    for profile, xs, psi, boundary in ((FREE, full, gauss, None),
                                       (WAVY, half, branch, feed),
                                       (coupling_only, full, gauss, None),
                                       (mass_only, full, gauss, None)):
        assert xs.size == 201
        res = crank_nicolson_propagate(profile, _State(xs, psi), 0.0, 0.1, 1e-3,
                                       boundary=boundary)
        want, probe = _reference_cn(profile, xs, psi, 0.0, 0.1, 1e-3, boundary)
        assert res.steps == 100
        assert np.max(np.abs(res.values - want)) <= 1e-13
        assert abs(res.boundary_probe - probe) <= 1e-13
        assert np.max(np.abs(res.values - psi)) > 1e-3     # the state did move


@pytest.mark.parametrize("profile, factorizations", [(FREE, 1), (UNIT, 1), (WAVY, 100)],
                         ids=["free", "unit", "wavy"])
def test_cn_factors_once_per_distinct_hamiltonian(monkeypatch, profile, factorizations):
    calls = []
    real = verify.zgttrf

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "zgttrf", counting)
    xs = Grid1D.centered(10.0, 0.1).nodes
    psi = np.exp(-(xs - 0.5)**2).astype(complex)
    res = crank_nicolson_propagate(profile, _State(xs, psi), 0.0, 0.1, 1e-3)
    assert res.steps == 100
    assert len(calls) == factorizations


def test_cn_reports_a_singular_pivot_with_step_index(monkeypatch):
    real = verify.zgttrf

    def singular(*args, **kwargs):
        *factors, _ = real(*args, **kwargs)
        return (*factors, 1)

    monkeypatch.setattr(verify, "zgttrf", singular)
    xs = Grid1D.centered(8.0, 0.01).nodes
    psi = np.exp(-xs**2).astype(complex)
    with pytest.raises(RuntimeError, match="tridiagonal solve broke down at step 0"):
        crank_nicolson_propagate(FREE, _State(xs, psi), 0.0, 0.01, 1e-3)


def test_cn_step_size_guard():
    # dt/dx^2 beyond 10 * min(m) is refused even when dt itself is legal
    g = Grid1D.centered(5.0, 0.005)
    x = g.nodes
    psi = np.exp(-x**2).astype(complex)
    with pytest.raises(ValueError, match="guard"):
        crank_nicolson_propagate(FREE, _State(x, psi), 0.0, 0.1, 1e-3)


def test_cn_flags_nonfinite_state_with_step_index():
    g = Grid1D.centered(8.0, 0.01)
    x = g.nodes
    psi = np.exp(-x**2).astype(complex)
    psi[40] = np.nan
    with pytest.raises(RuntimeError, match="step 0"):
        crank_nicolson_propagate(FREE, _State(x, psi), 0.0, 0.01, 1e-3)


def test_cn_region_fed_run_tracks_branch_solution():
    # half-line run with the analytic branch value fed in at x = 0:
    # the branch formula satisfies the equation away from the glue, so
    # the numerical solution must track it
    gr = Grid1D.half_line(18.0, 0.01, 1)
    xs = gr.nodes
    n = 0
    init = _State(xs, wavefunction_branch(UNIT, n, 1, xs.astype(complex), 0.0))

    def feed(t):
        val = wavefunction_branch(UNIT, n, 1, np.array([0j]), t)[0]
        return complex(val), 0.0

    res = crank_nicolson_propagate(UNIT, init, 0.0, 0.25, 2e-4, boundary=feed)
    ana = wavefunction_branch(UNIT, n, 1, xs.astype(complex), 0.25)
    assert np.max(np.abs(res.values - ana)) < 1e-3


def test_cn_departs_from_glued_state_at_origin():
    # the glued full-line form violates the equation at x = 0 for t > 0,
    # so the honest propagation walks away from it there; pinning the
    # measured departure keeps this defect visible
    g = Grid1D.centered(12.0, 0.01)
    init = assemble_wavefunction(FREE, 0, 0.0, g.nodes)
    res = crank_nicolson_propagate(FREE, init, 0.0, 0.5, 1e-4)
    glued = assemble_wavefunction(FREE, 0, 0.5, g.nodes)
    dev = np.abs(res.values - glued.values)
    assert dev[np.argmin(np.abs(g.nodes))] > 1e-2
    assert np.max(dev) > 1e-2


# ------------------------------------------------------- TDSE residual


def test_tdse_residual_examples():
    assert tdse_residual(UNIT, 0, 0.3, GRID) < 1e-4
    for prof in (UNIT, FREE, WAVY):
        for n in (0, 1, 2):
            assert tdse_residual(prof, n, 0.3, GRID) < 1e-4
    # the Hermitian special case is cleaner
    for n in (0, 1, 2):
        assert tdse_residual(FREE, n, 0.4, GRID) < 1e-5


def _two_region_tdse(profile, n, t, grid, flip_coupling_sign):
    """The evolution residual with each region's branch evaluated on its own
    nodes: region 2 through wavefunction_branch(..., 2, ...)."""
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
        lo, hi = idx[0], idx[-1]
        ext = np.concatenate(([xs[lo] - dx], xs[lo:hi + 1], [xs[hi] + dx])).astype(complex)
        mid = wavefunction_branch(profile, n, region, ext, t)
        lap = (mid[2:] - 2.0 * mid[1:-1] + mid[:-2]) / dx**2
        mid = mid[1:-1]
        nodes = xs[idx].astype(complex)
        dpsi = verify._time_derivative(
            lambda s: wavefunction_branch(profile, n, region, nodes, s),
            t, verify.TIME_DELTA, profile.window)
        res[idx] = 1j * dpsi - (-lap / (2.0 * m) + 1j * f * np.abs(xs[idx]) * mid)
        psi_mid[idx] = mid
    keep = np.zeros(grid.n_points, dtype=bool)
    keep[3:grid.n_points - 3] = True
    if n % 2 == 1:
        keep &= np.abs(xs) > 1e-12
    return float(np.linalg.norm(res[keep]) / np.linalg.norm(psi_mid[keep]))


@pytest.mark.parametrize("grid", [GRID, Grid1D(-4.0, 6.0, 1001)],
                         ids=["centered", "asymmetric"])
@pytest.mark.parametrize("profile", [UNIT, WAVY], ids=["unit", "wavy"])
def test_tdse_residual_reads_region_two_by_parity_exactly(profile, grid):
    for n in (0, 1, 2):
        for t in (0.0, 0.3, profile.window):
            for flip in (False, True):
                want = _two_region_tdse(profile, n, t, grid, flip)
                got = tdse_residual(profile, n, t, grid, flip_coupling_sign=flip)
                assert got == want, (n, t, flip)


@pytest.mark.parametrize("profile", [UNIT, WAVY], ids=["unit", "wavy"])
def test_level_residuals_equal_the_standalone_checks(profile):
    halves = (Grid1D.half_line(16.0, 0.005, 1), Grid1D.half_line(16.0, 0.005, 2))
    for n in (0, 1, 2):
        for t in (0.0, 0.3, profile.window):
            for flip in (False, True):
                want = (tdse_residual(profile, n, t, GRID, flip_coupling_sign=flip),
                        invariant_eigen_residual(profile, n, 1, t, halves[0]),
                        invariant_eigen_residual(profile, n, 2, t, halves[1]))
                got = level_residuals(profile, n, t, GRID, flip_coupling_sign=flip)
                assert got == want, (n, t, flip)


def test_default_verify_evaluates_each_state_once_per_instant(monkeypatch, tmp_path):
    # 6 levels x 3 times, each read at t on 3203 nodes and at t +- delta on
    # 3201: 54 kernel calls on 172,890 points
    calls = []
    real = spectrum.airy_ai_many

    def counting(z):
        calls.append(np.size(z))
        return real(z)

    monkeypatch.setattr(spectrum, "airy_ai_many", counting)
    cfg = cli.RunConfig(profile=TimeProfile.from_config(cli._DEFAULT_PROFILE),
                        out_dir=tmp_path)
    assert cli.run_verify(cfg) == 0
    assert len(calls) <= 54
    assert sum(calls) <= 172_890


def test_tdse_residual_wrong_coupling_sign_fails():
    assert tdse_residual(UNIT, 0, 0.3, GRID, flip_coupling_sign=True) > 1e-1


def test_tdse_residual_monotone_under_refinement():
    coarse = tdse_residual(WAVY, 1, 0.4, Grid1D.centered(16.0, 0.01), delta=2e-5)
    fine = tdse_residual(WAVY, 1, 0.4, Grid1D.centered(16.0, 0.005), delta=1e-5)
    assert fine <= coarse


# -------------------------------------------------- invariant residuals


def test_invariant_eigen_residual_at_start():
    assert invariant_eigen_residual(UNIT, 0, 1, 0.0, HALF1) < 1e-4


def test_invariant_eigen_residual_later_times():
    for prof in (UNIT, FREE, WAVY):
        for n in (0, 1, 2):
            for region, grid in ((1, HALF1), (2, HALF2)):
                assert invariant_eigen_residual(prof, n, region, 0.5, grid) < 1e-3


def test_invariant_eigen_residual_phase_free():
    # the residual is a Rayleigh-type ratio, so the overall phase of the
    # state cannot matter; regions are mirror images and agree exactly
    r1 = invariant_eigen_residual(WAVY, 1, 1, 0.6, HALF1)
    r2 = invariant_eigen_residual(WAVY, 1, 2, 0.6, HALF2)
    assert r1 == pytest.approx(r2, rel=1e-10)


def test_invariant_eigen_residual_grid_check():
    with pytest.raises(ValueError, match="x >= 0"):
        invariant_eigen_residual(UNIT, 0, 1, 0.5, HALF2)
    with pytest.raises(ValueError, match="x <= 0"):
        invariant_eigen_residual(UNIT, 0, 2, 0.5, HALF1)


def test_invariant_eigen_residual_monotone_under_refinement():
    coarse = invariant_eigen_residual(UNIT, 0, 1, 0.5, Grid1D.half_line(14.0, 0.01, 1))
    fine = invariant_eigen_residual(UNIT, 0, 1, 0.5, HALF1)
    assert fine <= coarse


def test_von_neumann_residual_hermitian_case():
    assert von_neumann_residual(FREE, 1, 0.4, HALF1) < 1e-6
    assert von_neumann_residual(FREE, 2, 0.4, HALF2) < 1e-6


def test_von_neumann_residual_interior_times():
    for prof in (UNIT, WAVY):
        for region, grid in ((1, HALF1), (2, HALF2)):
            assert von_neumann_residual(prof, region, 0.4, grid) < 1e-4


def test_von_neumann_residual_is_the_grid_remainder():
    # on the grid [D1, X] = I + (dx^2/2) D2, so the p-term of the invariant
    # leaves c_p f (dx^2/2) D2 against i f|x|: a row sum of 2|c_p f| over
    # |H| ~ 2/(m dx^2), with c_p = g + ik
    for prof in (UNIT, WAVY):
        for t in (0.5, 1.5):
            c = coefficients_at(prof, t)
            m, f = prof.mass.value(t), prof.coupling.value(t)
            for region, grid in ((1, HALF1), (2, HALF2)):
                want = abs(complex(c.g, c.k)) * abs(f) * m * grid.dx**2
                ratio = von_neumann_residual(prof, region, t, grid) / want
                assert ratio == pytest.approx(1.0, abs=1e-3), (t, region)


def test_von_neumann_residual_start_uses_one_sided_difference():
    assert von_neumann_residual(UNIT, 1, 0.0, HALF1) < 1e-4


def test_von_neumann_residual_frozen_tilt_fails():
    assert von_neumann_residual(UNIT, 1, 0.4, HALF1, freeze_tilt=True) > 1e-3


# --------------------------------------------------- metric similarity


def test_pseudo_hermiticity_random_times():
    rng = np.random.default_rng(11)
    for prof in (UNIT, FREE, WAVY):
        t_max = prof.window * 0.9
        for t in rng.uniform(0.01, t_max, 10):
            for region in (1, 2):
                assert pseudo_hermiticity_check(prof, float(t), region) < 1e-12


def test_pseudo_hermiticity_exact_at_start():
    assert pseudo_hermiticity_check(UNIT, 0.0, 1) == 0.0
    assert pseudo_hermiticity_check(UNIT, 0.0, 2) == 0.0


def test_pseudo_hermiticity_perturbed_exponent_fails():
    assert pseudo_hermiticity_check(UNIT, 0.7, 1, alpha_offset=1e-3) > 1e-4
    assert pseudo_hermiticity_check(WAVY, 0.7, 2, alpha_offset=1e-3) > 1e-4


def test_invariant_operator_against_direct_formula():
    # spot-check the banded assembly entries against the coefficients
    from airywell.profiles import invariant_coefficients
    grid = Grid1D.half_line(2.0, 0.1, 1)
    co = invariant_coefficients(WAVY, 0.8, 1)
    op = build_invariant(WAVY, 1, 0.8, grid)
    dx = grid.dx
    assert op.diag[3] == pytest.approx(2.0 / dx**2 + grid.nodes[3] + co.const)
    assert op.upper[3] == pytest.approx(-1.0 / dx**2 - 0.5j * co.p / dx)
    assert op.lower[3] == pytest.approx(-1.0 / dx**2 + 0.5j * co.p / dx)
