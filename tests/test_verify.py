"""Grid-operator and propagation checks for the verifier module."""

import dataclasses
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded

from airywell import airy, cli, spectrum, verify
from airywell.profiles import TimeProfile, coefficients_at
from airywell.quadrature import CumulativeTable
from airywell.verify import (
    Grid1D,
    DiscretizedOperator,
    build_hamiltonian,
    build_invariant,
    crank_nicolson_propagate,
    tdse_residual,
    invariant_eigen_residual,
    level_residuals,
    level_residuals_at,
    von_neumann_residual,
    pseudo_hermiticity_check,
)
from airywell.spectrum import level
from airywell.wavefunction import (assemble_wavefunction, wavefunction_branch,
                                   wavefunction_branch_and_dt)

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
    # fewer than two nodes have no spacing to read; they meet Grid1D's floor
    for nodes in ([], [0.0]):
        short = np.asarray(nodes)
        with pytest.raises(ValueError, match="at least 5 points"):
            crank_nicolson_propagate(FREE, _State(short, short.astype(complex)), 0.0, 0.1, 1e-3)


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


def _factored_rows(monkeypatch, entries=None, bands=None):
    """Record the number of rows of every matrix `zgttrf` or `zgtsv` factors,
    which of the two did in `entries` when it is given, and copies of the
    bands (lower, main, upper) it was handed in `bands` when that is given.
    The CN run imports both from `scipy.linalg.lapack` on every call, so
    they are watched there."""
    rows = []

    def counting(name):
        real = getattr(lapack, name)

        def call(lower, main, upper, *args, **kwargs):
            rows.append(main.size)
            if entries is not None:
                entries.append(name)
            if bands is not None:
                bands.append((lower.copy(), main.copy(), upper.copy()))
            return real(lower, main, upper, *args, **kwargs)

        return call

    for name in ("zgttrf", "zgtsv"):
        monkeypatch.setattr(lapack, name, counting(name))
    return rows


@pytest.mark.parametrize("profile, factorizations", [(FREE, 1), (UNIT, 1), (WAVY, 100)],
                         ids=["free", "unit", "wavy"])
def test_cn_factors_once_per_distinct_hamiltonian(monkeypatch, profile, factorizations):
    rows = _factored_rows(monkeypatch)
    xs = Grid1D.centered(10.0, 0.1).nodes
    psi = np.exp(-(xs - 0.5)**2).astype(complex)
    res = crank_nicolson_propagate(profile, _State(xs, psi), 0.0, 0.1, 1e-3)
    assert res.steps == 100
    assert len(rows) == factorizations


@pytest.mark.parametrize("profile", [FREE, UNIT, WAVY], ids=["free", "unit", "wavy"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cn_folds_a_mirror_symmetric_run_onto_the_half_line(monkeypatch, profile, n):
    # an unfed glued state from t0 = 0 is bitwise mirror (anti)symmetric on
    # a centered grid, so the run steps x >= 0 alone and must still give
    # the full-line scheme's state and probe
    rows = _factored_rows(monkeypatch)
    xs = Grid1D.centered(10.0, 0.1).nodes
    init = assemble_wavefunction(profile, n, 0.0, xs)
    res = crank_nicolson_propagate(profile, init, 0.0, 0.1, 1e-3)
    want, probe = _reference_cn(profile, xs, init.values, 0.0, 0.1, 1e-3)
    assert xs.size == 201 and rows and set(rows) == {(xs.size + 1) // 2}
    assert res.values.shape == xs.shape and res.grid.n_points == xs.size
    assert np.max(np.abs(res.values - want)) <= 1e-13
    assert abs(res.boundary_probe - probe) <= 1e-13
    assert np.max(np.abs(res.values - init.values)) > 1e-4      # the state did move
    sigma = -1.0 if n % 2 else 1.0
    assert np.array_equal(res.values[:100], sigma * res.values[:100:-1])


@pytest.mark.parametrize("case", ["fed-half-line", "full-line", "folded-even", "folded-odd"])
def test_cn_hands_lapack_the_bands_of_build_hamiltonian(monkeypatch, case):
    # the step loop writes A = 1 + i (dt/2) H(t_mid) straight into its
    # final form, not through build_hamiltonian; every A handed to LAPACK
    # must still be the bits of that product on build_hamiltonian's bands,
    # with the Dirichlet rows, or an even folded run's mirror row, in place
    bands = []
    rows = _factored_rows(monkeypatch, bands=bands)
    xs = Grid1D.centered(10.0, 0.1).nodes
    boundary, origin, dt = None, 0, 1e-3
    if case == "fed-half-line":
        xs = Grid1D.half_line(20.0, 0.1, 1).nodes
        psi = wavefunction_branch(WAVY, 1, 1, xs.astype(complex), 0.0)

        def boundary(t):
            return complex(wavefunction_branch(WAVY, 1, 1, np.array([0j]), t)[0]), 0.0
    elif case == "full-line":
        psi = np.exp(-(xs - 0.5)**2).astype(complex)
    else:
        psi = assemble_wavefunction(WAVY, 0 if case == "folded-even" else 1, 0.0, xs).values
        origin = xs.size // 2
    res = crank_nicolson_propagate(WAVY, _State(xs, psi), 0.0, 0.01, dt, boundary=boundary)
    # WAVY's (m, f) changes on every step, so each step hands over a fresh A
    assert res.steps == 10 and rows == [xs.size - origin] * 10
    grid = Grid1D(float(xs[0]), float(xs[-1]), xs.size)
    for step, got in enumerate(bands):
        ham = build_hamiltonian(WAVY, (0.0 + step * dt) + 0.5 * dt, grid)
        lower = (0.5j * dt) * ham.lower[origin:]
        main = 1.0 + (0.5j * dt) * ham.diag[origin:]
        upper = (0.5j * dt) * ham.upper[origin:]
        if case == "folded-even":
            upper[0] *= 2.0                  # the ghost node psi(-dx) = psi(dx)
        else:
            upper[0], main[0] = 0.0, 1.0
        lower[-1], main[-1] = 0.0, 1.0
        for part, have, want in zip(("lower", "main", "upper"), got, (lower, main, upper)):
            assert have.tobytes() == want.tobytes(), (step, part)


@pytest.mark.parametrize("folded", [False, True], ids=["full-line", "folded"])
def test_cn_continues_from_its_own_result(folded):
    # a result carries its Grid1D, and a run started from it takes up where
    # the first left off: on a constant profile, 0 -> 0.01 -> 0.02 is the
    # single run 0 -> 0.02 to the bit, and its probe is the larger of the two
    xs = Grid1D.centered(10.0, 0.1).nodes
    if folded:
        init = assemble_wavefunction(FREE, 0, 0.0, xs)
    else:
        init = _State(xs, np.exp(-(xs - 0.5)**2).astype(complex))
    whole = crank_nicolson_propagate(FREE, init, 0.0, 0.02, 1e-3)
    first = crank_nicolson_propagate(FREE, init, 0.0, 0.01, 1e-3)
    second = crank_nicolson_propagate(FREE, first, first.t_final, 0.02, 1e-3)
    assert isinstance(first.grid, Grid1D) and second.grid == whole.grid
    assert (first.steps, second.steps, whole.steps) == (10, 10, 20)
    assert second.values.tobytes() == whole.values.tobytes()
    assert second.boundary_probe == whole.boundary_probe
    assert whole.boundary_probe == max(first.boundary_probe, second.boundary_probe)
    with pytest.raises(ValueError, match="shape mismatch"):
        crank_nicolson_propagate(FREE, _State(first.grid, first.values[1:]), 0.01, 0.02, 1e-3)


@pytest.mark.parametrize("case", ["fed", "half-line", "one-ulp-off", "odd-at-t0.3"])
def test_cn_steps_the_full_line_unless_the_fold_is_exact(monkeypatch, case):
    rows = _factored_rows(monkeypatch)
    xs = Grid1D.centered(10.0, 0.1).nodes
    t0, boundary = 0.0, None
    psi = assemble_wavefunction(WAVY, 0, 0.0, xs).values
    if case == "fed":
        def boundary(t):
            return 0.0, 0.0
    elif case == "half-line":
        xs = Grid1D.half_line(20.0, 0.1, 1).nodes
        psi = wavefunction_branch(WAVY, 0, 1, xs.astype(complex), 0.0)
    elif case == "one-ulp-off":
        psi[30] = complex(np.nextafter(psi.real[30], np.inf), psi.imag[30])
    else:
        # the branches of an odd state meet at +-psi(0) != 0 for t > 0
        t0 = 0.3
        psi = assemble_wavefunction(WAVY, 1, t0, xs).values
        assert np.array_equal(psi[:100], -psi[:100:-1])
        assert abs(psi[100]) > 1e-3 * np.max(np.abs(psi))
    res = crank_nicolson_propagate(WAVY, _State(xs, psi), t0, t0 + 0.1, 1e-3,
                                   boundary=boundary)
    want, probe = _reference_cn(WAVY, xs, psi, t0, t0 + 0.1, 1e-3, boundary)
    assert xs.size == 201 and set(rows) == {xs.size}
    assert np.max(np.abs(res.values - want)) <= 1e-13
    assert abs(res.boundary_probe - probe) <= 1e-13


def test_cn_factors_a_pair_only_when_the_next_step_reuses_it(monkeypatch):
    # a sampled mass of 1 with a plateau at 1.2 on which exactly the third
    # of five step midpoints lands: pairs A A B A A, so A is factored for
    # steps 0-1 and again for 3-4, after the one-off B overwrote the bands
    profile = TimeProfile.from_config({
        "mass": {"family": "sampled",
                 "table": [[0.0, 1.0], [2.1e-3, 1.0], [2.2e-3, 1.2], [2.8e-3, 1.2],
                           [2.9e-3, 1.0], [1.0, 1.0]]},
        "coupling": {"family": "constant", "f0": 1.0},
        "window": 1.0,
    })
    entries = []
    rows = _factored_rows(monkeypatch, entries)
    xs = Grid1D.centered(10.0, 0.1).nodes
    psi = np.exp(-(xs - 0.5)**2).astype(complex)
    res = crank_nicolson_propagate(profile, _State(xs, psi), 0.0, 5e-3, 1e-3)
    want, probe = _reference_cn(profile, xs, psi, 0.0, 5e-3, 1e-3)
    assert res.steps == 5
    assert np.max(np.abs(res.values - want)) <= 1e-13
    assert abs(res.boundary_probe - probe) <= 1e-13
    assert entries == ["zgttrf", "zgtsv", "zgttrf"] and set(rows) == {xs.size}


def test_cn_reports_a_singular_pivot_with_step_index(monkeypatch):
    # FREE factors with zgttrf; WAVY, whose pair changes on every step, solves with zgtsv
    xs = Grid1D.centered(8.0, 0.01).nodes
    psi = np.exp(-xs**2).astype(complex)
    for profile, entry in ((FREE, "zgttrf"), (WAVY, "zgtsv")):
        real = getattr(lapack, entry)

        def singular(*args, real=real, **kwargs):
            *factors, _ = real(*args, **kwargs)
            return (*factors, 1)

        with monkeypatch.context() as patch:
            patch.setattr(lapack, entry, singular)
            with pytest.raises(RuntimeError, match="tridiagonal solve broke down at step 0"):
                crank_nicolson_propagate(profile, _State(xs, psi), 0.0, 0.01, 1e-3)


def test_cn_step_size_guard():
    # dt/dx^2 beyond 10 * min(m) is refused even when dt itself is legal
    g = Grid1D.centered(5.0, 0.005)
    x = g.nodes
    psi = np.exp(-x**2).astype(complex)
    with pytest.raises(ValueError, match="guard"):
        crank_nicolson_propagate(FREE, _State(x, psi), 0.0, 0.1, 1e-3)


@pytest.mark.parametrize("t", [0.0, 1.0, 3.0], ids=["start", "inside", "end"])
def test_time_derivative_reads_only_the_stencil_instants(t):
    # the verify pre-flight checks the kernel disc at these instants
    seen = []
    assert verify._time_derivative(lambda s: seen.append(s) or s, t, 3.0) == pytest.approx(1.0)
    assert seen == [t + s for s, _ in verify._stencil(t, 3.0)]
    assert all(0.0 <= s <= 3.0 for s in seen)


def test_cn_checks_the_step_masses_before_the_guard():
    # m = (1 - t/2)^2 vanishes at t = 2, the midpoint of the one step of
    # [1.9995, 2.0005]: that is the mass the step reads, and it is refused
    # as a mass before it could bound dt/dx^2
    prof = TimeProfile.from_config({
        "mass": {"family": "power", "m0": 1.0, "gamma": -0.5, "alpha": 2.0},
        "coupling": {"family": "zero"},
        "window": 3.0,
    })
    x = Grid1D.centered(5.0, 0.05).nodes
    psi = np.exp(-x**2).astype(complex)
    with pytest.raises(ValueError, match="mass must stay positive"):
        crank_nicolson_propagate(prof, _State(x, psi), 1.9995, 2.0005, 1e-3)


def test_cn_run_of_no_steps_is_not_guarded():
    # dt/dx^2 = 40 would break the guard of m = 1, but a run of no steps
    # reads no step mass and returns its input
    x = Grid1D.centered(5.0, 0.005).nodes
    psi = np.exp(-x**2).astype(complex)
    res = crank_nicolson_propagate(FREE, _State(x, psi), 0.5, 0.5, 1e-3)
    assert res.steps == 0 and res.t_final == 0.5 and res.boundary_probe == 0.0
    np.testing.assert_array_equal(res.values, psi)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)],
                         ids=["nan", "inf", "-inf", "imag-inf"])
def test_cn_flags_nonfinite_state_with_step_index(bad):
    g = Grid1D.centered(8.0, 0.01)
    x = g.nodes
    psi = np.exp(-x**2).astype(complex)
    psi[40] = bad
    with pytest.raises(RuntimeError, match="diverged at step 0"):
        crank_nicolson_propagate(FREE, _State(x, psi), 0.0, 0.01, 1e-3)


def test_cn_fed_run_ends_on_the_feed_exactly():
    # the Cayley update writes the Dirichlet values into the end nodes
    # after the solve, so they hold the feed to the bit
    xs = Grid1D.half_line(10.0, 0.05, 1).nodes
    init = _State(xs, wavefunction_branch(WAVY, 1, 1, xs.astype(complex), 0.0))

    def feed(t):
        return complex(wavefunction_branch(WAVY, 1, 1, np.array([0j]), t)[0]), 0.0

    res = crank_nicolson_propagate(WAVY, init, 0.0, 0.05, 1e-3, boundary=feed)
    assert res.steps == 50
    assert res.values[0] == feed(res.t_final)[0] != 0.0
    assert res.values[-1] == 0.0


def test_cn_empty_interval_returns_the_initial_state():
    xs = Grid1D.centered(8.0, 0.01).nodes
    even = np.exp(-xs**2).astype(complex)
    # the odd glued state holds a rounding-level psi(0), which a stepped
    # folded run sets to zero and a zero-step run must keep
    odd = assemble_wavefunction(FREE, 1, 0.0, xs).values
    assert odd[xs.size // 2] != 0.0
    assert np.array_equal(odd[:xs.size // 2], -odd[:xs.size // 2:-1])
    for psi in (even, odd):
        for profile in (FREE, WAVY):
            res = crank_nicolson_propagate(profile, _State(xs, psi), 0.3, 0.3, 1e-3)
            assert res.steps == 0 and res.t_final == 0.3 and res.boundary_probe == 0.0
            assert res.values.tobytes() == psi.tobytes() and res.values is not psi


@pytest.mark.parametrize("profile, t0, t1", [
    (TimeProfile.from_config({
        "mass": {"family": "exponential", "m0": 1.0, "gamma": 1.0},
        "coupling": {"family": "sinusoidal", "f0": 1.0, "omega": 1.0},
        "window": 1.0}), 0.0, 5.0),
    # the power mass reaches m = 0 at t = 5/3, past its window
    (TimeProfile.from_config({
        "mass": {"family": "power", "m0": 1.0, "gamma": -0.6, "alpha": 1.0},
        "coupling": {"family": "zero"},
        "window": 1.5}), 1.4, 1.7),
    (WAVY, -1e-3, 0.1),
], ids=["past-window", "mass-zero-past-window", "before-zero"])
def test_cn_refuses_a_run_outside_the_profile_window(profile, t0, t1):
    xs = Grid1D.centered(8.0, 0.01).nodes
    psi = np.exp(-xs**2).astype(complex)
    with pytest.raises(ValueError, match=r"inside the profile window \[0, "):
        crank_nicolson_propagate(profile, _State(xs, psi), t0, t1, 1e-3)


def test_cn_window_has_the_table_reads_slack():
    xs = Grid1D.centered(8.0, 0.05).nodes
    psi = np.exp(-xs**2).astype(complex)
    res = crank_nicolson_propagate(WAVY, _State(xs, psi), -1e-13, 0.01 - 1e-13, 1e-3)
    assert res.steps == 10
    res = crank_nicolson_propagate(WAVY, _State(xs, psi), 1.99, 2.0 + 1e-13, 1e-3)
    assert res.steps == 10


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
    """The evolution residual with each region's branch read on its own
    nodes: region 2's as sigma_n times region 1's read at -k, reversed."""
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
        # the region's nodes plus one beyond each end
        ks = range(grid.first_index + lo - 1, grid.first_index + hi + 2)
        if region == 2:
            ks = range(1 - ks.stop, 1 - ks.start)       # the region-1 nodes -k, ascending
        psi, dpsi = wavefunction_branch_and_dt(
            profile, n, ks, dx, t, lambda fn: verify._time_derivative(fn, t, profile.window))
        if region == 2:
            sigma = -1.0 if n % 2 else 1.0
            psi, dpsi = sigma * psi[::-1], sigma * dpsi[::-1]
        lap = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / dx**2
        mid = psi[1:-1]
        res[idx] = 1j * dpsi[1:-1] - (-lap / (2.0 * m) + 1j * f * np.abs(xs[idx]) * mid)
        psi_mid[idx] = mid
    keep = np.zeros(grid.n_points, dtype=bool)
    keep[3:grid.n_points - 3] = True
    if n % 2 == 1:
        keep &= np.abs(xs) > 1e-12
    return float(np.linalg.norm(res[keep]) / np.linalg.norm(psi_mid[keep]))


@pytest.mark.parametrize("grid", [GRID, Grid1D(-4.0, 6.0, 1001)],
                         ids=["centered", "asymmetric"])
@pytest.mark.parametrize("profile", [UNIT, WAVY], ids=["unit", "wavy"])
def test_tdse_residual_agrees_with_the_two_region_formula(profile, grid):
    # tdse_residual reads region 2's rows by parity from region 1's one
    # stencil; the reference runs a second stencil on region 2's own
    # branch, so the two differ by the stencil's rounding alone (at most
    # 2.9e-9 relative measured over these cases)
    for n in (0, 1, 2):
        for t in (0.0, 0.3, profile.window):
            for flip in (False, True):
                want = _two_region_tdse(profile, n, t, grid, flip)
                got = tdse_residual(profile, n, t, grid, flip_coupling_sign=flip)
                assert abs(got - want) <= 1e-8 * want, (n, t, flip)


@pytest.mark.parametrize("profile", [UNIT, WAVY], ids=["unit", "wavy"])
def test_tdse_residual_is_bitwise_equal_on_a_mirrored_grid(profile):
    # the rows are summed in the order of their sorted |k|, which a grid
    # and its mirror image share
    grid, mirror = Grid1D(-4.0, 6.0, 1001), Grid1D(-6.0, 4.0, 1001)
    for n in (0, 1, 2):
        for t in (0.0, 0.3, profile.window):
            for flip in (False, True):
                assert (tdse_residual(profile, n, t, grid, flip_coupling_sign=flip)
                        == tdse_residual(profile, n, t, mirror, flip_coupling_sign=flip)), (n, t, flip)


@pytest.mark.parametrize("profile", [UNIT, WAVY], ids=["unit", "wavy"])
def test_level_residuals_equal_the_standalone_checks(profile):
    # the second grid's halves have 601 and 401 nodes, so both invariant
    # rows read a half-line slice of samples that run past their own half
    cases = ((GRID, Grid1D.half_line(16.0, 0.005, 1), Grid1D.half_line(16.0, 0.005, 2)),
             (Grid1D(-4.0, 6.0, 1001), Grid1D(0.0, 6.0, 601), Grid1D(-4.0, 0.0, 401)))
    for grid, half1, half2 in cases:
        for n in (0, 1, 2):
            for t in (0.0, 0.3, profile.window):
                for flip in (False, True):
                    want = (tdse_residual(profile, n, t, grid, flip_coupling_sign=flip),
                            invariant_eigen_residual(profile, n, 1, t, half1),
                            invariant_eigen_residual(profile, n, 2, t, half2))
                    got = level_residuals(profile, n, t, grid, flip_coupling_sign=flip)
                    assert got == want, (grid, n, t, flip)


@pytest.mark.parametrize("grid", [GRID, Grid1D(-4.0, 6.0, 1001)],
                         ids=["centered", "asymmetric"])
@pytest.mark.parametrize("profile", [UNIT, WAVY], ids=["unit", "wavy"])
def test_batched_level_rows_equal_the_rows_of_each_level_alone(profile, grid):
    # one batch per t reads every level's samples from one lattice read and
    # shares the tilt, the d/dt stencil, the kept rows and the invariant
    # operators; given out of order, each level's triple must still be the
    # bits of its own read
    levels = (3, 0, 5, 2, 4, 1)
    for t in (0.0, 0.3, profile.window):
        for flip in (False, True):
            got = level_residuals_at(profile, levels, t, grid, flip_coupling_sign=flip)
            want = [level_residuals(profile, n, t, grid, flip_coupling_sign=flip)
                    for n in levels]
            assert got == want, (t, flip)


@pytest.mark.parametrize("read, n, grid, need", [
    (tdse_residual, 0, Grid1D(-0.02, 0.02, 5), "tdse residual needs"),
    (tdse_residual, 1, Grid1D(-0.03, 0.03, 7), "tdse residual needs"),
    (level_residuals, 0, Grid1D.half_line(12.0, 0.01, 1), "at least 4 grid nodes"),
    (level_residuals, 0, Grid1D.half_line(12.0, 0.01, 2), "at least 4 grid nodes"),
    (level_residuals, 1, Grid1D(-0.03, 12.0, 1204), "at least 4 grid nodes"),
    (level_residuals, 1, Grid1D(-12.0, 0.03, 1204), "at least 4 grid nodes"),
], ids=["tdse-5-nodes", "tdse-odd-7-nodes", "level-half-line-1", "level-half-line-2",
        "level-3-left", "level-3-right"])
def test_residuals_refuse_a_grid_too_small_for_their_rows(read, n, grid, need):
    # 5 nodes keep no evolution row, nor 7 for odd n, whose middle row is
    # x = 0; level_residuals' invariant halves need 5 nodes each
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=need):
            read(UNIT, n, 0.5, grid)


def test_residuals_accept_the_smallest_grids_with_rows():
    assert np.isfinite(tdse_residual(UNIT, 0, 0.5, Grid1D(-0.03, 0.03, 7)))
    assert np.isfinite(tdse_residual(UNIT, 1, 0.5, Grid1D(-0.02, 0.04, 7)))
    assert all(np.isfinite(level_residuals(UNIT, 1, 0.5, Grid1D(-0.04, 0.04, 9))))


def _unit_tables(t):
    """(g, k, w, int chi2) of m = f = 1, which are polynomials in t."""
    return -t, 2 * t, -t**2 / 2, -5 * t**3 / 48


def _wavy_tables(t):
    """(g, k, w, int chi2) of m = e^t, f = cos t; int chi2 by mp.quad."""
    def gkw(s):
        w = (mp.exp(-s) * (mp.sin(s) - mp.cos(s)) + 1) / 2 - mp.sin(s)
        return mp.exp(-s) - 1, 2 * mp.sin(s), w

    def chi2(s):
        g, k, w = gkw(s)
        return mp.cos(s) / 2 * (k * g / 2 - w) - g**2 * mp.exp(-s) / 16
    return (*gkw(t), mp.quad(chi2, [0, t]))


def _mp_branch(tables, n, x, t):
    """The closed-form region-1 branch in mpmath, from the tables at t."""
    lev = level(n)
    lam = mp.mpf(lev.eigenvalue)
    g, k, w, cum_chi2 = tables(t)
    shift, b = -g**2 / 4, g * k / 2 - w
    phi = cum_chi2 + lam * g / 2 - k * b / 4 - g * shift / 4
    return (mp.expj(phi) * mp.exp(-g * b / 2 + (k - 1j * g) * x / 2)
            * mp.mpf(lev.norm_const) * mp.airyai(x + shift - 1j * b - lam))


@pytest.mark.parametrize("profile, tables, times, bound", [
    (UNIT, _unit_tables, (0.0, 0.1, 0.3, 1.5, 3.0), 3e-10),
    (WAVY, _wavy_tables, (0.0, 0.3, 1.5, 2.0), 3e-9),
], ids=["unit", "wavy"])
def test_branch_time_derivative_matches_mpmath(profile, tables, times, bound):
    # the chain-rule d/dt `_branch_samples` reads, against mp.diff of the
    # closed form with exact tables, over max |d/dt psi|.  Measured: at most
    # 7.6e-11 on m = f = 1, whose tables the package holds to rounding, so
    # the stencil on the coefficient scalars sets it (differencing Taylor-
    # stepped kernel samples instead was off by 1.9e-9 there); 8.7e-10 on
    # m = e^t, f = cos t, where the slope of the 1024-panel table sets it.
    # Six nodes of the lattice x = k / 10, read on k = 0 ... 79
    picks = [0, 5, 13, 27, 41, 79]
    x = np.array(picks) * 0.1
    cached = {}

    def at(s):
        if s not in cached:
            cached[s] = tables(s)
        return cached[s]
    with mp.workdps(30):
        for t in times:
            for n in (0, 1, 4):
                _, got = wavefunction_branch_and_dt(
                    profile, n, range(80), 0.1, t,
                    lambda fn: verify._time_derivative(fn, t, profile.window))
                got = got[picks]
                want = np.array([complex(mp.diff(lambda s: _mp_branch(at, n, mp.mpf(xi), s),
                                                 mp.mpf(t)))
                                 for xi in x.tolist()])
                err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert err <= bound, (n, t, err)


def _count_kernel_reads(monkeypatch, cfg):
    """(exit code, (starts, nodes) of each lattice read, points of each direct
    kernel call) of one `run_verify`.

    The anchored lattice read is counted, and so is every direct entry
    that reads Ai for a state: `airy_ai_and_prime`, through which the
    lattice read reads its anchors, and `spectrum`'s own names for it (an
    array read) and for `_ai_scalar` (a one-point read).  Each direct read
    shows up once in the direct list.  So a test cannot pass by moving the
    reads to an entry it does not watch.
    """
    lattice, direct = [], []

    def counting(calls, real, size):
        def read(*args):
            calls.append(size(*args))
            return real(*args)
        return read

    monkeypatch.setattr(spectrum, "airy_ai_and_prime_lattice",
                        counting(lattice, spectrum.airy_ai_and_prime_lattice,
                                 lambda c, h, ks: (np.size(c), len(ks))))
    monkeypatch.setattr(airy, "airy_ai_and_prime",
                        counting(direct, airy.airy_ai_and_prime, np.size))
    for name in ("airy_ai_and_prime", "_ai_scalar"):
        monkeypatch.setattr(spectrum, name, counting(direct, getattr(spectrum, name), np.size))
    return cli.run_verify(cfg), lattice, direct


def test_default_verify_evaluates_each_state_once_per_instant(monkeypatch, tmp_path):
    # 6 levels x 3 times, each read once at t on the 3203 nodes k = -1 ...
    # 3201, Ai and Ai' together, with the kernel read at the 51 anchors
    # k = 0, 64, ..., 3200: one lattice read per t of the 6 levels' starts,
    # 3 reads of 57,654 nodes in all, each with one kernel call of 6 x 51
    # points, 918 kernel points in all
    cfg = cli.RunConfig(profile=TimeProfile.from_config(cli._DEFAULT_PROFILE),
                        out_dir=tmp_path)
    assert _count_kernel_reads(monkeypatch, cfg) == (0, [(6, 3203)] * 3, [306] * 3)


def test_verify_and_solve_at_one_dx_build_one_step_matrix(tmp_path):
    # the lattice read's step matrix is cached per step h: a default verify
    # (one lattice read per t), then a solve of two states on the same grid
    # (two reads each), build it once (its cache's misses count the
    # builds, its hits the other 6 reads), and a further read at that h
    # builds nothing
    airy._step_matrix.cache_clear()
    cfg = cli.RunConfig(profile=TimeProfile.from_config(cli._DEFAULT_PROFILE),
                        out_dir=tmp_path)
    assert cli.run_verify(cfg) == 0
    assert cli.run_solve(dataclasses.replace(cfg, levels=(0, 3), times=(0.3,))) == 0
    built = airy._step_matrix.cache_info()
    assert built.misses == 1 and built.hits >= 6
    airy.airy_ai_and_prime_lattice(-2.0 + 0.5j, cfg.dx, range(-100, 900))
    again = airy._step_matrix.cache_info()
    assert (again.misses, again.hits) == (1, built.hits + 1)


def test_tiny_mass_verify_evaluates_each_state_once_per_instant(monkeypatch, tmp_path):
    # m0 = 1e-3: the kernel argument moves by about 5e-2 over one d/dt step
    # at t = 0.01, and the state is still read once per (n, t), in one
    # lattice read per t of both levels.  The default dx is too coarse for
    # the tdse rows of this profile, so the run exits 1
    profile = TimeProfile.from_config({"window": 0.1, "mass": {"family": "constant", "m0": 1e-3},
                                       "coupling": {"family": "constant", "f0": 1.0}})
    cfg = cli.RunConfig(profile=profile, levels=(0, 1), times=(0.002, 0.005, 0.01),
                        out_dir=tmp_path)
    assert _count_kernel_reads(monkeypatch, cfg) == (1, [(2, 3203)] * 3, [102] * 3)


def test_tdse_residual_wrong_coupling_sign_fails():
    assert tdse_residual(UNIT, 0, 0.3, GRID, flip_coupling_sign=True) > 1e-1


def test_tdse_residual_monotone_under_refinement():
    coarse = tdse_residual(WAVY, 1, 0.4, Grid1D.centered(16.0, 0.01))
    fine = tdse_residual(WAVY, 1, 0.4, Grid1D.centered(16.0, 0.005))
    assert fine <= coarse


@pytest.mark.parametrize("profile", [UNIT, WAVY], ids=["unit", "wavy"])
def test_residuals_are_second_order_in_dx(profile):
    # residual(2 dx)/residual(dx) over dx = 0.02 -> 0.01 -> 0.005 on
    # half-width 12: a stencil weight that loses an order gives 2 or 1.
    # Measured 3.992 to 4.0005 for the evolution, both invariant and both
    # von Neumann rows
    dxs = (0.02, 0.01, 0.005)
    for t in (0.1, 0.5):
        rows = [[von_neumann_residual(profile, region, t, Grid1D.half_line(12.0, dx, region))
                 for dx in dxs] for region in (1, 2)]
        for n in (0, 3):
            rows += zip(*(level_residuals(profile, n, t, Grid1D.centered(12.0, dx))
                          for dx in dxs))
        for row in rows:
            for coarse, fine in zip(row, row[1:]):
                assert coarse / fine == pytest.approx(4.0, abs=0.02), (t, row)


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


def test_commutator_bands_match_dense_products():
    rng = np.random.default_rng(18)

    def tridiagonal(n):
        diag, upper, lower = (rng.normal(size=k) + 1j * rng.normal(size=k)
                              for k in (n, n - 1, n - 1))
        return DiscretizedOperator(diag=diag, upper=upper, lower=lower)

    def dense(op):
        return np.diag(op.diag) + np.diag(op.upper, 1) + np.diag(op.lower, -1)

    for n in (5, 6, 40):
        a, b = tridiagonal(n), tridiagonal(n)
        want = dense(a) @ dense(b) - dense(b) @ dense(a)
        for offset, band in zip((2, 1, 0, -1, -2), verify._commutator_bands(a, b)):
            assert np.max(np.abs(band - np.diag(want, offset))) < 1e-13, (n, offset)


@pytest.mark.parametrize("dx", [0.005, 0.01])
@pytest.mark.parametrize("profile", [UNIT, WAVY], ids=["unit", "wavy"])
def test_von_neumann_residual_regions_agree_to_rounding(profile, dx):
    # I_2 is the mirror image of I_1 and H commutes with parity, so the
    # two regions' rows are one number
    for t in (0.0, 0.3, profile.window):
        one = von_neumann_residual(profile, 1, t, Grid1D.half_line(14.0, dx, 1))
        two = von_neumann_residual(profile, 2, t, Grid1D.half_line(14.0, dx, 2))
        assert two == pytest.approx(one, rel=1e-14, abs=0.0), t


def test_von_neumann_residual_start_uses_one_sided_difference():
    assert von_neumann_residual(UNIT, 1, 0.0, HALF1) < 1e-4


@pytest.mark.parametrize("t", [0.0, 0.4, 3.0])
def test_von_neumann_residual_builds_the_invariant_once(monkeypatch, t):
    # dI/dt comes from the coefficients c_p and c_0, not from invariants
    # built at the stencil instants and differenced
    calls = []
    real = verify.build_invariant

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "build_invariant", counting)
    von_neumann_residual(UNIT, 1, t, HALF1)
    assert len(calls) == 1


@pytest.mark.parametrize("profile", [UNIT, WAVY], ids=["unit", "wavy"])
def test_von_neumann_residual_at_start_has_no_band_difference_rounding(profile):
    # c_p = 0 at t = 0, so the grid remainder vanishes and what is left is
    # the one-sided stencil's truncation, 3.6e-12 here.  The bound keeps a
    # 2.7x margin and fails a time difference of the band entries that
    # hold 2/dx^2, which reads 2.2e-11.
    for region in (1, 2):
        grid = Grid1D.half_line(16.0, 0.005, region)
        assert von_neumann_residual(profile, region, 0.0, grid) < 1e-11


def test_von_neumann_residual_frozen_tilt_fails(monkeypatch):
    # the invariant with its p coefficient zeroed is not conserved
    real = verify.invariant_coefficients
    monkeypatch.setattr(verify, "invariant_coefficients",
                        lambda *args: dataclasses.replace(real(*args), p=0j))
    assert von_neumann_residual(UNIT, 1, 0.4, HALF1) > 1e-3


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


def test_pseudo_hermiticity_perturbed_exponent_fails(monkeypatch):
    # k read off by 1e-3 moves the metric exponent's alpha = +-k, while the
    # invariant keeps the true coefficients
    real = verify.coefficients_at

    def k_off(*args):
        c = real(*args)
        return dataclasses.replace(c, k=c.k + 1e-3)

    monkeypatch.setattr(verify, "coefficients_at", k_off)
    assert pseudo_hermiticity_check(UNIT, 0.7, 1) > 1e-4
    assert pseudo_hermiticity_check(WAVY, 0.7, 2) > 1e-4


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


# ------------------------------------------------------- what checks see


def test_every_stored_table_row_is_read_by_some_check(monkeypatch):
    # scale one row of the stacked time-integral table at a time by
    # 1 + 1e-6: each row must move at least one residual, so the table
    # stores no row that every check is blind to
    grid = Grid1D.centered(12.0, 0.01)
    halves = {r: Grid1D.half_line(12.0, 0.01, r) for r in (1, 2)}
    times = (0.1, 0.5)

    def residuals():
        values = [v for n in (0, 3) for t in times for v in level_residuals(WAVY, n, t, grid)]
        for r in (1, 2):
            for t in times:
                values += [von_neumann_residual(WAVY, r, t, halves[r]),
                           pseudo_hermiticity_check(WAVY, t, r)]
        return np.array(values)

    clean = residuals()
    read = CumulativeTable.value
    blind = []
    for row in range(WAVY.tables.table.values.shape[0]):
        def scaled(table, t, row=row):
            out = read(table, t)
            out[row] *= 1.0 + 1e-6
            return out
        monkeypatch.setattr(CumulativeTable, "value", scaled)
        if np.array_equal(residuals(), clean):
            blind.append(row)
    assert blind == []
