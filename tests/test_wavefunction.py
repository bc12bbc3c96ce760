"""Tests for the assembled time-dependent states.

The strongest check here plugs each region branch straight into the
governing equation i dPsi/dt = -(1/2m) Psi'' + i f(t) |x| Psi by finite
differences; everything else (phases, exponents, shifts) is covered by
undoing the maps and demanding the static eigenstate back.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airywell.profiles import (
    ConstantCoupling,
    ConstantMass,
    ExponentialMass,
    LinearCoupling,
    PowerMass,
    SinusoidalCoupling,
    TimeProfile,
    ZeroCoupling,
    coefficients_at,
)
from airywell.airy import airy_ai_and_prime
from airywell.spectrum import density, eigenfunction, eigenfunction_continued, level
from airywell.wavefunction import (
    _branch1,
    assemble_wavefunction,
    phase,
    reconstructed_density,
    wavefunction_branch,
    wavefunction_branch_and_dt,
)

UNIT = TimeProfile(mass=ConstantMass(1.0), coupling=ConstantCoupling(1.0), window=3.0)
FREE = TimeProfile(mass=ConstantMass(1.0), coupling=ZeroCoupling(), window=3.0)
WAVY = TimeProfile(mass=ExponentialMass(1.3, 0.6), coupling=SinusoidalCoupling(0.8, 2.2), window=2.5)
RAMP = TimeProfile(mass=PowerMass(1.2, 0.4, 1.6), coupling=LinearCoupling(0.9), window=2.0)
_KNOTS = np.linspace(0.0, 2.0, 41)
SAMPLED = TimeProfile.from_config({
    "window": 2.0,
    "mass": {"family": "sampled",
             "table": [[t, 1.0 + 0.3 * np.sin(3.0 * t)] for t in _KNOTS]},
    "coupling": {"family": "sampled",
                 "table": [[t, 0.7 + 0.5 * np.cos(2.0 * t)] for t in _KNOTS]},
})


def test_assemble_identity_at_zero_time():
    x = np.linspace(-6.0, 6.0, 241)
    for n in (0, 1, 2):
        w0 = assemble_wavefunction(UNIT, n, 0.0, x)
        np.testing.assert_allclose(w0.values.real, eigenfunction(n, x),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(w0.values.imag, 0.0, atol=1e-13)


@pytest.mark.parametrize("ks, dx", [(range(-1600, 1601), 0.005), (range(-700, 1301), 0.01)],
                         ids=["centered", "asymmetric"])
@pytest.mark.parametrize("profile", [UNIT, WAVY, SAMPLED], ids=["unit", "wavy", "sampled"])
def test_assemble_is_the_two_region_construction_bitwise(profile, ks, dx):
    # the distinct |x| are the lattice k dx, k = 0 ... K, so one lattice
    # read at |x|, sign-flipped at x < 0 for odd n, is the region-1 lattice
    # branch on x >= 0 and that branch mirrored, times sigma_n, on x < 0, to
    # the bit; the direct per-node branch agrees within the kernel's
    # accuracy (4.2e-14 of max |psi| measured for n <= 10 and t <= 1.9 on
    # these grids)
    grid = np.arange(ks.start, ks.stop) * dx
    pos = grid >= 0.0
    for n in range(4):
        for t in (0.0, 0.5):
            branch, _ = wavefunction_branch_and_dt(profile, n, range(0, max(ks.stop, 1 - ks.start)),
                                                   dx, t, lambda fn: fn(t))
            want = np.empty(grid.size, dtype=complex)
            want[pos] = branch[:ks.stop]
            want[~pos] = branch[-ks.start:0:-1]
            if n % 2:
                want[~pos] *= -1.0
            got = assemble_wavefunction(profile, n, t, grid).values
            assert got.tobytes() == want.tobytes(), (n, t)
            direct = np.empty(grid.size, dtype=complex)
            direct[pos] = wavefunction_branch(profile, n, 1, grid[pos].astype(complex), t)
            direct[~pos] = wavefunction_branch(profile, n, 2, grid[~pos].astype(complex), t)
            assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct)), (n, t)


# unsorted and asymmetric, with the origin as -0.0 and +0.0 and repeated |x|
SCATTER_GRID = np.array([1.25, -0.0, 3.5, -1.25, 0.0, 2.0, -0.5, 1.25, -3.5, 0.5, 7.75, -0.0])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_readers_scatter_one_read_per_abs_x_bitwise(n):
    """Each real-grid reader, reading once per distinct |x|, gives the bits of
    the same expression evaluated at every node."""
    xs = SCATTER_GRID
    u = np.abs(xs).astype(complex)
    for prof, t in ((UNIT, 0.0), (WAVY, 0.7), (SAMPLED, 1.3)):
        c = coefficients_at(prof, t)
        want = _branch1(n, c, u)
        if n % 2:
            want[xs < 0.0] *= -1.0
        assert assemble_wavefunction(prof, n, t, xs).values.tobytes() == want.tobytes()
        inner = u - c.shift
        rec = np.exp((-c.k / 2.0) * inner) * _branch1(n, c, inner + 1j * c.b,
                                                      eigenfunction_continued(n, u))
        want = np.abs(rec) ** 2
        assert reconstructed_density(prof, n, t, xs).tobytes() == want.tobytes()
    want = eigenfunction_continued(n, np.abs(xs)).real
    if n % 2:
        want = want * np.sign(xs)
    assert eigenfunction(n, xs).tobytes() == want.tobytes()


def test_readers_keep_the_shape_of_their_input():
    grid = SCATTER_GRID.reshape(3, 4)
    for read in (lambda x: reconstructed_density(WAVY, 1, 0.7, x),
                 lambda x: eigenfunction(1, x), lambda x: density(2, x)):
        out = read(grid)
        assert out.shape == (3, 4)
        assert out.tobytes() == read(SCATTER_GRID).tobytes()
        for x in (0.0, -0.0, -1.25, np.float64(2.0), np.array(-0.5)):
            value = read(x)
            assert type(value) is float
            assert value == pytest.approx(float(read(np.array([x]))[0]), rel=1e-13, abs=1e-300)


def _per_node(prof, n, t, xs):
    """The state and the density from the direct kernel read at every node."""
    u = np.abs(xs).astype(complex)
    c = coefficients_at(prof, t)
    state = _branch1(n, c, u)
    if n % 2:
        state[xs < 0.0] *= -1.0
    inner = u - c.shift
    rec = np.exp((-c.k / 2.0) * inner) * _branch1(n, c, inner + 1j * c.b,
                                                  eigenfunction_continued(n, u))
    return state, np.abs(rec) ** 2


@pytest.mark.parametrize("n", [0, 1])
def test_readers_off_the_lattice_read_directly_bitwise(n):
    # one |x| one ulp off k dx, at both of its nodes: the distinct |x| are
    # no exact lattice, so each reader reads the kernel directly at each
    xs = np.arange(-400, 401) * 0.005
    xs[650] = np.nextafter(xs[650], np.inf)
    xs[150] = -xs[650]
    for prof, t in ((UNIT, 0.4), (WAVY, 0.7)):
        state, dens = _per_node(prof, n, t, xs)
        assert assemble_wavefunction(prof, n, t, xs).values.tobytes() == state.tobytes()
        assert reconstructed_density(prof, n, t, xs).tobytes() == dens.tobytes()


def test_readers_on_a_coarse_lattice_read_directly(monkeypatch):
    # at dx = 0.02 the lattice read's longest step, 32 dx, is past the
    # series' reach 2.5 / sqrt(41), so the lattice read the readers take
    # reads every node directly
    from airywell import airy, spectrum
    assert airy._lattice_terms(0.02) == 0
    steps = []

    def spy(c, h, ks):
        steps.append(h)
        return airy.airy_ai_and_prime_lattice(c, h, ks)
    monkeypatch.setattr(spectrum, "airy_ai_and_prime_lattice", spy)
    xs = np.arange(-400, 401) * 0.02
    for n in (0, 1):
        state, dens = _per_node(WAVY, n, 0.7, xs)
        got = assemble_wavefunction(WAVY, n, 0.7, xs).values
        assert np.max(np.abs(got - state)) <= 1e-12 * np.max(np.abs(state))
        got = reconstructed_density(WAVY, n, 0.7, xs)
        assert np.max(np.abs(got - dens)) <= 1e-12 * np.max(dens)
    assert steps == [0.02] * 4


def test_readers_refuse_a_non_finite_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^grid must be finite$"):
            assemble_wavefunction(UNIT, 0, 0.5, [0.0, np.nan, 1.0])
        for grid in ([0.0, np.inf], [0.0, np.nan, 1.0], -np.inf, np.nan):
            for read in (lambda x: reconstructed_density(UNIT, 1, 0.5, x),
                         lambda x: eigenfunction(2, x), lambda x: density(3, x)):
                with pytest.raises(ValueError, match="^grid must be finite$"):
                    read(grid)


def test_assemble_grid_validation():
    with pytest.raises(ValueError):
        assemble_wavefunction(UNIT, 0, 0.5, np.linspace(0.5, 2.0, 8))
    with pytest.raises(ValueError):
        assemble_wavefunction(UNIT, 0, 0.5, np.array([0.0]))


def test_branch_composition_consistency():
    # the paper's region-2 branch written out factor by factor:
    # e^{i(eps^2 + zeta - gS/4)} e^{-gb/2} e^{(-k + ig)x/2} sigma N Ai(-x + S - ib - lambda)
    xs = np.linspace(-3.0, 2.0, 11) + 1j * np.linspace(-0.8, 0.6, 11)
    for prof, t in ((UNIT, 0.9), (WAVY, 1.7), (RAMP, 1.3), (SAMPLED, 1.1)):
        c = coefficients_at(prof, t)
        for n in (0, 1, 4, 7):
            eps = phase(prof, n, 2, t)
            weyl = -c.g * c.shift / 4.0
            lev = level(n)
            sigma = 1.0 if n % 2 == 0 else -1.0
            want = (np.exp(1j * (eps + c.zeta + weyl)) * np.exp(-c.g * c.b / 2.0)
                    * np.exp((-c.k + 1j * c.g) * xs / 2.0) * sigma * lev.norm_const
                    * airy_ai_and_prime(-xs + c.shift - 1j * c.b - lev.eigenvalue)[0])
            got = wavefunction_branch(prof, n, 2, xs, t)
            np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=f"n={n}")


@pytest.mark.parametrize("region", [1, 2])
def test_one_point_branch_agrees_with_the_array_read(region):
    # a one-element x is read in Python scalars, an array in numpy, whose
    # complex multiply may fuse: over these 4800 points per region the
    # worst relative gap measured 6.1e-14, and the bound leaves a factor 8
    xs = np.linspace(0.0, 10.0, 100) * (1.0 if region == 1 else -1.0)
    for t in (0.05, 0.2, 0.5, 0.9, 1.3, 1.7, 2.1, 2.4):
        for n in range(6):
            want = wavefunction_branch(WAVY, n, region, xs.astype(complex), t)
            for i, x in enumerate(xs):
                got = wavefunction_branch(WAVY, n, region, np.array([complex(x)]), t)
                assert got.shape == (1,)
                assert abs(got[0] - want[i]) <= 5e-13 * abs(want[i]), (n, t, x)
                if i % 25 == 0:
                    assert wavefunction_branch(WAVY, n, region, complex(x), t) == got[0]


def test_branch_region_validation():
    for region in (0, 3):
        with pytest.raises(ValueError):
            wavefunction_branch(UNIT, 0, region, 0.5, 0.5)


def test_branch_satisfies_equation_of_motion():
    dt, dx = 1e-5, 1e-3

    def residual(prof, n, t, xs, region):
        sgn = 1.0 if region == 1 else -1.0
        f = prof.coupling.value(t)
        m = prof.mass.value(t)
        psi = lambda xx, tt: wavefunction_branch(prof, n, region, xx, tt)
        dpsi_dt = (psi(xs, t + dt) - psi(xs, t - dt)) / (2 * dt)
        lap = (-psi(xs + 2 * dx, t) + 16 * psi(xs + dx, t) - 30 * psi(xs, t)
               + 16 * psi(xs - dx, t) - psi(xs - 2 * dx, t)) / (12 * dx * dx)
        rhs = -lap / (2 * m) + 1j * f * sgn * xs * psi(xs, t)
        return np.max(np.abs(1j * dpsi_dt - rhs)) / np.max(np.abs(psi(xs, t)))

    xs = np.array([0.4, 1.1, 2.3])
    assert residual(UNIT, 0, 0.5, xs, 1) < 1e-7
    assert residual(UNIT, 0, 0.5, -xs, 2) < 1e-7
    assert residual(UNIT, 1, 0.8, xs, 1) < 1e-7
    assert residual(FREE, 0, 0.6, -xs, 2) < 1e-7
    assert residual(WAVY, 0, 0.7, xs, 1) < 1e-6
    assert residual(WAVY, 2, 1.4, -xs, 2) < 1e-6


def test_density_reconstruction_is_time_independent():
    x = np.linspace(-8.0, 8.0, 321)
    for t in (0.0, 0.4, 0.9, 1.5, 2.2):
        for n in (0, 1, 2):
            rec = reconstructed_density(UNIT, n, t, x)
            assert np.max(np.abs(rec - density(n, x))) < 1e-6


def test_density_reconstruction_is_exact_not_just_close():
    # undoing both maps reproduces e^{i eps} phi_n, so the reconstruction
    # should sit at rounding level, far below the formal 1e-6 bound; the
    # second grid is a lattice k dx, which takes the anchored lattice read
    for x in (np.linspace(-5.0, 5.0, 101), np.arange(-1000, 1001) * 0.005):
        for t in (0.6, 1.7):
            for prof in (UNIT, WAVY):
                rec = reconstructed_density(prof, 1, t, x)
                assert np.max(np.abs(rec - density(1, x))) < 1e-12


def test_origin_continuity_even_states():
    for t in (0.0, 0.5, 1.3, 2.4):
        for n in (0, 2):
            v1 = wavefunction_branch(UNIT, n, 1, 0.0, t)
            v2 = wavefunction_branch(UNIT, n, 2, 0.0, t)
            assert abs(v1 - v2) < 1e-8


def test_origin_jump_of_odd_states_is_real_and_measured():
    # both branches evaluate the same Airy value at x = 0 but carry opposite
    # parity signs, and for t > 0 the complex shift moves the argument off
    # the Airy zero: the glued odd state is genuinely discontinuous.  This
    # pins the measured size so any accidental "fix" shows up loudly.
    for n in (1, 3):
        v1_0 = wavefunction_branch(UNIT, n, 1, 0.0, 0.0)
        v2_0 = wavefunction_branch(UNIT, n, 2, 0.0, 0.0)
        assert abs(v1_0 - v2_0) < 1e-12          # continuous only at t = 0
    v1 = wavefunction_branch(UNIT, 1, 1, 0.0, 0.7)
    v2 = wavefunction_branch(UNIT, 1, 2, 0.0, 0.7)
    assert abs(v1 - v2) == pytest.approx(2 * abs(v1), rel=1e-12)
    assert abs(v1 - v2) > 0.1


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=6),
    t=st.floats(min_value=0.0, max_value=2.4),
    x=st.floats(min_value=-6.0, max_value=6.0),
)
def test_reconstruction_property(n, t, x):
    rec = reconstructed_density(WAVY, n, t, x)
    assert rec == pytest.approx(density(n, x), rel=1e-9, abs=1e-12)
