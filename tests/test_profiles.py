"""Tests for mass/coupling histories and their frozen time integrals.

The cumulative quantities are defined by first-order ODEs

    g' = -1/m,  k' = 2f,  s' = -f k,  w' = f g,

all starting from 0, so an adaptive Runge-Kutta run is an independent
oracle for every quantity the module's tables give, s = -k^2/4 included.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from airywell.profiles import (
    MAX_WINDOW,
    ConstantCoupling,
    ConstantMass,
    ExponentialMass,
    LinearCoupling,
    PowerMass,
    SampledCoupling,
    SampledMass,
    SinusoidalCoupling,
    TimeProfile,
    ZeroCoupling,
    coefficients_at,
    invariant_coefficients,
)
from airywell.profiles import _ProfileTables
from airywell.quadrature import CumulativeTable, SimpsonGrid
from airywell.wavefunction import phase, shift_reorder_phase


def _rk_oracle(profile, t_eval):
    """g, k, s, w and the cumulative phase integrands by RK45 at 1e-12."""
    m = profile.mass.value
    f = profile.coupling.value

    def rhs(t, y):
        g, k, s, w, c1, c2, sh = y
        mt = float(m(t))
        ft = float(f(t))
        theta = 0.5 * ft * (0.5 * k * g - w)
        chi1 = theta - (k * k + 3 * g * g + 4 * s) / (16 * mt)
        chi2 = theta + (k * k - g * g + 4 * s) / (16 * mt)
        shear = (k * k + g * g + 4 * s) / (8 * mt)
        return [-1.0 / mt, 2.0 * ft, -ft * k, ft * g, chi1, chi2, shear]

    sol = solve_ivp(rhs, (0.0, max(t_eval)), np.zeros(7), t_eval=sorted(t_eval),
                    rtol=1e-12, atol=1e-14, method="DOP853")
    assert sol.success
    return {t: sol.y[:, i] for i, t in enumerate(sorted(t_eval))}


UNIT = TimeProfile(mass=ConstantMass(1.0), coupling=ConstantCoupling(1.0), window=3.0)
FREE = TimeProfile(mass=ConstantMass(1.0), coupling=ZeroCoupling(), window=3.0)
WAVY = TimeProfile(mass=ExponentialMass(1.3, 0.6), coupling=SinusoidalCoupling(0.8, 2.2), window=2.5)
RAMP = TimeProfile(mass=PowerMass(1.2, 0.4, 1.6), coupling=LinearCoupling(0.9), window=2.0)


def test_everything_vanishes_at_zero():
    for prof in (UNIT, FREE, WAVY, RAMP):
        c = coefficients_at(prof, 0.0)
        for name in ("g", "k", "s", "w", "zeta", "shift", "b", "cum_chi1", "cum_chi2"):
            assert getattr(c, name) == pytest.approx(0.0, abs=1e-13), name


def test_unit_profile_closed_coefficients():
    # m = 1, f = 1: g = -t, k = 2t, s = -t^2, w = -t^2/2,
    # zeta = t^3/4, int chi1 = -7t^3/48, int chi2 = -5t^3/48,
    # and the map magnitudes S = (k^2 - g^2 + 4s)/4 = -t^2/4, b = gk/2 - w = -t^2/2
    for t in (0.3, 1.0, 2.0):
        c = coefficients_at(UNIT, t)
        assert c.g == pytest.approx(-t, rel=1e-13)
        assert c.k == pytest.approx(2 * t, rel=1e-13)
        assert c.s == pytest.approx(-t * t, rel=1e-13)
        assert c.w == pytest.approx(-t * t / 2, rel=1e-13)
        assert c.zeta == pytest.approx(t**3 / 4, rel=1e-13)
        assert c.cum_chi1 == pytest.approx(-7 * t**3 / 48, rel=1e-13)
        assert c.cum_chi2 == pytest.approx(-5 * t**3 / 48, rel=1e-13)
        assert c.shift == pytest.approx(-t * t / 4, rel=1e-13)
        assert c.b == pytest.approx(-t * t / 2, rel=1e-13)


def test_zero_coupling_phase_integrands():
    c = coefficients_at(FREE, 2.0)
    assert c.cum_chi1 == pytest.approx(-0.5, rel=1e-13)
    assert c.cum_chi2 == pytest.approx(-1 / 6, rel=1e-13)
    assert c.k == 0.0 and c.s == 0.0 and c.w == 0.0 and c.zeta == 0.0


def test_finite_difference_consistency_closed_route():
    h = 1e-5
    for t in (0.2, 0.9, 1.7, 2.3):
        lo = coefficients_at(WAVY, t - h)
        hi = coefficients_at(WAVY, t + h)
        c = coefficients_at(WAVY, t)
        m = WAVY.mass.value(t)
        f = WAVY.coupling.value(t)
        assert (hi.g - lo.g) / (2 * h) == pytest.approx(-1.0 / m, rel=1e-5)
        assert (hi.k - lo.k) / (2 * h) == pytest.approx(2.0 * f, rel=1e-5)
        assert (hi.s - lo.s) / (2 * h) == pytest.approx(-f * c.k, rel=1e-5)
        assert (hi.w - lo.w) / (2 * h) == pytest.approx(f * c.g, rel=1e-5)


def test_finite_difference_consistency_table_route():
    # the same derivative relations on a power-law mass and linear coupling
    h = 1e-5
    for t in (0.3, 1.1, 1.8):
        lo = coefficients_at(RAMP, t - h)
        hi = coefficients_at(RAMP, t + h)
        c = coefficients_at(RAMP, t)
        m = RAMP.mass.value(t)
        f = RAMP.coupling.value(t)
        assert (hi.g - lo.g) / (2 * h) == pytest.approx(-1.0 / m, rel=1e-5)
        assert (hi.k - lo.k) / (2 * h) == pytest.approx(2.0 * f, rel=1e-5)
        assert (hi.s - lo.s) / (2 * h) == pytest.approx(-f * c.k, rel=1e-5)
        assert (hi.w - lo.w) / (2 * h) == pytest.approx(f * c.g, rel=1e-5)


def test_tables_match_runge_kutta_oracle():
    # s is -k^2/4 by construction; the oracle integrates s' = -fk instead
    times = (0.5, 1.2, 2.0)
    oracle = _rk_oracle(WAVY, times)
    for t in times:
        g, k, s, w, c1, c2, sh = oracle[t]
        c = coefficients_at(WAVY, t)
        assert c.g == pytest.approx(g, abs=1e-9)
        assert c.k == pytest.approx(k, abs=1e-9)
        assert c.s == pytest.approx(s, abs=1e-9)
        assert c.w == pytest.approx(w, abs=1e-9)
        assert c.cum_chi1 == pytest.approx(c1, abs=1e-9)
        assert c.cum_chi2 == pytest.approx(c2, abs=1e-9)
        assert shift_reorder_phase(WAVY, t) == pytest.approx(sh, abs=1e-9)


def test_closed_route_matches_tables():
    # profiles with elementary antiderivatives, written out here, against
    # the quadrature table rows; m = m0 e^{ga t}, f = f0 cos(om t) for WAVY
    m0, ga, f0, om = 1.3, 0.6, 0.8, 2.2

    def wavy(t):
        g = -(1.0 - np.exp(-ga * t)) / (m0 * ga)
        k = 2.0 * f0 * np.sin(om * t) / om
        damped = (np.exp(-ga * t) * (om * np.sin(om * t) - ga * np.cos(om * t)) + ga) / (ga**2 + om**2)
        w = -(f0 / (m0 * ga)) * (np.sin(om * t) / om - damped)
        return g, k, w

    for prof, forms in ((UNIT, lambda t: (-t, 2.0 * t, -t * t / 2.0)), (WAVY, wavy)):
        for t in (0.4, 1.3, 2.1):
            g, k, w = prof.tables.table.value(t).tolist()[:3]
            want_g, want_k, want_w = forms(t)
            assert g == pytest.approx(want_g, abs=1e-8)
            assert k == pytest.approx(want_k, abs=1e-8)
            assert w == pytest.approx(want_w, abs=1e-8)
            assert coefficients_at(prof, t).s == pytest.approx(-want_k**2 / 4.0, abs=1e-8)


def test_quadratic_tilt_identity_from_tables():
    # s = -k^2/4 for every profile: d/dt(s + k^2/4) = -fk + k f = 0
    for prof in (UNIT, WAVY, RAMP):
        for t in np.linspace(0.0, prof.window, 17):
            c = coefficients_at(prof, t)
            assert c.s + 0.25 * c.k * c.k == pytest.approx(0.0, abs=1e-9)


_KNOTS = np.linspace(0.0, 2.0, 41)
SAMPLED = TimeProfile(mass=SampledMass(times=_KNOTS, samples=1.5 + np.sin(3.0 * _KNOTS)),
                      coupling=SampledCoupling(times=_KNOTS, samples=np.cos(2.0 * _KNOTS)),
                      window=2.0)


@pytest.mark.parametrize("prof", [WAVY, SAMPLED], ids=["built-in", "sampled"])
def test_each_stacked_row_is_its_own_one_row_build(prof):
    table = prof.tables.table
    assert table.values.shape[0] == 4
    for integrand, values in zip(table.integrand, table.values):
        assert np.array_equal(table.grid.cumulative(integrand).values, values)


def test_coefficients_at_is_one_table_read(monkeypatch):
    WAVY.tables                       # built before counting
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CumulativeTable, "value", counted("table", CumulativeTable.value))
    monkeypatch.setattr(ExponentialMass, "value", counted("mass", ExponentialMass.value))
    monkeypatch.setattr(SinusoidalCoupling, "value",
                        counted("coupling", SinusoidalCoupling.value))
    coefficients_at(WAVY, 1.1)
    assert calls == ["table"]


@pytest.mark.parametrize("prof", [
    SAMPLED,
    TimeProfile(mass=ExponentialMass(1.0, 1.0), coupling=SinusoidalCoupling(1.0, 1.0), window=3.0),
], ids=["sampled", "exp-cos"])
def test_scalar_coefficients_are_the_array_read_field_by_field(prof):
    # a float t is read in Python floats (the Crank-Nicolson feed's path);
    # each field must be the bits of its formula on the array read's rows,
    # at nodes, knots, mid-panel points, both ends and the 1e-12 slack
    nodes = prof.tables.table.grid.nodes
    end = prof.window
    ts = np.concatenate((nodes[::7], _KNOTS[1:-1] if prof is SAMPLED else [],
                         0.5 * (nodes[:-1] + nodes[1:])[::7],
                         [0.0, end, -1e-12, end + 1e-12, 1e-12, end - 1e-12]))
    rows = prof.tables.table.value(ts)
    for t, (g, k, w, cum_chi2) in zip(ts.tolist(), rows.T.tolist()):
        b = 0.5 * g * k - w
        want = {"g": g, "k": k, "s": -0.25 * k * k, "w": w, "zeta": -0.25 * k * b,
                "shift": -0.25 * g * g, "b": b, "cum_chi1": cum_chi2 + g**3 / 24.0,
                "cum_chi2": cum_chi2}
        got = coefficients_at(prof, t)
        for name, value in want.items():
            assert getattr(got, name).hex() == value.hex(), (t, name)


def test_invariant_coefficients_frozen_point():
    r1 = invariant_coefficients(UNIT, 1.0, 1)
    assert r1.x == 1.0 + 0.0j
    assert r1.p == pytest.approx(-1.0 + 2.0j, rel=1e-13)
    assert r1.const == pytest.approx(-1.0 - 0.5j, rel=1e-13)
    r2 = invariant_coefficients(UNIT, 1.0, 2)
    assert r2.x == -1.0 + 0.0j
    assert r2.p == pytest.approx(1.0 - 2.0j, rel=1e-13)
    assert r2.const == r1.const        # same constant term in both regions
    with pytest.raises(ValueError):
        invariant_coefficients(UNIT, 1.0, 3)


def test_phase_closed_examples():
    from airywell.spectrum import level

    for n in (0, 1):
        lam = level(n).eigenvalue
        for t in (0.7, 1.5):
            # free particle: int chi1 = -t^3/16, int chi2 = -t^3/48
            assert phase(FREE, n, 1, t) == pytest.approx(
                -t**3 / 16 - lam * t / 2, rel=1e-12)
            assert phase(FREE, n, 2, t) == pytest.approx(
                -t**3 / 48 - lam * t / 2, rel=1e-12)
            # unit coupling: int chi1 = -7t^3/48, int chi2 = -5t^3/48
            assert phase(UNIT, n, 1, t) == pytest.approx(
                -7 * t**3 / 48 - lam * t / 2, rel=1e-12)
            assert phase(UNIT, n, 2, t) == pytest.approx(
                -5 * t**3 / 48 - lam * t / 2, rel=1e-12)


def test_phase_table_route_matches_oracle():
    from airywell.spectrum import level

    times = (0.6, 1.4)
    oracle = _rk_oracle(RAMP, times)
    for n in (0, 3):
        lam = level(n).eigenvalue
        for t in times:
            g, _, _, _, c1, c2, _ = oracle[t]
            assert phase(RAMP, n, 1, t) == pytest.approx(
                c1 + lam * g / 2, abs=1e-8)
            assert phase(RAMP, n, 2, t) == pytest.approx(
                c2 + lam * g / 2, abs=1e-8)


def test_phase_reads_g_as_coefficients_at_does():
    # phase and coefficients_at read g and int chi from the same table row
    from airywell.spectrum import level

    prof = TimeProfile(mass=ExponentialMass(1.0, 1.0),
                       coupling=SinusoidalCoupling(1.0, 1.0), window=3.0)
    lam = level(2).eigenvalue
    for t in np.linspace(0.1, 2.9, 15):
        c = coefficients_at(prof, t)
        for region, cum in ((1, c.cum_chi1), (2, c.cum_chi2)):
            assert phase(prof, 2, region, t) == cum + lam * c.g / 2.0


def test_phase_validation():
    with pytest.raises(ValueError):
        phase(UNIT, -1, 1, 0.5)
    with pytest.raises(ValueError):
        phase(UNIT, 0, 3, 0.5)


def test_shift_reorder_phase_closed_forms():
    # constant mass: t^3/(24 m0^3); exponential: (1 - e^{-gt})^3/(24 m0^3 g^3)
    m0 = 1.7
    prof = TimeProfile(mass=ConstantMass(m0), coupling=SinusoidalCoupling(0.5, 3.0), window=2.0)
    for t in (0.5, 1.5):
        assert shift_reorder_phase(prof, t) == pytest.approx(t**3 / (24 * m0**3), rel=1e-12)
    m0, ga = 1.3, 0.6
    for t in (0.5, 1.5):
        want = (1 - np.exp(-ga * t)) ** 3 / (24 * m0**3 * ga**3)
        assert shift_reorder_phase(WAVY, t) == pytest.approx(want, rel=1e-11)


def test_shift_reorder_phase_table_route():
    # power-law mass against direct quadrature
    def integrand(tau):
        g = quad(lambda u: -1.0 / RAMP.mass.value(u), 0.0, tau, epsabs=1e-13)[0]
        return g * g / (8.0 * RAMP.mass.value(tau))

    for t in (0.8, 1.6):
        want = quad(integrand, 0.0, t, epsabs=1e-11, limit=200)[0]
        assert shift_reorder_phase(RAMP, t) == pytest.approx(want, abs=1e-8)


def test_window_enforcement():
    with pytest.raises(ValueError):
        coefficients_at(UNIT, 3.5)
    with pytest.raises(ValueError):
        coefficients_at(UNIT, -0.1)
    # end point plus float fuzz is clipped, not rejected
    assert coefficients_at(UNIT, 3.0 + 1e-13) == coefficients_at(UNIT, 3.0)


@pytest.mark.parametrize("prof", [UNIT, RAMP], ids=["closed", "table"])
@pytest.mark.parametrize("read", [
    lambda prof, t: coefficients_at(prof, t),
    lambda prof, t: phase(prof, 0, 1, t),
    lambda prof, t: shift_reorder_phase(prof, t),
], ids=["coefficients_at", "phase", "shift_reorder_phase"])
def test_nan_time_is_outside_the_window(read, prof):
    with pytest.raises(ValueError, match="window"):
        read(prof, float("nan"))


def test_mass_positivity_enforced():
    with pytest.raises(ValueError):
        TimeProfile(mass=PowerMass(1.0, -0.4, 1.0), coupling=ZeroCoupling(), window=3.0)
    with pytest.raises(ValueError):
        TimeProfile(mass=ConstantMass(-2.0), coupling=ZeroCoupling(), window=1.0)


def test_overflowing_mass_is_refused_without_a_warning():
    # m0 e^{300 t} on a window of 3 reads e^900 = inf at the window's end
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^mass history must stay finite and strictly"
                                             " positive on the window$"):
            TimeProfile(mass=ExponentialMass(1.0, 300.0), coupling=ZeroCoupling(), window=3.0)


@pytest.mark.parametrize("window", [float("inf"), float("nan"), 1e300, 1.01 * MAX_WINDOW, 0.0])
def test_window_must_be_positive_and_at_most_the_cap(window):
    with pytest.raises(ValueError, match="window"):
        TimeProfile(mass=ConstantMass(1.0), coupling=ConstantCoupling(1.0), window=window)


def test_window_at_the_cap_is_accepted():
    prof = TimeProfile(mass=ConstantMass(1.0), coupling=ZeroCoupling(), window=MAX_WINDOW)
    assert coefficients_at(prof, MAX_WINDOW).g == -MAX_WINDOW


def test_subnormal_rates_take_the_zero_rate_limit(recwarn):
    # 0.5 * 5e-324 underflows to 0: nothing may divide by the rate
    t = 1.3
    for ga, om in ((5e-324, 1.0), (-5e-324, 1.0), (0.0, 5e-324), (1e-310, -1e-310)):
        prof = TimeProfile(mass=ExponentialMass(0.5, ga),
                           coupling=SinusoidalCoupling(1.0, om), window=2.0)
        limit = TimeProfile(mass=ConstantMass(0.5),
                            coupling=SinusoidalCoupling(1.0, om) if om == 1.0
                            else ConstantCoupling(1.0), window=2.0)
        got, want = coefficients_at(prof, t), coefficients_at(limit, t)
        for name in ("g", "k", "s", "w"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-14), name
        assert shift_reorder_phase(prof, t) == pytest.approx(t**3 / (24 * 0.5**3), rel=1e-14)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("om", [1e-6, 1e-8, 1e-10])
def test_slow_sinusoidal_coupling_on_constant_mass(om):
    # w = -(f0/m0)(t^2/2 - om^2 t^4/8 + O(om^4)); cos(om t) - 1 cancels here
    f0, m0 = 1.3, 0.7
    prof = TimeProfile(mass=ConstantMass(m0), coupling=SinusoidalCoupling(f0, om), window=2.0)
    for t in (0.5, 1.0, 2.0):
        want = -(f0 / m0) * (t * t / 2 - om * om * t**4 / 8)
        assert coefficients_at(prof, t).w == pytest.approx(want, rel=1e-12)


def test_sampled_families_interpolate_linearly():
    times = np.linspace(0.0, 2.0, 9)
    mass = SampledMass(times=times, samples=2.0 + times)       # exactly linear
    coup = SampledCoupling(times=times, samples=1.0 - 0.5 * times)
    prof = TimeProfile(mass=mass, coupling=coup, window=2.0)
    assert mass.value(0.25) == pytest.approx(2.25, rel=1e-15)
    assert coup.value(1.75) == pytest.approx(0.125, rel=1e-14)
    # g = -int dt/(2+t) = -log(1 + t/2): linear tables carry it to 1e-10
    for t in (0.5, 1.3, 2.0):
        c = coefficients_at(prof, t)
        assert c.g == pytest.approx(-np.log1p(t / 2.0), abs=1e-10)


def test_sampled_table_must_cover_window():
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        TimeProfile(mass=SampledMass(times=times, samples=np.ones(5)),
                    coupling=ZeroCoupling(), window=2.0)


@pytest.mark.parametrize("cls, noun", [(SampledMass, "mass"), (SampledCoupling, "coupling")],
                         ids=["mass", "coupling"])
def test_sampled_validation(cls, noun):
    """Both sampled laws share the table rules, which name the law; only a
    mass must be positive, and a table that breaks two rules reports the
    time order first."""
    two = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match=f"^sampled {noun} needs matching 1-d"):
        cls(times=two, samples=np.ones(3))
    with pytest.raises(ValueError, match=f"^sampled {noun} times and values must be finite$"):
        cls(times=two, samples=np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="^sample times must be strictly increasing$"):
        cls(times=np.array([0.0, 1.0, 0.5]), samples=np.array([1.0, -1.0, 1.0]))
    negative = np.array([1.0, -1.0])
    if cls is SampledMass:
        with pytest.raises(ValueError, match="^mass samples must be strictly positive$"):
            cls(times=two, samples=negative)
    else:
        assert cls(times=two, samples=negative).value(0.5) == 0.0


def test_family_parameters_are_checked_in_field_order():
    base = {"window": 1.0, "coupling": {"family": "zero"}}
    bad = dict(base, mass={"family": "power", "alpha": "c", "gamma": "b", "m0": "a"})
    with pytest.raises(ValueError, match="^mass m0: 'a' is not a number$"):
        TimeProfile.from_config(bad)
    bad = {"window": 1.0, "mass": {"family": "constant", "m0": 1.0},
           "coupling": {"family": "sinusoidal", "omega": ".", "f0": float("nan")}}
    with pytest.raises(ValueError, match="^coupling f0 must be finite, not nan$"):
        TimeProfile.from_config(bad)


def test_config_round_trip():
    cfg = {
        "window": 2.5,
        "mass": {"family": "exponential", "m0": 1.3, "gamma": 0.6},
        "coupling": {"family": "sinusoidal", "f0": 0.8, "omega": 2.2},
    }
    prof = TimeProfile.from_config(cfg)
    for t in (0.7, 1.9):
        a = coefficients_at(prof, t)
        b = coefficients_at(WAVY, t)
        assert a == b


def test_config_sampled_table():
    cfg = {
        "window": 1.0,
        "mass": {"family": "constant", "m0": 1.0},
        "coupling": {"family": "sampled", "table": [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]]},
    }
    prof = TimeProfile.from_config(cfg)
    assert prof.coupling.value(0.25) == pytest.approx(0.5)
    # k(1) = 2 * area under the triangle = 1
    assert coefficients_at(prof, 1.0).k == pytest.approx(1.0, abs=1e-10)


def test_config_rejects_unknown_keys():
    base = {
        "window": 1.0,
        "mass": {"family": "constant", "m0": 1.0},
        "coupling": {"family": "zero"},
    }
    bad = dict(base, typo=1)
    with pytest.raises(ValueError, match="unknown profile keys"):
        TimeProfile.from_config(bad)
    bad = dict(base, mass={"family": "constant", "m0": 1.0, "m1": 2.0})
    with pytest.raises(ValueError, match="unknown mass parameters"):
        TimeProfile.from_config(bad)
    bad = dict(base, coupling={"family": "smooth"})
    with pytest.raises(ValueError, match="unknown coupling family"):
        TimeProfile.from_config(bad)
    bad = dict(base, coupling={"family": "sampled", "table": [[0, 1], [1, 1]], "x": 2})
    with pytest.raises(ValueError, match="sampled coupling takes exactly"):
        TimeProfile.from_config(bad)
    bad = {"window": 1.0, "mass": {"family": "constant", "m0": 1.0}}
    with pytest.raises(ValueError, match="missing 'coupling'"):
        TimeProfile.from_config(bad)


@pytest.mark.parametrize("window", [100.0, 300.0, 1000.0, 3000.0])
@pytest.mark.parametrize("coupling", [ConstantCoupling(1.0), ZeroCoupling()],
                         ids=["unit", "free"])
def test_long_windows_converge(coupling, window):
    # int chi grows like T^3: at T = 1000 its refinement differences sit at
    # rounding level far above 1e-10, so an absolute test alone never passes
    prof = TimeProfile(mass=ConstantMass(1.0), coupling=coupling, window=window)
    assert prof.tables.estimate <= max(1e-10, 64 * np.finfo(float).eps * window**3)
    assert coefficients_at(prof, window).g == pytest.approx(-window, rel=1e-14)


def test_quadrature_budget_overflow_raises():
    # an inverse-square-root kink never reaches 1e-10 within the panel budget
    class Nasty:
        def value(self, t):
            return np.sqrt(np.abs(np.asarray(t, dtype=float) - 1.0 / np.pi))

    prof = TimeProfile(mass=ConstantMass(1.0), coupling=Nasty(), window=1.0)
    with pytest.raises(RuntimeError):
        prof.tables


def _built_panels(monkeypatch, prof):
    """The panels per segment of every grid the table build assembles."""
    built = []
    assemble = _ProfileTables._assemble

    def spy(profile, grid):
        built.append(grid.panels_per_segment)
        return assemble(profile, grid)

    monkeypatch.setattr(_ProfileTables, "_assemble", staticmethod(spy))
    prof.tables
    return built


def _sampled_on(knots):
    return TimeProfile(mass=SampledMass(times=knots, samples=1.5 + np.sin(3.0 * knots)),
                       coupling=SampledCoupling(times=knots, samples=np.cos(2.0 * knots)),
                       window=float(knots[-1]))


def test_many_knot_table_starts_at_two_panels_per_segment(monkeypatch):
    # the shape of the benchmark's sampled histories, at the largest rates
    # and amplitudes it draws: 2000 segments on [0, 2]
    t = np.arange(2001) / 1000.0
    mass = 0.9 * (1.0 + 0.3 * np.sin(2.0 * t + 0.3) + 0.15 * np.sin(4.0 * t + 1.9))
    coupling = 0.7 + 0.4 * np.cos(3.0 * t + 4.1)
    prof = TimeProfile(mass=SampledMass(times=t, samples=mass),
                       coupling=SampledCoupling(times=t, samples=coupling), window=2.0)
    assert _built_panels(monkeypatch, prof) == [2, 4]
    table = prof.tables.table
    assert table.grid.nodes.size <= 8001
    sixteen = _ProfileTables._assemble(
        prof, SimpsonGrid.build(2.0, knots=t, panels_per_segment=16))
    for when in (0.5, 1.25):
        assert np.max(np.abs(table.value(when) - sixteen.value(when))) <= 1e-14


@pytest.mark.parametrize("prof, built", [
    (UNIT, [16, 32]),
    (_sampled_on(np.linspace(0.0, 2.0, 31)), [16, 32, 64, 128]),
    (_sampled_on(np.linspace(0.0, 2.0, 257)), [16, 32]),     # 256 segments
    (_sampled_on(np.linspace(0.0, 2.0, 258)), [8, 16]),
    (_sampled_on(np.linspace(0.0, 2.0, 2050)), [2, 4]),
], ids=["default", "30-segments", "256-segments", "257-segments", "2049-segments"])
def test_table_start_rule(monkeypatch, prof, built):
    # every profile of at most 256 segments starts at 16 panels per segment
    # and so refines through the grids, and to the table, of a start at 16
    assert _built_panels(monkeypatch, replace(prof, _cache={})) == built


@settings(max_examples=12, deadline=None)
@given(
    m0=st.floats(min_value=0.5, max_value=3.0),
    ga=st.floats(min_value=-0.8, max_value=0.8),
    f0=st.floats(min_value=-1.5, max_value=1.5),
    om=st.floats(min_value=0.3, max_value=4.0),
    t=st.floats(min_value=0.05, max_value=1.95),
)
def test_exponential_sinusoidal_family_properties(m0, ga, f0, om, t):
    prof = TimeProfile(mass=ExponentialMass(m0, ga), coupling=SinusoidalCoupling(f0, om), window=2.0)
    c = coefficients_at(prof, t)
    # k is twice the elementary integral of the coupling
    assert c.k == pytest.approx(2 * f0 * np.sin(om * t) / om, rel=1e-11, abs=1e-11)
    # s = -k^2/4 by construction
    assert c.s == pytest.approx(-c.k**2 / 4, rel=1e-11, abs=1e-12)
    h = 1e-5
    lo, hi = coefficients_at(prof, t - h), coefficients_at(prof, t + h)
    assert (hi.w - lo.w) / (2 * h) == pytest.approx(
        prof.coupling.value(t) * c.g, rel=2e-5, abs=1e-9)


def test_vanishing_gamma_limits_are_graceful():
    # a gamma far below machine precision must reproduce the constant-mass
    # limit; gamma small enough that the true O(gamma t) corrections sit
    # far below the asserted tolerances
    t = 1.3
    for ga in (1.847136928292314e-61, -1e-61, 1e-300, 1e-12, -1e-12):
        for coup, ref_w in (
            (ConstantCoupling(0.7), -0.7 * t * t / 2),
            (SinusoidalCoupling(1.0, 0.375),
             -(t * np.sin(0.375 * t) / 0.375 + (np.cos(0.375 * t) - 1) / 0.375**2)),
        ):
            prof = TimeProfile(mass=ExponentialMass(1.0, ga),
                               coupling=coup, window=2.0)
            c = coefficients_at(prof, t)
            assert c.g == pytest.approx(-t, rel=1e-10)
            assert c.w == pytest.approx(ref_w, rel=1e-9)
        prof = TimeProfile(mass=ExponentialMass(1.0, ga),
                           coupling=ConstantCoupling(1.0), window=2.0)
        assert shift_reorder_phase(prof, t) == pytest.approx(t**3 / 24, rel=1e-10)
