"""Checks for the complex Airy evaluator and its zero finder.

Reference values were produced by an independent oracle: a 50-term
Maclaurin summation at 30-digit working precision (reproduced live in
`_series_oracle` below) for small arguments, and mpmath's own Airy
implementation for general complex points and zeros.  Frozen digits are
quoted to more places than double precision can hold.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpmath as mp

from airywell import airy
from airywell.airy import (
    MAX_ZERO_INDEX,
    AiryPair,
    airy_ai_and_prime,
    airy_ai_and_prime_lattice,
    airy_derivative_zero,
    airy_eval,
    airy_eval_many,
    airy_function_zero,
)

mp.mp.dps = 30


def _series_oracle(z, terms=50):
    """Independent Maclaurin oracle for Ai, Ai' at 30-digit precision."""
    z = mp.mpc(z)
    c1 = mp.power(3, mp.mpf(-2) / 3) / mp.gamma(mp.mpf(2) / 3)
    c2 = mp.power(3, mp.mpf(-1) / 3) / mp.gamma(mp.mpf(1) / 3)
    t = mp.mpc(1)
    u = z
    f, g = t, u
    fp, gp = mp.mpc(0), mp.mpc(1)
    for k in range(1, terms):
        t = t * z**3 / ((3 * k - 1) * (3 * k))
        u = u * z**3 / ((3 * k) * (3 * k + 1))
        f += t
        g += u
        if z != 0:
            fp += t * (3 * k) / z
            gp += u * (3 * k + 1) / z
    return complex(c1 * f - c2 * g), complex(c1 * fp - c2 * gp)


def _mp_all(z):
    zz = mp.mpc(z)
    return (
        complex(mp.airyai(zz)),
        complex(mp.airyai(zz, 1)),
        complex(mp.airybi(zz)),
        complex(mp.airybi(zz, 1)),
    )


# ---------------------------------------------------------------- values


def test_value_at_origin():
    v = airy_eval(0.0)
    # 3^(-2/3)/Gamma(2/3) and -3^(-1/3)/Gamma(1/3)
    assert v.ai.real == pytest.approx(0.3550280538878172392601, abs=1e-15)
    assert v.ai_prime.real == pytest.approx(-0.2588194037928067984052, abs=1e-15)
    assert v.bi.real == pytest.approx(np.sqrt(3) * 0.3550280538878172392601, rel=1e-14)
    assert abs(v.ai.imag) < 1e-300 and abs(v.ai_prime.imag) < 1e-300


def test_value_at_one_vs_series_oracle():
    want_ai, want_aip = _series_oracle(1.0)
    v = airy_eval(1.0)
    assert v.ai.real == pytest.approx(want_ai.real, rel=1e-12)
    assert v.ai_prime.real == pytest.approx(want_aip.real, rel=1e-12)
    # frozen digits from the oracle run
    assert v.ai.real == pytest.approx(0.13529241631288141552, rel=1e-13)
    assert v.ai_prime.real == pytest.approx(-0.15914744129679321279, rel=1e-13)


def test_frozen_complex_spots():
    # one point in the recessive wedge, where series sums cancel badly
    v = airy_eval(6.2 - 0.45j)
    assert v.ai == pytest.approx(2.57518754511915251e-6 + 5.57655311483656223e-6j, rel=1e-9)
    assert v.ai_prime == pytest.approx(-7.00467040477281805e-6 - 1.38844527288278275e-5j, rel=1e-9)
    # one point handled by rotated asymptotics
    v = airy_eval(-9.5 + 3.25j)
    assert v.bi == pytest.approx(2888.41183616646341 + 2361.07064021652173j, rel=1e-11)
    assert v.bi_prime == pytest.approx(5929.35477365601163 - 10177.1910718617411j, rel=1e-11)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=39.0),
    th=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_matches_mpmath_over_disc(r, th):
    z = r * complex(np.cos(th), np.sin(th))
    ra, rap, rb, rbp = _mp_all(z)
    v = airy_eval(z)
    for got, want in ((v.ai, ra), (v.ai_prime, rap), (v.bi, rb), (v.bi_prime, rbp)):
        assert abs(got - want) <= 5e-10 * max(abs(want), 1e-30)


def test_recessive_wedge_accuracy():
    rng = np.random.default_rng(3)
    r = rng.uniform(4.0, 7.0, size=80)
    th = rng.uniform(-1.2, 1.2, size=80)
    z = r * np.exp(1j * th)
    a, ap, _, _ = airy_eval_many(z)
    for i in range(z.size):
        ra, rap, _, _ = _mp_all(z[i])
        assert abs(a[i] - ra) <= 1e-9 * abs(ra)
        assert abs(ap[i] - rap) <= 1e-9 * abs(rap)


# ----------------------------------------------------- structural checks


def test_wronskian_on_lattice():
    # 100-point lattice covering |Re z|, |Im z| <= 8; relative to the
    # size of the products, which reach ~1e20 toward the corners.
    xs = np.linspace(-8.0, 8.0, 10)
    z = np.array([complex(x, y) for x in xs for y in xs])
    a, ap, b, bp = airy_eval_many(z)
    w = a * bp - ap * b
    scale = np.maximum(np.abs(a * bp), np.abs(ap * b))
    scale = np.maximum(scale, 1.0 / np.pi)
    assert float(np.max(np.abs(w - 1.0 / np.pi) / scale)) < 1e-10


def test_ode_residual_by_finite_difference():
    # y'' = z y, spacing 1e-4, relative 1e-6.  Points sit where the
    # functions are not exponentially small, so the second difference is
    # not dominated by roundoff amplified by 1/h^2.
    h = 1e-4
    pts = [0.3, -1.7, 2.5 + 1.0j, -3.0 + 0.5j, 3.2, -6.0 - 2.0j]
    for z in pts:
        vm = airy_eval(z - h)
        v0 = airy_eval(z)
        vp = airy_eval(z + h)
        for field in ("ai", "bi"):
            ypp = (getattr(vp, field) - 2 * getattr(v0, field) + getattr(vm, field)) / h**2
            want = z * getattr(v0, field)
            assert abs(ypp - want) <= 1e-6 * max(abs(want), 1e-12)


def test_switch_radius_continuity():
    # |z| = 7 is a typical hand-over radius between series and asymptotic
    # methods; all four outputs must match the oracle on that circle
    th = np.linspace(-np.pi, np.pi, 25)
    z = 7.0 * np.exp(1j * th)
    out = airy_eval_many(z)
    for i in range(z.size):
        for got, want in zip(out, _mp_all(z[i])):
            assert abs(got[i] - want) <= 1e-9 * max(abs(want), 1e-30)


def test_range_error_outside_disc():
    with pytest.raises(ValueError):
        airy_eval(41.0)
    with pytest.raises(ValueError):
        airy_eval_many(np.array([1.0, 30.0 + 30.0j]))


def test_pair_is_finite_everywhere_sampled():
    rng = np.random.default_rng(5)
    z = rng.uniform(-28, 28, size=200) + 1j * rng.uniform(-28, 28, size=200)
    z = z[np.abs(z) <= 40.0]
    out = airy_eval_many(z)
    for arr in out:
        assert np.all(np.isfinite(arr))


# ----------------------------------------------------------------- zeros


def test_first_zeros_against_frozen_oracle():
    assert airy_function_zero(1) == pytest.approx(-2.33810741045976704, abs=1e-11)
    assert airy_function_zero(2) == pytest.approx(-4.08794944413097062, abs=1e-11)
    assert airy_derivative_zero(1) == pytest.approx(-1.01879297164747109, abs=1e-11)
    assert airy_derivative_zero(2) == pytest.approx(-3.24819758217983654, abs=1e-11)
    assert airy_function_zero(50) == pytest.approx(-38.0210086772552544, abs=1e-10)
    assert airy_derivative_zero(50) == pytest.approx(-37.7656591005388711, abs=1e-10)


def test_zero_fields_and_residuals():
    for k in (1, 2, 3, 7, 20, 50):
        za = airy_function_zero(k)
        zp = airy_derivative_zero(k)
        assert type(za) is float and type(zp) is float
        assert za < 0 and zp < 0
        assert abs(airy_eval(za).ai.real) < 1e-12
        assert abs(airy_eval(zp).ai_prime.real) < 1e-12


def test_zeros_strictly_decreasing():
    fa = [airy_function_zero(k) for k in range(1, 31)]
    fd = [airy_derivative_zero(k) for k in range(1, 31)]
    assert all(b < a for a, b in zip(fa, fa[1:]))
    assert all(b < a for a, b in zip(fd, fd[1:]))


def test_zero_interlacing():
    # a'_k > a_k > a'_{k+1} in the standard negative ordering
    for k in range(1, 21):
        ap_k = airy_derivative_zero(k)
        a_k = airy_function_zero(k)
        ap_k1 = airy_derivative_zero(k + 1)
        assert ap_k > a_k > ap_k1


def test_zero_index_validation():
    for bad in (0, -1, MAX_ZERO_INDEX + 1):
        with pytest.raises(ValueError):
            airy_function_zero(bad)
        with pytest.raises(ValueError):
            airy_derivative_zero(bad)


def test_zeros_against_mpmath():
    for k in (1, 2, 3, 5, 10, 25, 50):
        assert airy_function_zero(k) == pytest.approx(
            float(mp.airyaizero(k)), abs=5e-13
        )
        assert airy_derivative_zero(k) == pytest.approx(
            float(mp.airyaizero(k, derivative=1)), abs=5e-13
        )


# ----------------------------------------------- integral identity


def test_tail_integral_identity():
    # int_a^inf Ai(t)^2 dt = Ai'(a)^2 - a Ai(a)^2, adaptive quadrature
    # truncated where Ai^2 < 1e-30
    from scipy.integrate import quad

    def ai2(x):
        return airy_eval(x).ai.real ** 2

    for a in (
        airy_derivative_zero(1),
        airy_function_zero(1),
        -1.0,
        0.0,
        1.0,
    ):
        upper = 9.0  # Ai(9)^2 ~ 5e-21; Ai^2 < 1e-30 well before 12
        while ai2(upper) > 1e-30:
            upper += 1.0
        val, err = quad(ai2, a, upper, limit=200, epsabs=1e-12, epsrel=1e-12)
        v = airy_eval(a)
        want = v.ai_prime.real**2 - a * v.ai.real**2
        assert val == pytest.approx(want, abs=1e-8)


def test_poincare_series_matches_inside_direct_sector():
    rng = np.random.default_rng(9)
    r = rng.uniform(7.5, 35.0, size=40)
    th = rng.uniform(-2.2, 2.2, size=40)
    z = r * np.exp(1j * th)
    a, ap, _, _ = airy_eval_many(z)
    for i in range(z.size):
        ra, rap, _, _ = _mp_all(z[i])
        assert abs(a[i] - ra) <= 1e-10 * abs(ra)
        assert abs(ap[i] - rap) <= 1e-10 * abs(rap)


@pytest.mark.parametrize("x", [1.5, 5.0, 12.0, 30.0, 38.0])
def test_negative_real_axis_with_signed_zero_imaginary_part(x):
    # a -0.0 imaginary part must not select the far side of the branch cut
    # on the negative real axis
    a, ap, b, bp = airy_eval_many(np.array([complex(-x, -0.0)]))
    for got, want in zip((a[0], ap[0], b[0], bp[0]), _mp_all(-x)):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_package_import_leaves_mpmath_unloaded():
    # mpmath is the oracle of these tests; the package must not lean on it
    import airywell

    root = os.path.dirname(os.path.dirname(airywell.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    code = "import sys, airywell; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert out.stdout.strip() == "False"


def test_verify_and_solve_leave_scipy_unloaded(tmp_path):
    # the Airy kernel is numpy alone; scipy serves the Crank-Nicolson run,
    # which imports LAPACK on its first call.  numpy.ma costs about 8 ms of
    # a fresh process, and nothing before that call may import it; numpy
    # 1.24 imports it with numpy itself, so only the modules that a bare
    # numpy import did not load count
    import airywell

    root = os.path.dirname(os.path.dirname(airywell.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    code = f"""
import sys
import numpy

def ma_modules():
    return {{name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]}}

with_numpy = ma_modules()
from pathlib import Path
from airywell import cli
from airywell.verify import Grid1D, crank_nicolson_propagate
from airywell.wavefunction import assemble_wavefunction

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

after_import = scipy_modules()
cfg = cli._run_config({{"out": {str(tmp_path)!r}}}, Path("."))
codes = cli.run_verify(cfg), cli.run_solve(cfg)
after_runs = scipy_modules(), sorted(ma_modules() - with_numpy)
state = assemble_wavefunction(cfg.profile, 0, 0.0, Grid1D.centered(10.0, 0.1).nodes)
after_state = sorted(ma_modules() - with_numpy)
crank_nicolson_propagate(cfg.profile, state, 0.0, 0.01, 1e-3)
print(repr((after_import, codes, after_runs, after_state, "scipy.linalg.lapack" in sys.modules)))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=300, env=env)
    assert out.stdout.strip().splitlines()[-1] == repr(([], (0, 0), ([], []), [], True))


def test_airy_pair_wronskian_property():
    v = airy_eval(2.0 - 1.0j)
    assert isinstance(v, AiryPair)
    assert v.wronskian == pytest.approx(1.0 / np.pi, rel=1e-11)


# ------------------------------------------------------ Ai-only kernel


def _mp_ai(z):
    return complex(mp.airyai(mp.mpc(z)))


def _assert_ai_matches_mpmath(z, rel):
    # the array read's Ai column, and one call per point on the Python-scalar path
    want = np.array([_mp_ai(w) for w in z])
    for got in (airy_ai_and_prime(z)[0], np.array([airy._ai_point(complex(w)) for w in z])):
        err = np.abs(got - want) / np.abs(want)
        assert float(np.max(err)) <= rel, z[np.argmax(err)]


def test_ai_only_kernel_matches_mpmath_over_disc():
    # 800 points spread uniformly over the working disc |z| <= 40
    rng = np.random.default_rng(11)
    z = 40.0 * np.sqrt(rng.uniform(0.0, 1.0, 800)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 800))
    _assert_ai_matches_mpmath(z, 1e-12)


def test_ai_only_kernel_on_both_sides_of_the_sector_boundary():
    # beyond |z| = 9.5, arg z = +-2pi/3 separates the direct Poincare
    # expansion from its connection formula DLMF 9.2.11;
    # the points sit on the ray as rounded, next to it by a few ulps, and
    # at small and moderate angular offsets on either side
    on_ray = np.array([r * np.exp(1j * s * (2 * np.pi / 3 + d))
                       for r in (0.5, 3.0, 10.0, 25.0, 39.9) for s in (1, -1)
                       for d in (0.0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-4, -1e-4)])
    nudged = [complex(np.nextafter(w.real, a), np.nextafter(w.imag, b))
              for w in on_ray[::7] for a in (-1, 1) for b in (-1, 1)]
    _assert_ai_matches_mpmath(np.concatenate([on_ray, nudged]), 1e-12)


@pytest.mark.parametrize("x", [1.5, 5.0, 12.0, 30.0, 38.0])
@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
def test_ai_only_kernel_on_negative_real_axis(x, zero):
    # in an array, and on the one-point path as a Python complex and as an
    # np.complex128
    z = complex(-x, zero)
    want = _mp_ai(-x)
    for got in (airy_ai_and_prime(np.array([z]))[0][0], airy._ai_point(z),
                airy._ai_point(np.complex128(z))):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_ai_only_kernel_along_negative_real_axis():
    # Ai oscillates here, so the error is taken against the modulus
    # function M = sqrt(Ai^2 + Bi^2) (DLMF 9.8), which stays clear of zero
    xs = np.linspace(0.0, 38.0, 381)
    want = np.array([_mp_ai(-x) for x in xs])
    scale = np.array([float(mp.sqrt(mp.airyai(-x) ** 2 + mp.airybi(-x) ** 2)) for x in xs])
    for zero in (0.0, -0.0):
        got = airy_ai_and_prime(np.array([complex(-x, zero) for x in xs]))[0]
        assert float(np.max(np.abs(got - want) / scale)) <= 1e-13


@pytest.mark.parametrize("r", [1e-12, 1e-8])
def test_ai_only_kernel_near_the_origin(r):
    _assert_ai_matches_mpmath(r * np.exp(1j * np.linspace(-np.pi, np.pi, 13)), 1e-12)


def test_ai_only_kernel_at_the_origin():
    # below |z| = 1e-17 the kernel returns Ai(0) itself: the Maclaurin
    # series alone would keep an imaginary part of order |z|
    ai0 = float(mp.airyai(0))
    got = airy_ai_and_prime(np.array([0.0, -0.0, 1e-300j, -1e-250, 5e-324]))[0]
    assert np.all(got == ai0)
    assert airy._ai_point(0j) == airy._ai_point(complex(-0.0, -0.0)) == ai0


@pytest.mark.parametrize("z", [
    0.5, -3.0 + 0.2j, np.array(2.0 - 1.0j), np.array([-2.0 - 0.1j]), np.array([4.0]),
    np.array([-9.0, 3.0 + 4.0j, -1.0 - 1.7j, 0.0, 7.5]),
    np.array([[1.0, -20.0 + 1.0j], [-5.0 - 0.0j, 2.0j]]), np.zeros(0),
], ids=["float", "complex", "0-d", "one-far", "one-near", "mixed", "2-d", "empty"])
def test_ai_only_kernel_shape_and_dtype_match_airy_eval_many(z):
    # a 0-d z is read in Python scalars, as `spectrum` reads it
    got = airy._ai_point(complex(z)) if np.ndim(z) == 0 else airy_ai_and_prime(z)[0]
    want = airy_eval_many(z)[0]
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("z", [
    np.nan, complex(0.0, np.nan), np.inf, 41.0, 30.0 + 30.0j,
    np.array([1.0, np.nan]), np.array([1.0, -40.5]),
])
def test_ai_only_kernel_rejects_points_outside_the_disc(z):
    with pytest.raises(ValueError):
        airy._ai_point(complex(z)) if np.ndim(z) == 0 else airy_ai_and_prime(z)


# ------------------------------------------------------ Ai and Ai' kernel


def _mp_aip(z):
    return complex(mp.airyai(mp.mpc(z), derivative=1))


def _assert_aip_matches_mpmath(z, rel):
    # the Ai' column against mpmath; the Ai-only sweeps check the Ai column
    aip = airy_ai_and_prime(z)[1]
    want = np.array([_mp_aip(w) for w in z])
    err = np.abs(aip - want) / np.abs(want)
    assert float(np.max(err)) <= rel, z[np.argmax(err)]


def test_ai_prime_kernel_matches_mpmath_over_disc():
    # the same 800 points as the Ai-only sweep
    rng = np.random.default_rng(11)
    z = 40.0 * np.sqrt(rng.uniform(0.0, 1.0, 800)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 800))
    _assert_aip_matches_mpmath(z, 1e-12)


def test_ai_prime_kernel_on_both_sides_of_the_sector_boundary():
    on_ray = np.array([r * np.exp(1j * s * (2 * np.pi / 3 + d))
                       for r in (0.5, 3.0, 10.0, 25.0, 39.9) for s in (1, -1)
                       for d in (0.0, 1e-15, -1e-15, 1e-9, -1e-9, 1e-4, -1e-4)])
    nudged = [complex(np.nextafter(w.real, a), np.nextafter(w.imag, b))
              for w in on_ray[::7] for a in (-1, 1) for b in (-1, 1)]
    _assert_aip_matches_mpmath(np.concatenate([on_ray, nudged]), 1e-12)


@pytest.mark.parametrize("x", [1.5, 5.0, 12.0, 30.0, 38.0])
@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
def test_ai_prime_kernel_on_negative_real_axis(x, zero):
    want = _mp_aip(-x)
    for z in (np.array([complex(-x, zero)]), np.array(complex(-x, zero))):
        got = airy_ai_and_prime(z)[1]
        assert abs(np.ravel(got)[0] - want) <= 1e-12 * abs(want)


def test_ai_prime_kernel_along_negative_real_axis():
    # Ai' oscillates here, so the error is taken against its modulus
    # function N = sqrt(Ai'^2 + Bi'^2) (DLMF 9.8)
    xs = np.linspace(0.0, 38.0, 381)
    want = np.array([_mp_aip(-x) for x in xs])
    scale = np.array([float(mp.sqrt(mp.airyai(-x, derivative=1) ** 2
                                    + mp.airybi(-x, derivative=1) ** 2)) for x in xs])
    for zero in (0.0, -0.0):
        got = airy_ai_and_prime(np.array([complex(-x, zero) for x in xs]))[1]
        assert float(np.max(np.abs(got - want) / scale)) <= 1e-13


@pytest.mark.parametrize("r", [1e-12, 1e-8])
def test_ai_prime_kernel_near_the_origin(r):
    _assert_aip_matches_mpmath(r * np.exp(1j * np.linspace(-np.pi, np.pi, 13)), 1e-12)


def test_ai_prime_kernel_at_the_origin():
    # the same origin rule returns Ai'(0) itself, at both signed zeros and
    # a subnormal
    z = np.array([0.0, -0.0, 1e-300j, -1e-250, 5e-324])
    ai, aip = airy_ai_and_prime(z)
    assert np.all(ai == float(mp.airyai(0)))
    assert np.all(aip == float(mp.airyai(0, derivative=1)))


@pytest.mark.parametrize("z", [
    0.5, -3.0 + 0.2j, np.array(2.0 - 1.0j), np.array([-2.0 - 0.1j]), np.array([4.0]),
    np.array([-9.0, 3.0 + 4.0j, -1.0 - 1.7j, 0.0, 7.5]),
    np.array([[1.0, -20.0 + 1.0j], [-5.0 - 0.0j, 2.0j]]), np.zeros(0),
], ids=["float", "complex", "0-d", "one-far", "one-near", "mixed", "2-d", "empty"])
def test_ai_prime_kernel_shape_and_dtype_match_airy_eval_many(z):
    got = airy_ai_and_prime(z)
    want = airy_eval_many(z)[:2]
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert np.shape(g) == np.shape(w) and g.dtype == w.dtype
        np.testing.assert_allclose(g, w, rtol=1e-12)


@pytest.mark.parametrize("z", [
    np.nan, complex(0.0, np.nan), np.inf, 41.0, 30.0 + 30.0j,
    np.array([1.0, np.nan]), np.array([1.0, -40.5]),
])
def test_ai_prime_kernel_rejects_points_outside_the_disc(z):
    with pytest.raises(ValueError):
        airy_ai_and_prime(z)


# ---------------------------------------------------- the kernel's seams


def _both_sides(radius):
    """Radii a relative 1e-3 and one ulp inside the circle |z| = radius, on
    it, and one ulp and 1e-3 outside it."""
    return (radius * (1.0 - 1e-3), np.nextafter(radius, 0.0), radius,
            np.nextafter(radius, np.inf), radius * (1.0 + 1e-3))


@pytest.mark.parametrize("radius", [1.5, 9.5], ids=["maclaurin-table", "table-poincare"])
def test_kernel_matches_mpmath_across_its_circles(radius):
    # the Maclaurin disc meets the Taylor table at |z| = 1.5, and the table
    # meets the Poincare expansions at 9.5
    th = np.random.default_rng(3601).uniform(-np.pi, np.pi, 24)
    z = np.concatenate([r * np.exp(1j * th) for r in _both_sides(radius)])
    _assert_ai_matches_mpmath(z, 1e-12)
    _assert_aip_matches_mpmath(z, 1e-12)


def test_kernel_matches_mpmath_at_and_between_base_points():
    # seeded base points 0.5 (m + i n) of the ring 1.5 < |z| < 9.5, read on
    # the point (a zero step), an eighth off it, on the half-way lines to
    # the next base point (ties of the rounding to the nearest one), and at
    # the corners 0.25 (+-1 +- i) off it, the farthest from any base point
    m, n = np.random.default_rng(3602).integers(-19, 20, size=(2, 400))
    base = 0.5 * (m + 1j * n)
    base = base[(np.abs(base) > 2.0) & (np.abs(base) < 9.0)][:40]
    z = np.concatenate([base + d for d in (0.0, 0.125 - 0.125j, 0.25, -0.25j,
                                           0.25 + 0.25j, -0.25 - 0.25j, 0.25 - 0.25j)])
    _assert_ai_matches_mpmath(z, 1e-12)
    _assert_aip_matches_mpmath(z, 1e-12)


@pytest.mark.parametrize("angle", [np.pi / 3, -np.pi / 3, 2 * np.pi / 3, -2 * np.pi / 3],
                         ids=["pi/3", "-pi/3", "2pi/3", "-2pi/3"])
def test_kernel_matches_mpmath_along_the_sector_rays(angle):
    # arg z = +-pi/3 parts the table's inward steps from its outward ones,
    # and +-2pi/3 the Poincare expansions from their rotated images; radii
    # through all three regions, on the ray and 1e-6 off it on either side
    r = np.linspace(0.25, 39.75, 80)
    z = np.concatenate([r * np.exp(1j * (angle + d)) for d in (0.0, 1e-6, -1e-6)])
    _assert_ai_matches_mpmath(z, 1e-12)
    _assert_aip_matches_mpmath(z, 1e-12)


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
def test_kernel_along_negative_real_axis_across_its_circles(zero):
    # z = -x on both sides of x = 1.5 and 9.5, and at seeded x over the
    # disc, scaled by the modulus functions as in the sweeps above
    xs = np.concatenate([_both_sides(1.5), _both_sides(9.5),
                         np.random.default_rng(3603).uniform(0.0, 40.0, 60)])
    ai, aip = airy_ai_and_prime(np.array([complex(-x, zero) for x in xs]))
    for got, d in ((ai, 0), (aip, 1)):
        want = np.array([float(mp.airyai(-x, derivative=d)) for x in xs])
        scale = np.array([float(mp.sqrt(mp.airyai(-x, derivative=d) ** 2
                                         + mp.airybi(-x, derivative=d) ** 2)) for x in xs])
        assert float(np.max(np.abs(got - want) / scale)) <= 1e-13


def test_one_point_read_agrees_with_the_array_read():
    # both read the same table row or expansion at the same step; the
    # one-point read sums it by Horner's rule in Python scalars, the array
    # read by power sums in numpy's complex arithmetic, so they agree to
    # rounding, not bitwise.  In units of 2^-52 (|Ai| + |Ai'|/sqrt(41)) the
    # gap is at most 64 for |z| < 9.5 (24 measured), and at most 4 |zeta|
    # beyond (1.7 |zeta| measured), where e^(-zeta) turns one ulp of zeta
    # into |zeta| ulps of Ai
    rng = np.random.default_rng(3604)
    z = 40.0 * np.sqrt(rng.uniform(0.0, 1.0, 4000)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 4000))
    th = rng.uniform(-np.pi, np.pi, 100)
    z = np.concatenate([z, -np.linspace(0.0, 40.0, 801) + 0j]
                       + [r * np.exp(1j * th) for c in (1.5, 9.5) for r in _both_sides(c)])
    ai, aip = airy_ai_and_prime(z)
    one = np.array([airy._ai_point(complex(w)) for w in z])
    gap = np.abs(one - ai) / (np.finfo(float).eps * (np.abs(ai) + np.abs(aip) / np.sqrt(41.0)))
    mod = np.abs(z)
    inside = mod < 9.5
    assert float(np.max(gap[inside])) <= 64.0
    assert float(np.max(gap[~inside] / (2.0 / 3.0 * mod[~inside] ** 1.5))) <= 4.0


def test_every_zero_against_mpmath():
    for k in range(1, MAX_ZERO_INDEX + 1):
        assert airy_function_zero(k) == pytest.approx(float(mp.airyaizero(k)), abs=5e-13)
        assert airy_derivative_zero(k) == pytest.approx(
            float(mp.airyaizero(k, derivative=1)), abs=5e-13)


# ------------------------------------------------ anchored lattice read


def _lattice(c, h, ks):
    return c + np.arange(ks.start, ks.stop) * h


def test_lattice_term_counts():
    # cosh(sqrt(41)) D^J / (1 - D) <= 2^-53 with D = 32 |h|, the longest step
    assert [airy._lattice_terms(h) for h in (0.005, -0.005, 0.01, 0.012)] == [24, 24, 38, 45]
    assert [airy._lattice_terms(h) for h in (1e-9, 1e-12)] == [3, 2]
    # the series up to D sqrt(41) = 2.5, |h| = 0.012201; past it the read is direct
    assert [airy._lattice_terms(h) for h in (0.0122, -0.0122)] == [46, 46]
    assert [airy._lattice_terms(h) for h in (0.01221, 0.0125, 0.02, 0.04, 0.0, np.nan, np.inf)] \
        == [0] * 7


@pytest.mark.parametrize("c, h, ks, every", [
    (2.0j, 0.005, range(-6000, 1000), 17),       # Re z from -30 to 5, Im z = 2
    (-0.75j, 0.005, range(-7000, 600), 19),      # Re z from -35 to 3, Im z = -0.75
    (1.0j, 0.012, range(-2500, 420), 17),        # Re z from -30 to 5, Im z = 1
], ids=["upper", "lower", "coarse"])
def test_lattice_read_matches_mpmath_across_the_far_sector(c, h, ks, every):
    # the series path on lines that cross arg z = +-2pi/3, at h = 0.005 and
    # at the coarse h = 0.012, whose blocks reach 0.384 from the anchor; the
    # checked nodes (every 17th or 19th) fall on all 64 offsets from an anchor
    assert airy._lattice_terms(h)
    z = _lattice(c, h, ks)
    ai, aip = airy_ai_and_prime_lattice(c, h, ks)
    picked = np.arange(0, z.size, every)
    far = np.abs(np.angle(z[picked])) >= 2 * np.pi / 3
    assert far.any() and not far.all()
    assert set((ks.start + picked) % 64) == set(range(64))
    for got, oracle in ((ai, _mp_ai), (aip, _mp_aip)):
        want = np.array([oracle(w) for w in z[picked]])
        err = np.abs(got[picked] - want) / np.abs(want)
        assert float(np.max(err)) <= 1e-12, z[picked][np.argmax(err)]


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
def test_lattice_read_along_negative_real_axis(zero):
    # z = k / 200 for k = -7600 ... 0, scaled by the modulus functions as in
    # the kernel sweeps above
    ks = range(-7600, 1)
    ai, aip = airy_ai_and_prime_lattice(complex(0.0, zero), 0.005, ks)
    picked = np.arange(0, len(ks), 19)
    xs = _lattice(0.0, 0.005, ks)[picked]
    with mp.workdps(20):
        for got, d in ((ai, 0), (aip, 1)):
            want = np.array([float(mp.airyai(x, derivative=d)) for x in xs])
            scale = np.array([float(mp.sqrt(mp.airyai(x, derivative=d) ** 2
                                             + mp.airybi(x, derivative=d) ** 2)) for x in xs])
            assert float(np.max(np.abs(got[picked] - want) / scale)) <= 1e-13


@pytest.mark.parametrize("h", [0.0125, 0.02, 0.04])
@pytest.mark.parametrize("ks", [range(-500, 400), range(3, 4), range(5, 5)],
                         ids=["long", "one", "empty"])
def test_lattice_read_of_a_coarse_step_is_the_direct_read(h, ks):
    c = -3.0 + 1.0j
    got = airy_ai_and_prime_lattice(c, h, ks)
    want = airy_ai_and_prime(_lattice(c, h, ks))
    for g, w in zip(got, want):
        assert g.shape == (len(ks),) and np.array_equal(g, w)


@pytest.mark.parametrize("c, h, ks", [
    (complex(np.nan, 0.0), 0.005, range(0, 10)),
    (complex(0.0, np.nan), 0.005, range(0, 10)),
    (1.0 + 1.0j, np.nan, range(-3, 3)),
    (39.9 + 0.0j, 0.005, range(0, 100)),        # the range leaves the disc at z = 40.005
    (-40.2 + 1.0j, 0.005, range(0, 100)),       # it enters it at |z| = 40.0
    (0.0, 0.005, range(7990, 8002)),            # z = 40.005 at k = 8001, its anchor at 40.0
    (0.0, 0.04, range(990, 1010)),              # the direct path
], ids=["nan-real", "nan-imag", "nan-step", "leaves", "enters", "anchor-inside", "direct"])
def test_lattice_read_refuses_what_the_direct_read_refuses(c, h, ks):
    with np.errstate(invalid="ignore"):
        z = _lattice(c, h, ks)
    with pytest.raises(ValueError) as direct:
        airy_ai_and_prime(z)
    with pytest.raises(ValueError) as lattice:
        airy_ai_and_prime_lattice(c, h, ks)
    assert str(lattice.value) == str(direct.value)


@pytest.mark.parametrize("c, ks, block", [
    (0.001, range(7900, 8000), slice(-4, None)),      # anchor 8000 at z = 40.001
    (-0.001, range(-7999, -7900), slice(None, 3)),    # anchor -8000 at z = -40.001
], ids=["right-end", "left-end"])
def test_lattice_read_reads_an_end_block_whose_anchor_leaves_the_disc(c, ks, block):
    # every node lies in |z| <= 40, the end block's anchor does not: that
    # block is read directly, the rest by the series
    z = _lattice(c, 0.005, ks)
    assert np.max(np.abs(z)) <= 40.0
    assert abs(c + 8000 * np.sign(ks.start) * 0.005) > 40.0
    got = airy_ai_and_prime_lattice(c, 0.005, ks)
    want = airy_ai_and_prime(z)
    # in units of |Ai| + |Ai'|/sqrt(41): the nodes near -40 lie close to
    # zeros of Ai and Ai'
    scale = np.abs(want[0]) + np.abs(want[1]) / np.sqrt(41.0)
    for g, w, unit in zip(got, want, (1.0, np.sqrt(41.0))):
        assert np.array_equal(g[block], w[block])
        assert float(np.max(np.abs(g - w) / unit / scale)) <= 1e-13


@pytest.mark.parametrize("h", [0.005, 0.01])
def test_lattice_reads_agree_bitwise_on_shared_nodes(h):
    # two overlapping sub-ranges of one lattice, and its anchors against
    # the direct read
    c = -5.0 + 1.0j
    a = airy_ai_and_prime_lattice(c, h, range(-37, 300))
    b = airy_ai_and_prime_lattice(c, h, range(101, 777))
    anchors = np.arange(0, 300, 64)
    direct = airy_ai_and_prime(c + anchors * h)
    for ga, gb, d in zip(a, b, direct):
        assert np.array_equal(ga[101 + 37:], gb[:300 - 101])
        assert np.array_equal(ga[anchors + 37], d)


@pytest.mark.parametrize("c", [2.0j, -0.75j], ids=["upper", "lower"])
@pytest.mark.parametrize("h", [0.005, 0.01])
def test_lattice_read_bits_do_not_depend_on_the_read_shape(h, c):
    # one read of Re z from -39.5 to 39.5 on the far-sector lines of the
    # mpmath test (15,800 nodes at h = 0.005), and 50 seeded sub-ranges of
    # it: each sub-range's count of anchors makes a product of another
    # shape, and every shared node must keep its bits
    ks = range(-round(39.5 / h), round(39.5 / h))
    whole = airy_ai_and_prime_lattice(c, h, ks)
    rng = np.random.default_rng(2901)
    for start, stop in np.sort(rng.integers(ks.start, ks.stop + 1, size=(50, 2)), axis=1):
        part = airy_ai_and_prime_lattice(c, h, range(start, stop))
        for w, p in zip(whole, part):
            assert np.array_equal(w[start - ks.start:stop - ks.start], p), (start, stop)


@pytest.mark.parametrize("starts, h, ks", [
    # the default verify grid's read: the default profile's six level
    # starts at t = 0.3, S - ib - lambda_n, and one with a -0.0 imaginary part
    ([complex(-0.0225 - lam, -0.09) for lam in (1.0188, 2.3381, 3.2482, 4.0879, 4.8201,
                                                5.5206)] + [complex(-2.0, -0.0)],
     0.005, range(-1, 3202)),
    # 0.001's end block has its anchor at z = 40.001 and is read directly;
    # the other starts' blocks all take the series
    ([-5.0 + 1.0j, 0.001, -0.5 - 0.25j], 0.005, range(7900, 8000)),
    # a step too coarse for the series: every node is read directly
    ([-3.0 + 1.0j, 1.0j, -0.5], 0.02, range(-500, 400)),
], ids=["default-h", "end-block-direct", "coarse-h"])
def test_lattice_read_of_many_starts_is_each_start_read_alone(starts, h, ks):
    many = airy_ai_and_prime_lattice(np.array(starts), h, ks)
    for i, c in enumerate(starts):
        alone = airy_ai_and_prime_lattice(c, h, ks)
        for m, a in zip(many, alone):
            assert m.shape == (len(starts), len(ks)) and a.shape == (len(ks),)
            assert np.array_equal(m[i], a), (c, i)


def test_lattice_read_of_many_starts_refuses_what_a_start_alone_refuses():
    # one start whose range leaves the disc refuses the whole read
    with pytest.raises(ValueError) as alone:
        airy_ai_and_prime_lattice(39.9 + 0.0j, 0.005, range(0, 100))
    with pytest.raises(ValueError) as many:
        airy_ai_and_prime_lattice(np.array([-1.0 + 0.0j, 39.9 + 0.0j]), 0.005, range(0, 100))
    assert str(many.value) == str(alone.value)
    with pytest.raises(ValueError, match="1-d array"):
        airy_ai_and_prime_lattice(np.zeros((2, 2), dtype=complex), 0.005, range(0, 10))


def test_lattice_read_refuses_a_strided_range():
    with pytest.raises(ValueError, match="step 1"):
        airy_ai_and_prime_lattice(0.0, 0.005, range(0, 10, 2))


@pytest.mark.parametrize("terms", [3, 19, 32, 80])
def test_nonfinite_anchor_gives_nonfinite_series_values(terms):
    # a NaN or infinity in Ai or Ai' at an anchor, the anchor z = 0 among
    # them, reaches every node of its block, the anchor itself included;
    # the one finite anchor keeps its block finite
    inf, nan = np.inf, np.nan
    za = np.array([1.0 + 1.0j, -2.0 + 0.5j, 0.0, 3.0, -1.0, 2.0j, 0.5])
    ai = np.array([inf, 0.3, complex(0.0, inf), nan, 0.2, 0.1, 0.2], dtype=complex)
    aip = np.array([0.1, complex(-inf, 0.0), 0.2, 0.4, nan, complex(nan, 0.0), -0.1],
                   dtype=complex)
    # every anchor reads the one step vector (s - 32) 0.005, s = 0 ... 63
    with np.errstate(all="ignore"):
        vals, ders = airy._taylor_rows(za, ai, aip, 0.005, terms)
    for out in (vals, ders):
        assert not np.isfinite(out[:-1]).any()
        assert np.isfinite(out[-1]).all()
