"""Tests for the static |x|-well spectrum: eigenvalues from Airy zeros,
normalization constants, matched piecewise eigenfunctions, densities."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from airywell.spectrum import (
    MAX_LEVEL,
    EigenfunctionSample,
    density,
    eigenfunction,
    eigenfunction_continued,
    level,
    sample_eigenfunction,
    tail_integral,
)


def _oracle_level(n):
    """Independent level data via mpmath zeros and evaluations (30 digits)."""
    with mp.workdps(30):
        if n % 2 == 0:
            a = mp.airyaizero(n // 2 + 1, derivative=1)
            lam = -a
            norm = 1 / (mp.sqrt(-2 * a) * mp.airyai(a))
        else:
            a = mp.airyaizero((n + 1) // 2)
            lam = -a
            norm = 1 / (mp.sqrt(2) * mp.airyai(a, derivative=1))
        return float(lam), float(norm)


# Frozen from _oracle_level; kept as literals so a broken oracle import
# cannot silently weaken the checks.
FROZEN_LEVELS = {
    0: (1.01879297164747109, 1.30784274110793976),
    1: (2.33810741045976704, 1.00840825365897791),
    2: (3.24819758217983654, -0.936340302858948409),
    3: (4.08794944413097062, -0.880459183998883887),
}


def test_levels_match_frozen_values():
    for n, (lam, norm) in FROZEN_LEVELS.items():
        lev = level(n)
        assert lev.n == n
        assert lev.parity == ("even" if n % 2 == 0 else "odd")
        assert lev.eigenvalue == pytest.approx(lam, rel=1e-14)
        assert lev.norm_const == pytest.approx(norm, rel=1e-14)


def test_frozen_values_match_independent_oracle():
    for n, (lam, norm) in FROZEN_LEVELS.items():
        olam, onorm = _oracle_level(n)
        assert lam == pytest.approx(olam, rel=1e-15)
        assert norm == pytest.approx(onorm, rel=1e-15)


def test_levels_match_oracle_up_to_twelve():
    for n in range(13):
        lev = level(n)
        olam, onorm = _oracle_level(n)
        assert lev.eigenvalue == pytest.approx(olam, rel=1e-13)
        assert lev.norm_const == pytest.approx(onorm, rel=1e-13)


def test_level_index_validation():
    with pytest.raises(ValueError):
        level(-1)
    with pytest.raises(ValueError):
        level(MAX_LEVEL + 1)
    assert level(MAX_LEVEL).eigenvalue > 0


def test_eigenvalues_strictly_increase():
    lams = [level(n).eigenvalue for n in range(21)]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert all(lam > 0 for lam in lams)


def test_matching_conditions_at_origin():
    # even: slope vanishes at 0+ (one-sided difference on the smooth branch);
    # odd: value vanishes identically through sgn(0) = 0.
    h = 1e-5
    for n in (0, 2, 6):
        slope = (eigenfunction(n, h) - eigenfunction(n, 0.0)) / h
        assert abs(slope) < 1e-5
        # richer check: symmetric second-order one-sided difference
        slope2 = (-3 * eigenfunction(n, 0.0) + 4 * eigenfunction(n, h)
                  - eigenfunction(n, 2 * h)) / (2 * h)
        assert abs(slope2) < 1e-8
    for n in (1, 3, 7):
        assert eigenfunction(n, 0.0) == 0.0
        assert density(n, 0.0) == 0.0


def test_origin_value_for_ground_state():
    # N0 * Ai(-lambda0) collapses to 1/sqrt(2 lambda0) at a derivative zero
    want = 1.0 / np.sqrt(2.0 * level(0).eigenvalue)
    assert eigenfunction(0, 0.0) == pytest.approx(want, rel=1e-13)
    assert density(0, 0.0) == pytest.approx(1.0 / (2.0 * level(0).eigenvalue), rel=1e-13)


def test_parity_symmetry_on_grid():
    x = np.linspace(0.0, 9.0, 181)
    for n in (0, 2, 5, 9):
        left = eigenfunction(n, -x)
        right = eigenfunction(n, x)
        if n % 2 == 0:
            np.testing.assert_allclose(left, right, rtol=0, atol=1e-15)
        else:
            np.testing.assert_allclose(left, -right, rtol=0, atol=1e-15)


def test_eigen_residual_five_point():
    # -phi'' + |x| phi = lambda phi on [-12, 12] at dx = 0.005, second
    # derivative by five-point central differences (the three-point stencil's
    # h^2 lambda^2 truncation error already exceeds 1e-5 for n >= 2).
    # Stencils that straddle x = 0 are excluded for both parities: the |x|
    # kink leaves even states with a third-derivative jump at the origin, so
    # no straddling stencil converges at high order there.  The origin itself
    # is covered by the matching-condition test.
    dx = 0.005
    x = np.arange(-12.0, 12.0 + dx / 2, dx)
    for n in (0, 1, 2, 3, 8, 21, 40):
        lev = level(n)
        vals = eigenfunction(n, x)
        d2 = (-vals[:-4] + 16 * vals[1:-3] - 30 * vals[2:-2] + 16 * vals[3:-1]
              - vals[4:]) / (12 * dx * dx)
        xi = x[2:-2]
        res = -d2 + (np.abs(xi) - lev.eigenvalue) * vals[2:-2]
        keep = np.abs(xi) > 2 * dx + 1e-12
        rel = np.max(np.abs(res[keep])) / np.max(np.abs(vals))
        assert rel < 1e-5, f"n={n}: {rel:.3e}"


def test_full_line_normalization():
    for n in range(6):
        lam = level(n).eigenvalue
        cut = lam + 15.0          # tail truncation: Ai^2 < 1e-25 beyond it
        val, _ = quad(lambda xx: density(n, xx), -cut, cut,
                      points=[0.0], limit=400, epsabs=1e-10, epsrel=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_half_line_weight_is_exactly_half():
    # int_0^inf phi^2 = N^2 int_{-lam}^inf Ai^2 = N^2 (Ai'^2 + lam Ai^2)
    # at -lam, which both parity branches reduce to 1/2.
    for n in range(8):
        lev = level(n)
        w = lev.norm_const**2 * tail_integral(-lev.eigenvalue)
        assert w == pytest.approx(0.5, abs=1e-12)


def test_half_line_weight_by_quadrature():
    for n in (0, 1, 4):
        lam = level(n).eigenvalue
        val, _ = quad(lambda xx: density(n, xx), 0.0, lam + 15.0, limit=400)
        assert val == pytest.approx(0.5, abs=1e-8)


def test_orthonormality():
    cut = level(6).eigenvalue + 15.0
    for m in range(7):
        for n in range(m, 7):
            val, _ = quad(lambda xx: eigenfunction(m, xx) * eigenfunction(n, xx),
                          -cut, cut, points=[0.0], limit=400)
            want = 1.0 if m == n else 0.0
            assert val == pytest.approx(want, abs=1e-6), (m, n)


def test_continued_restricts_to_real_branches():
    # imaginary parts are floating residue only (the complex kernel leaves
    # ~1e-16 behind on the real axis)
    xs = np.linspace(0.0, 8.0, 33)
    for n in (0, 1, 4, 11):
        r1 = eigenfunction_continued(n, xs.astype(complex), 1)
        r2 = eigenfunction_continued(n, (-xs).astype(complex), 2)
        np.testing.assert_allclose(r1.imag, 0.0, atol=1e-13)
        np.testing.assert_allclose(r2.imag, 0.0, atol=1e-13)
        v1 = eigenfunction(n, xs)
        v2 = eigenfunction(n, -xs)
        if n % 2 == 1:
            # sgn(0) = 0 zeroes the direct value at the origin; the branch
            # value there is N Ai(-lam) = 0 up to the zero-finder residual
            assert abs(r1[0]) < 1e-12 and abs(r2[0]) < 1e-12
            np.testing.assert_allclose(r1[1:].real, v1[1:], rtol=1e-12)
            np.testing.assert_allclose(r2[1:].real, v2[1:], rtol=1e-12)
        else:
            np.testing.assert_allclose(r1.real, v1, rtol=1e-12)
            np.testing.assert_allclose(r2.real, v2, rtol=1e-12)


def test_continued_schwarz_reflection():
    zs = np.array([0.3 + 0.4j, -1.2 + 0.9j, 2.0 - 1.5j, 0.1j])
    for n in (0, 3):
        for region in (1, 2):
            up = eigenfunction_continued(n, zs, region)
            down = eigenfunction_continued(n, np.conj(zs), region)
            np.testing.assert_allclose(np.conj(down), up, rtol=1e-13)


def test_continued_branch_solves_shifted_ode():
    # region 1 branch: -psi'' + z psi = lambda psi for the smooth continuation
    h = 1e-4
    zs = [0.5 + 0.2j, -0.3 + 1.0j, 1.7 - 0.6j]
    for n in (0, 1):
        lam = level(n).eigenvalue
        for z in zs:
            f = lambda w: eigenfunction_continued(n, w, 1)
            d2 = (f(z + h) - 2 * f(z) + f(z - h)) / (h * h)
            res = -d2 + (z - lam) * f(z)
            assert abs(res) < 1e-6 * max(abs(f(z)), 1e-3)


def test_continued_region_2_on_real_axis_matches_oracle():
    # region 2 evaluates Ai(-z - lambda): on a real z that argument carries
    # a -0.0 imaginary part, which must not select the wrong side of a cut
    for n in (0, 1, 2, 3):
        lam, norm = _oracle_level(n)
        sign = 1.0 if n % 2 == 0 else -1.0
        for x in (0.5, 2.0, 6.0, 12.0):
            with mp.workdps(30):
                want = sign * norm * float(mp.airyai(-mp.mpf(x) - mp.mpf(lam)))
            got = eigenfunction_continued(n, x, 2)
            assert abs(got - want) <= 1e-10 * abs(want) + 1e-14, (n, x)


def test_continued_region_validation():
    with pytest.raises(ValueError):
        eigenfunction_continued(0, 0.5 + 0.0j, 3)


def test_sample_records():
    s = sample_eigenfunction(2, -0.7)
    assert isinstance(s, EigenfunctionSample)
    assert s.region == "auto"
    assert s.value.imag == 0.0
    assert s.value.real == pytest.approx(eigenfunction(2, -0.7), rel=1e-15)

    s1 = sample_eigenfunction(1, 0.4 + 0.2j, region="1")
    assert s1.value == eigenfunction_continued(1, 0.4 + 0.2j, 1)

    with pytest.raises(ValueError):
        sample_eigenfunction(0, 0.4 + 0.2j, region="auto")
    with pytest.raises(ValueError):
        sample_eigenfunction(0, 0.4, region="left")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=20),
    x=st.floats(min_value=-11.0, max_value=11.0, allow_nan=False),
)
def test_density_is_square_of_eigenfunction(n, x):
    v = eigenfunction(n, x)
    d = density(n, x)
    assert d >= 0.0
    assert d == pytest.approx(v * v, rel=1e-14, abs=1e-300)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=16),
    x=st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
)
def test_parity_relation_everywhere(n, x):
    sign = 1.0 if n % 2 == 0 else -1.0
    assert eigenfunction(n, -x) == pytest.approx(sign * eigenfunction(n, x), rel=1e-13, abs=1e-300)
