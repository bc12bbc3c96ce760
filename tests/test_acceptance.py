"""Acceptance criteria, one test per criterion, one line per verdict.

Each test prints its verdict directly to the real stdout so that the
summary survives pytest capture.  Criterion 5 is expected to fail and is
marked as a strict expected failure: the glued closed form violates the
evolution equation at x = 0 for t > 0 (kinked even states, discontinuous
odd states), so an honest full-line propagation walks away from it near
the origin.  The measured departure and the half-line control run that
isolates the defect live in test_criterion_5_supplement.
"""

import dataclasses
import math
import time

import conftest
import numpy as np
import pytest
from scipy.integrate import quad

from airywell import verify
from airywell.airy import airy_eval, airy_eval_many
from airywell.cli import main as cli_main
from airywell.profiles import TimeProfile, coefficients_at
from airywell.spectrum import density, eigenfunction, level, tail_integral
from airywell.verify import (
    Grid1D,
    crank_nicolson_propagate,
    invariant_eigen_residual,
    pseudo_hermiticity_check,
    tdse_residual,
    von_neumann_residual,
)
from airywell.wavefunction import (
    assemble_wavefunction,
    phase,
    reconstructed_density,
    wavefunction_branch,
)

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
PROFILES = (("m=1,f=1", UNIT), ("m=1,f=0", FREE), ("m=exp(t),f=cos(t)", WAVY))


def _verdict(num: int, ok: bool, detail: str):
    mark = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {mark} - {detail}"
    conftest.record_verdict(line)
    print(line)


# ---------------------------------------------------------- criterion 1


def _oracle_pair(x: float):
    """Maclaurin evaluation of the decaying kernel and its slope, |x| <= 4.

    Built from scratch for independence: two power series with rational
    term recurrences and Gamma-function front factors.
    """
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    tf, tg = 1.0, x
    f, g = tf, tg
    fp, gp = 0.0, 1.0
    for k in range(1, 90):
        tf = tf * x**3 / ((3 * k - 1) * (3 * k))
        tg = tg * x**3 / ((3 * k) * (3 * k + 1))
        f += tf
        g += tg
        if x != 0.0:
            fp += tf * (3 * k) / x
            gp += tg * (3 * k + 1) / x
        if abs(tf) + abs(tg) < 1e-22 * (abs(f) + abs(g)):
            break
    return c1 * f - c2 * g, c1 * fp - c2 * gp


def _oracle_root(fun, dfun, lo: float, hi: float) -> float:
    flo = fun(lo)
    assert flo * fun(hi) < 0.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    x = 0.5 * (lo + hi)
    for _ in range(12):
        x = x - fun(x) / dfun(x)
    return x


def test_criterion_1_eigenvalues():
    start = time.perf_counter()
    ai = lambda x: _oracle_pair(x)[0]
    aip = lambda x: _oracle_pair(x)[1]
    aipp = lambda x: x * _oracle_pair(x)[0]
    lam0_oracle = -_oracle_root(aip, aipp, -1.2, -0.9)
    lam1_oracle = -_oracle_root(ai, aip, -2.5, -2.2)
    elapsed = time.perf_counter() - start

    lam0, lam1 = level(0).eigenvalue, level(1).eigenvalue
    ok = (abs(lam0 - 1.0187929716) <= 1e-9 and abs(lam1 - 2.3381074105) <= 1e-9
          and abs(lam0 - lam0_oracle) <= 1e-9 and abs(lam1 - lam1_oracle) <= 1e-9
          and elapsed < 1.0)
    _verdict(1, ok, f"lambda0={lam0:.10f} lambda1={lam1:.10f} "
                    f"(oracle agrees to {max(abs(lam0 - lam0_oracle), abs(lam1 - lam1_oracle)):.1e}, "
                    f"{elapsed * 1e3:.0f} ms)")
    assert abs(lam0 - 1.0187929716) <= 1e-9
    assert abs(lam1 - 2.3381074105) <= 1e-9
    assert abs(lam0 - lam0_oracle) <= 1e-9
    assert abs(lam1 - lam1_oracle) <= 1e-9
    assert elapsed < 1.0


# ---------------------------------------------------------- criterion 2


def test_criterion_2_normalization_and_equiprobability():
    start = time.perf_counter()
    worst_half = worst_full = 0.0
    for n in range(6):
        lam = level(n).eigenvalue
        top = lam + 15.0
        right, _ = quad(lambda x, n=n: density(n, x), 0.0, top,
                        epsabs=1e-10, epsrel=1e-10, limit=200)
        left, _ = quad(lambda x, n=n: density(n, x), -top, 0.0,
                       epsabs=1e-10, epsrel=1e-10, limit=200)
        worst_half = max(worst_half, abs(right - 0.5), abs(left - 0.5))
        worst_full = max(worst_full, abs(left + right - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_half <= 1e-8 and worst_full <= 1e-8 and elapsed < 5.0
    _verdict(2, ok, f"half-line worst {worst_half:.2e}, full-line worst "
                    f"{worst_full:.2e} (n=0..5, {elapsed:.1f} s)")
    assert worst_half <= 1e-8
    assert worst_full <= 1e-8
    assert elapsed < 5.0


# ---------------------------------------------------------- criterion 3


def test_criterion_3_density_figures(tmp_path):
    assert cli_main(["density", "--n", "0,2,4,1,3,5",
                     "--out", str(tmp_path)]) == 0
    tables = {}
    for n in (0, 1, 2, 3, 4, 5):
        rows = (tmp_path / f"density_n{n}.csv").read_text().splitlines()[1:]
        data = np.array([[float(c) for c in row.split(",")] for row in rows])
        tables[n] = data
    x = tables[0][:, 0]
    mid = int(np.argmin(np.abs(x)))
    lam0 = level(0).eigenvalue

    peak_err = abs(tables[0][mid, 1] - 1.0 / (2.0 * lam0))
    odd_at_zero = max(abs(tables[n][mid, 1]) for n in (1, 3, 5))
    even_slope = max(abs(tables[n][mid + 1, 1] - tables[n][mid - 1, 1]) / (x[mid + 1] - x[mid - 1])
                     for n in (0, 2, 4))
    node_ok = True
    for n in range(6):
        phi = eigenfunction(n, x)
        nz = phi[np.abs(phi) > 1e-300]
        changes = int(np.sum(np.sign(nz[1:]) * np.sign(nz[:-1]) < 0))
        node_ok &= changes == n
    peaks = [float(np.max(tables[n][:, 1])) for n in range(6)]
    ordering_ok = all(a > b for a, b in zip(peaks, peaks[1:]))

    ok = (peak_err <= 1e-8 and odd_at_zero == 0.0 and even_slope < 1e-6
          and node_ok and ordering_ok)
    _verdict(3, ok, f"peak err {peak_err:.1e}, odd at 0 = {odd_at_zero:.1e}, "
                    f"even slope {even_slope:.1e}, node counts and peak "
                    f"ordering both correct")
    assert peak_err <= 1e-8
    assert odd_at_zero == 0.0
    assert even_slope < 1e-6
    assert node_ok
    assert ordering_ok


# ---------------------------------------------------------- criterion 4


def test_criterion_4_kernel_wronskian_and_tail():
    side = np.linspace(-8.0, 8.0, 10)
    re, im = np.meshgrid(side, side)
    zs = (re + 1j * im).ravel()
    ai, aip, bi, bip = airy_eval_many(zs)
    # the two cross products can be exponentially larger than their
    # difference, so the honest relative scale is their magnitude
    scale = np.maximum(np.abs(ai * bip), np.abs(aip * bi))
    scale = np.maximum(scale, 1.0 / math.pi)
    worst = float(np.max(np.abs(ai * bip - aip * bi - 1.0 / math.pi) / scale))

    tail_worst = 0.0
    for a in (-2.0, -1.0, 0.0, 0.5, 1.0):
        # the kernel tail beyond x = 40 is ~1e-300, far below the tolerance
        direct, _ = quad(lambda x: float(airy_eval(x).ai.real) ** 2, a, 39.9,
                         epsabs=1e-12, limit=300)
        closed = tail_integral(a)
        tail_worst = max(tail_worst, abs(direct - closed))

    ok = worst <= 1e-10 and tail_worst <= 1e-8
    _verdict(4, ok, f"wronskian worst rel {worst:.2e} on 100-point lattice, "
                    f"tail identity worst {tail_worst:.2e} at 5 points")
    assert worst <= 1e-10
    assert tail_worst <= 1e-8


# ---------------------------------------------------------- criterion 5


def _criterion5_run(profile, n, dx=0.01):
    """Max deviation of CN on [-20, 20] from the glued closed form at t = 0.5."""
    grid = Grid1D.centered(20.0, dx)
    init = assemble_wavefunction(profile, n, 0.0, grid.nodes)
    res = crank_nicolson_propagate(profile, init, 0.0, 0.5, 1e-4)
    target = assemble_wavefunction(profile, n, 0.5, grid.nodes)
    return float(np.max(np.abs(res.values - target.values)))


@pytest.mark.xfail(
    strict=True,
    reason="the glued closed form is not a full-line solution: even states "
           "kink and odd states jump at x = 0 for t > 0, so honest "
           "propagation departs near the origin (measured max deviation "
           "1.5e-1 for m=1,f=1; 6.7e-2 for m=1,f=0; 1.2e-1 for the "
           "exponential-mass profile; threshold 1e-3). The half-line "
           "control run passes at 7.8e-6; see "
           "test_criterion_5_supplement_half_line_control.")
def test_criterion_5_propagation_matches_closed_form():
    devs = {}
    ok = True
    for label, prof in PROFILES:
        start = time.perf_counter()
        for n in (0, 1, 2):
            devs[(label, n)] = _criterion5_run(prof, n)
        per_profile = time.perf_counter() - start
        assert per_profile < 120.0
        ok &= all(devs[(label, n)] <= 1e-3 for n in (0, 1, 2))
    worst = max(devs.values())
    _verdict(5, ok, f"max pointwise deviation {worst:.3e} vs 1e-3 "
                    f"(per-(profile,n): "
                    + ", ".join(f"{k[0]}/n={k[1]}: {v:.1e}" for k, v in devs.items())
                    + ")")
    assert worst <= 1e-3


def _half_line_run(profile, n, dx=0.01):
    """Max deviation of CN on [0, 20], fed the region-1 branch at x = 0,
    from that branch at t = 0.5."""
    xs = Grid1D.half_line(20.0, dx, 1).nodes

    class _S:
        grid = xs
        values = wavefunction_branch(profile, n, 1, xs.astype(complex), 0.0)

    def feed(t):
        return complex(wavefunction_branch(profile, n, 1, np.array([0j]), t)[0]), 0.0

    res = crank_nicolson_propagate(profile, _S(), 0.0, 0.5, 2e-4, boundary=feed)
    target = wavefunction_branch(profile, n, 1, xs.astype(complex), 0.5)
    return float(np.max(np.abs(res.values - target)))


def test_criterion_5_supplement_half_line_control():
    # same propagator, same profiles, but on one region with the analytic
    # branch value fed in at x = 0: the branch formulas do solve the
    # equation, pinning the criterion-5 failure on the origin gluing
    worst = max(_half_line_run(prof, n) for _, prof in PROFILES for n in (0, 1, 2))
    ok = worst <= 1e-3
    _verdict(5, ok, f"(supplement) half-line control worst deviation "
                    f"{worst:.3e} vs 1e-3: branch formulas solve the "
                    f"equation; the full-line gluing is the defect")
    assert worst <= 1e-3


def test_criterion_5_deviation_order_under_grid_refinement():
    # halving dx must cut the half-line deviation by 4, as second-order
    # discretization error does, and leave the full-line one as it was:
    # the gluing at x = 0 is not a grid effect
    half, full = {}, {}
    for n in (0, 1):
        coarse, fine = (_half_line_run(WAVY, n, dx) for dx in (0.04, 0.02))
        half[n] = coarse / fine
        coarse, fine = (_criterion5_run(WAVY, n, dx) for dx in (0.04, 0.02))
        full[n] = coarse / fine
    ok = (all(abs(r - 4.0) <= 0.05 for r in half.values())
          and all(abs(r - 1.0) <= 0.01 for r in full.values()))
    _verdict(5, ok, "(order) m=exp(t),f=cos(t), dx 0.04 -> 0.02: half-line ratios "
                    + ", ".join(f"n={n}: {r:.3f}" for n, r in half.items())
                    + " vs 4 +- 0.05; full-line ratios "
                    + ", ".join(f"n={n}: {r:.3f}" for n, r in full.items())
                    + " vs 1 +- 0.01: the x = 0 deviation does not shrink with the grid")
    assert all(abs(r - 4.0) <= 0.05 for r in half.values())
    assert all(abs(r - 1.0) <= 0.01 for r in full.values())


# ---------------------------------------------------------- criterion 6


def test_criterion_6_tdse_residual():
    grid = Grid1D.centered(16.0, 0.005)
    worst = 0.0
    for label, prof in PROFILES:
        for n in (0, 1, 2):
            for t in (0.1, 0.3, 0.5):
                worst = max(worst, tdse_residual(prof, n, t, grid))
    ok = worst <= 1e-4
    _verdict(6, ok, f"worst relative L2 residual {worst:.2e} vs 1e-4 "
                    f"(3 profiles x n in 0..2 x t in {{0.1, 0.3, 0.5}})")
    assert worst <= 1e-4


# ---------------------------------------------------------- criterion 7


def test_criterion_7_invariant_suite(monkeypatch):
    rng = np.random.default_rng(516)
    half = {1: Grid1D.half_line(16.0, 0.005, 1),
            2: Grid1D.half_line(16.0, 0.005, 2)}
    worst_eig = worst_vn = worst_ph = 0.0
    for label, prof in PROFILES:
        t_hi = min(0.9 * prof.window, 1.4)
        for t in rng.uniform(0.05, t_hi, 10):
            t = float(t)
            for region in (1, 2):
                worst_vn = max(worst_vn, von_neumann_residual(prof, region, t,
                                                              half[region]))
                worst_ph = max(worst_ph, pseudo_hermiticity_check(prof, t, region))
                for n in (0, 1, 2):
                    worst_eig = max(worst_eig, invariant_eigen_residual(
                        prof, n, region, t, half[region]))

    # negative controls must fail their thresholds: the metric exponent's
    # alpha = k read off by 1e-3, and H built with the coupling's sign flipped
    real = verify.coefficients_at

    def k_off(*args):
        c = real(*args)
        return dataclasses.replace(c, k=c.k + 1e-3)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "coefficients_at", k_off)
        ctrl_alpha = pseudo_hermiticity_check(UNIT, 0.7, 1)
    ctrl_k = tdse_residual(UNIT, 0, 0.3, Grid1D.centered(16.0, 0.005),
                           flip_coupling_sign=True)

    ok = (worst_eig <= 1e-3 and worst_vn <= 1e-4 and worst_ph <= 1e-12
          and ctrl_alpha > 1e-4 and ctrl_k > 1e-1)
    _verdict(7, ok, f"eigen {worst_eig:.2e} vs 1e-3, conservation "
                    f"{worst_vn:.2e} vs 1e-4, metric {worst_ph:.2e} vs 1e-12; "
                    f"controls: alpha {ctrl_alpha:.1e} > 1e-4, "
                    f"wrong-sign {ctrl_k:.1e} > 1e-1")
    assert worst_eig <= 1e-3
    assert worst_vn <= 1e-4
    assert worst_ph <= 1e-12
    assert ctrl_alpha > 1e-4
    assert ctrl_k > 1e-1


# ---------------------------------------------------------- criterion 8


def test_criterion_8_phase_reality_and_closed_forms():
    lam0 = level(0).eigenvalue
    worst_phase = 0.0
    for t in (0.25, 0.5, 1.0):
        got = phase(FREE, 0, 1, t)
        assert isinstance(got, float)
        want = -t**3 / 16.0 - lam0 * t / 2.0
        worst_phase = max(worst_phase, abs(got - want))

    # the tables against elementary antiderivatives written out here, for
    # six built-in family pairs, coefficient by coefficient (s = -k^2/4)
    def build(mass, coupling):
        return TimeProfile.from_config({"mass": mass, "coupling": coupling, "window": 2.0})

    def g_exp(m0, ga):
        return lambda t: -(1.0 - math.exp(-ga * t)) / (m0 * ga)

    pairs = {
        "const-const": (UNIT, lambda t: -t, lambda t: 2.0 * t, lambda t: -t * t / 2.0),
        "const-zero": (FREE, lambda t: -t, lambda t: 0.0, lambda t: 0.0),
        "const-linear": (
            build({"family": "constant", "m0": 1.3}, {"family": "linear", "f0": 0.7}),
            lambda t: -t / 1.3, lambda t: 0.7 * t * t, lambda t: -0.7 * t**3 / (3.0 * 1.3)),
        "const-sin": (
            build({"family": "constant", "m0": 0.9},
                  {"family": "sinusoidal", "f0": 0.8, "omega": 1.7}),
            lambda t: -t / 0.9, lambda t: 1.6 * math.sin(1.7 * t) / 1.7,
            lambda t: -(0.8 / 0.9) * (t * math.sin(1.7 * t) / 1.7
                                      + (math.cos(1.7 * t) - 1.0) / 1.7**2)),
        "exp-const": (
            build({"family": "exponential", "m0": 1.1, "gamma": 0.5},
                  {"family": "constant", "f0": 0.6}),
            g_exp(1.1, 0.5), lambda t: 1.2 * t,
            lambda t: -(0.6 / (1.1 * 0.5)) * (t - (1.0 - math.exp(-0.5 * t)) / 0.5)),
        # m = e^t, f = cos t: w = -int_0^t cos(u) (1 - e^{-u}) du
        "exp-sin": (
            WAVY, g_exp(1.0, 1.0), lambda t: 2.0 * math.sin(t),
            lambda t: -math.sin(t) + (math.exp(-t) * (math.sin(t) - math.cos(t)) + 1.0) / 2.0),
    }
    worst_routes = 0.0
    for prof, g, k, w in pairs.values():
        for t in (0.3, 0.9, 1.5):
            c = coefficients_at(prof, t)
            for table_val, closed_val in ((c.g, g(t)), (c.k, k(t)),
                                          (c.s, -k(t) ** 2 / 4.0), (c.w, w(t))):
                worst_routes = max(worst_routes, abs(closed_val - table_val))

    ok = worst_phase <= 1e-8 and worst_routes <= 1e-8
    _verdict(8, ok, f"free-profile phase err {worst_phase:.2e} vs 1e-8, "
                    f"phases real by type, tables vs closed forms worst "
                    f"{worst_routes:.2e} vs 1e-8 over 6 family pairs")
    assert worst_phase <= 1e-8
    assert worst_routes <= 1e-8


# ---------------------------------------------------------- criterion 9


def test_criterion_9_density_time_independence():
    grid = np.linspace(-16.0, 16.0, 3201)
    worst = 0.0
    for label, prof in PROFILES:
        for n in (0, 1, 2):
            static = density(n, grid)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                rec = reconstructed_density(prof, n, t, grid)
                worst = max(worst, float(np.max(np.abs(rec - static))))
    ok = worst <= 1e-6
    _verdict(9, ok, f"sup deviation of reconstructed density {worst:.2e} "
                    f"vs 1e-6 (3 profiles x n in 0..2 x 5 times in [0, 1])")
    assert worst <= 1e-6
