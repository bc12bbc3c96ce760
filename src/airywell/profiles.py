"""Mass and coupling histories and the time functions derived from them.

A model run is fixed by two real inputs on a window [0, T]: a strictly
positive mass history m(t) and the coupling f(t) that scales the
imaginary absolute-value potential.  Four primitives, all with lower
limit 0 so that every derived quantity vanishes at t = 0, drive the rest
of the package:

    g = -int_0^t dtau/m,   k = 2 int_0^t f,
    s = -int_0^t f k,      w =  int_0^t f g.

Because k' = 2f, the third primitive collapses exactly: s = -k^2/4 (and
hence k^2 + 4s = 0).  The code keeps the defining integral on the table
path and uses the collapse only where a closed form is wanted; the two
routes agreeing is one of the test-suite guards.

Pointwise combinations used by the solution and its phases:

    theta = (f/2) (k g/2 - w)
    chi1  = theta - (k^2 + 3 g^2 + 4 s)/(16 m)
    chi2  = theta + (k^2 - g^2 + 4 s)/(16 m)
    zeta  = -(k/4) (g k/2 - w)

and the level-n phase in region j,

    eps = int_0^t chi_j dtau - lambda_n int_0^t dtau/(2m)
        = int_0^t chi_j dtau + lambda_n g/2.

Nested integrals are evaluated on one shared knot-aligned Simpson grid
per profile (see quadrature), refined until successive builds agree to
1e-10 at shared nodes; built-in families use closed forms instead where
they exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .quadrature import CumulativeTable, SimpsonGrid
from .spectrum import level

__all__ = [
    "MAX_WINDOW",
    "ConstantMass",
    "ExponentialMass",
    "PowerMass",
    "SampledMass",
    "ZeroCoupling",
    "ConstantCoupling",
    "LinearCoupling",
    "SinusoidalCoupling",
    "SampledCoupling",
    "TimeProfile",
    "CoefficientSet",
    "InvariantCoefficients",
    "coefficients_at",
    "invariant_coefficients",
    "phase",
    "shift_reorder_phase",
]

_TABLE_TOL = 1e-10
_MAX_TOTAL_PANELS = 2**17
# the longest window: at 1e6 the panel budget leaves panels no finer than
# 7.6 time units, and at 1e300 the table arithmetic overflows
MAX_WINDOW = 1e6
# a rate gamma or omega below this counts as zero: over any window
# |rate t| < 1e-294, so the zero-rate limit is exact in double precision,
# while dividing by a subnormal rate (or by m0 times it) loses every digit
_NEGLIGIBLE_RATE = 1e-300


# ------------------------------------------------------------ mass laws


@dataclass(frozen=True)
class ConstantMass:
    m0: float

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.m0)

    def inverse_integral(self, t):
        """int_0^t dtau/m, closed form."""
        return np.asarray(t, dtype=float) / self.m0


@dataclass(frozen=True)
class ExponentialMass:
    m0: float
    gamma: float

    def value(self, t):
        return self.m0 * np.exp(self.gamma * np.asarray(t, dtype=float))

    def inverse_integral(self, t):
        t = np.asarray(t, dtype=float)
        if abs(self.gamma) < _NEGLIGIBLE_RATE:
            return t / self.m0
        # expm1 keeps the gamma -> 0 limit t/m0 to full precision
        return -np.expm1(-self.gamma * t) / (self.m0 * self.gamma)


@dataclass(frozen=True)
class PowerMass:
    m0: float
    gamma: float
    alpha: float

    def value(self, t):
        return self.m0 * (1.0 + self.gamma * np.asarray(t, dtype=float)) ** self.alpha

    def inverse_integral(self, t):
        t = np.asarray(t, dtype=float)
        if abs(self.gamma) < _NEGLIGIBLE_RATE:
            return t / self.m0
        # log1p/expm1 keep the gamma -> 0 limit t/m0 to full precision
        lb = np.log1p(self.gamma * t)
        if self.alpha == 1.0:
            return lb / (self.m0 * self.gamma)
        p = 1.0 - self.alpha
        return np.expm1(p * lb) / (self.m0 * self.gamma * p)


@dataclass(frozen=True, eq=False)
class SampledMass:
    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.samples, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("sampled mass needs matching 1-d time/value arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("sampled mass times and values must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if np.any(v <= 0):
            raise ValueError("mass samples must be strictly positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "samples", v)

    def value(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.samples)

    inverse_integral = None


# -------------------------------------------------------- coupling laws


@dataclass(frozen=True)
class ZeroCoupling:
    def value(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def integral(self, t):
        """int_0^t f, closed form."""
        return np.zeros_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ConstantCoupling:
    f0: float

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.f0)

    def integral(self, t):
        return self.f0 * np.asarray(t, dtype=float)


@dataclass(frozen=True)
class LinearCoupling:
    """f(t) = f0 t."""

    f0: float

    def value(self, t):
        return self.f0 * np.asarray(t, dtype=float)

    def integral(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * self.f0 * t * t


@dataclass(frozen=True)
class SinusoidalCoupling:
    """f(t) = f0 cos(omega t)."""

    f0: float
    omega: float

    def value(self, t):
        return self.f0 * np.cos(self.omega * np.asarray(t, dtype=float))

    def integral(self, t):
        t = np.asarray(t, dtype=float)
        if abs(self.omega) < _NEGLIGIBLE_RATE:
            return self.f0 * t
        return self.f0 * np.sin(self.omega * t) / self.omega


@dataclass(frozen=True, eq=False)
class SampledCoupling:
    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.samples, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("sampled coupling needs matching 1-d time/value arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("sampled coupling times and values must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "samples", v)

    def value(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.samples)

    integral = None


_MASS_FAMILIES = {
    "constant": (ConstantMass, ("m0",)),
    "exponential": (ExponentialMass, ("m0", "gamma")),
    "power": (PowerMass, ("m0", "gamma", "alpha")),
}
_COUPLING_FAMILIES = {
    "zero": (ZeroCoupling, ()),
    "constant": (ConstantCoupling, ("f0",)),
    "linear": (LinearCoupling, ("f0",)),
    "sinusoidal": (SinusoidalCoupling, ("f0", "omega")),
}


# ------------------------------------------------------------- results


@dataclass(frozen=True)
class CoefficientSet:
    """The derived time functions at one instant; every field is real.

    shift and b are the magnitudes of the state's maps: the real
    coordinate shift S of the shift-tilt unitary and the imaginary
    translation of the metric root (see `wavefunction`).
    """

    t: float
    g: float
    k: float
    s: float
    w: float
    theta: float
    chi1: float
    chi2: float
    zeta: float
    shift: float             # (k^2 - g^2 + 4s)/4
    b: float                 # gk/2 - w


@dataclass(frozen=True)
class InvariantCoefficients:
    """Coefficients of the quadratic invariant p^2 + x_sign x + p_coeff p + const.

    Region 1 (x >= 0) carries (1, +1, g + ik, s + iw); region 2 (x <= 0)
    carries (1, -1, -g - ik, s + iw).
    """

    region: int
    p2: complex
    x: complex
    p: complex
    const: complex


# ------------------------------------------------------------- profile


@dataclass(frozen=True)
class TimeProfile:
    """The pair (m(t), f(t)) on the window [0, window]."""

    mass: object
    coupling: object
    window: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.window <= MAX_WINDOW:
            raise ValueError(f"window length must be positive and at most {MAX_WINDOW:g}")
        for fam, need in ((self.mass, ("value",)), (self.coupling, ("value",))):
            for meth in need:
                if not callable(getattr(fam, meth, None)):
                    raise TypeError(f"{type(fam).__name__} lacks {meth}()")
        self._check_mass_positive()
        self._check_sampled_coverage()

    def _check_mass_positive(self):
        probes = np.linspace(0.0, self.window, 65)
        with np.errstate(invalid="ignore"):
            m = np.asarray(self.mass.value(probes), dtype=float)
        if np.any(~np.isfinite(m)) or np.any(m <= 0.0):
            raise ValueError("mass history must stay strictly positive on the window")

    def _check_sampled_coverage(self):
        for fam in (self.mass, self.coupling):
            times = getattr(fam, "times", None)
            if times is not None:
                if times[0] > 1e-12 or times[-1] < self.window - 1e-12:
                    raise ValueError("sampled table must cover the whole window")

    @staticmethod
    def from_config(cfg: dict) -> "TimeProfile":
        """Build a profile from a plain mapping (the config-file shape).

        Expected keys: window (positive number), mass and coupling blocks
        with a `family` name plus that family's parameters, or
        family: sampled with `table` = [[t, value], ...].  Unknown keys
        anywhere are hard errors.
        """
        if not isinstance(cfg, dict):
            raise ValueError("profile block must be a mapping")
        extra = set(cfg) - {"window", "mass", "coupling"}
        if extra:
            raise ValueError(f"unknown profile keys: {sorted(extra)}")
        for key in ("window", "mass", "coupling"):
            if key not in cfg:
                raise ValueError(f"profile block is missing '{key}'")
        mass = _family_from_config(cfg["mass"], _MASS_FAMILIES, SampledMass, "mass")
        coupling = _family_from_config(
            cfg["coupling"], _COUPLING_FAMILIES, SampledCoupling, "coupling"
        )
        return TimeProfile(mass=mass, coupling=coupling, window=float(cfg["window"]))

    # -- shared quadrature tables

    @property
    def tables(self) -> "_ProfileTables":
        tab = self._cache.get("tables")
        if tab is None:
            tab = _ProfileTables.build(self)
            self._cache["tables"] = tab
        return tab

    def _knots(self):
        out = []
        for fam in (self.mass, self.coupling):
            times = getattr(fam, "times", None)
            if times is not None:
                out.append(times)
        return np.concatenate(out) if out else None


def _family_from_config(block, registry, sampled_cls, label):
    if not isinstance(block, dict):
        raise ValueError(f"{label} block must be a mapping")
    if "family" not in block:
        raise ValueError(f"{label} block needs a 'family' name")
    family = block["family"]
    params = {k: v for k, v in block.items() if k != "family"}
    if family == "sampled":
        if set(params) != {"table"}:
            raise ValueError(f"sampled {label} takes exactly the 'table' key")
        table = np.asarray(params["table"], dtype=float)
        if table.ndim != 2 or table.shape[1] != 2:
            raise ValueError(f"sampled {label} table must be rows of (t, value)")
        return sampled_cls(times=table[:, 0], samples=table[:, 1])
    if family not in registry:
        raise ValueError(f"unknown {label} family '{family}'")
    cls, names = registry[family]
    extra = set(params) - set(names)
    if extra:
        raise ValueError(f"unknown {label} parameters: {sorted(extra)}")
    missing = set(names) - set(params)
    if missing:
        raise ValueError(f"{label} family '{family}' needs: {sorted(missing)}")
    return cls(**{k: _family_parameter(params[k], f"{label} {k}") for k in names})


def _family_parameter(value, label: str) -> float:
    """A family parameter: a finite number (YAML's true/false are not)."""
    if isinstance(value, bool):
        raise ValueError(f"{label}: {value!r} is not a number")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{label}: {value!r} is not a number") from None
    if not np.isfinite(number):
        raise ValueError(f"{label} must be finite, not {value!r}")
    return number


# --------------------------------------------------- quadrature tables


_TABLE_NAMES = ("g", "k", "s", "w", "cum_chi1", "cum_chi2", "cum_shear")


@dataclass(frozen=True)
class _ProfileTables:
    """All cumulative integrals of one profile on a shared Simpson grid."""

    g: CumulativeTable
    k: CumulativeTable
    s: CumulativeTable
    w: CumulativeTable
    cum_chi1: CumulativeTable
    cum_chi2: CumulativeTable
    cum_shear: CumulativeTable       # int (k^2 + g^2 + 4s)/(8m)
    estimate: float

    @staticmethod
    def build(profile: TimeProfile) -> "_ProfileTables":
        grid = SimpsonGrid.build(profile.window, knots=profile._knots(), panels_per_segment=2)
        # start as fine as 16 panels per segment allows while the first
        # refinement still fits the budget
        panels = 16
        while 2 * panels * grid.segments > _MAX_TOTAL_PANELS:
            panels //= 2
        if panels < 2:
            raise ValueError(f"{grid.segments} sample intervals exceed the quadrature "
                             f"budget of {_MAX_TOTAL_PANELS // 4}")
        prev = _ProfileTables._assemble(profile, replace(grid, panels_per_segment=panels))
        if not all(np.all(np.isfinite(getattr(prev, name).values)) for name in _TABLE_NAMES):
            raise ValueError("the time integrals overflow double precision on the window")
        while True:
            fine_grid = prev.g.grid.refined()
            if fine_grid.nodes.size - 1 > _MAX_TOTAL_PANELS:
                raise RuntimeError("quadrature did not converge within the panel budget")
            fine = _ProfileTables._assemble(profile, fine_grid)
            est = max(getattr(fine, name).max_node_difference(getattr(prev, name))
                      for name in _TABLE_NAMES)
            if est <= _TABLE_TOL:
                return replace(fine, estimate=est)
            prev = fine

    @staticmethod
    def _assemble(profile: TimeProfile, grid: SimpsonGrid) -> "_ProfileTables":
        t = grid.nodes
        m = np.asarray(profile.mass.value(t), dtype=float)
        if np.any(m <= 0):
            raise ValueError("mass history must stay strictly positive on the window")
        f = np.asarray(profile.coupling.value(t), dtype=float)

        g = grid.cumulative(-1.0 / m)
        k = grid.cumulative(2.0 * f)
        s = grid.cumulative(-f * k.values)
        w = grid.cumulative(f * g.values)
        _, chi1, chi2, shear = _pointwise(m, f, g.values, k.values, s.values, w.values)
        return _ProfileTables(
            g=g, k=k, s=s, w=w,
            cum_chi1=grid.cumulative(chi1),
            cum_chi2=grid.cumulative(chi2),
            cum_shear=grid.cumulative(shear),
            estimate=np.inf,
        )


def _pointwise(m, f, g, k, s, w):
    """theta, chi1, chi2 and the reorder shear (k^2 + g^2 + 4s)/(8m)."""
    theta = 0.5 * f * (0.5 * k * g - w)
    chi1 = theta - (k * k + 3.0 * g * g + 4.0 * s) / (16.0 * m)
    chi2 = theta + (k * k - g * g + 4.0 * s) / (16.0 * m)
    shear = (k * k + g * g + 4.0 * s) / (8.0 * m)
    return theta, chi1, chi2, shear


# ------------------------------------------------------------ closed w


def _remainder2(u):
    """(u + expm1(-u))/u^2; series below 1e-3 where the subtraction cancels."""
    u = np.asarray(u, dtype=float)
    direct = np.abs(u) >= 1e-3
    safe = np.where(direct, u, 1.0)
    series = 1.0 / 2.0 + u * (-1.0 / 6.0 + u * (1.0 / 24.0 + u * (-1.0 / 120.0 + u / 720.0)))
    return np.where(direct, (safe + np.expm1(-safe)) / safe**2, series)


def _w_closed(mass, coupling, t) -> Optional[np.ndarray]:
    """int_0^t f g where both factors admit elementary antiderivatives."""
    t = np.asarray(t, dtype=float)
    if isinstance(coupling, ZeroCoupling):
        return np.zeros_like(t)
    if isinstance(mass, ConstantMass):
        m0 = mass.m0
        if isinstance(coupling, ConstantCoupling):
            return -coupling.f0 * t * t / (2.0 * m0)
        if isinstance(coupling, LinearCoupling):
            return -coupling.f0 * t**3 / (3.0 * m0)
        if isinstance(coupling, SinusoidalCoupling):
            f0, om = coupling.f0, coupling.omega
            if abs(om) < _NEGLIGIBLE_RATE:
                return -f0 * t * t / (2.0 * m0)
            # cos - 1 = -2 sin^2(om t/2) keeps the slow-coupling limit exact
            return -(f0 / m0) * (
                t * np.sin(om * t) / om - 2.0 * (np.sin(om * t / 2.0) / om) ** 2
            )
    if isinstance(mass, ExponentialMass):
        m0, ga = mass.m0, mass.gamma
        if abs(ga) < _NEGLIGIBLE_RATE:
            return _w_closed(ConstantMass(m0), coupling, t)
        if isinstance(coupling, ConstantCoupling):
            # -(f0/(m0 ga)) (t + expm1(-ga t)/ga) rewritten cancellation-free
            return -(coupling.f0 * t * t / m0) * _remainder2(ga * t)
        if isinstance(coupling, SinusoidalCoupling):
            f0, om = coupling.f0, coupling.omega
            if abs(om) < _NEGLIGIBLE_RATE:
                return _w_closed(mass, ConstantCoupling(f0), t)
            # each bracket term is individually O(ga), so dividing the
            # antiderivative by ga never amplifies rounding
            sn, cs = np.sin(om * t), np.cos(om * t)
            decay = np.expm1(-ga * t)
            bracket = (ga * sn / om - om * sn * (decay / ga)
                       + decay * cs - 2.0 * np.sin(om * t / 2.0) ** 2)
            return -(f0 / m0) * bracket / (ga * ga + om * om)
    return None


def _cum_chi_closed(mass, coupling, region: int, t) -> Optional[np.ndarray]:
    """int_0^t chi_region for the two fully elementary profile pairs."""
    if not isinstance(mass, ConstantMass):
        return None
    t = np.asarray(t, dtype=float)
    # numpy scalars: a huge parameter's power overflows to inf, where a
    # Python float power would raise OverflowError
    m0 = np.float64(mass.m0)
    curvature = t**3 / (48.0 * m0**3)      # int g^2/(16 m)
    if isinstance(coupling, ZeroCoupling):
        theta_part = np.zeros_like(t)
    elif isinstance(coupling, ConstantCoupling):
        # theta = -f0^2 t^2/(4 m0)
        theta_part = -np.float64(coupling.f0)**2 * t**3 / (12.0 * m0)
    else:
        return None
    # chi1 = theta - 3 g^2/(16 m), chi2 = theta - g^2/(16 m)  (k^2 + 4s = 0)
    return theta_part - (3.0 * curvature if region == 1 else curvature)


def _shear_closed(mass, t) -> Optional[np.ndarray]:
    """int_0^t g^2/(8m) (the k^2 + 4s part vanishes identically)."""
    if not isinstance(mass, (ConstantMass, ExponentialMass)):
        return None
    t = np.asarray(t, dtype=float)
    m0 = np.float64(mass.m0)                 # as in _cum_chi_closed
    ga = getattr(mass, "gamma", 0.0)
    if abs(ga) < _NEGLIGIBLE_RATE:
        return t**3 / (24.0 * m0**3)
    # cube the O(t) ratio: no cancellation, and ga^3 cannot underflow
    return (-np.expm1(-ga * t) / ga) ** 3 / (24.0 * m0**3)


# ----------------------------------------------------------- operations


def _require_in_window(profile: TimeProfile, t) -> float:
    """Scalar t inside [0, T] up to 1e-12, clipped onto it; NaN is outside."""
    t = float(t)
    if not -1e-12 <= t <= profile.window + 1e-12:
        raise ValueError("t outside the configured window [0, T]")
    return min(max(t, 0.0), profile.window)


def _closed_primitives(profile: TimeProfile) -> bool:
    """Whether g, k, s and w all come from closed forms rather than tables.

    The answer depends only on the families, not on t, so it is worked
    out once per profile.
    """
    closed = profile._cache.get("closed")
    if closed is None:
        mass, coupling = profile.mass, profile.coupling
        closed = (callable(getattr(mass, "inverse_integral", None))
                  and callable(getattr(coupling, "integral", None))
                  and _w_closed(mass, coupling, 0.0) is not None)
        profile._cache["closed"] = closed
    return closed


def _g(profile: TimeProfile, t):
    """g at t, from the same closed-or-table choice as the other primitives."""
    if _closed_primitives(profile):
        return -np.asarray(profile.mass.inverse_integral(t), dtype=float)
    return profile.tables.g.value(t)


def _primitives(profile: TimeProfile, t):
    """g, k, s, w at t, preferring closed forms over tables."""
    g = _g(profile, t)
    if _closed_primitives(profile):
        k = 2.0 * np.asarray(profile.coupling.integral(t), dtype=float)
        return g, k, -0.25 * k * k, _w_closed(profile.mass, profile.coupling, t)
    tab = profile.tables
    return g, tab.k.value(t), tab.s.value(t), tab.w.value(t)


def coefficients_at(profile: TimeProfile, t: float) -> CoefficientSet:
    """All derived time functions of the profile at one instant."""
    tq = _require_in_window(profile, t)
    g, k, s, w = (float(v) for v in _primitives(profile, tq))
    m = float(profile.mass.value(tq))
    f = float(profile.coupling.value(tq))
    theta, chi1, chi2, _ = _pointwise(m, f, g, k, s, w)
    b = 0.5 * g * k - w
    return CoefficientSet(t=tq, g=g, k=k, s=s, w=w, theta=theta, chi1=chi1, chi2=chi2,
                          zeta=-0.25 * k * b, shift=(k * k - g * g + 4.0 * s) / 4.0, b=b)


def invariant_coefficients(profile: TimeProfile, t: float, region: int) -> InvariantCoefficients:
    """Coefficient set of the quadratic invariant for one half-line region."""
    if region not in (1, 2):
        raise ValueError("region must be 1 (x >= 0) or 2 (x <= 0)")
    c = coefficients_at(profile, t)
    linear_p = complex(c.g, c.k)
    const = complex(c.s, c.w)
    if region == 1:
        return InvariantCoefficients(region=1, p2=1.0 + 0.0j, x=1.0 + 0.0j, p=linear_p, const=const)
    return InvariantCoefficients(region=2, p2=1.0 + 0.0j, x=-1.0 + 0.0j, p=-linear_p, const=const)


def phase(profile: TimeProfile, n: int, region: int, t: float) -> float:
    """Accumulated phase eps of level n in one region up to time t."""
    if region not in (1, 2):
        raise ValueError("region must be 1 (x >= 0) or 2 (x <= 0)")
    if n < 0:
        raise ValueError("the level index n starts at 0")
    tq = _require_in_window(profile, t)
    return _epsilon(profile, n, region, tq, _g(profile, tq))


def _epsilon(profile: TimeProfile, n: int, region: int, tq: float, g) -> float:
    """eps of `phase` at a time tq already inside the window, given g(tq).

    A caller that holds the coefficient set at tq passes its g, which is
    the value `phase` reads, so g is not computed twice.
    """
    cum = _cum_chi_closed(profile.mass, profile.coupling, region, tq)
    if cum is None:
        tab = profile.tables
        cum = (tab.cum_chi1 if region == 1 else tab.cum_chi2).value(tq)
    return float(cum) + level(n).eigenvalue * float(g) / 2.0


def shift_reorder_phase(profile: TimeProfile, t: float) -> float:
    """int_0^t (k^2 + g^2 + 4s)/(8m): the scalar phase produced when the
    combined shift-and-tilt transform is split into its displayed factors."""
    tq = _require_in_window(profile, t)
    closed = _shear_closed(profile.mass, tq)
    if closed is not None:
        return float(closed)
    return float(profile.tables.cum_shear.value(tq))
