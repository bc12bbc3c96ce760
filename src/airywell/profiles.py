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

__all__ = [
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
    "PhaseValue",
    "coefficients_at",
    "invariant_coefficients",
    "phase",
    "shift_reorder_phase",
]

_TABLE_TOL = 1e-10
_MAX_TOTAL_PANELS = 2**17


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
        if self.gamma == 0.0:
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
        if self.gamma == 0.0:
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
        if self.omega == 0.0:
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
    """The derived time functions at one instant; every field is real."""

    t: float
    g: float
    k: float
    s: float
    w: float
    theta: float
    chi1: float
    chi2: float
    zeta: float


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


@dataclass(frozen=True)
class PhaseValue:
    """Accumulated real phase of level n in one region at time t."""

    n: int
    region: int
    t: float
    epsilon: float


# ------------------------------------------------------------- profile


@dataclass(frozen=True)
class TimeProfile:
    """The pair (m(t), f(t)) on the window [0, window]."""

    mass: object
    coupling: object
    window: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.window > 0:
            raise ValueError("window length must be positive")
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
    return cls(**{k: float(params[k]) for k in names})


# --------------------------------------------------- quadrature tables


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
        while True:
            fine_grid = prev.g.grid.refined()
            if fine_grid.nodes.size - 1 > _MAX_TOTAL_PANELS:
                raise RuntimeError("quadrature did not converge within the panel budget")
            fine = _ProfileTables._assemble(profile, fine_grid)
            est = max(
                getattr(fine, name).max_node_difference(getattr(prev, name))
                for name in ("g", "k", "s", "w", "cum_chi1", "cum_chi2", "cum_shear")
            )
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
            if om == 0.0:
                return -f0 * t * t / (2.0 * m0)
            return -(f0 / m0) * (
                t * np.sin(om * t) / om + (np.cos(om * t) - 1.0) / om**2
            )
    if isinstance(mass, ExponentialMass):
        m0, ga = mass.m0, mass.gamma
        if ga == 0.0:
            return _w_closed(ConstantMass(m0), coupling, t)
        if isinstance(coupling, ConstantCoupling):
            # -(f0/(m0 ga)) (t + expm1(-ga t)/ga) rewritten cancellation-free
            return -(coupling.f0 * t * t / m0) * _remainder2(ga * t)
        if isinstance(coupling, SinusoidalCoupling):
            f0, om = coupling.f0, coupling.omega
            if om == 0.0:
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
    t = np.asarray(t, dtype=float)
    if not isinstance(mass, ConstantMass):
        return None
    m0 = mass.m0
    curvature = t**3 / (48.0 * m0**3)      # int g^2/(16 m)
    if isinstance(coupling, ZeroCoupling):
        theta_part = np.zeros_like(t)
    elif isinstance(coupling, ConstantCoupling):
        # theta = -f0^2 t^2/(4 m0)
        theta_part = -coupling.f0**2 * t**3 / (12.0 * m0)
    else:
        return None
    # chi1 = theta - 3 g^2/(16 m), chi2 = theta - g^2/(16 m)  (k^2 + 4s = 0)
    return theta_part - (3.0 * curvature if region == 1 else curvature)


def _shear_closed(mass, t) -> Optional[np.ndarray]:
    """int_0^t g^2/(8m) (the k^2 + 4s part vanishes identically)."""
    t = np.asarray(t, dtype=float)
    if isinstance(mass, ConstantMass):
        return t**3 / (24.0 * mass.m0**3)
    if isinstance(mass, ExponentialMass):
        m0, ga = mass.m0, mass.gamma
        if ga == 0.0:
            return t**3 / (24.0 * m0**3)
        # cube the O(t) ratio: no cancellation, and ga^3 cannot underflow
        return (-np.expm1(-ga * t) / ga) ** 3 / (24.0 * m0**3)
    return None


# ----------------------------------------------------------- operations


def _require_in_window(profile: TimeProfile, t) -> float:
    """Scalar t inside [0, T] up to 1e-12, clipped onto it; NaN is outside."""
    t = float(t)
    if not -1e-12 <= t <= profile.window + 1e-12:
        raise ValueError("t outside the configured window [0, T]")
    return min(max(t, 0.0), profile.window)


def _primitives(profile: TimeProfile, t):
    """g, k, s, w at t, preferring closed forms over tables."""
    mass, coupling = profile.mass, profile.coupling
    inv = getattr(mass, "inverse_integral", None)
    fint = getattr(coupling, "integral", None)
    if callable(inv) and callable(fint):
        g = -np.asarray(inv(t), dtype=float)
        k = 2.0 * np.asarray(fint(t), dtype=float)
        s = -0.25 * k * k
        w = _w_closed(mass, coupling, t)
        if w is not None:
            return g, k, s, w
    tab = profile.tables
    return tab.g.value(t), tab.k.value(t), tab.s.value(t), tab.w.value(t)


def coefficients_at(profile: TimeProfile, t: float) -> CoefficientSet:
    """All derived time functions of the profile at one instant."""
    tq = _require_in_window(profile, t)
    g, k, s, w = (float(v) for v in _primitives(profile, tq))
    m = float(profile.mass.value(tq))
    f = float(profile.coupling.value(tq))
    theta, chi1, chi2, _ = _pointwise(m, f, g, k, s, w)
    zeta = -0.25 * k * (0.5 * g * k - w)
    return CoefficientSet(t=tq, g=g, k=k, s=s, w=w, theta=theta, chi1=chi1, chi2=chi2, zeta=zeta)


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


def phase(profile: TimeProfile, n: int, region: int, t: float) -> PhaseValue:
    """Accumulated phase eps of level n in one region up to time t."""
    if region not in (1, 2):
        raise ValueError("region must be 1 (x >= 0) or 2 (x <= 0)")
    if n < 0:
        raise ValueError("the level index n starts at 0")
    from .spectrum import level

    tq = _require_in_window(profile, t)
    lam = level(n).eigenvalue
    cum = _cum_chi_closed(profile.mass, profile.coupling, region, tq)
    if cum is None:
        tab = profile.tables
        cum = (tab.cum_chi1 if region == 1 else tab.cum_chi2).value(tq)
    g = _primitives(profile, tq)[0]
    eps = float(cum) + lam * float(g) / 2.0
    return PhaseValue(n=n, region=region, t=tq, epsilon=eps)


def shift_reorder_phase(profile: TimeProfile, t: float) -> float:
    """int_0^t (k^2 + g^2 + 4s)/(8m): the scalar phase produced when the
    combined shift-and-tilt transform is split into its displayed factors."""
    tq = _require_in_window(profile, t)
    closed = _shear_closed(profile.mass, tq)
    if closed is not None:
        return float(closed)
    return float(profile.tables.cum_shear.value(tq))
