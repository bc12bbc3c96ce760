"""Mass and coupling histories and the time functions derived from them.

A model run is fixed by two real inputs on a window [0, T]: a strictly
positive mass history m(t) and the coupling f(t) that scales the
imaginary absolute-value potential.  Four primitives, all with lower
limit 0 so that every derived quantity vanishes at t = 0, drive the rest
of the package:

    g = -int_0^t dtau/m,   k = 2 int_0^t f,
    s = -int_0^t f k,      w =  int_0^t f g.

Because k' = 2f, the third primitive collapses exactly: s = -k^2/4, so
k^2 + 4s = 0 and s is never integrated.

Two more rows integrate pointwise combinations of these:

    theta = (f/2) (k g/2 - w)
    chi1  = theta - (k^2 + 3 g^2 + 4 s)/(16 m) = theta - 3 g^2/(16 m)
    chi2  = theta + (k^2 - g^2 + 4 s)/(16 m)   = theta -   g^2/(16 m)

theta and chi are build-time integrands only: an instant reads their
integrals int chi1 and int chi2, which the phases in `wavefunction` use.

Every family, built-in or sampled, takes the same route: g, k, w,
int chi1 and int chi2 are the rows of one stacked cumulative table on a
knot-aligned Simpson grid per profile (see quadrature), and one cubic
Hermite read gives all five at any t.  The grid is refined until each
row changes by at most max(1e-10, 64 ulp of its largest value) at the
shared nodes: a fixed absolute tolerance alone cannot be met once the
integrals grow large (int chi grows like T^3), and for integrals below
about 7e3 in size the relative term never binds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from .quadrature import CumulativeTable, SimpsonGrid

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
]

_TABLE_TOL = 1e-10
# the relative floor of the convergence test, in units of eps
_TABLE_ULPS = 64
_MAX_TOTAL_PANELS = 2**17
# the longest window: at 1e6 the panel budget leaves panels no finer than
# 7.6 time units, and at 1e300 the table arithmetic overflows
MAX_WINDOW = 1e6


@dataclass(frozen=True, eq=False)
class _Sampled:
    """A law read off a table: linear interpolation through (times, samples)."""

    times: np.ndarray
    samples: np.ndarray
    noun: ClassVar[str]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.samples, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError(f"sampled {self.noun} needs matching 1-d time/value arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError(f"sampled {self.noun} times and values must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "samples", v)

    def value(self, t):
        return np.interp(np.asarray(t, dtype=float), self.times, self.samples)


# ------------------------------------------------------------ mass laws


@dataclass(frozen=True)
class ConstantMass:
    m0: float

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.m0)


@dataclass(frozen=True)
class ExponentialMass:
    m0: float
    gamma: float

    def value(self, t):
        return self.m0 * np.exp(self.gamma * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class PowerMass:
    m0: float
    gamma: float
    alpha: float

    def value(self, t):
        return self.m0 * (1.0 + self.gamma * np.asarray(t, dtype=float)) ** self.alpha


class SampledMass(_Sampled):
    noun = "mass"

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.samples <= 0):
            raise ValueError("mass samples must be strictly positive")


# -------------------------------------------------------- coupling laws


@dataclass(frozen=True)
class ZeroCoupling:
    def value(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ConstantCoupling:
    f0: float

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.f0)


@dataclass(frozen=True)
class LinearCoupling:
    """f(t) = f0 t."""

    f0: float

    def value(self, t):
        return self.f0 * np.asarray(t, dtype=float)


@dataclass(frozen=True)
class SinusoidalCoupling:
    """f(t) = f0 cos(omega t)."""

    f0: float
    omega: float

    def value(self, t):
        return self.f0 * np.cos(self.omega * np.asarray(t, dtype=float))


class SampledCoupling(_Sampled):
    noun = "coupling"


# a family's parameters are its dataclass fields; a sampled one reads a `table`
_MASS_FAMILIES = {"constant": ConstantMass, "exponential": ExponentialMass,
                  "power": PowerMass, "sampled": SampledMass}
_COUPLING_FAMILIES = {"zero": ZeroCoupling, "constant": ConstantCoupling,
                      "linear": LinearCoupling, "sinusoidal": SinusoidalCoupling,
                      "sampled": SampledCoupling}


# ------------------------------------------------------------- results


@dataclass(frozen=True)
class CoefficientSet:
    """The derived time functions at one instant; every field is real.

    zeta = -(k/4) (g k/2 - w) is the scalar phase of the metric root.
    shift and b are the magnitudes of the state's maps: the real
    coordinate shift S of the shift-tilt unitary and the imaginary
    translation of the metric root (see `wavefunction`).  cum_chi1 and
    cum_chi2 are the phase integrals int_0^t chi_j.
    """

    g: float
    k: float
    s: float
    w: float
    zeta: float
    shift: float             # (k^2 - g^2 + 4s)/4 = -g^2/4
    b: float                 # gk/2 - w
    cum_chi1: float
    cum_chi2: float


@dataclass(frozen=True)
class InvariantCoefficients:
    """Coefficients of the quadratic invariant p^2 + x_sign x + p_coeff p + const.

    Region 1 (x >= 0) carries (+1, g + ik, s + iw); region 2 (x <= 0)
    carries (-1, -g - ik, s + iw).
    """

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
        for fam in (self.mass, self.coupling):
            if not callable(getattr(fam, "value", None)):
                raise TypeError(f"{type(fam).__name__} lacks value()")
        probes = np.linspace(0.0, self.window, 65)
        with np.errstate(invalid="ignore"):
            m = np.asarray(self.mass.value(probes), dtype=float)
        if np.any(~np.isfinite(m)) or np.any(m <= 0.0):
            raise ValueError("mass history must stay strictly positive on the window")
        for times in self._sampled_times():
            if times[0] > 1e-12 or times[-1] < self.window - 1e-12:
                raise ValueError("sampled table must cover the whole window")

    def _sampled_times(self) -> list:
        """The sample times of each tabulated family: the profile's knots."""
        return [t for fam in (self.mass, self.coupling)
                if (t := getattr(fam, "times", None)) is not None]

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
        mass = _family_from_config(cfg["mass"], _MASS_FAMILIES, "mass")
        coupling = _family_from_config(cfg["coupling"], _COUPLING_FAMILIES, "coupling")
        window = _finite_number(cfg["window"], "window")
        return TimeProfile(mass=mass, coupling=coupling, window=window)

    # -- shared quadrature tables

    @property
    def tables(self) -> "_ProfileTables":
        tab = self._cache.get("tables")
        if tab is None:
            tab = _ProfileTables.build(self)
            self._cache["tables"] = tab
        return tab


def _family_from_config(block, registry, label):
    if not isinstance(block, dict):
        raise ValueError(f"{label} block must be a mapping")
    if "family" not in block:
        raise ValueError(f"{label} block needs a 'family' name")
    family = block["family"]
    if not isinstance(family, str):
        raise ValueError(f"{label} family: {family!r} is not a name")
    if family not in registry:
        raise ValueError(f"unknown {label} family '{family}'")
    cls = registry[family]
    params = {k: v for k, v in block.items() if k != "family"}
    if issubclass(cls, _Sampled):
        if set(params) != {"table"}:
            raise ValueError(f"sampled {label} takes exactly the 'table' key")
        rows = params["table"] if isinstance(params["table"], (list, tuple)) else ()
        # YAML's true/false, which np.asarray would take as 1/0
        flags = [c for row in rows if isinstance(row, (list, tuple))
                 for c in row if isinstance(c, bool)]
        if flags:
            raise ValueError(f"sampled {label} table: {flags[0]!r} is not a number")
        try:
            table = np.asarray(params["table"], dtype=float)
        except (TypeError, ValueError):     # a mapping, or ragged rows
            table = np.empty(0)
        if table.ndim != 2 or table.shape[1] != 2:
            raise ValueError(f"sampled {label} table must be rows of (t, value)")
        return cls(times=table[:, 0], samples=table[:, 1])
    names = [f.name for f in fields(cls)]
    extra = set(params) - set(names)
    if extra:
        raise ValueError(f"unknown {label} parameters: {sorted(extra)}")
    missing = set(names) - set(params)
    if missing:
        raise ValueError(f"{label} family '{family}' needs: {sorted(missing)}")
    return cls(**{k: _finite_number(params[k], f"{label} {k}") for k in names})


def _finite_number(value, label: str) -> float:
    """Every number of a config: finite, and not YAML's true/false."""
    if isinstance(value, bool):
        raise ValueError(f"{label}: {value!r} is not a number")
    try:
        number = float(value)
    except OverflowError:               # an integer beyond the double range
        number = np.inf
    except (TypeError, ValueError):
        raise ValueError(f"{label}: {value!r} is not a number") from None
    if not np.isfinite(number):
        raise ValueError(f"{label} must be finite, not {value!r}")
    return number


# --------------------------------------------------- quadrature tables


@dataclass(frozen=True)
class _ProfileTables:
    """The cumulative integrals of one profile, stacked on a shared Simpson grid.

    The rows of `table` are g, k, w, int chi1 and int chi2, in that order.
    """

    table: CumulativeTable
    estimate: float

    @staticmethod
    def build(profile: TimeProfile) -> "_ProfileTables":
        knots = np.concatenate([[], *profile._sampled_times()])
        grid = SimpsonGrid.build(profile.window, knots=knots, panels_per_segment=2)
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
            fine_grid = prev.grid.refined()
            if fine_grid.nodes.size - 1 > _MAX_TOTAL_PANELS:
                raise RuntimeError("quadrature did not converge within the panel budget")
            fine = _ProfileTables._assemble(profile, fine_grid)
            diff = fine.max_node_difference(prev)
            scale = np.max(np.abs(fine.values), axis=-1)
            if np.all(diff <= np.maximum(_TABLE_TOL, _TABLE_ULPS * np.finfo(float).eps * scale)):
                return _ProfileTables(table=fine, estimate=float(np.max(diff)))
            prev = fine

    @staticmethod
    def _assemble(profile: TimeProfile, grid: SimpsonGrid) -> CumulativeTable:
        t = grid.nodes
        m = np.asarray(profile.mass.value(t), dtype=float)
        if np.any(m <= 0):
            raise ValueError("mass history must stay strictly positive on the window")
        f = np.asarray(profile.coupling.value(t), dtype=float)

        gk = grid.cumulative(np.stack((-1.0 / m, 2.0 * f)))
        g, k = gk.values
        w = grid.cumulative(f * g)
        theta = 0.5 * f * (0.5 * k * g - w.values)
        curvature = g * g / (16.0 * m)        # s = -k^2/4 already cancelled
        chi = grid.cumulative(np.stack((theta - 3.0 * curvature, theta - curvature)))
        parts = (gk, w, chi)
        table = CumulativeTable(grid=grid, integrand=np.vstack([p.integrand for p in parts]),
                                values=np.vstack([p.values for p in parts]))
        if not np.all(np.isfinite(table.values)):
            raise ValueError("the time integrals overflow double precision on the window")
        return table


# ----------------------------------------------------------- operations


def coefficients_at(profile: TimeProfile, t: float) -> CoefficientSet:
    """All derived time functions of the profile at one instant t in [0, T]."""
    g, k, w, cum_chi1, cum_chi2 = profile.tables.table.value(float(t)).tolist()
    b = 0.5 * g * k - w
    return CoefficientSet(g=g, k=k, s=-0.25 * k * k, w=w, zeta=-0.25 * k * b,
                          shift=-0.25 * g * g, b=b, cum_chi1=cum_chi1, cum_chi2=cum_chi2)


def invariant_coefficients(profile: TimeProfile, t: float, region: int) -> InvariantCoefficients:
    """Coefficient set of the quadratic invariant for one half-line region."""
    if region not in (1, 2):
        raise ValueError("region must be 1 (x >= 0) or 2 (x <= 0)")
    c = coefficients_at(profile, t)
    linear_p = complex(c.g, c.k)
    const = complex(c.s, c.w)
    if region == 1:
        return InvariantCoefficients(x=1.0 + 0.0j, p=linear_p, const=const)
    return InvariantCoefficients(x=-1.0 + 0.0j, p=-linear_p, const=const)
