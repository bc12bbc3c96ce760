"""Configuration-driven command line front end.

Subcommands: zeros, spectrum, density, solve, verify.  Every run is
deterministic: numbers are rounded to 12 significant digits (`%.11e` in
CSV and printed lines, the nearest double in JSON), files carry no
timestamps, and repeated runs of one configuration are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .airy import (MAX_ABS_Z, MAX_ZERO_INDEX, airy_derivative_zero, airy_eval,
                   airy_function_zero)
from .profiles import TimeProfile, _finite_number, coefficients_at
from .spectrum import MAX_LEVEL, density, level
from .verify import Grid1D, level_residuals_at, pseudo_hermiticity_check, von_neumann_residual
# tdse_residual and invariant_eigen_residual are not called here, but the
# benchmark tracer in bench/tracing.py rebinds them in this namespace
from .verify import invariant_eigen_residual, tdse_residual  # noqa: F401
from .wavefunction import assemble_wavefunction, reconstructed_density

__all__ = ["RunConfig", "run_zeros", "run_spectrum", "run_density",
           "run_solve", "run_verify", "main"]


class ConfigError(ValueError):
    """Configuration or usage problem: maps to exit code 2."""


_DEFAULT_PROFILE = {
    "window": 3.0,
    "mass": {"family": "constant", "m0": 1.0},
    "coupling": {"family": "constant", "f0": 1.0},
}
_DEFAULT_TOLERANCES = {
    "tdse": 1e-4,
    "invariant_eigen": 1e-3,
    "von_neumann": 1e-4,
    "pseudo_hermiticity": 1e-12,
}
# nodes of the solve/verify grid, 2 round(half_width/dx) + 1: a few
# complex arrays of this length are live at once in each verify job
MAX_GRID_NODES = 1_000_001


@dataclass(frozen=True)
class RunConfig:
    """One run: profile, level/time lists, grid, output choices."""

    profile: TimeProfile
    levels: tuple = (0, 1, 2, 3, 4, 5)
    times: tuple = (0.1, 0.3, 0.5)
    half_width: float = 16.0
    dx: float = 0.005
    out_dir: Path = Path(".")
    fmt: str = "csv"
    tolerances: dict = field(default_factory=lambda: dict(_DEFAULT_TOLERANCES))


def _validate_levels(levels, cap: int) -> tuple:
    if not isinstance(levels, (list, tuple)) or len(levels) == 0:
        raise ConfigError("levels: list must be non-empty")
    out = []
    for n in levels:
        if not _is_integer(n):
            raise ConfigError(f"levels: {n!r} is not an integer")
        n = int(float(n))
        if n < 0:
            raise ConfigError(f"levels: index {n} is negative")
        if n > cap:
            raise ConfigError(f"levels: index {n} exceeds the supported {cap}")
        if n in out:
            raise ConfigError(f"levels: {n} is listed twice")
        out.append(n)
    return tuple(out)


def _is_integer(n) -> bool:
    # YAML reads true/false as bools, which float() would take as 1/0
    if isinstance(n, bool):
        return False
    try:
        return float(n).is_integer()
    except (TypeError, ValueError, OverflowError):
        return False


def _number(value, label: str) -> float:
    try:
        return _finite_number(value, label)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _time_label(t: float) -> str:
    """The part of a solve file name that names the time."""
    return f"t{t:g}"


def _validate_times(times, window: float) -> tuple:
    """Times inside the window, no two of which share a file name label."""
    if not isinstance(times, (list, tuple)) or len(times) == 0:
        raise ConfigError("times: list must be non-empty")
    labelled = {}
    for t in times:
        t = _number(t, "times") + 0.0          # -0.0 is time 0 and writes t0
        if not 0.0 <= t <= window:
            raise ConfigError(f"times: {t} outside the profile window [0, {window}]")
        label = _time_label(t)
        if label in labelled:
            raise ConfigError(f"times: {labelled[label]} and {t} both write {label}")
        labelled[label] = t
    return tuple(labelled.values())


def _read_table_file(block, base: Path, label: str):
    """A sampled family may name a two-column CSV file instead of rows: its
    UTF-8 rows of strings, blank and '#' rows skipped, replace the name."""
    if not isinstance(block, dict) or not isinstance(block.get("table"), str):
        return block
    path = base / block["table"]
    if not path.exists():
        raise ConfigError(f"{label}: table file {str(path)!r} does not exist")
    try:
        # utf-8-sig drops a leading byte order mark, as PyYAML does for the config
        with open(path, encoding="utf-8-sig", newline="") as fh:
            rows = [row for row in csv.reader(fh)
                    if row and not row[0].lstrip().startswith("#")]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{label}: cannot read table file {str(path)!r}: {exc}") from exc
    return dict(block, table=rows)


def _read_config(path: Path) -> dict:
    """The YAML mapping of a run file."""
    if not path.exists():
        raise ConfigError(f"config file {str(path)!r} does not exist")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        # PyYAML spreads one error over several lines, the position last
        detail = "; ".join(line.strip() for line in str(exc).splitlines() if line.strip())
        raise ConfigError(f"config is not valid YAML: {detail}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return raw


def _run_config(raw: dict, base: Path, level_cap: int = MAX_LEVEL) -> RunConfig:
    """The one check of a config mapping, flags written in: unknown keys
    anywhere are hard errors, table files are relative to base, and no
    level may exceed level_cap."""
    known = {"profile", "levels", "times", "grid", "out", "format", "tolerances"}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")

    prof_block = raw.get("profile", _DEFAULT_PROFILE)
    if isinstance(prof_block, dict):
        prof_block = dict(prof_block)
        for part in ("mass", "coupling"):
            if part in prof_block:
                prof_block[part] = _read_table_file(prof_block[part], base, part)
    try:
        profile = TimeProfile.from_config(prof_block)
    except ValueError as exc:
        raise ConfigError(f"profile: {exc}") from exc

    cfg = {"profile": profile}
    if "levels" in raw:
        cfg["levels"] = _validate_levels(raw["levels"], level_cap)
    if "times" in raw:
        cfg["times"] = _validate_times(raw["times"], profile.window)
    if "grid" in raw:
        grid = raw["grid"]
        if not isinstance(grid, dict) or set(grid) - {"half_width", "dx"}:
            raise ConfigError("grid: takes exactly the keys half_width and dx")
        hw = _number(grid.get("half_width", RunConfig.half_width), "grid: half_width")
        dx = _number(grid.get("dx", RunConfig.dx), "grid: dx")
        if hw <= 0.0 or dx <= 0.0:
            raise ConfigError("grid: half_width and dx must be positive and finite")
        # checked before any grid is built: Grid1D.centered lays out
        # 2 round(half_width/dx) + 1 nodes
        ratio = hw / dx
        if not ratio <= (MAX_GRID_NODES - 1) / 2:
            raise ConfigError(f"grid: 2*half_width/dx + 1 = {2 * ratio + 1:.3g} nodes "
                              f"exceeds the cap of {MAX_GRID_NODES}")
        # the residual stencils drop up to three rows at each end
        if round(ratio) < 4:
            raise ConfigError("grid: half_width/dx must be at least 4 (9 nodes)")
        cfg["half_width"], cfg["dx"] = hw, dx
    if "tolerances" in raw:
        tol = raw["tolerances"]
        if not isinstance(tol, dict):
            raise ConfigError("tolerances: must be a mapping")
        extra = set(tol) - set(_DEFAULT_TOLERANCES)
        if extra:
            raise ConfigError(f"tolerances: unknown keys {sorted(extra)}")
        cfg["tolerances"] = dict(_DEFAULT_TOLERANCES)
        for key, value in tol.items():
            bound = _number(value, f"tolerances: {key}")
            if bound <= 0.0:
                raise ConfigError(f"tolerances: {key} must be positive and finite, "
                                  f"not {bound!r}")
            cfg["tolerances"][key] = bound
    if "out" in raw:
        if not isinstance(raw["out"], str):
            raise ConfigError(f"out: {raw['out']!r} is not a string")
        cfg["out_dir"] = Path(raw["out"])
    if "format" in raw:
        if raw["format"] not in ("csv", "json"):
            raise ConfigError(f"format: {raw['format']!r} is not csv or json")
        cfg["fmt"] = raw["format"]
    return RunConfig(**cfg)


def load_config(path) -> RunConfig:
    """Parse and check the YAML run file (see `_run_config`)."""
    path = Path(path)
    return _run_config(_read_config(path), path.parent)


def _flag_list(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _require_grid_reach(cfg: RunConfig):
    """Grid commands need the box to clear the classical turning point."""
    lam_max = level(max(cfg.levels)).eigenvalue
    if cfg.half_width < lam_max + 10.0:
        raise ConfigError(
            f"grid: half_width {cfg.half_width} too small for level "
            f"{max(cfg.levels)} (needs at least {lam_max + 10.0:.2f})")


def _require_tables(cfg: RunConfig):
    """Build the profile's shared time-integral tables once, up front."""
    try:
        cfg.profile.tables
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"profile: {exc}") from exc


def _require_kernel_disc(cfg: RunConfig, u_lo: float, u_hi: float, static=()):
    """Every Airy argument a grid command evaluates must lie in |z| <= 40.

    For a configured time t the command evaluates Ai(u + s - lambda_n) for
    u = |x| in [u_lo, u_hi], with s = S - i b at t, where the branches read
    the kernel, and each s in static; a refusal names t.  The modulus of a
    linear function on a segment peaks at an end, so the two ends decide.
    """
    for t in cfg.times:
        c = coefficients_at(cfg.profile, t)
        for n in cfg.levels:
            for shift in (complex(c.shift, -c.b), *static):
                for u in (u_lo, u_hi):
                    size = abs(u + shift - level(n).eigenvalue)
                    if not size <= MAX_ABS_Z:
                        raise ConfigError(
                            f"level {n} at t = {t:g} needs Ai at |z| = {size:.6g}"
                            f" (|x| = {abs(u):g}), beyond the supported {MAX_ABS_Z:g}")


# ---------------------------------------------------------- formatting


def _sci(x: float) -> str:
    """12 significant digits, scientific, locale-independent."""
    return f"{float(x):.11e}"


def _round12(x: float) -> float:
    return float(_sci(x))


# 10**k, correctly rounded, and its exponent field after the "e" (sign and
# two or three digits, NUL-padded to four bytes) for k = _EXP_LO ... 308:
# floor(log10|v|) is at least _EXP_LO for every |v| >= 1e-300
_EXP_LO = -301
_POW10 = np.array([float(f"1e{k}") for k in range(_EXP_LO, 309)])
_EXP_FIELD = np.array([f"{k:+03d}" for k in range(_EXP_LO, 309)], dtype="S4").view(np.uint32)
_CELL = 19      # bytes of the longest cell, "-1.00000000000e+100"


def _sci_cells(v: np.ndarray) -> np.ndarray:
    """`_sci` of each float of a 1-D array, one NUL-padded row of _CELL bytes each.

    The mantissa is m = rint(s), s = |v| 10^(11 - e), e = floor(log10|v|).
    s costs three roundings, at most 3.4e-4 on s < 1e12, so m is the
    correctly rounded 12-digit mantissa whenever s lies farther than 1e-3
    from a half.  `_sci` formats every other cell: ties and near-ties, an s
    below 1e11 or an m of 1e12 or more (a log10 one off, or a carry into the
    exponent), |v| below 1e-300 but not 0, inf and nan.
    """
    a = np.abs(v)
    normal = (a >= 1e-300) & (a < np.inf)
    k = np.floor(np.log10(np.where(normal, a, 1.0))).astype(np.intp) - _EXP_LO
    with np.errstate(invalid="ignore"):                 # inf - inf
        s = a / _POW10[k] * 1e11
        m = np.rint(s)
        exact = normal & (s >= 1e11) & (m < 1e12) & (np.abs(s - np.floor(s) - 0.5) > 1e-3)
    exact |= a == 0
    m[~exact] = 0.0
    out = np.empty((a.size, _CELL), np.uint8)
    out[:, 0] = np.signbit(v) * np.uint8(ord("-"))     # NUL when positive
    out[:, 2] = ord(".")
    out[:, 14] = ord("e")
    out[:, 15:] = _EXP_FIELD[k].view(np.uint8).reshape(-1, 4)
    halves = np.empty((2, a.size), np.int32)          # digits 1-6 and 7-12 of m
    halves[0] = np.floor(m / 1e6)                       # exact for an integer m < 1e12
    halves[1] = m - halves[0] * 1e6
    for hi, lo in zip((7, 6, 5, 4, 3, 1), (13, 12, 11, 10, 9, 8)):
        q = halves // 10
        out[:, hi], out[:, lo] = halves - 10 * q + ord("0")
        halves = q
    redo = np.flatnonzero(~exact)
    out[redo] = np.array([_sci(x) for x in v[redo].tolist()],
                         dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return out


# rows per formatted block: bounds the byte matrix (20 bytes per float
# cell) and the kernel's arrays held at once on a grid of up to
# MAX_GRID_NODES rows.  Blocks of 8192 to 65536 rows wrote a 100,001-row
# table no faster (60 ms at 4096, 65 to 71 ms)
_WRITE_BLOCK_ROWS = 4096


# json's names for the floats that have no JSON number
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(v: np.ndarray) -> list:
    """`_round12` of each float as json writes it: the shortest repr of the
    `_sci_cells` text read back, or json's name for a non-finite value."""
    newline = np.full((v.size, 1), ord("\n"), np.uint8)
    text = np.concatenate((_sci_cells(v), newline), axis=1).tobytes().translate(None, b"\0")
    cells = list(map(float.__repr__, map(float, text.split(b"\n")[:-1])))
    if np.all(np.isfinite(v)):
        return cells
    return [_JSON_NON_FINITE.get(c, c) for c in cells]


def _write_rows(path: Path, header, columns, fmt: str):
    """Write a table given as one sequence per header name.

    Float columns are written as `_sci` writes them in CSV, through
    `_sci_cells`, and rounded by `_round12` in JSON; int, bool and string
    columns as `str` writes them in CSV and as json writes them in JSON.
    The strings are the package's own labels, which csv would not quote.
    A CSV block is one byte matrix, a NUL-padded slot per cell and a
    separator byte after it, written without its NULs.  A JSON block is
    one row template, filled per row: the bytes of `json.dump(rows,
    indent=2, sort_keys=True)` of one dict per row, without json's
    per-value encoder.
    """
    columns = [np.asarray(c) for c in columns]
    floats = [c.dtype.kind == "f" for c in columns]
    n_rows = len(columns[0])
    if fmt == "csv":
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for start in range(0, n_rows, _WRITE_BLOCK_ROWS):
                block = [c[start:start + _WRITE_BLOCK_ROWS] for c in columns]
                comma = np.full((len(block[0]), 1), ord(","), np.uint8)
                parts = []
                for c, f in zip(block, floats):
                    cells = _sci_cells(c) if f else np.array(c, dtype="S")
                    parts += [cells.view(np.uint8).reshape(len(c), -1), comma]
                parts[-1] = np.full_like(comma, ord("\n"))
                fh.write(np.concatenate(parts, axis=1).tobytes().translate(None, b"\0"))
    else:
        order = sorted(range(len(header)), key=header.__getitem__)
        keys = [json.dumps(header[i]).replace("%", "%%") for i in order]
        row = "  {\n" + ",\n".join(f"    {k}: %s" for k in keys) + "\n  }"
        with open(path, "w") as fh:
            fh.write("[")
            for start in range(0, n_rows, _WRITE_BLOCK_ROWS):
                cells = [_json_floats(c) if f else list(map(json.dumps, c.tolist()))
                         for c, f in ((columns[i][start:start + _WRITE_BLOCK_ROWS], floats[i])
                                      for i in order)]
                fh.write((",\n" if start else "\n") + ",\n".join(row % r for r in zip(*cells)))
            fh.write("\n]\n" if n_rows else "]\n")


def _out_dir(cfg: RunConfig) -> Path:
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:     # ValueError: a NUL or lone surrogate
        # the repr keeps a newline in the drawn name from splitting the error line
        raise ConfigError(f"out: cannot create directory {str(cfg.out_dir)!r}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    return cfg.out_dir


def _out_path(cfg: RunConfig, stem: str) -> Path:
    return _out_dir(cfg) / f"{stem}.{cfg.fmt}"


# ---------------------------------------------------------- subcommands


def run_zeros(cfg: RunConfig, stdout=None) -> int:
    """Both families of kernel zeros, one row per (family, index).

    cfg.levels are 1-based zero indices up to MAX_ZERO_INDEX; a 0 is
    skipped, and indices 1 to 10 are written when none is left."""
    indices = sorted(n for n in cfg.levels if n >= 1) or list(range(1, 11))
    rows = []
    for k in indices:
        z = airy_function_zero(k)
        rows.append(("function", k, z, float(airy_eval(z).ai_prime.real)))
        z = airy_derivative_zero(k)
        rows.append(("derivative", k, z, float(airy_eval(z).ai.real)))
    path = _out_path(cfg, "zeros")
    _write_rows(path, ("family", "index", "location", "companion_value"),
                list(zip(*rows)), cfg.fmt)
    if stdout:
        for row in rows:
            print(f"{row[0]:>10} {row[1]:>3}  {_sci(row[2])}", file=stdout)
        print(f"wrote {path}", file=stdout)
    return 0


def run_spectrum(cfg: RunConfig, stdout=None) -> int:
    rows = []
    for n in cfg.levels:
        lev = level(n)
        rows.append((n, lev.parity, lev.eigenvalue, lev.norm_const))
    path = _out_path(cfg, "spectrum")
    _write_rows(path, ("n", "parity", "eigenvalue", "norm_const"),
                list(zip(*rows)), cfg.fmt)
    if stdout:
        for n, par, lam, nc in rows:
            print(f"n={n} {par:>4}  lambda={_sci(lam)}  norm={_sci(nc)}", file=stdout)
        print(f"wrote {path}", file=stdout)
    return 0


def run_density(cfg: RunConfig, stdout=None) -> int:
    """Per-level |phi_n|^2 on the fixed figure grid x in [-10, 10]."""
    x = np.round(np.arange(-1000, 1001) * 0.01, 10)
    written = []
    for n in cfg.levels:
        rho = density(n, x)
        path = _out_path(cfg, f"density_n{n}")
        _write_rows(path, ("x", "density"), (x, rho), cfg.fmt)
        written.append(path)
    if stdout:
        for path in written:
            print(f"wrote {path}", file=stdout)
    return 0


def run_solve(cfg: RunConfig, stdout=None) -> int:
    """Assembled closed-form state per (level, time) on the config grid."""
    _require_grid_reach(cfg)
    _require_tables(cfg)
    grid = Grid1D.centered(cfg.half_width, cfg.dx)
    # the branches at t, and the density reconstruction's static u - lambda_n
    _require_kernel_disc(cfg, 0.0, grid.x_max, static=(0j,))
    # after the config checks, which leave no directory behind, and
    # before any state is computed
    _out_dir(cfg)
    xs = grid.nodes
    written = []
    for n in cfg.levels:
        for t in cfg.times:
            sample = assemble_wavefunction(cfg.profile, n, t, xs)
            rho = reconstructed_density(cfg.profile, n, t, xs)
            if not (np.all(np.isfinite(sample.values)) and np.all(np.isfinite(rho))):
                raise ConfigError(f"level {n} at t = {t:g}: the state leaves double "
                                  f"precision range on the grid")
            path = _out_path(cfg, f"solve_n{n}_{_time_label(t)}")
            _write_rows(path, ("x", "re", "im", "reconstructed_density"),
                        (xs, sample.values.real, sample.values.imag, rho), cfg.fmt)
            written.append(path)
    if stdout:
        for path in written:
            print(f"wrote {path}", file=stdout)
    return 0


def _format_params(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def _json_number(v) -> str:
    """json's text for a finite float or an int."""
    return float.__repr__(v) if isinstance(v, float) else int.__repr__(v)


def _json_params(params: dict) -> str:
    """`json.dumps(params, sort_keys=True)` of verify's params: plain names
    mapped to finite floats and ints."""
    return "{" + ", ".join(f'"{k}": {_json_number(v)}' for k, v in sorted(params.items())) + "}"


# one verify_report.json row as `json.dumps(report, indent=2, sort_keys=True)`
# writes it, its keys sorted: check, params, pass, threshold, value
_REPORT_ROW = ('  {\n    "check": "%s",\n    "params": {\n%s\n    },\n    "pass": %s,\n'
               '    "threshold": %s,\n    "value": %s\n  }')


def _report_json(report: list) -> str:
    """`json.dumps(report, indent=2, sort_keys=True) + "\\n"` of verify's
    rows, filled into `_REPORT_ROW` without json's pure-Python encoder: a
    check is a plain name, params as in `_json_params`, and value and
    threshold are finite floats."""
    rows = [_REPORT_ROW % (r["check"],
                           ",\n".join(f'      "{k}": {_json_number(v)}'
                                      for k, v in sorted(r["params"].items())),
                           "true" if r["pass"] else "false",
                           _json_number(r["threshold"]), _json_number(r["value"]))
            for r in report]
    return "[\n" + ",\n".join(rows) + "\n]\n"


def run_verify(cfg: RunConfig, stdout=None, wrong_sign_k: bool = False) -> int:
    """Full residual suite; exit 0 only when every check passes."""
    _require_tables(cfg)
    prof = cfg.profile
    t_hi = min(0.9 * prof.window, 1.5)      # pseudo-hermiticity times lie in [0.01, t_hi]
    if t_hi < 0.01:
        raise ConfigError(f"profile: window {prof.window:g} is below verify's minimum 0.01/0.9")
    _require_grid_reach(cfg)
    tol = cfg.tolerances
    full = Grid1D.centered(cfg.half_width, cfg.dx)
    # the branches at t, one node past each half-line; d/dt is taken of
    # the coefficient scalars alone, so no other instant reads the kernel
    _require_kernel_disc(cfg, -full.dx, full.x_max + full.dx)
    halves = {1: Grid1D.half_line(cfg.half_width, cfg.dx, 1),
              2: Grid1D.half_line(cfg.half_width, cfg.dx, 2)}
    path = _out_dir(cfg) / "verify_report.json"
    report = []

    def add(check, params, threshold, value):
        if not math.isfinite(value):
            raise ConfigError(f"{check}({_format_params(params)}) is {value}: the "
                              f"states leave double precision range")
        report.append({
            "check": check,
            "params": params,
            "value": _round12(value),
            "threshold": threshold,
            "pass": bool(value <= threshold),
        })

    # overflow is reported by the finiteness check on each value instead
    with np.errstate(all="ignore"):
        # the evolution row and both invariant rows of every level at one t
        # read one batch of branch samples; the rows are added in (n, t)
        # order, so a non-finite value is reported as a per-(n, t) run would
        rows = {t: level_residuals_at(prof, cfg.levels, t, full, flip_coupling_sign=wrong_sign_k)
                for t in cfg.times}
        for i, n in enumerate(cfg.levels):
            for t in cfg.times:
                values = rows[t][i]
                add("tdse_residual", {"n": n, "t": t}, tol["tdse"], values[0])
                for region, value in zip((1, 2), values[1:]):
                    add("invariant_eigen_residual", {"n": n, "region": region, "t": t},
                        tol["invariant_eigen"], value)
        for region in (1, 2):
            for t in cfg.times:
                add("von_neumann_residual", {"region": region, "t": t}, tol["von_neumann"],
                    von_neumann_residual(prof, region, t, halves[region]))
        rng = np.random.default_rng(20230816)
        for region in (1, 2):
            for t in sorted(rng.uniform(0.01, t_hi, 10)):
                add("pseudo_hermiticity_check", {"region": region, "t": round(float(t), 12)},
                    tol["pseudo_hermiticity"], pseudo_hermiticity_check(prof, float(t), region))
    report.sort(key=lambda r: (r["check"], _json_params(r["params"])))
    path.write_text(_report_json(report))

    ok = all(r["pass"] for r in report)
    if stdout:
        for r in report:
            mark = "pass" if r["pass"] else "FAIL"
            print(f"[{mark}] {r['check']}({_format_params(r['params'])}) = {_sci(r['value'])}"
                  f" vs {_sci(r['threshold'])}", file=stdout)
        n_fail = sum(not r["pass"] for r in report)
        print(f"{len(report)} checks, {n_fail} failed; wrote {path}", file=stdout)
    return 0 if ok else 1


# ----------------------------------------------------------------- main


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML run configuration")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--format", help="table format: csv or json")
    common.add_argument("--n", dest="levels", type=_flag_list, metavar="LIST",
                        help="comma-separated level list")
    common.add_argument("--t", dest="times", type=_flag_list, metavar="LIST",
                        help="comma-separated time list")

    parser = argparse.ArgumentParser(
        prog="airywell",
        description="States of a variable-mass particle in a purely "
                    "imaginary linear well, plus their numerical checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("zeros", parents=[common],
                   help="kernel zeros of both families")
    sub.add_parser("spectrum", parents=[common],
                   help="eigenvalues and normalization constants")
    sub.add_parser("density", parents=[common],
                   help="per-level probability densities on [-10, 10]")
    sub.add_parser("solve", parents=[common],
                   help="closed-form states on the config grid")
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the residual suite")
    p_verify.add_argument("--wrong-sign-k", action="store_true",
                          help="negative control: flip the coupling sign "
                               "inside the evolution residual (must fail)")

    args = parser.parse_args(argv)
    runner = {
        "zeros": run_zeros,
        "spectrum": run_spectrum,
        "density": run_density,
        "solve": run_solve,
    }
    # floating-point overflow from extreme inputs is reported by explicit
    # finiteness checks, in one line, not by numpy warnings
    with np.errstate(all="ignore"):
        try:
            # the flags replace their config keys and pass the same checks
            raw = {} if args.config is None else _read_config(Path(args.config))
            for key in ("levels", "times", "out", "format"):
                if getattr(args, key) is not None:
                    raw[key] = getattr(args, key)
            # zeros reads its list as 1-based zero indices, which reach further
            cap = MAX_ZERO_INDEX if args.command == "zeros" else MAX_LEVEL
            cfg = _run_config(raw, Path(args.config or ".").parent, cap)
            if args.command == "verify":
                return run_verify(cfg, stdout=sys.stdout,
                                  wrong_sign_k=args.wrong_sign_k)
            return runner[args.command](cfg, stdout=sys.stdout)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
