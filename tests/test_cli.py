"""End-to-end checks of the command line front end."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import airywell
from airywell import cli
from airywell.cli import main

SMALL_PROFILE = """\
profile:
  window: 3.0
  mass: {family: constant, m0: 1.0}
  coupling: {family: constant, f0: 1.0}
levels: [0, 1]
times: [0.3]
"""


def _write_config(tmp_path, body, name="run.yaml"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --------------------------------------------------------------- writer


def _reference_table(header, columns, fmt):
    """The bytes of a per-cell writer: csv.writer, f"{v:.11e}" on each float."""
    rows = list(zip(*columns))
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.11e}" if isinstance(v, float) else v for v in row])
        return out.getvalue().encode()
    payload = [dict(zip(header, (float(f"{v:.11e}") if isinstance(v, float) else v
                                 for v in row)))
               for row in rows]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


_RNG = np.random.default_rng(7)
_LONG = 2 * cli._WRITE_BLOCK_ROWS + 3
_TABLES = {
    "edge-floats": (("x", "re", "im", "rho"), [
        np.array([-0.0, 5e-324, 1e300, 1e-300, -1e-300, 0.1, 1.0]),
        np.array([1e300, -0.0, 5e-324, 2.5, -1e-300, 1e-300, -7.0]),
        np.array([1e-300, 1e300, -0.0, 5e-324, 0.0, -1e300, 1e-5]),
        np.array([5e-324, 1e-300, 1e300, -0.0, 123456.789, 2.0, 0.5])]),
    "more-rows-than-a-block": (("x", "re", "im", "rho"), [
        _RNG.standard_normal(_LONG) * 10.0 ** _RNG.uniform(-300, 300, _LONG)
        for _ in range(4)]),
    "zeros": (("family", "index", "location", "companion_value"), [
        ("function", "derivative", "function", "derivative"), (1, 1, 2, 2),
        (-2.338107410459767, -1.0187929716474709, -4.087949444130971, -3.248197582179837),
        (0.7012108227206906, 0.5355608832923521, -0.8031113696548532, -0.4190154780325634)]),
    "spectrum": (("n", "parity", "eigenvalue", "norm_const"), [
        (0, 1, 2), ("even", "odd", "even"),
        (1.0187929716474709, 2.338107410459767, 3.248197582179837),
        (1.4261, -0.0, 5e-324)]),
    # where json's float repr changes form (1e16 and 1e-4), near-ties of the
    # 12-digit rounding, values that round up into those forms, and the
    # floats json writes by name; int, bool and str columns beside them
    "json-number-forms": (("value", "k", "flag", "name"), [
        np.array([-0.0, 1e16, -1e16, 9999999999999998.0, 1e15, 1e-4, 9.99999999999999e-5,
                  1e-5, 1000000000005.0, -1000000000015.0, 9999999999995.0,
                  9.999999999995e-05, 0.30000000000000004, math.inf, -math.inf, math.nan]),
        tuple(range(-8, 8)), (True, False) * 8, tuple("abcdefghijklmnop")]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(_TABLES))
def test_writer_matches_a_per_cell_reference(tmp_path, name, fmt):
    header, columns = _TABLES[name]
    path = tmp_path / f"table.{fmt}"
    cli._write_rows(path, header, columns, fmt)
    plain = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    assert path.read_bytes() == _reference_table(header, plain, fmt)


def _neighbours(x):
    return [float(np.nextafter(x, -math.inf)), x, float(np.nextafter(x, math.inf))]


def _examples(values):
    def apply(test):
        for x in values:
            test = example(x)(test)
        return test
    return apply


# the double nearest a 12-digit tie (10 m + 5) 10^p: scaled by the
# kernel, it lies within 1e-4 of a half, where rint alone may round wrong
_NEAR_TIES = st.builds(lambda m, p: (10 * m + 5) * 10.0 ** p,
                       st.integers(10**11, 10**12 - 1), st.integers(-300, 290))


@_examples([1000000000005.0, -1000000000005.0, 1000000000015.0,
            9999999999995.0,                     # a tie that carries: 1.00000000000e+13
            *_neighbours(9.999999999995e-5), *_neighbours(1e100), *_neighbours(1e-100),
            5e-324, -0.0, math.inf, math.nan])
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | _NEAR_TIES)
@settings(max_examples=1000, deadline=None)
def test_cell_kernel_matches_percent_formatting(x):
    cells = cli._sci_cells(np.array([x]))
    assert cells.shape == (1, cli._CELL)
    assert cells.tobytes().replace(b"\0", b"") == ("%.11e" % x).encode()


@pytest.mark.parametrize("shift", [-1, 1])
def test_cell_kernel_is_exact_when_log10_is_one_off(monkeypatch, shift):
    # a log10 a few ulp off can land on the other side of an integer near a
    # power of ten; the kernel must then hand the cell to the fallback
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.uniform(-290, 290, 200),
                             [1.0, 9.999999999999999e22, 1e23, -0.125, 999999999999.5]])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    cells = [bytes(row).replace(b"\0", b"") for row in cli._sci_cells(values)]
    assert cells == [("%.11e" % x).encode() for x in values.tolist()]


def test_solve_formats_almost_every_cell_without_the_fallback(tmp_path, monkeypatch):
    # the kernel hands a cell to the per-cell _sci only when it cannot
    # guarantee its rounding; a writer that formats cells in Python again
    # fails here, though its bytes would pass every other test
    kernel, fallback = cli._sci_cells, cli._sci
    kernel_cells, fallback_cells = [], []
    monkeypatch.setattr(cli, "_sci_cells",
                        lambda v: kernel_cells.append(v.size) or kernel(v))
    monkeypatch.setattr(cli, "_sci", lambda x: fallback_cells.append(x) or fallback(x))
    assert main(["solve", "--out", str(tmp_path)]) == 0
    tables = sorted(tmp_path.glob("solve_*.csv"))
    assert len(tables) == 18                 # six levels at three times
    rows = sum(len(_read_csv(path)[1]) for path in tables)
    assert sum(kernel_cells) == 4 * rows
    assert len(fallback_cells) <= 0.01 * 4 * rows


# ------------------------------------------------------------- spectrum


def test_spectrum_default_levels(tmp_path, capsys):
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "spectrum.csv")
    assert header == ["n", "parity", "eigenvalue", "norm_const"]
    assert len(rows) == 6
    lams = [float(r[2]) for r in rows]
    assert lams == sorted(lams)
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert rows[0][1] == "even" and rows[1][1] == "odd"
    assert float(rows[0][2]) == pytest.approx(1.0187929716, abs=1e-9)
    out = capsys.readouterr().out
    assert "wrote" in out


def test_spectrum_json_format(tmp_path):
    assert main(["spectrum", "--n", "0,1", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(payload) == 2
    assert payload[0]["parity"] == "even"
    assert payload[1]["eigenvalue"] == pytest.approx(2.3381074105, abs=1e-9)


def test_spectrum_rejects_negative_level(tmp_path, capsys):
    assert main(["spectrum", "--n", "-3", "--out", str(tmp_path)]) == 2
    assert "levels" in capsys.readouterr().err


def test_spectrum_rejects_empty_level_list(tmp_path, capsys):
    assert main(["spectrum", "--n", "", "--out", str(tmp_path)]) == 2
    assert "non-empty" in capsys.readouterr().err


def test_spectrum_rejects_oversized_level(tmp_path, capsys):
    assert main(["spectrum", "--n", "41", "--out", str(tmp_path)]) == 2
    assert "40" in capsys.readouterr().err


def test_level_and_time_flags_follow_the_config_rules(tmp_path, capsys):
    """--n and --t entries pass the same checks as the config's levels and times."""
    assert main(["spectrum", "--n", "1.0", "--out", str(tmp_path / "flag")]) == 0
    for entry in ("1.0", '"1.0"'):
        cfg = _write_config(tmp_path, SMALL_PROFILE.replace("levels: [0, 1]",
                                                            f"levels: [{entry}]"))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "config")]) == 0
        assert ((tmp_path / "flag" / "spectrum.csv").read_bytes()
                == (tmp_path / "config" / "spectrum.csv").read_bytes())
    capsys.readouterr()
    for flag, value, line in (("--n", "abc", "error: levels: 'abc' is not an integer\n"),
                              ("--t", "x", "error: times: 'x' is not a number\n")):
        assert main(["spectrum", flag, value, "--out", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err == line
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("source", ["config", "flags"])
@pytest.mark.parametrize("key, entries, line", [
    ("times", ["0.1", "0.1000001"], "error: times: 0.1 and 0.1000001 both write t0.1\n"),
    ("times", ["0.1", "0.1"], "error: times: 0.1 and 0.1 both write t0.1\n"),
    ("times", ["0", "-0.0"], "error: times: 0.0 and 0.0 both write t0\n"),
    ("levels", ["0", "1", "0"], "error: levels: 0 is listed twice\n"),
    ("levels", ["1", "1.0"], "error: levels: 1 is listed twice\n"),
], ids=["times-one-label", "times-repeated", "times-negative-zero", "levels-repeated",
        "levels-same-integer"])
def test_entries_that_would_share_an_output_are_rejected(tmp_path, capsys, command,
                                                         source, key, entries, line):
    """Two times with one {t:g} file label, or a level twice, would write one
    solve file twice (the later state wins) and double verify's report rows."""
    out = tmp_path / "out"
    flag, line_of_key = {"times": ("--t", "times: [0.3]"),
                         "levels": ("--n", "levels: [0, 1]")}[key]
    if source == "flags":
        args = [flag, ",".join(entries)]
    else:
        body = SMALL_PROFILE.replace(line_of_key, f"{key}: [{', '.join(entries)}]")
        args = ["--config", _write_config(tmp_path, body)]
    assert main([command, *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "flags"])
def test_negative_zero_time_is_time_zero(tmp_path, source):
    """-0 is time 0: its solve file is t0 and its report rows read "t": 0.0."""
    if source == "flags":
        args = ["--n", "0", "--t", "-0"]
    else:
        body = SMALL_PROFILE.replace("levels: [0, 1]", "levels: [0]")
        args = ["--config", _write_config(tmp_path, body.replace("[0.3]", "[-0.0]"))]
    assert main(["solve", *args, "--out", str(tmp_path / "solve")]) == 0
    assert [p.name for p in (tmp_path / "solve").iterdir()] == ["solve_n0_t0.csv"]
    assert main(["verify", *args, "--out", str(tmp_path / "verify")]) == 0
    report = json.loads((tmp_path / "verify" / "verify_report.json").read_text())
    times = [row["params"]["t"] for row in report
             if row["check"] != "pseudo_hermiticity_check"]
    assert len(times) == 5
    assert all(t == 0.0 and math.copysign(1.0, t) == 1.0 for t in times)


@pytest.mark.parametrize("body, flags, line", [
    (SMALL_PROFILE + "grid: {half_width: .nan}\n", [],
     "error: grid: half_width must be finite, not nan\n"),
    (SMALL_PROFILE + "grid: {dx: .inf}\n", [], "error: grid: dx must be finite, not inf\n"),
    (SMALL_PROFILE + "tolerances: {tdse: .nan}\n", [],
     "error: tolerances: tdse must be finite, not nan\n"),
    (SMALL_PROFILE.replace("times: [0.3]", "times: [.nan]"), [],
     "error: times must be finite, not nan\n"),
    (SMALL_PROFILE, ["--t", "0.3,nan"], "error: times must be finite, not 'nan'\n"),
    (SMALL_PROFILE.replace("window: 3.0", f"window: 1{'0' * 400}"), [],
     f"error: profile: window must be finite, not 1{'0' * 400}\n"),
], ids=["grid-half-width", "grid-dx", "tolerance", "config-time", "flag-time",
        "integer-beyond-double-window"])
def test_non_finite_numbers_are_named_with_their_key(tmp_path, capsys, body, flags, line):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, body)
    assert main(["verify", "--config", cfg, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert not out.exists()


# ---------------------------------------------------------------- zeros


def test_zeros_table(tmp_path):
    assert main(["zeros", "--n", "1,2", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "zeros.csv")
    assert header == ["family", "index", "location", "companion_value"]
    table = {(r[0], int(r[1])): float(r[2]) for r in rows}
    assert table[("derivative", 1)] == pytest.approx(-1.0187929716, abs=1e-9)
    assert table[("function", 1)] == pytest.approx(-2.3381074105, abs=1e-9)


def test_zeros_reaches_every_zero_index_the_kernel_supports(tmp_path):
    """zeros reads --n as 1-based zero indices, which reach past the level cap."""
    assert main(["zeros", "--n", "45", "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "zeros.csv")
    assert [(r[0], int(r[1])) for r in rows] == [("function", 45), ("derivative", 45)]
    a, ap, _, _ = scipy.special.ai_zeros(45)
    assert float(rows[0][2]) == pytest.approx(a[-1], rel=1e-11)      # 12 digits
    assert float(rows[1][2]) == pytest.approx(ap[-1], rel=1e-11)


def test_zeros_refuses_an_index_past_the_kernel_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["zeros", "--n", "51", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: levels: index 51 exceeds the supported 50\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "density", "solve", "verify"])
def test_level_commands_keep_the_level_cap(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--n", "45", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: levels: index 45 exceeds the supported 40\n"
    assert not out.exists()


# -------------------------------------------------------------- density


def test_density_files(tmp_path):
    assert main(["density", "--n", "0,1", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "density_n0.csv")
    assert header == ["x", "density"]
    assert len(rows) == 2001
    x = np.array([float(r[0]) for r in rows])
    rho = np.array([float(r[1]) for r in rows])
    assert x[0] == -10.0 and x[-1] == 10.0
    # peak at the origin, value 1/(2 lambda_0)
    mid = np.argmin(np.abs(x))
    assert rho[mid] == pytest.approx(1.0 / (2 * 1.0187929716447), abs=1e-8)
    assert np.trapezoid(rho, x) == pytest.approx(1.0, abs=1e-4)
    # odd state vanishes at the origin
    _, rows1 = _read_csv(tmp_path / "density_n1.csv")
    rho1 = np.array([float(r[1]) for r in rows1])
    assert rho1[mid] == 0.0
    assert np.trapezoid(rho1, x) == pytest.approx(1.0, abs=1e-4)


def test_solve_and_density_read_the_kernel_once_per_distinct_abs_x(tmp_path, monkeypatch):
    """A state on a centered grid of 2K + 1 nodes reads the K + 1 lattice
    nodes k dx, k = 0 ... K, once for its values and once for its density;
    a density level reads 1001 direct points of its 2001-node grid."""
    from airywell import spectrum, wavefunction

    sizes, nodes = [], []

    def counted(read):
        def counting(n, z):
            sizes.append(np.size(z))
            return read(n, z)
        return counting

    def counted_lattice(c, h, ks):
        nodes.append(len(ks))
        return lattice(c, h, ks)

    for module in (spectrum, wavefunction):
        monkeypatch.setattr(module, "eigenfunction_continued",
                            counted(module.eigenfunction_continued))
    lattice = spectrum.airy_ai_and_prime_lattice
    monkeypatch.setattr(spectrum, "airy_ai_and_prime_lattice", counted_lattice)
    cfg = _write_config(tmp_path, SMALL_PROFILE + "grid: {half_width: 13.0, dx: 0.01}\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")]) == 0
    assert nodes == [1301] * 4            # K = 1300; levels 0 and 1 at one time
    assert sizes == []
    nodes.clear()
    # the density grid np.round(np.arange(-1000, 1001) * 0.01, 10) is no
    # exact lattice k 0.01, so it is read directly
    assert main(["density", "--n", "0,1", "--out", str(tmp_path / "density")]) == 0
    assert sizes == [1001] * 2
    assert nodes == []


def test_density_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["density", "--n", "2", "--out", str(out1)]) == 0
    assert main(["density", "--n", "2", "--out", str(out2)]) == 0
    assert (out1 / "density_n2.csv").read_bytes() == \
        (out2 / "density_n2.csv").read_bytes()


# ---------------------------------------------------------------- solve


def test_solve_writes_state_files(tmp_path):
    cfg = _write_config(tmp_path, SMALL_PROFILE)
    assert main(["solve", "--config", cfg, "--n", "0", "--t", "0.5",
                 "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "solve_n0_t0.5.csv")
    assert header == ["x", "re", "im", "reconstructed_density"]
    x = np.array([float(r[0]) for r in rows])
    rec = np.array([float(r[3]) for r in rows])
    # the reconstructed density must integrate to one like the static one
    assert np.trapezoid(rec, x) == pytest.approx(1.0, abs=1e-6)


def test_solve_on_a_long_window(tmp_path):
    # int chi grows like T^3, so the tables converge by a relative test here
    cfg = _write_config(tmp_path, SMALL_PROFILE.replace("window: 3.0", "window: 1000.0"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_solve_rejects_small_box(tmp_path):
    body = SMALL_PROFILE + "grid: {half_width: 8.0, dx: 0.01}\n"
    cfg = _write_config(tmp_path, body)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


# --------------------------------------------------------------- verify


def test_verify_small_config_passes(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_PROFILE)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert all(r["pass"] for r in report)
    checks = {r["check"] for r in report}
    assert checks == {"tdse_residual", "invariant_eigen_residual",
                      "von_neumann_residual", "pseudo_hermiticity_check"}
    for r in report:
        assert set(r) == {"check", "params", "value", "threshold", "pass"}
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_verify_wrong_sign_control_fails(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_PROFILE)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path),
                 "--wrong-sign-k"]) == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    bad = [r for r in report if not r["pass"]]
    assert bad and all(r["check"] == "tdse_residual" for r in bad)
    assert "FAIL" in capsys.readouterr().out


def test_verify_report_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, SMALL_PROFILE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "verify_report.json").read_bytes() == \
        (out2 / "verify_report.json").read_bytes()


@pytest.mark.parametrize("flags", [[], ["--wrong-sign-k"]], ids=["passing", "control"])
def test_verify_report_is_json_dumps_of_its_sorted_rows(tmp_path, flags):
    # the report is written from a row template, not by json; its bytes must
    # be json's indented, key-sorted dump of the rows it holds, true and
    # false included, and the rows sorted by check, then by json's dump of
    # their params
    cfg = _write_config(tmp_path, SMALL_PROFILE.replace("times: [0.3]", "times: [0, 0.3]"))
    main(["verify", "--config", cfg, "--out", str(tmp_path), *flags])
    data = (tmp_path / "verify_report.json").read_text()
    rows = json.loads(data)
    assert data == json.dumps(rows, indent=2, sort_keys=True) + "\n"
    assert rows == sorted(rows, key=lambda r: (r["check"], json.dumps(r["params"],
                                                                       sort_keys=True)))
    assert {r["pass"] for r in rows} == ({True, False} if flags else {True})


def test_verify_names_the_first_non_finite_row_in_level_then_time_order(
        tmp_path, capsys, monkeypatch):
    # the rows of all levels at one t are computed together, and added per
    # level, then per time: level 0's region-2 row at t = 0.5 comes before
    # level 1's evolution row at t = 0.1
    bad = {(0, 0.5): (1e-6, 1e-6, math.nan), (1, 0.1): (math.inf, 1e-6, 1e-6)}

    def rows(profile, levels, t, grid, flip_coupling_sign=False):
        return [bad.get((n, t), (1e-6, 1e-6, 1e-6)) for n in levels]
    monkeypatch.setattr(cli, "level_residuals_at", rows)
    cfg = _write_config(tmp_path, SMALL_PROFILE.replace("times: [0.3]", "times: [0.1, 0.5]"))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: invariant_eigen_residual(n=0,region=2,t=0.5) is nan: the states leave "
        "double precision range\n")


# at t = 9 the branch argument x + S - i b - lambda_0 leaves |z| <= 40
LATE_TIME = SMALL_PROFILE.replace("window: 3.0", "window: 10.0").replace(
    "levels: [0, 1]", "levels: [0]").replace("times: [0.3]", "times: [9]")
# the branches stay inside (S = -11.1 at t = 2), but the density
# reconstruction evaluates the static |x| - lambda_0 out to x = 45
WIDE_BOX = SMALL_PROFILE.replace(
    "mass: {family: constant, m0: 1.0}", "mass: {family: constant, m0: 0.3}").replace(
    "coupling: {family: constant, f0: 1.0}", "coupling: {family: zero}").replace(
    "levels: [0, 1]", "levels: [0]").replace(
    "times: [0.3]", "times: [2]") + "grid: {half_width: 45.0, dx: 0.01}\n"


@pytest.mark.parametrize("command, body", [("solve", LATE_TIME), ("verify", LATE_TIME),
                                           ("solve", WIDE_BOX)],
                         ids=["solve-late-time", "verify-late-time", "solve-wide-box"])
def test_kernel_argument_outside_disc_is_a_config_error(tmp_path, capsys, command, body):
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: level 0 at t = ") and err.count("\n") == 1
    # the refused modulus prints above the bound it breaks
    assert float(err.split("|z| = ")[1].split()[0]) > 40.0
    assert not out.exists()


# m0 = 0.01: at t itself the branches reach |z| = 39.9999 at most, and
# only at t + 1e-5 would x = 0 need |z| = 40.0011; the d/dt stencil's
# instants read the coefficient scalars alone, never the kernel
STENCIL_EDGE = """\
profile: {window: 1.0, mass: {family: constant, m0: 0.01}, coupling: {family: zero}}
levels: [0]
times: [0.124861694732]
"""


def test_verify_checks_the_kernel_disc_at_t_alone(tmp_path, capsys):
    cfg = _write_config(tmp_path, STENCIL_EDGE)
    out = tmp_path / "out"
    # verify runs as solve does; the grid is too coarse for this mass
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "verify_report.json").read_text())
    assert len(report) == 25
    assert sorted((r["check"], r["params"].get("region")) for r in report if not r["pass"]) == [
        ("invariant_eigen_residual", 1), ("invariant_eigen_residual", 2), ("tdse_residual", None)]
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "solve_n0_t0.124862.csv").exists()


def test_verify_at_window_start_passes(tmp_path, capsys):
    # the time derivatives turn one-sided at t = 0 instead of leaving the window
    body = SMALL_PROFILE.replace("times: [0.3]", "times: [0.0]")
    cfg = _write_config(tmp_path, body)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert all(r["pass"] for r in report)
    assert "Traceback" not in capsys.readouterr().err


def test_verify_at_window_end_is_a_failed_check_not_a_crash(tmp_path, capsys):
    # at t = T the derivatives look backwards; the von Neumann remainder,
    # O(dx^2) and growing with t, is over its bound there (1.68e-4)
    body = SMALL_PROFILE.replace("times: [0.3]", "times: [3.0]")
    cfg = _write_config(tmp_path, body)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    bad = [r for r in report if not r["pass"]]
    assert bad and all(r["check"] == "von_neumann_residual" for r in bad)
    assert {r["check"] for r in report if r["pass"]} == {
        "tdse_residual", "invariant_eigen_residual", "pseudo_hermiticity_check"}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("window, code", [(1e-9, 2), (2.0e-5, 2), (0.011, 2), (0.0112, 0)])
def test_verify_refuses_a_window_below_its_minimum(tmp_path, capsys, window, code):
    # the pseudo-hermiticity rows draw times from [0.01, 0.9 window]; a
    # shorter window is one line and exit 2, with no report, and solve
    # still runs on it
    body = SMALL_PROFILE.replace("window: 3.0", f"window: {window!r}").replace(
        "levels: [0, 1]", "levels: [0]").replace("times: [0.3]", "times: [0.0]")
    cfg = _write_config(tmp_path, body + "grid: {half_width: 12.0, dx: 0.01}\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err == (f"error: profile: window {window:g} is below verify's "
                       f"minimum 0.01/0.9\n")
        assert not out.exists()
    else:
        assert err == "" and (out / "verify_report.json").exists()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0


def _write_sampled_tables(tmp_path, rows):
    """Mass and coupling CSV tables with `rows` rows each on [0, 2]."""
    t = np.linspace(0.0, 2.0, rows)
    for name, values in (("mass.csv", 1.0 + 0.2 * np.sin(t)),
                         ("coupling.csv", 0.8 + 0.1 * np.cos(t))):
        np.savetxt(tmp_path / name, np.column_stack((t, values)),
                   delimiter=",", fmt="%.17g")
    body = SMALL_PROFILE.replace("window: 3.0", "window: 2.0").replace(
        "mass: {family: constant, m0: 1.0}",
        "mass: {family: sampled, table: mass.csv}").replace(
        "coupling: {family: constant, f0: 1.0}",
        "coupling: {family: sampled, table: coupling.csv}").replace(
        "levels: [0, 1]", "levels: [0]").replace("times: [0.3]", "times: [0.5]")
    return _write_config(tmp_path, body + "grid: {half_width: 12.0, dx: 0.01}\n")


def test_solve_on_5001_row_tables(tmp_path):
    # 5000 sample intervals: the start grid must leave room for one refinement
    cfg = _write_sampled_tables(tmp_path, 5001)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, rows = _read_csv(out / "solve_n0_t0.5.csv")
    assert len(rows) == 2401
    assert np.all(np.isfinite(np.array(rows, dtype=float)))


def test_too_many_sample_knots_is_a_config_error(tmp_path, capsys):
    # 32769 intervals cannot carry 2 panels each and still refine once
    cfg = _write_sampled_tables(tmp_path, 32770)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "quadrature budget" in err
    assert not out.exists()


def _assert_one_line_config_error(capsys, out, *words):
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    for word in words:
        assert word in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", ".nan", "-1", "0", ".inf", "true"])
def test_tolerance_must_be_a_positive_finite_number(tmp_path, capsys, value):
    cfg = _write_config(tmp_path, SMALL_PROFILE + f"tolerances: {{tdse: {value}}}\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    _assert_one_line_config_error(capsys, out, "tolerances: tdse")


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_boolean_level_is_a_config_error(tmp_path, capsys, command):
    # YAML true is not level 1
    cfg = _write_config(tmp_path, SMALL_PROFILE.replace("levels: [0, 1]", "levels: [true]"))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    _assert_one_line_config_error(capsys, out, "levels")


@pytest.mark.parametrize("window", [".inf", "1.0e300"])
def test_window_beyond_the_cap_is_a_one_line_config_error(tmp_path, capsys, recwarn, window):
    cfg = _write_config(tmp_path, SMALL_PROFILE.replace("window: 3.0", f"window: {window}"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    _assert_one_line_config_error(capsys, out, "window")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_huge_grid_reports_a_short_modulus(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, SMALL_PROFILE + "grid: {half_width: 1.0e300, dx: 1.0e298}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "|z| = 1e+" in err and len(err) < 200
    assert not out.exists()


def test_verify_tolerance_override_can_force_failure(tmp_path):
    body = SMALL_PROFILE + "tolerances: {tdse: 1.0e-9}\n"
    cfg = _write_config(tmp_path, body)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1


# ---------------------------------------------------------------- config


def test_config_unknown_top_level_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_PROFILE + "extra_key: 1\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "extra_key" in capsys.readouterr().err


def test_config_unknown_tolerance_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_PROFILE + "tolerances: {bogus: 1.0}\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_config_yaml_syntax_error_is_one_line(tmp_path, capsys):
    cfg = _write_config(tmp_path, "profile: [\n", name="bad.yaml")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config is not valid YAML:") and err.count("\n") == 1
    assert "line 2, column 1" in err


def test_config_time_outside_window(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_PROFILE.replace(
        "times: [0.3]", "times: [9.5]"))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "window" in capsys.readouterr().err


def test_config_bad_profile_family(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_PROFILE.replace(
        "family: constant, m0: 1.0", "family: quadratic, m0: 1.0"))
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "quadratic" in capsys.readouterr().err


@pytest.mark.parametrize("body, line", [
    ("times: []\n", "error: times: list must be non-empty\n"),
    ("- 1\n", "error: config root must be a mapping\n"),
    ("grid: {foo: 1}\n", "error: grid: takes exactly the keys half_width and dx\n"),
    ("tolerances: 3\n", "error: tolerances: must be a mapping\n"),
    ("profile: [1]\n", "error: profile: profile block must be a mapping\n"),
    ("profile: {window: 3.0, mass: 3, coupling: {family: zero}}\n",
     "error: profile: mass block must be a mapping\n"),
], ids=["empty-times", "list-root", "grid-key", "tolerances-scalar", "profile-list",
        "mass-scalar"])
def test_config_shapes_are_one_line_errors(tmp_path, capsys, body, line):
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert not out.exists()


def test_config_table_naming_a_directory_is_one_line(tmp_path, capsys):
    (tmp_path / "tables").mkdir()
    cfg = _write_config(tmp_path, SMALL_PROFILE.replace(
        "mass: {family: constant, m0: 1.0}", "mass: {family: sampled, table: tables}"))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    _assert_one_line_config_error(capsys, out, "error: mass: cannot read table file")


def test_empty_config_file_runs_the_defaults(tmp_path):
    cfg = _write_config(tmp_path, "")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    header, rows = _read_csv(tmp_path / "out" / "spectrum.csv")
    assert [int(row[0]) for row in rows] == list(cli.RunConfig.levels)
    assert cli.load_config(cfg) == cli.RunConfig(
        profile=cli.TimeProfile.from_config(cli._DEFAULT_PROFILE))


def test_load_config_builds_what_main_runs(tmp_path, monkeypatch):
    # every key, with a sampled table read relative to the config's directory
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "mass.csv").write_text("0.0,1.0\n3.0,2.5\n")
    cfg = _write_config(tmp_path / "runs", SMALL_PROFILE.replace(
        "mass: {family: constant, m0: 1.0}", "mass: {family: sampled, table: mass.csv}")
        + "grid: {half_width: 12.0, dx: 0.01}\ntolerances: {tdse: 0.5}\n"
        + f"out: {tmp_path / 'out'}\nformat: json\n")
    built = []
    monkeypatch.setattr(cli, "run_spectrum",
                        lambda cfg, stdout=None: built.append(cfg) or 0)
    assert main(["spectrum", "--config", cfg]) == 0
    loaded = cli.load_config(cfg)
    # sampled laws compare by identity, so their tables are compared here
    [ran] = built
    for got in (ran, loaded):
        np.testing.assert_array_equal(got.profile.mass.times, [0.0, 3.0])
        np.testing.assert_array_equal(got.profile.mass.samples, [1.0, 2.5])
    assert ran.profile.coupling == loaded.profile.coupling
    assert ran.profile.window == loaded.profile.window == 3.0
    assert (dataclasses.replace(ran, profile=None)
            == dataclasses.replace(loaded, profile=None))
    assert loaded.tolerances["tdse"] == 0.5 and loaded.fmt == "json"


@pytest.mark.parametrize("case, words", [
    ("solve", "out: cannot create directory"),
    ("verify", "out: cannot create directory"),
    ("zeros", "out: cannot create directory"),
    ("spectrum", "out: cannot create directory"),
    ("density", "out: cannot create directory"),
    ("out-key", "out: cannot create directory"),
    ("config-directory", "cannot read config file"),
    ("config-not-utf8", "cannot read config file"),
    # a newline in a named path stays inside the quoted name
    ("config-newline", "config file"),
    ("table-newline", "error: mass: table file"),
])
def test_unusable_paths_are_one_line_config_errors(tmp_path, capsys, case, words):
    taken = tmp_path / "taken"
    taken.write_text("")
    body = _write_fuzz_body(_FUZZ_DEFAULTS)
    if case == "out-key":
        args = ["solve", "--config", _write_config(tmp_path, body + f"out: {taken}\n")]
    elif case == "config-directory":
        args = ["solve", "--config", str(tmp_path)]
    elif case == "config-not-utf8":
        latin1 = tmp_path / "latin1.yaml"
        latin1.write_bytes((body + "# r\xe9sum\xe9\n").encode("latin-1"))
        args = ["solve", "--config", str(latin1)]
    elif case == "config-newline":
        args = ["solve", "--config", str(tmp_path / "x\ny.yaml")]
    elif case == "table-newline":
        args = ["solve", "--config", _write_config(tmp_path, SMALL_PROFILE.replace(
            "mass: {family: constant, m0: 1.0}", 'mass: {family: sampled, table: "a\\nb.csv"}'))]
    else:
        args = [case, "--config", _write_config(tmp_path, body), "--out", str(taken)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and words in err


@pytest.mark.parametrize("command, work", [("solve", "assemble_wavefunction"),
                                           ("verify", "level_residuals_at")])
def test_unusable_out_is_reported_before_any_work(tmp_path, capsys, monkeypatch,
                                                  command, work):
    calls = []
    monkeypatch.setattr(cli, work, lambda *args, **kwargs: calls.append(args))
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = _write_config(tmp_path, SMALL_PROFILE)
    assert main([command, "--config", cfg, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out:") and err.count("\n") == 1
    assert calls == []


def test_config_sampled_table_from_csv_file(tmp_path):
    table = tmp_path / "mass.csv"
    table.write_text("0.0,1.0\n1.0,1.5\n2.0,2.0\n3.0,2.5\n")
    body = SMALL_PROFILE.replace(
        "mass: {family: constant, m0: 1.0}",
        "mass: {family: sampled, table: mass.csv}")
    cfg = _write_config(tmp_path, body)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_config_sampled_table_missing_file(tmp_path, capsys):
    body = SMALL_PROFILE.replace(
        "mass: {family: constant, m0: 1.0}",
        "mass: {family: sampled, table: nowhere.csv}")
    cfg = _write_config(tmp_path, body)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "nowhere.csv" in capsys.readouterr().err


def test_config_sampled_mass_table_with_nan_rejected(tmp_path, capsys):
    table = tmp_path / "mass.csv"
    table.write_text("0.0,1.0\n1.0,nan\n3.0,2.5\n")
    body = SMALL_PROFILE.replace(
        "mass: {family: constant, m0: 1.0}",
        "mass: {family: sampled, table: mass.csv}")
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_config_sampled_coupling_table_with_nan_rejected(tmp_path, capsys):
    body = SMALL_PROFILE.replace(
        "coupling: {family: constant, f0: 1.0}",
        "coupling: {family: sampled, table: [[0.0, 1.0], [0.5, .nan], [3.0, 1.0]]}")
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("part, block, line", [
    ("mass", "{family: sampled, table: [[0, true], [3, true]]}",
     "error: profile: sampled mass table: True is not a number\n"),
    ("coupling", "{family: sampled, table: [[0, 1.0], [false, 1.0]]}",
     "error: profile: sampled coupling table: False is not a number\n"),
], ids=["mass-value", "coupling-time"])
def test_config_sampled_table_with_yaml_boolean_rejected(tmp_path, capsys, part, block, line):
    default = {"mass": "{family: constant, m0: 1.0}",
               "coupling": "{family: constant, f0: 1.0}"}[part]
    body = SMALL_PROFILE.replace(f"{part}: {default}", f"{part}: {block}")
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert not out.exists()


def test_config_sampled_table_numeric_strings_still_read(tmp_path):
    body = SMALL_PROFILE.replace("mass: {family: constant, m0: 1.0}",
                                 "mass: {family: sampled, table: [['0', '1.0'], ['3', '1.0']]}")
    cfg = _write_config(tmp_path, body)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("row, line", [
    (["1.0", "true"], "error: profile: sampled mass table: 'true' is not a number\n"),
    (["1.0", "abc"], "error: profile: sampled mass table: 'abc' is not a number\n"),
    (["1.0", "nan"], "error: profile: sampled mass table must be finite, not 'nan'\n"),
    (["1.0", "1.5", "2.0"], "error: profile: sampled mass table must be rows of (t, value)\n"),
], ids=["true", "abc", "nan", "three-cells"])
@pytest.mark.parametrize("source", ["inline", "csv-file"])
def test_table_cells_follow_one_rule_from_either_source(tmp_path, capsys, source, row, line):
    """The same cells, inline as quoted YAML strings or as CSV text, fail alike."""
    rows = [["0.0", "1.0"], row, ["3.0", "1.0"]]
    if source == "csv-file":
        (tmp_path / "mass.csv").write_text("".join(",".join(r) + "\n" for r in rows))
        table = "mass.csv"
    else:
        table = json.dumps(rows)
    body = SMALL_PROFILE.replace("mass: {family: constant, m0: 1.0}",
                                 f"mass: {{family: sampled, table: {table}}}")
    out = tmp_path / "out"
    assert main(["solve", "--config", _write_config(tmp_path, body), "--out", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert not out.exists()


def test_table_file_is_read_as_utf8_under_any_locale(tmp_path):
    (tmp_path / "mass.csv").write_text("# \u00b5 = 1\n0.0,1.0\n3.0,1.0\n", encoding="utf-8")
    body = SMALL_PROFILE.replace("mass: {family: constant, m0: 1.0}",
                                 "mass: {family: sampled, table: mass.csv}")
    cfg = _write_config(tmp_path, body)
    # an ASCII locale that Python neither coerces nor overrides with UTF-8 mode
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(airywell.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "airywell.cli", "spectrum", "--config", cfg,
                          "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "spectrum.csv").is_file()


def test_table_file_may_start_with_a_byte_order_mark(tmp_path):
    # as the config may: PyYAML drops a leading BOM too
    (tmp_path / "mass.csv").write_text("\ufeff0.0,1.0\n3.0,1.0\n", encoding="utf-8")
    body = SMALL_PROFILE.replace("mass: {family: constant, m0: 1.0}",
                                 "mass: {family: sampled, table: mass.csv}")
    (tmp_path / "run.yaml").write_text("\ufeff" + body, encoding="utf-8")
    assert main(["spectrum", "--config", str(tmp_path / "run.yaml"),
                 "--out", str(tmp_path / "out")]) == 0


class _NoGrid:
    """Stands in for Grid1D where a run must stop before building a grid."""

    @staticmethod
    def centered(*args):
        raise AssertionError("a grid was built")

    half_line = centered


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("grid, words", [
    ("{half_width: .nan}", "finite"), ("{dx: .nan}", "finite"),
    ("{half_width: .inf}", "finite"), ("{dx: 1.0e-9}", "cap"),
], ids=["nan-half-width", "nan-dx", "inf-half-width", "over-cap-dx"])
def test_grid_values_are_checked_before_any_grid_is_built(tmp_path, capsys, monkeypatch,
                                                          command, grid, words):
    monkeypatch.setattr(cli, "Grid1D", _NoGrid)
    cfg = _write_config(tmp_path, SMALL_PROFILE + f"grid: {grid}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid:") and err.count("\n") == 1
    assert words in err
    assert not out.exists()


_ODD_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 1e-9, 1e300,
               "abc", None, [1.0]]
_FUZZ_DEFAULTS = {"half_width": 12.0, "dx": 0.05, "time": 0.3}
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["solve", "verify"]),
       key=st.sampled_from(sorted(_FUZZ_DEFAULTS)),
       value=st.one_of(st.sampled_from(_ODD_VALUES),
                       # values in (0, 0.02) come from the sampled list only,
                       # so that no accepted dx builds an expensive grid
                       _ANY_FLOAT.filter(lambda v: not 0.0 < v < 0.02)))
def test_grid_and_time_values_never_end_in_a_traceback(command, key, value):
    """One odd grid or time value on a small valid config, window 1."""
    entries = dict(_FUZZ_DEFAULTS, **{key: value})
    body = _write_fuzz_body(entries)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_config(Path(tmp), body)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


_LEVEL_VALUES = [0, 1, 2, 40, 41, -1, 1.0, 1.5, True, False, math.nan, math.inf,
                 "abc", None, [0]]


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["solve", "verify"]),
       key=st.sampled_from(["tolerance", "level"]),
       value=st.one_of(st.sampled_from(_ODD_VALUES + _LEVEL_VALUES), _ANY_FLOAT,
                       st.integers(min_value=-3, max_value=60)))
def test_tolerance_and_level_values_never_end_in_a_traceback(command, key, value):
    """One odd tdse tolerance or level entry on a small valid config, window 1."""
    body = _write_fuzz_body(_FUZZ_DEFAULTS)
    if key == "tolerance":
        body += f"tolerances: {{tdse: {_yaml_value(value)}}}\n"
    else:
        body = body.replace("levels: [0]", f"levels: [{_yaml_value(value)}]")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_config(Path(tmp), body)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("block, words", [
    ("coupling: {family: constant, f0: .inf}", "error: profile: coupling f0 must be finite"),
    ("mass: {family: constant, m0: true}", "error: profile: mass m0: True is not a number"),
    ("mass: {family: constant, m0: 1.0e+300}", None),
    ("coupling: {family: sinusoidal, f0: 1.0, omega: 1.0e-300}", None),
    ("mass: {family: constant, m0: 1.0e-300}", "profile: the time integrals overflow"),
    ("mass: {family: exponential, m0: 1.0, gamma: -700.0}",
     "profile: the time integrals overflow"),
    ("coupling: {family: constant, f0: 700.0}", "double precision range"),
    ("window: true", "error: profile: window: True is not a number"),
], ids=["infinite-f0", "boolean-m0", "huge-m0", "tiny-omega", "tiny-m0",
        "fast-shrinking-mass", "strong-coupling", "boolean-window"])
def test_odd_family_parameters_end_cleanly(tmp_path, capsys, recwarn, command, block, words):
    """A run ends in 0 or 1 without stderr, or in one line that says why."""
    cfg = _write_config(tmp_path, _body_with_block(block))
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if words is None:
        assert code in (0, 1) and err == ""
    else:
        assert code == 2 and err.count("\n") == 1 and words in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("mass, coupling", [
    ({"family": "constant", "m0": 1e-102}, {"family": "zero"}),
    ({"family": "constant", "m0": 1e100}, {"family": "constant", "f0": 1e160}),
], ids=["g-cubed", "k-squared"])
def test_a_coefficient_beyond_double_range_is_refused(tmp_path, capsys, mass, coupling):
    # coefficients_at forms int chi1 = int chi2 + g^3/24 and s = -k^2/4 from
    # the table rows: |g| = 1e103 and |k| = 2e161 at the window end make
    # each of them overflow, so the profile is refused whole
    block = {"window": 10.0, "mass": mass, "coupling": coupling}
    line = "the time integrals overflow double precision on the window"
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=f"^{line}$"):
        airywell.TimeProfile.from_config(block).tables
    cfg = _write_config(tmp_path, yaml.safe_dump({"profile": block, "levels": [0], "times": [1.0]}))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: profile: {line}\n"
    assert not (tmp_path / "out").exists()


_FAMILY_PARAMETERS = {
    "mass": {"constant": ["m0"], "exponential": ["m0", "gamma"],
             "power": ["m0", "gamma", "alpha"], "sampled": ["table"], "smooth": []},
    "coupling": {"zero": [], "constant": ["f0"], "linear": ["f0"],
                 "sinusoidal": ["f0", "omega"], "sampled": ["table"], "smooth": []},
}
_PARAMETER_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-3.0, max_value=3.0),
    st.sampled_from([math.inf, -math.inf, math.nan, True, False, 0.0, -0.0,
                     1e300, -1e300, 1e-300, 5e-324, 700.0, -700.0]),
    st.text(max_size=4))
# values of the wrong YAML type for a window, a family name or a table
_ODD_SHAPES = st.one_of(
    st.lists(st.one_of(st.floats(-3.0, 3.0), st.lists(st.floats(-3.0, 3.0), max_size=3)),
             max_size=3),
    st.dictionaries(st.sampled_from(["a", "t"]), st.floats(-3.0, 3.0), max_size=2),
    st.none(),
    st.booleans())


@st.composite
def _profile_blocks(draw):
    """A window value, or one mass or coupling block: a family, its
    parameters with odd values, some keys dropped and perhaps one unknown
    key added."""
    part = draw(st.sampled_from(sorted(_FAMILY_PARAMETERS) + ["window"]))
    if part == "window":
        return part, draw(st.one_of(_PARAMETER_VALUES, _ODD_SHAPES))
    family = draw(st.sampled_from(sorted(_FAMILY_PARAMETERS[part])))
    block = {"family": draw(_ODD_SHAPES) if draw(st.integers(0, 5)) == 0 else family}
    for name in _FAMILY_PARAMETERS[part][family]:
        if draw(st.booleans()) or draw(st.booleans()):
            table = name == "table"
            block[name] = draw(st.one_of(_PARAMETER_VALUES, _ODD_SHAPES) if table
                               else _PARAMETER_VALUES)
    if draw(st.integers(0, 5)) == 0:
        block[draw(st.sampled_from(["m0", "f0", "omega", "zz"]))] = draw(_PARAMETER_VALUES)
    if draw(st.integers(0, 7)) == 0:
        del block["family"]
    return part, block


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["solve", "verify"]), drawn=_profile_blocks())
@example(command="solve", drawn=("window", [1.0]))
@example(command="solve", drawn=("window", None))
@example(command="solve", drawn=("mass", {"family": [1.0], "m0": 1.0}))
@example(command="solve", drawn=("coupling", {"family": "sampled", "table": {"a": 1.0}}))
def test_profile_blocks_never_end_in_a_traceback(command, drawn):
    """One odd window or mass or coupling block on a 9-node grid, one level,
    one time."""
    part, block = drawn
    if part == "window":
        line = f"window: {_yaml_value(block)}"
    else:
        flow = ", ".join(f"{k}: {_yaml_value(v)}" for k, v in block.items())
        line = f"{part}: {{{flow}}}"
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_config(Path(tmp), _body_with_block(line))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            # a shown warning would be more stderr lines
            warnings.simplefilter("always")
            code = main([command, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def _body_with_block(block):
    """The fuzz config on a 9-node grid with its mass or coupling line replaced."""
    part = block.split(":")[0]
    body = _write_fuzz_body(dict(_FUZZ_DEFAULTS, dx=3.0))
    return "\n".join(f"  {block}" if line.startswith(f"  {part}:") else line
                     for line in body.splitlines()) + "\n"


def _yaml_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        return ".nan" if math.isnan(v) else ("-.inf" if v < 0 else ".inf")
    return json.dumps(v)


def _write_fuzz_body(entries):
    return (SMALL_PROFILE.replace("window: 3.0", "window: 1.0")
            .replace("levels: [0, 1]", "levels: [0]")
            .replace("times: [0.3]", f"times: [{_yaml_value(entries['time'])}]")
            + f"grid: {{half_width: {_yaml_value(entries['half_width'])}, "
              f"dx: {_yaml_value(entries['dx'])}}}\n")


def test_bad_format_flag_rejected(tmp_path, capsys):
    assert main(["spectrum", "--format", "xml", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: format: 'xml' is not csv or json\n"
    assert not (tmp_path / "out").exists()


@contextlib.contextmanager
def _working_directory(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(["out", "format"]),
       # relative names only: each run writes into a scratch working
       # directory, two levels down so that a drawn '..' stays inside it
       value=st.one_of(_PARAMETER_VALUES, _ODD_SHAPES, st.text(max_size=4),
                       st.sampled_from(["csv", "json", "tables", "out/tables", "..", ""]))
       .filter(lambda v: not (isinstance(v, str) and v.startswith("/"))))
@example(key="out", value=None)
@example(key="out", value=["a", "b"])
@example(key="out", value=True)
@example(key="out", value="a\x00")
@example(key="out", value="\n\U00010000")
@example(key="format", value="xml")
def test_out_and_format_values_end_in_a_table_or_one_line(key, value):
    """spectrum writes its table under the drawn out, in the drawn format,
    or ends in exit 2 with one line that names the key and writes nothing."""
    body = SMALL_PROFILE + f"{key}: {_yaml_value(value)}\n"
    # as YAML reads it back: PyYAML takes 1e+300, with no dot, as a string
    value = yaml.safe_load(body)[key]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(_write_config(Path(tmp), body))
        work = Path(tmp) / "a" / "b"
        work.mkdir(parents=True)
        err = io.StringIO()
        with _working_directory(work), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["spectrum", "--config", str(cfg)])
        # every file and directory the run made
        made = ({p.resolve() for p in Path(tmp).rglob("*")}
                - {cfg.resolve(), work.parent.resolve(), work.resolve()})
        if code == 0:
            out, fmt = (value, "csv") if key == "out" else (".", value)
            assert isinstance(out, str) and fmt in ("csv", "json")
            table = (work / out / f"spectrum.{fmt}").resolve()
            assert made == {table} | (made & set(table.parents))
        else:
            assert code == 2
            assert err.getvalue().startswith(f"error: {key}:")
            assert err.getvalue().count("\n") == 1
            assert made == set()
