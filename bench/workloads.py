"""The three benchmark workloads.

Each workload writes its inputs from the seed, prepares (everything up to
the first timed operation: import, config and profile build, quadrature
tables, level and zero lookups, initial states), hands out one round of
operations, and afterwards checks the outputs of those rounds against
references that do not come from airywell.

airywell is imported inside `prepare`, so the import is part of set-up,
and every call goes through a module attribute, so the tracer's rebound
names are the ones used.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import inputs


class _Workload:
    """Shared shape; `ops` counts the operations of one round."""

    def __init__(self, input_dir: Path, out_dir: Path):
        self.input_dir = input_dir
        self.out_dir = out_dir

    @staticmethod
    def make_inputs(directory: Path, seed: int):
        raise NotImplementedError

    def prepare(self):
        raise NotImplementedError

    def operations(self) -> list:
        """One round: callables that each return (work units, bytes written)."""
        raise NotImplementedError

    def check(self) -> list:
        """Messages for every output that is wrong; empty when all are right."""
        raise NotImplementedError


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class VerifyDefault(_Workload):
    """`airywell verify` on the default config: 80 residual checks."""

    CONTROL = ["--wrong-sign-k", "--n", "0", "--t", "0.1"]

    @staticmethod
    def make_inputs(directory, seed):
        inputs.write_verify_default(directory)

    def prepare(self):
        import airywell
        from airywell import cli

        cfg = cli.load_config(self.input_dir / "config.yaml")
        self.cfg = replace(cfg, out_dir=self.out_dir / "report")
        self.cfg.profile.tables
        for n in self.cfg.levels:
            airywell.level(n)
        self.reports = []
        self.ops = 80

    def operations(self):
        return [self._verify]

    def _verify(self):
        from airywell import cli

        code = cli.run_verify(self.cfg)
        data = (self.cfg.out_dir / "verify_report.json").read_bytes()
        self.reports.append((code, data))
        return len(json.loads(data)), len(data)

    def check(self):
        import oracles
        import airywell
        from airywell import cli

        bad = []
        codes = {code for code, _ in self.reports}
        if codes != {0}:
            bad.append(f"verify exit codes {sorted(codes)}, expected 0")
        data = self.reports[0][1]
        rows = json.loads(data)
        failing = [r for r in rows if not r["pass"]]
        if len(rows) != self.ops or failing:
            bad.append(f"verify report has {len(rows)} rows, {len(failing)} failing")
        if any(d != data for _, d in self.reports):
            bad.append("verify report differs between rounds")
        bad += self._check_digest(hashlib.sha256(data).hexdigest())

        for n in self.cfg.levels:
            lam, _ = oracles.level(n)
            err = abs(airywell.level(n).eigenvalue - float(lam))
            if err > 1e-9:
                bad.append(f"level {n}: eigenvalue off mpmath by {err:.3e}")

        control_dir = self.out_dir / "control"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", *self.CONTROL, "--out", str(control_dir)])
        rows = json.loads((control_dir / "verify_report.json").read_text())
        failed = sorted(r["check"] for r in rows if not r["pass"])
        if code != 1 or failed != ["tdse_residual"]:
            bad.append(f"wrong-sign-k control: exit {code}, failing {failed}")
        return bad

    def _check_digest(self, digest):
        """Byte-identity across benchmark runs of the same source tree.

        The first run on a source tree records the report's digest next to
        the workload outputs; every later run on that tree must match it.
        """
        src = Path.cwd() / "src"
        store = self.out_dir.parent / "verify_report_digests.json"
        known = json.loads(store.read_text()) if store.exists() else {}
        key = _source_digest(src)
        if known.setdefault(key, digest) != digest:
            return ["verify report differs from an earlier run of the same source"]
        store.write_text(json.dumps(known, indent=1) + "\n")
        return []


class SolveSampled(_Workload):
    """`airywell solve` on seeded sampled histories, CSV output."""

    SPOTS = 8

    @staticmethod
    def make_inputs(directory, seed):
        inputs.write_solve_sampled(directory, seed)

    def prepare(self):
        import airywell
        from airywell import cli

        cfg = cli.load_config(self.input_dir / "config.yaml")
        self.cfg = replace(cfg, out_dir=self.out_dir / "solve")
        self.cfg.profile.tables
        for n in self.cfg.levels:
            airywell.level(n)
        self.nodes = airywell.Grid1D.centered(cfg.half_width, cfg.dx).nodes
        # one operation per written state, as `solve` loops over them
        self.states = [replace(self.cfg, levels=(n,), times=(t,))
                       for n in cfg.levels for t in cfg.times]
        self.ops = len(self.states)

    def operations(self):
        return [functools.partial(self._solve, state) for state in self.states]

    def _solve(self, state):
        from airywell import cli

        cli.run_solve(state)
        path = state.out_dir / f"solve_n{state.levels[0]}_t{state.times[0]:g}.csv"
        return self.nodes.size, path.stat().st_size

    def check(self):
        import oracles

        rows_t, rows_m = np.loadtxt(self.input_dir / "mass.csv", delimiter=",").T
        rows_f = np.loadtxt(self.input_dir / "coupling.csv", delimiter=",")[:, 1]
        frozen = oracles.frozen_integrals(rows_t, rows_m, rows_f, self.cfg.times)
        dx = self.cfg.dx
        bad = []
        for n in self.cfg.levels:
            for t in self.cfg.times:
                path = self.cfg.out_dir / f"solve_n{n}_t{t:g}.csv"
                x, re, im, rho = np.loadtxt(path, delimiter=",", skiprows=1).T
                label = f"n={n} t={t}"
                if x.size != self.nodes.size or np.max(np.abs(x - self.nodes)) > 1e-9:
                    bad.append(f"{label}: x column is not the config grid")
                    continue
                mass = np.sum(rho) * dx
                if abs(mass - 1.0) > 1e-6:
                    bad.append(f"{label}: density grid sum {mass:.9f}, expected 1")
                for i in _spots(rho, self.SPOTS):
                    err = abs(rho[i] - oracles.density(n, x[i]))
                    if err > 1e-8:
                        bad.append(f"{label} x={x[i]}: density off mpmath by {err:.3e}")
                modulus = np.hypot(re, im)
                for i in _spots(modulus, self.SPOTS):
                    ref = oracles.branch_modulus(n, x[i], *frozen[t])
                    err = abs(modulus[i] - ref) / ref
                    if err > 1e-8:
                        bad.append(f"{label} x={x[i]}: |psi| off the closed form "
                                   f"by {err:.3e} relative")
        return bad


def _spots(values, count):
    """`count` evenly spread nodes where |values| exceeds 1e-3 of its peak,
    plus the origin node."""
    idx = np.nonzero(np.abs(values) > 1e-3 * np.max(np.abs(values)))[0]
    picks = idx[np.linspace(0, idx.size - 1, count).round().astype(int)]
    return sorted(set(picks.tolist()) | {values.size // 2})


class _State:
    """Initial state in the shape crank_nicolson_propagate reads."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = values


class Propagate(_Workload):
    """Crank-Nicolson runs, full-line free and fed half-line, levels 0-2."""

    @staticmethod
    def make_inputs(directory, seed):
        inputs.write_propagate(directory, seed)

    def prepare(self):
        import airywell

        blocks = json.loads((self.input_dir / "profiles.json").read_text())
        self.free = airywell.TimeProfile.from_config(blocks["free"])
        self.wavy = airywell.TimeProfile.from_config(blocks["wavy"])
        self.wavy.tables
        levels = inputs.PROPAGATE_LEVELS
        for n in levels:
            airywell.level(n)
        full = airywell.Grid1D.centered(inputs.FULL_HALF_WIDTH, inputs.PROPAGATE_DX)
        half = airywell.Grid1D.half_line(inputs.HALF_EXTENT, inputs.PROPAGATE_DX, 1)
        self.full_init = {n: airywell.assemble_wavefunction(self.free, n, 0.0, full.nodes)
                          for n in levels}
        xs = half.nodes
        self.half_init = {
            n: _State(xs, airywell.wavefunction_branch(self.wavy, n, 1, xs.astype(complex), 0.0))
            for n in levels}
        self.ops = 2 * len(levels)
        self.results = {}

    def _feed(self, n):
        import airywell

        origin = np.array([0j])

        def boundary(t):
            value = airywell.wavefunction_branch(self.wavy, n, 1, origin, t)[0]
            return complex(value), 0.0

        return boundary

    def operations(self):
        return [functools.partial(self._run, kind, n)
                for n in inputs.PROPAGATE_LEVELS for kind in ("full", "half")]

    def _run(self, kind, n):
        import airywell

        if kind == "full":
            res = airywell.crank_nicolson_propagate(
                self.free, self.full_init[n], 0.0, inputs.PROPAGATE_T1, inputs.PROPAGATE_DT)
        else:
            res = airywell.crank_nicolson_propagate(
                self.wavy, self.half_init[n], 0.0, inputs.PROPAGATE_T1, inputs.PROPAGATE_DT,
                boundary=self._feed(n))
        self.results[kind, n] = res
        return res.steps * res.grid.n_points, 0

    def check(self):
        import airywell

        bad = []
        for n in inputs.PROPAGATE_LEVELS:
            full, half = self.results["full", n], self.results["half", n]
            before = np.sum(np.abs(self.full_init[n].values) ** 2)
            after = np.sum(np.abs(full.values) ** 2)
            drift = abs(after - before) / before
            if drift > 1e-10:
                bad.append(f"n={n}: free full-line norm drifted by {drift:.3e}")
            xs = half.grid.nodes.astype(complex)
            target = airywell.wavefunction_branch(self.wavy, n, 1, xs, half.t_final)
            dev = float(np.max(np.abs(half.values - target)))
            if dev > 1e-3:
                bad.append(f"n={n}: fed half-line run ends {dev:.3e} from the branch")
        return bad


WORKLOADS = {
    "verify-default": VerifyDefault,
    "solve-sampled": SolveSampled,
    "propagate": Propagate,
}
