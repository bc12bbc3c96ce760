"""In-memory span tracing around calls into airywell's modules.

The package itself is left untouched.  `install` rebinds public functions
in the namespace of each module that calls them (for example
`spectrum.airy_eval_many`, `wavefunction.eigenfunction_continued`,
`verify.wavefunction_branch`, `cli.assemble_wavefunction`), plus two
quadrature methods and the `TimeProfile.tables` property, with wrappers
that record one span per call.  Calls a module makes to its own helpers
are not traced unless they go through one of those rebound names.

A span records its id, its parent, its thread, a layer name, wall-clock
start and end, the CPU time its thread spent inside it, the phase of the
benchmark it ran in ("setup" or "op") and a size (points, grid nodes or
steps, depending on the layer).  Work a thread pool runs on behalf of
the main thread gets the main thread's innermost open span as parent.

Busy and self times are taken on the thread's CPU clock, so time a pool
thread spends waiting for the interpreter lock counts for no layer.  A
span's self time is its CPU time minus that of its children on the same
thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict, namedtuple

import numpy as np

Span = namedtuple("Span", "id parent thread name start end cpu phase size")

_MISSING = object()


class Tracer:
    """Collects spans while `phase` is set; passes calls through otherwise."""

    def __init__(self):
        self.spans = []
        self.phase = None
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, size=None, skip_inside=None):
        """A wrapper of fn that records a span named `name` per call.

        size(args, result) gives the span's size; skip_inside names a layer
        inside which calls are passed through unrecorded.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            stack = tracer._stack()
            if phase is None or (skip_inside is not None
                                 and any(n == skip_inside for _, n in stack)):
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            else:
                parent = tracer._main_stack[-1][0] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append((sid, name))
            result = _MISSING
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                n = 0
                if size is not None and result is not _MISSING:
                    n = size(args, result)
                tracer.spans.append(Span(sid, parent, threading.get_ident(), name,
                                         start, end, cpu, phase, n))

        return traced

    def patch(self, owner, attr, name, size=None, skip_inside=None):
        original = owner.__dict__[attr]
        if isinstance(original, property):
            replacement = property(self.wrap(name, original.fget))
        else:
            replacement = self.wrap(name, original, size, skip_inside)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _points(args, result):
    return int(np.size(args[0]))


def _nodes(args, result):
    return int(np.size(args[1]))


def _steps(args, result):
    return int(result.steps)


def install(tracer: Tracer):
    """Rebind the traced calls in every caller module's namespace."""
    import airywell
    from airywell import cli, profiles, quadrature, spectrum, verify, wavefunction

    for fn in ("airy_function_zero", "airy_derivative_zero"):
        tracer.patch(spectrum, fn, "airy.zero")
    for fn in ("airy_eval", "airy_eval_many"):
        tracer.patch(spectrum, fn, "airy.eval", size=_points)

    for mod in (airywell, wavefunction, verify, cli):
        tracer.patch(mod, "level", "spectrum.level")
    tracer.patch(wavefunction, "eigenfunction_continued", "spectrum.continued")

    tracer.patch(profiles.TimeProfile, "tables", "profiles.tables")
    tracer.patch(quadrature.SimpsonGrid, "cumulative", "quadrature.cumulative",
                 size=_nodes)
    tracer.patch(quadrature.CumulativeTable, "value", "quadrature.value",
                 skip_inside="profiles.tables")
    for mod in (wavefunction, verify):
        tracer.patch(mod, "coefficients_at", "profiles.coefficients")
    for fn in ("phase", "shift_reorder_phase"):
        tracer.patch(wavefunction, fn, "profiles.phase")

    for mod in (airywell, wavefunction, verify):
        tracer.patch(mod, "wavefunction_branch", "wavefunction.branch")
    for mod in (airywell, cli):
        tracer.patch(mod, "assemble_wavefunction", "wavefunction.assemble")
    tracer.patch(cli, "reconstructed_density", "wavefunction.reconstruct")

    for fn, name in (("tdse_residual", "verify.tdse"),
                     ("invariant_eigen_residual", "verify.invariant_eigen"),
                     ("von_neumann_residual", "verify.von_neumann"),
                     ("pseudo_hermiticity_check", "verify.pseudo_hermiticity")):
        tracer.patch(cli, fn, name)
    tracer.patch(airywell, "crank_nicolson_propagate", "verify.cn", size=_steps)
    tracer.patch(verify, "build_hamiltonian", "verify.build_hamiltonian")
    tracer.patch(verify, "solve_banded", "verify.banded_solve")

    for fn in ("load_config", "run_solve", "run_verify"):
        tracer.patch(cli, fn, f"cli.{fn}")


# ------------------------------------------------------------ metrics


class _Index:
    """Spans grouped by name, with the CPU time of same-thread children."""

    def __init__(self, spans):
        self.by_name = defaultdict(list)
        self.name_of = {}
        self._thread_of = {}
        self._child_cpu = defaultdict(float)
        for s in spans:
            self.by_name[s.name].append(s)
            self.name_of[s.id] = s.name
            self._thread_of[s.id] = s.thread
        for s in spans:
            if self._thread_of.get(s.parent) == s.thread:
                self._child_cpu[s.parent] += s.cpu

    def count(self, name, parent=None):
        return sum(1 for s in self.by_name[name]
                   if parent is None or self.name_of.get(s.parent) == parent)

    def size(self, name):
        return sum(s.size for s in self.by_name[name])

    def busy(self, name):
        return sum(s.cpu for s in self.by_name[name])

    def self_time(self, name):
        return sum(s.cpu - self._child_cpu[s.id] for s in self.by_name[name])


# (metric, unit, function of an _Index) for metrics that add up over calls;
# reported as the setup amount plus the amount of one round.
_ADDITIVE = (
    ("airy.calls", "count", lambda ix: ix.count("airy.eval")),
    ("airy.points", "count", lambda ix: ix.size("airy.eval")),
    ("airy.busy_s", "s", lambda ix: ix.busy("airy.eval")),
    ("airy.zeros_s", "s", lambda ix: ix.busy("airy.zero")),
    ("spectrum.level_s", "s", lambda ix: ix.busy("spectrum.level")),
    ("spectrum.continued_self_s", "s", lambda ix: ix.self_time("spectrum.continued")),
    ("profiles.tables_s", "s", lambda ix: ix.busy("profiles.tables")),
    ("quadrature.cumulative_calls", "count", lambda ix: ix.count("quadrature.cumulative")),
    ("quadrature.table_nodes", "count", lambda ix: ix.size("quadrature.cumulative")),
    ("quadrature.value_calls", "count", lambda ix: ix.count("quadrature.value")),
    ("quadrature.value_s", "s", lambda ix: ix.busy("quadrature.value")),
    ("profiles.coefficients_calls", "count", lambda ix: ix.count("profiles.coefficients")),
    ("profiles.coefficients_s", "s", lambda ix: ix.busy("profiles.coefficients")),
    ("profiles.phase_calls", "count", lambda ix: ix.count("profiles.phase")),
    ("profiles.phase_s", "s", lambda ix: ix.busy("profiles.phase")),
    ("wavefunction.branch_calls", "count", lambda ix: ix.count("wavefunction.branch")),
    ("wavefunction.branch_self_s", "s", lambda ix: ix.self_time("wavefunction.branch")),
    ("wavefunction.assemble_s", "s", lambda ix: ix.busy("wavefunction.assemble")),
    ("wavefunction.reconstruct_s", "s", lambda ix: ix.busy("wavefunction.reconstruct")),
    ("verify.tdse_s", "s", lambda ix: ix.busy("verify.tdse")),
    ("verify.invariant_eigen_s", "s", lambda ix: ix.busy("verify.invariant_eigen")),
    ("verify.von_neumann_s", "s", lambda ix: ix.busy("verify.von_neumann")),
    ("verify.pseudo_hermiticity_s", "s", lambda ix: ix.busy("verify.pseudo_hermiticity")),
    ("verify.cn_self_s", "s", lambda ix: ix.self_time("verify.cn")),
    ("verify.banded_solve_s", "s", lambda ix: ix.busy("verify.banded_solve")),
    ("verify.build_hamiltonian_calls", "count",
     lambda ix: ix.count("verify.build_hamiltonian", parent="verify.cn")),
    ("cli.load_config_s", "s", lambda ix: ix.busy("cli.load_config")),
    ("cli.write_s", "s",
     lambda ix: ix.self_time("cli.run_solve") + ix.self_time("cli.run_verify")),
)

_POOL_JOBS = ("verify.tdse", "verify.invariant_eigen", "verify.von_neumann",
              "verify.pseudo_hermiticity")


def _pool_parallelism(ix):
    """Summed CPU time of the verify jobs over the wall time they span."""
    jobs = [s for name in _POOL_JOBS for s in ix.by_name[name]
            if ix.name_of.get(s.parent) == "cli.run_verify"]
    if not jobs:
        return 0.0
    wall = max(s.end for s in jobs) - min(s.start for s in jobs)
    return sum(s.cpu for s in jobs) / wall


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics for one cold workload execution: setup + one round.

    Counts and times are the setup amount plus the operation-phase amount
    divided by the number of rounds; the ratios are taken over the same
    sums.  The pool parallelism is taken over the operation phase only.
    """
    setup = _Index([s for s in spans if s.phase == "setup"])
    ops = _Index([s for s in spans if s.phase == "op"])
    out = {}
    for name, unit, fn in _ADDITIVE:
        out[name] = (fn(setup) + fn(ops) / rounds, unit)

    busy = out["airy.busy_s"][0]
    out["airy.points_per_s"] = (out["airy.points"][0] / busy if busy else 0.0, "1/s")
    cn = [s for s in spans if s.name == "verify.cn"]
    steps = sum(s.size for s in cn)
    cn_ms = 1e3 * sum(s.cpu for s in cn) / steps if steps else 0.0
    out["verify.cn_step_ms"] = (cn_ms, "ms")
    out["cli.pool_parallelism"] = (_pool_parallelism(ops), "ratio")
    return out
