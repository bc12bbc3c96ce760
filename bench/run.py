"""airywell benchmark: one workload per call, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-default, solve-sampled, propagate (see README.md).
With --trace 0 the result holds the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a traced run, and the spans are
written to bench/out/NAME/trace.jsonl.  The package is imported from
./src; the command fails when that is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 5

# The speed of a shared 2-core sandbox drifts by a quarter or more over
# minutes.  A fixed snippet that never calls airywell runs before and
# after every timed piece of work, for at least SAMPLE_SHARE of that
# work's time, and every time of the run is scaled by the snippet's
# nominal time over its median measured time in that run: reported times
# are seconds at the nominal machine speed.
CAL_NOMINAL_S = 0.013
SAMPLE_SHARE = 0.05
_CAL_X = np.linspace(-1.0, 1.0, 2001) + 0.5j
_CAL_BAND = np.vstack([np.full(2001, 1.0 + 0j), np.full(2001, 4.0 + 0j),
                       np.full(2001, 1.0 + 0j)])


def _calibration() -> float:
    """Wall time of the fixed snippet: Python calls, array arithmetic and a
    banded solve, the mix of work the workloads do."""
    start = time.perf_counter()
    count = 0
    for _ in range(20000):
        count = _next(count)
    x = _CAL_X
    for _ in range(100):
        x = np.abs(x) * 0.5 + _CAL_X
        solve_banded((1, 1), _CAL_BAND, x, check_finite=False)
    return time.perf_counter() - start


def _next(count):
    return count + 1


def _timed(pieces, snippets: list) -> tuple:
    """Run the callables with snippets before the first and after each.

    After a callable the snippet runs at least once and for at least
    SAMPLE_SHARE of the callable's time.  Appends the snippet times to
    `snippets`; returns (wall seconds of the callables alone, results).
    """
    wall = 0.0
    results = []
    snippets.append(_calibration())
    for piece in pieces:
        start = time.perf_counter()
        results.append(piece())
        took = time.perf_counter() - start
        wall += took
        spent = 0.0
        while not spent or spent < SAMPLE_SHARE * took:
            snippets.append(_calibration())
            spent += snippets[-1]
    return wall, results


def _cold_setup(workload: str, input_dir: Path, out_dir: Path) -> float:
    """Wall seconds of a cold set-up in a fresh interpreter, start to ready."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload,
           str(input_dir), str(out_dir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return wall


def _rounds(workload, seconds: float, snippets: list) -> list:
    """Whole rounds until `seconds` have passed: (wall, work, bytes) each."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        wall, results = _timed(workload.operations(), snippets)
        rounds.append((wall, sum(r[0] for r in results), sum(r[1] for r in results)))
    if len({r[1] for r in rounds}) != 1:
        raise RuntimeError("work per round changed between rounds")
    return rounds


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "airywell" / "__init__.py").is_file():
        print("error: run from the repository root; src/airywell is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    out_dir = BENCH / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    input_dir = out_dir / "inputs"
    cls = WORKLOADS[args.workload]
    cls.make_inputs(input_dir, args.seed)
    workload = cls(input_dir, out_dir)

    snippets = []
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.phase = "setup"
    else:
        setups = [_timed([lambda: _cold_setup(args.workload, input_dir, out_dir)],
                         snippets)[1][0] for _ in range(SETUP_RUNS)]

    setup_here = _timed([workload.prepare], snippets)[0]
    if tracer:
        tracer.phase = "op"
    rounds = _rounds(workload, args.seconds, snippets)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.phase = None
        tracer.restore()

    problems = workload.check()
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    scale = CAL_NOMINAL_S / statistics.median(snippets)
    round_wall = statistics.median(r[0] for r in rounds)
    round_s = round_wall * scale
    print(f"{args.workload}: {len(rounds)} rounds, median round {round_wall:.4f} s wall, "
          f"{round_s:.4f} s nominal (scale {scale:.4f})", file=sys.stderr)
    if tracer:
        metrics = tracing.layer_metrics(tracer.spans, len(rounds))
        metrics["cli.bytes_written"] = (rounds[0][2], "bytes")
        metrics["trace.total_s"] = ((setup_here + round_wall) * scale, "s")
        tracer.write(out_dir / "trace.jsonl")
    else:
        setup_wall = statistics.median(setups)
        setup_s = setup_wall * scale
        print(f"{args.workload}: median set-up {setup_wall:.4f} s wall, "
              f"{setup_s:.4f} s nominal", file=sys.stderr)
        metrics = {
            "setup_s": (setup_s, "s"),
            "total_s": (setup_s + round_s, "s"),
            "throughput": (rounds[0][1] / round_s, "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": workload.ops * len(rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
