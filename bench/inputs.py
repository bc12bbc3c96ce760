"""Seeded inputs for the benchmark workloads.

Every input a workload hands to airywell is made here from the
benchmark's --seed.  The program never sees the seed, only the files and
parameters written below.  Sizes are fixed; the seed only shapes the
histories, so the work per round does not depend on it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# solve-sampled: a few thousand table rows on [0, WINDOW], spacing 1e-3,
# so every requested time is a table row and a quadrature node.
SAMPLED_WINDOW = 2.0
SAMPLED_ROWS = 2001
SAMPLED_LEVELS = (1, 10)
SAMPLED_TIMES = (0.5, 1.25)
SAMPLED_HALF_WIDTH = 19.0        # level 10 needs at least lambda_10 + 10 = 18.49
SAMPLED_DX = 0.005

# propagate: full-line free runs and fed half-line runs, levels 0-2.
PROPAGATE_LEVELS = (0, 1, 2)
PROPAGATE_T1 = 0.1
PROPAGATE_DT = 2e-4
FULL_HALF_WIDTH = 20.0           # 4001 nodes
HALF_EXTENT = 20.0               # 2001 nodes
PROPAGATE_DX = 0.01


def sampled_histories(seed: int):
    """Smooth, strictly positive mass and smooth coupling on the table rows.

    m(t) = m0 (1 + a1 sin(w1 t + p1) + a2 sin(w2 t + p2)) stays within
    [0.55 m0, 1.45 m0]; f(t) = f0 + f1 cos(w3 t + p3) with f0 > f1.
    """
    rng = np.random.default_rng([seed, 1])
    t = np.arange(SAMPLED_ROWS) / ((SAMPLED_ROWS - 1) / SAMPLED_WINDOW)
    m0 = rng.uniform(0.9, 1.1)
    a1, a2 = rng.uniform(0.15, 0.3), rng.uniform(0.05, 0.15)
    w1, w2, w3 = rng.uniform(0.5, 2.0), rng.uniform(2.0, 4.0), rng.uniform(0.5, 3.0)
    p1, p2, p3 = rng.uniform(0.0, 2.0 * np.pi, 3)
    f0 = rng.uniform(0.7, 1.0)
    f1 = rng.uniform(0.2, 0.4)
    mass = m0 * (1.0 + a1 * np.sin(w1 * t + p1) + a2 * np.sin(w2 * t + p2))
    coupling = f0 + f1 * np.cos(w3 * t + p3)
    return t, mass, coupling


def write_verify_default(directory: Path) -> Path:
    """The default config: an empty YAML file, so every key takes its default."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "config.yaml"
    path.write_text("{}\n")
    return path


def write_solve_sampled(directory: Path, seed: int) -> Path:
    """Mass and coupling CSV tables plus the YAML config that names them."""
    directory.mkdir(parents=True, exist_ok=True)
    t, mass, coupling = sampled_histories(seed)
    for name, values in (("mass.csv", mass), ("coupling.csv", coupling)):
        with open(directory / name, "w") as fh:
            for ti, vi in zip(t, values):
                fh.write(f"{float(ti)!r},{float(vi)!r}\n")
    levels = ", ".join(str(n) for n in SAMPLED_LEVELS)
    times = ", ".join(repr(x) for x in SAMPLED_TIMES)
    path = directory / "config.yaml"
    path.write_text(
        "profile:\n"
        f"  window: {SAMPLED_WINDOW!r}\n"
        "  mass: {family: sampled, table: mass.csv}\n"
        "  coupling: {family: sampled, table: coupling.csv}\n"
        f"levels: [{levels}]\n"
        f"times: [{times}]\n"
        f"grid: {{half_width: {SAMPLED_HALF_WIDTH!r}, dx: {SAMPLED_DX!r}}}\n"
        "format: csv\n")
    return path


def write_propagate(directory: Path, seed: int) -> Path:
    """Profile blocks: the free full-line profile and a seeded wavy one.

    The wavy profile is the exponential-mass, sinusoidal-coupling family
    with its three rates drawn near 1.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    gamma, f0, omega = (float(v) for v in rng.uniform(0.8, 1.2, 3))
    blocks = {
        "free": {"window": 1.0,
                 "mass": {"family": "constant", "m0": 1.0},
                 "coupling": {"family": "zero"}},
        "wavy": {"window": 1.0,
                 "mass": {"family": "exponential", "m0": 1.0, "gamma": gamma},
                 "coupling": {"family": "sinusoidal", "f0": f0, "omega": omega}},
    }
    path = directory / "profiles.json"
    path.write_text(json.dumps(blocks, indent=1) + "\n")
    return path
