#!/usr/bin/env python3
"""Run a fixed corpus of CLI invocations, one output directory each.

    python tools/cli_corpus.py OUTDIR

Each invocation runs `python -m packflows.cli` from this checkout's `src/`
and writes its outputs to OUTDIR/<name>/, together with a file `exit` that
holds the exit code. Two checkouts of the program compare byte for byte
with

    diff -r OUTDIR_A OUTDIR_B

The corpus holds the ten 2-d flow families on the tetrahedron, torus_7 and
genus2_11 (alpha families at alpha = 0, 1 and 2, except alpha = 1
alpha-calabi on the tetrahedron, which is too stiff for the explicit
stepper); flow, solve, spectrum and curvature on the three bundled
3-manifolds; the cell5 flow into a removable singularity; and the four
admissibility conditions on octahedron, icosahedron, torus_7 and genus2_11,
plus one run with the full per-subset table and one with a subsets file.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from packflows import data  # noqa: E402
from packflows.flows2d import FAMILIES  # noqa: E402
from packflows.packing2d import curvature  # noqa: E402

SURFACES = ("tetrahedron", "torus_7", "genus2_11")
SOLIDS = ("cell5", "cell16", "torus3_27")
RANDOM = "0.8,1.3,1"
RANDOM_3D = "0.95,1.05,1"
REMOVABLE_RADII = "1.383,0.759,0.37,0.328,1.683"
CHECKED = ("octahedron", "icosahedron", "torus_7", "genus2_11")
CONDITIONS = ("thurston", "y", "metric", "sphere")
RANDOM_CHECK = "0.5,2,1"
# unsorted, repeated and overlapping subsets of the icosahedron
SUBSETS = [[9, 2], [0], [2, 9], [11, 3, 7], [0, 1, 2, 3, 4, 5]]
TIMEOUT_S = 600


def _write_target(outdir, mesh, alpha):
    """Target file: the alpha-curvature of fixed radii near 1."""
    c = data.load(mesh)
    r = np.random.default_rng(101).uniform(0.9, 1.1, c.vertex_count)
    path = os.path.join(outdir, "targets", f"{mesh}-a{alpha:g}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fp:
        json.dump({"target": [float(x) for x in curvature(c, r, alpha)]}, fp)
    return path


def corpus(outdir):
    """(name, argv without --out) for every invocation."""
    runs = []
    for mesh in SURFACES:
        for family, row in sorted(FAMILIES.items()):
            if row.field is None:
                continue
            for alpha in ([row.alpha] if row.alpha is not None else [0.0, 1.0, 2.0]):
                if (mesh, family, alpha) == ("tetrahedron", "alpha_calabi", 1.0):
                    continue
                argv = ["flow", "--mesh", mesh, "--family", family.replace("_", "-"),
                        "--alpha", f"{alpha:g}", "--random", RANDOM, "--t-max", "3"]
                if row.prescribed:
                    argv += ["--target", _write_target(outdir, mesh, alpha)]
                runs.append((f"flow-{mesh}-{family}-a{alpha:g}", argv))
    for mesh in SOLIDS:
        runs.append((f"flow-{mesh}", ["flow", "--mesh", mesh, "--eps", "1e-8",
                                      "--random", RANDOM_3D]))
        runs.append((f"solve-{mesh}", ["solve", "--mesh", mesh, "--starts", "4"]))
        for cmd in ("spectrum", "curvature"):
            runs.append((f"{cmd}-{mesh}",
                         [cmd, "--mesh", mesh, "--random", RANDOM_3D]))
    runs.append(("flow-cell5-removable", ["flow", "--mesh", "cell5",
                                          "--radii", REMOVABLE_RADII]))
    for mesh in CHECKED:
        for cond in CONDITIONS:
            runs.append((f"check-{mesh}-{cond}",
                         ["check", "--mesh", mesh, "--condition", cond,
                          "--random", RANDOM_CHECK]))
    runs.append(("check-icosahedron-y-full",
                 ["check", "--mesh", "icosahedron", "--condition", "y",
                  "--random", RANDOM_CHECK, "--full"]))
    subsets = os.path.join(outdir, "subsets", "icosahedron.json")
    os.makedirs(os.path.dirname(subsets), exist_ok=True)
    with open(subsets, "w") as fp:
        json.dump(SUBSETS, fp)
    runs.append(("check-icosahedron-metric-subsets",
                 ["check", "--mesh", "icosahedron", "--condition", "metric",
                  "--random", RANDOM_CHECK, "--subsets", subsets, "--full"]))
    return runs


def main():
    args = sys.argv[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = os.path.abspath(args[0])
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    for name, cmd in corpus(outdir):
        rundir = os.path.join(outdir, name)
        os.makedirs(rundir, exist_ok=True)
        try:
            code = subprocess.run(
                [sys.executable, "-m", "packflows.cli", *cmd, "--out", rundir],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        with open(os.path.join(rundir, "exit"), "w") as fp:
            fp.write(f"{code}\n")
        print(f"{name}: {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
