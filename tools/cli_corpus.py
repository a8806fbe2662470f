#!/usr/bin/env python3
"""Run a fixed corpus of CLI invocations, one output directory each, and
compare two corpus runs.

    python tools/cli_corpus.py OUTDIR
    python tools/cli_corpus.py --compare A B [--rtol R]

Each invocation runs `python -m packflows.cli` from this checkout's `src/`
and writes its outputs to OUTDIR/<name>/, together with a file `exit` that
holds the exit code. Two checkouts of the program compare byte for byte
with `diff -r A B`; `--compare` tells a rounding shift from a regression.
For each run it prints one of

    identical       every file is byte for byte the same
    within R        same files, exit code, termination and step count, and
                    every numeric CSV and JSON field within R (the largest
                    relative difference is printed)
    different       anything else (the first cause is printed)

and it exits 1 when any run is different. A difference is taken relative
to the largest magnitude in its CSV column (over both runs), or of the two
JSON numbers, but never relative to less than 1: a quantity that is itself
rounding noise, such as a conserved drift of 4e-16, compares absolutely.

The corpus holds the ten 2-d flow families on the tetrahedron, torus_7 and
genus2_11 (alpha families at alpha = 0, 1 and 2, except alpha = 1
alpha-calabi on the tetrahedron, which is too stiff for the explicit
stepper), with a Newton solve at alpha = 2, 1, 0 and -1 and a spectrum on
each of the three; flow, solve, spectrum and curvature on the three bundled
3-manifolds; the cell5 flow into a removable singularity; and the four
admissibility conditions on octahedron, icosahedron, torus_7 and genus2_11,
plus one run with the full per-subset table and one with a subsets file;
and two regression runs: an icosahedron Newton solve whose line search
meets an overflowing trial point, and the metric condition at alpha = NaN
(invalid input, exit 2).
"""

import argparse
import json
import math
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
SOLVE_ALPHAS = (2.0, 1.0, 0.0, -1.0)
RANDOM_3D = "0.95,1.05,1"
REMOVABLE_RADII = "1.383,0.759,0.37,0.328,1.683"
CHECKED = ("octahedron", "icosahedron", "torus_7", "genus2_11")
CONDITIONS = ("thurston", "y", "metric", "sphere")
RANDOM_CHECK = "0.5,2,1"
# unsorted, repeated and overlapping subsets of the icosahedron
SUBSETS = [[9, 2], [0], [2, 9], [11, 3, 7], [0, 1, 2, 3, 4, 5]]
# a valid icosahedron start at which a Newton line-search trial overflows
OVERFLOW_START = ("1.73464,0.749798,1.5736,1.75386,0.732441,1.14366,0.590435,"
                  "1.52357,1.37567,1.35655,0.815812,1.09915")
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
        for alpha in SOLVE_ALPHAS:
            runs.append((f"solve-{mesh}-a{alpha:g}",
                         ["solve", "--mesh", mesh, "--alpha", f"{alpha:g}",
                          "--random", RANDOM]))
        runs.append((f"spectrum-{mesh}", ["spectrum", "--mesh", mesh,
                                          "--random", RANDOM]))
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
    runs.append(("solve-icosahedron-overflowing-trial",
                 ["solve", "--mesh", "icosahedron", "--radii", OVERFLOW_START]))
    runs.append(("check-octahedron-metric-nan-alpha",
                 ["check", "--mesh", "octahedron", "--condition", "metric",
                  "--alpha", "nan", "--random", RANDOM_CHECK]))
    return runs


def _number(cell):
    """The cell as a finite float, or None (text, nan and inf compare as
    text)."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _csv_diff(a, b):
    """Largest relative difference of two CSV files of the same shape."""
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        raise ValueError("CSV shapes differ")
    scale, diff = {}, {}
    for row_a, row_b in zip(rows_a, rows_b):
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            u, v = _number(x), _number(y)
            if u is None or v is None:
                if x != y:
                    raise ValueError(f"CSV cell {x!r} != {y!r}")
                continue
            scale[col] = max(scale.get(col, 1.0), abs(u), abs(v))
            diff[col] = max(diff.get(col, 0.0), abs(u - v))
    return max((diff[col] / scale[col] for col in diff), default=0.0)


def _json_diff(a, b, where="$"):
    """Largest relative difference of two JSON documents of the same shape."""
    if type(a) in (int, float) and type(b) in (int, float):
        if math.isfinite(a) and math.isfinite(b):
            return abs(a - b) / max(abs(a), abs(b), 1.0)
        if repr(a) != repr(b):  # nan and inf compare as text
            raise ValueError(f"{where}: {a!r} != {b!r}")
        return 0.0
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_json_diff(x, y, f"{where}[{k}]")
                    for k, (x, y) in enumerate(zip(a, b))), default=0.0)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((_json_diff(a[k], b[k], f"{where}.{k}") for k in a),
                   default=0.0)
    if a != b:
        raise ValueError(f"{where}: {a!r} != {b!r}")
    return 0.0


def compare_run(dir_a, dir_b, rtol):
    """(verdict, detail) for one run's output directories."""
    files_a, files_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    if files_a != files_b:
        return "different", f"files {files_a} != {files_b}"
    blobs = {}
    for name in files_a:
        with open(os.path.join(dir_a, name)) as fa, \
                open(os.path.join(dir_b, name)) as fb:
            blobs[name] = (fa.read(), fb.read())
    if all(x == y for x, y in blobs.values()):
        return "identical", ""
    if blobs["exit"][0] != blobs["exit"][1]:
        return "different", "exit code " + " != ".join(
            x.strip() for x in blobs["exit"])
    if "flow_summary.json" in blobs:
        doc_a, doc_b = (json.loads(x) for x in blobs["flow_summary.json"])
        for key in ("termination", "steps"):
            if doc_a[key] != doc_b[key]:
                return "different", f"{key} {doc_a[key]} != {doc_b[key]}"
    worst = 0.0
    for name, (x, y) in blobs.items():
        try:
            if name.endswith(".csv"):
                worst = max(worst, _csv_diff(x, y))
            elif name.endswith(".json"):
                worst = max(worst, _json_diff(json.loads(x), json.loads(y)))
            elif x != y:
                return "different", f"{name} differs"
        except ValueError as exc:
            return "different", f"{name}: {exc}"
    if worst > rtol:
        return "different", f"largest relative difference {worst:.3g} > {rtol:g}"
    return "within", f"{worst:.3g}"


def compare(dir_a, dir_b, rtol):
    """Print a verdict per run; the number of runs that are different."""
    names_a = {n for n in os.listdir(dir_a) if os.path.isfile(
        os.path.join(dir_a, n, "exit"))}
    names_b = {n for n in os.listdir(dir_b) if os.path.isfile(
        os.path.join(dir_b, n, "exit"))}
    counts = {"identical": 0, "within": 0, "different": 0}
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            verdict, detail = "different", "run missing on one side"
        else:
            verdict, detail = compare_run(os.path.join(dir_a, name),
                                          os.path.join(dir_b, name), rtol)
        counts[verdict] += 1
        label = f"within {rtol:g}" if verdict == "within" else verdict
        print(f"{name}: {label}" + (f" ({detail})" if detail else ""))
    print(", ".join(f"{k} {v}" for k, v in counts.items()))
    return counts["different"]


def run_corpus(outdir):
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


def main():
    ap = argparse.ArgumentParser(
        description="Run the CLI corpus into OUTDIR, or compare two runs.")
    ap.add_argument("outdir", nargs="?", help="directory to run the corpus into")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two corpus directories instead")
    ap.add_argument("--rtol", type=float, default=1e-8,
                    help="largest relative difference of a 'within' run")
    args = ap.parse_args()
    if (args.outdir is None) == (args.compare is None):
        ap.error("give either OUTDIR or --compare A B")
    if args.compare:
        return 1 if compare(*args.compare, args.rtol) else 0
    run_corpus(os.path.abspath(args.outdir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
