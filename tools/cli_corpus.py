#!/usr/bin/env python3
"""Run a fixed corpus of CLI invocations, one output directory each, and
compare two corpus runs.

    python tools/cli_corpus.py OUTDIR
    python tools/cli_corpus.py --compare A B [--rtol R]
    python tools/cli_corpus.py --digest OUTDIR [--manifest PATH]

Each invocation runs `python -W error::RuntimeWarning -m packflows.cli`
from this checkout's `src/` (the warning filter of the test suite, so a
RuntimeWarning surfaces as a changed exit code) and writes its outputs to
OUTDIR/<name>/, together with a file `exit` that holds the exit code. Two checkouts of the program compare byte for byte
with `diff -r A B`; `--compare` tells a rounding shift from a regression.
For each run it prints one of

    identical       every file is byte for byte the same
    within R        same files, exit code, termination and step count, and
                    every numeric CSV and JSON field within R (the largest
                    relative difference is printed)
    ends within R   same files, exit code and termination, but another
                    step sequence: the final trace rows agree within R,
                    their time aside (the largest relative difference and
                    both step counts are printed), as when the stepper
                    changes; a run that stops on a test of its state stops
                    at the first accepted point that passes it, and when
                    that is depends on the steps
    different       anything else (the first cause is printed, then each
                    side's exit code, termination and step count)

and it exits 1 when any run is different. A difference is taken relative
to the largest magnitude in its CSV column (over both runs), or of the two
JSON numbers, but never relative to less than 1: a quantity that is itself
rounding noise, such as a conserved drift of 4e-16, compares absolutely.

`--digest` writes the manifest of a corpus run (default CORPUS.sha256 at
the root of this checkout): a header of `#` lines, the environment record
(python, numpy, the BLAS library, its thread setting and the machine),
then one line per file of each run directory, `exit` included, sorted by
run, then by file:

    <sha256 of the file>  <the run's exit code>  <run>/<file>

tests/test_cli_corpus.py reruns a subset of the corpus against it.

The corpus holds the ten 2-d flow families on the tetrahedron, torus_7 and
genus2_11 (alpha families at alpha = 0, 1 and 2, except alpha = 1
alpha-calabi on the tetrahedron, which is too stiff for the explicit
stepper), with a Newton solve at alpha = 2, 1, 0 and -1 and a spectrum on
each of the three; flow, solve, spectrum and curvature on the three bundled
3-manifolds; curvature, spectrum and a short flow on the 7 x 7 x 7
Freudenthal 3-torus (2058 tetrahedra, written to OUTDIR/meshes); the cell5
flow into a removable singularity; the tetrahedron flow from the radii
1e-310,1,1,1, whose r^2 underflows (exit 2); on genus2_11 with edge
weights from a seeded U(0, pi/2) draw (written to OUTDIR/meshes),
curvature, the ricci-normalized and calabi flows, a Newton solve and a
spectrum; five refusals of a measure r^alpha or r^3 out of the float range
(exit 2): curvature on cell5 at radii near 1e150 and on the tetrahedron
at 1e-200,1,1,1, the alpha-ricci flow and a solve on the tetrahedron at
1e-200,1,1,1, and the cell5 flow at radii near 1e150; the refusal of a
curvature K / r^2 past the float range (exit 2): curvature on torus_7 at
2e-154,1,1,1,1,1,1, where r_0^2 is a normal double; and the four
admissibility conditions on octahedron, icosahedron, torus_7 and genus2_11,
plus one run with the full per-subset table and one with a subsets file,
and the Thurston condition and the metric condition with its full table
(65 534 rows) on the 4 x 4 grid torus (written to OUTDIR/meshes);
two regression runs: an icosahedron Newton solve whose line search
meets an overflowing trial point, and the metric condition at alpha = NaN
(invalid input, exit 2); three refusals of a complex of the other
dimension (exit 2): a surface family on cell16, the Yamabe flow on
torus_7, and the y condition on cell5; and two refusals of an invalid
complex (exit 2, written to OUTDIR/meshes): a tetrahedron with the
non-integral vertex entry 0.5, and cell16 with a listed edge (0, 1) that
lies in no tetrahedron; two refusals of a malformed document (exit 2): a
mesh whose faces are the numbers [1, 2, 3] (OUTDIR/meshes) and a metric
document that is the list [1, 2] (OUTDIR/metrics); and the cell16 solve at
the CLI's default of 20 starts.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from packflows import data  # noqa: E402
from packflows.flows2d import FAMILIES  # noqa: E402
from packflows.packing2d import curvature  # noqa: E402
from gen_meshes import (cell16, grid_torus, tetrahedron,  # noqa: E402
                        torus3_freudenthal)

SURFACES = ("tetrahedron", "torus_7", "genus2_11")
SOLIDS = ("cell5", "cell16", "torus3_27")
RANDOM = "0.8,1.3,1"
SOLVE_ALPHAS = (2.0, 1.0, 0.0, -1.0)
RANDOM_3D = "0.95,1.05,1"
REMOVABLE_RADII = "1.383,0.759,0.37,0.328,1.683"
LARGE_TORUS3 = 7  # the Freudenthal 3-torus of 7^3 vertices, 2058 tetrahedra
CHECKED = ("octahedron", "icosahedron", "torus_7", "genus2_11")
GRID_CHECKED = (4, 4)  # the grid torus of 16 vertices, 2^16 - 2 subsets
CONDITIONS = ("thurston", "y", "metric", "sphere")
RANDOM_CHECK = "0.5,2,1"
WEIGHT_SEED = 7  # the seed of the U(0, pi/2) edge weights of genus2_11
CELL5_1E150 = "1e150,1.1e150,0.9e150,1e150,1.05e150"
TETRA_1E200 = "1e-200,1,1,1"
TORUS7_R_OVERFLOW = "2e-154,1,1,1,1,1,1"  # K_0 / r_0^2 = -4 pi / 4e-308
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
    large = os.path.join(outdir, "meshes", f"torus3_{LARGE_TORUS3 ** 3}.json")
    os.makedirs(os.path.dirname(large), exist_ok=True)
    with open(large, "w") as fp:
        json.dump(torus3_freudenthal(LARGE_TORUS3), fp)
    for cmd in ("curvature", "spectrum"):
        runs.append((f"{cmd}-torus3-large",
                     [cmd, "--mesh", large, "--random", RANDOM_3D]))
    runs.append(("flow-torus3-large", ["flow", "--mesh", large, "--t-max",
                                       "0.05", "--random", RANDOM_3D]))
    runs.append(("flow-cell5-removable", ["flow", "--mesh", "cell5",
                                          "--radii", REMOVABLE_RADII]))
    runs.append(("flow-tetrahedron-start-out-of-range",
                 ["flow", "--mesh", "tetrahedron", "--radii",
                  "1e-310,1,1,1"]))
    genus2 = data.load("genus2_11")
    weights = np.random.default_rng(WEIGHT_SEED).uniform(
        0.0, np.pi / 2.0, len(genus2.edges))
    weighted = os.path.join(outdir, "meshes", "genus2_11-weighted.json")
    with open(weighted, "w") as fp:
        json.dump({"dim": 2, "vertex_count": genus2.vertex_count,
                   "faces": [list(f) for f in genus2.faces],
                   "edges": [[i, j, float(w)]
                             for (i, j), w in zip(genus2.edges, weights)]},
                  fp)
    for name, argv in (("curvature", ["curvature"]),
                       ("flow-ricci-normalized",
                        ["flow", "--family", "ricci-normalized", "--t-max",
                         "3"]),
                       ("flow-calabi",
                        ["flow", "--family", "calabi", "--t-max", "3"]),
                       ("solve", ["solve"]), ("spectrum", ["spectrum"])):
        runs.append((f"{name}-genus2_11-weighted",
                     argv + ["--mesh", weighted, "--random", RANDOM]))
    for name, argv in (
            ("curvature-cell5", ["curvature", "--mesh", "cell5", "--radii",
                                 CELL5_1E150]),
            ("curvature-tetrahedron", ["curvature", "--mesh", "tetrahedron",
                                       "--radii", TETRA_1E200]),
            ("flow-tetrahedron-alpha-ricci",
             ["flow", "--mesh", "tetrahedron", "--family", "alpha-ricci",
              "--radii", TETRA_1E200]),
            ("flow-cell5", ["flow", "--mesh", "cell5", "--radii",
                            CELL5_1E150]),
            ("solve-tetrahedron", ["solve", "--mesh", "tetrahedron",
                                   "--radii", TETRA_1E200])):
        runs.append((f"{name}-measure-refused", argv))
    runs.append(("curvature-torus_7-R-refused",
                 ["curvature", "--mesh", "torus_7", "--radii",
                  TORUS7_R_OVERFLOW]))
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
    grid = os.path.join(outdir, "meshes", "grid_torus_16.json")
    with open(grid, "w") as fp:
        json.dump(grid_torus(*GRID_CHECKED), fp)
    runs.append(("check-grid16-thurston",
                 ["check", "--mesh", grid, "--condition", "thurston"]))
    runs.append(("check-grid16-metric-full",
                 ["check", "--mesh", grid, "--condition", "metric",
                  "--random", RANDOM_CHECK, "--full"]))
    runs.append(("solve-icosahedron-overflowing-trial",
                 ["solve", "--mesh", "icosahedron", "--radii", OVERFLOW_START]))
    runs.append(("check-octahedron-metric-nan-alpha",
                 ["check", "--mesh", "octahedron", "--condition", "metric",
                  "--alpha", "nan", "--random", RANDOM_CHECK]))
    runs.append(("flow-cell16-calabi-refused",
                 ["flow", "--mesh", "cell16", "--family", "calabi",
                  "--random", RANDOM_3D]))
    runs.append(("flow-torus_7-yamabe-refused",
                 ["flow", "--mesh", "torus_7", "--family", "yamabe",
                  "--random", RANDOM]))
    runs.append(("check-cell5-y-refused",
                 ["check", "--mesh", "cell5", "--condition", "y"]))
    non_integral = tetrahedron()
    non_integral["faces"][0] = [0.5, 1, 2]
    stray_edge = cell16()
    stray_edge["edges"] = [list(e) for e in data.load("cell16").edges]
    stray_edge["edges"].append([0, 1])
    for name, doc, radii in (("non-integral-vertex", non_integral, RANDOM),
                             ("cell16-stray-edge", stray_edge, RANDOM_3D)):
        path = os.path.join(outdir, "meshes", f"{name}.json")
        with open(path, "w") as fp:
            json.dump(doc, fp)
        runs.append((f"curvature-{name}-refused",
                     ["curvature", "--mesh", path, "--random", radii]))
    numbers = os.path.join(outdir, "meshes", "faces-of-numbers.json")
    with open(numbers, "w") as fp:
        json.dump({"dim": 2, "vertex_count": 4, "faces": [1, 2, 3]}, fp)
    runs.append(("curvature-faces-of-numbers-refused",
                 ["curvature", "--mesh", numbers]))
    metric = os.path.join(outdir, "metrics", "list.json")
    os.makedirs(os.path.dirname(metric), exist_ok=True)
    with open(metric, "w") as fp:
        json.dump([1, 2], fp)
    runs.append(("curvature-metric-list-refused",
                 ["curvature", "--mesh", "tetrahedron", "--metric", metric]))
    runs.append(("solve-cell16-starts20",
                 ["solve", "--mesh", "cell16", "--starts", "20"]))
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
        if doc_a["termination"] != doc_b["termination"]:
            return "different", (f"termination {doc_a['termination']} != "
                                 f"{doc_b['termination']}")
        if doc_a["steps"] != doc_b["steps"]:
            return _compare_ends(blobs["trace.csv"], doc_a["steps"],
                                 doc_b["steps"], rtol)
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


def _compare_ends(traces, steps_a, steps_b, rtol):
    """(verdict, detail) for two runs whose step sequences differ: their
    final trace rows, under the trace header and without the time column,
    within rtol."""
    ends = []
    for text in traces:
        lines = text.splitlines()
        ends.append("\n".join(line.split(",", 1)[1]
                              for line in (lines[0], lines[-1])))
    try:
        worst = _csv_diff(*ends)
    except ValueError as exc:
        return "different", f"final trace row: {exc}"
    if worst > rtol:
        return "different", (f"final trace rows differ by {worst:.3g} > "
                             f"{rtol:g} (steps {steps_a} != {steps_b})")
    return "ends", f"{worst:.3g}; steps {steps_a} -> {steps_b}"


def _outcome(rundir):
    """'exit E, TERMINATION, N steps' of a run directory ('-' for what it
    does not hold)."""
    def read(name):
        try:
            with open(os.path.join(rundir, name)) as fp:
                return fp.read()
        except OSError:
            return None
    code = (read("exit") or "-").strip()
    summary = read("flow_summary.json")
    doc = json.loads(summary) if summary else {}
    return (f"exit {code}, {doc.get('termination', '-')}, "
            f"{doc.get('steps', '-')} steps")


def compare(dir_a, dir_b, rtol):
    """Print a verdict per run; the number of runs that are different."""
    names_a = {n for n in os.listdir(dir_a) if os.path.isfile(
        os.path.join(dir_a, n, "exit"))}
    names_b = {n for n in os.listdir(dir_b) if os.path.isfile(
        os.path.join(dir_b, n, "exit"))}
    counts = {"identical": 0, "within": 0, "ends": 0, "different": 0}
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            verdict, detail = "different", "run missing on one side"
        else:
            verdict, detail = compare_run(os.path.join(dir_a, name),
                                          os.path.join(dir_b, name), rtol)
        counts[verdict] += 1
        label = {"within": f"within {rtol:g}",
                 "ends": f"ends within {rtol:g}"}.get(verdict, verdict)
        print(f"{name}: {label}" + (f" ({detail})" if detail else ""))
        if verdict == "different":
            for side in (dir_a, dir_b):
                print(f"    {side}: {_outcome(os.path.join(side, name))}")
    print(", ".join(f"{k} {v}" for k, v in counts.items()))
    return counts["different"]


def _cpu_model():
    """The CPU model name of the first processor /proc/cpuinfo lists, or
    platform.processor()."""
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    """The environment record of a manifest, as (key, value) pairs: what
    besides the program decides the bytes a run writes."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return [("python", platform.python_version()),
            ("numpy", np.__version__), ("blas", blas),
            ("blas threads", f"{threads}, "
                             f"{len(os.sched_getaffinity(0))} cpus"),
            ("machine", f"{platform.machine()}, {_cpu_model()}")]


def digest(outdir, names=None):
    """The manifest lines of the run directories of outdir (those of names
    only, when given), sorted by run, then by file."""
    lines = []
    for name in sorted(os.listdir(outdir) if names is None else names):
        rundir = os.path.join(outdir, name)
        if not os.path.isfile(os.path.join(rundir, "exit")):
            continue
        with open(os.path.join(rundir, "exit")) as fp:
            code = fp.read().strip()
        for leaf in sorted(os.listdir(rundir)):
            with open(os.path.join(rundir, leaf), "rb") as fp:
                sha = hashlib.sha256(fp.read()).hexdigest()
            lines.append(f"{sha}  {code}  {name}/{leaf}")
    return lines


def write_manifest(outdir, path):
    with open(path, "w") as fp:
        fp.write("# the sha256, exit code and path of every file of a CLI "
                 "corpus run (tools/cli_corpus.py --digest)\n")
        for key, value in environment():
            fp.write(f"# {key}: {value}\n")
        for line in digest(outdir):
            fp.write(line + "\n")


def read_manifest(path):
    """(environment record, lines) of a manifest."""
    with open(path) as fp:
        text = fp.read().splitlines()
    return ([tuple(line[2:].split(": ", 1)) for line in text
             if line.startswith("# ") and ": " in line],
            [line for line in text if not line.startswith("#")])


def run_corpus(outdir, names=None):
    """Run the corpus (the runs of names only, when given) into outdir."""
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    for name, cmd in corpus(outdir):
        if names is not None and name not in names:
            continue
        rundir = os.path.join(outdir, name)
        os.makedirs(rundir, exist_ok=True)
        try:
            code = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m",
                 "packflows.cli", *cmd, "--out", rundir],
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
    ap.add_argument("--digest", metavar="OUTDIR",
                    help="write the manifest of the corpus run in OUTDIR")
    ap.add_argument("--manifest", default=os.path.join(ROOT, "CORPUS.sha256"),
                    help="the manifest --digest writes")
    args = ap.parse_args()
    if [args.outdir, args.compare, args.digest].count(None) != 2:
        ap.error("give one of OUTDIR, --compare A B and --digest OUTDIR")
    if args.compare:
        return 1 if compare(*args.compare, args.rtol) else 0
    if args.digest:
        write_manifest(args.digest, args.manifest)
        return 0
    run_corpus(os.path.abspath(args.outdir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
