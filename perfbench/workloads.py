"""Job lists of the three benchmark workloads and the checks on their outputs.

Every job is built from the workload seed: the benchmark draws all radii (and
the multistart seed of the 3-d solve) and hands the program only those
generated inputs. Each job declares what it must end with (exit code and
termination); a job that ends otherwise, raises, writes no summary or runs
past its time limit has *failed*. A job that ends as declared but whose output
breaks an invariant of the theory is *incorrect*, which makes the whole
benchmark run incorrect.

Import this module only after ``packflows`` is importable (``run.py`` puts the
checkout's ``src`` on ``sys.path``).
"""

import hashlib
import io
import json
import math
import os
import shutil
import signal
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from packflows import cli, data, flows2d, operators2d, packing2d
from packflows.mesh import Surface2Complex, euler_characteristic

GAUSS_BONNET_TOL = 1e-9
DRIFT_TOL = 1e-8
KERNEL_TOL = 1e-9
FD_KERNEL_TOL = 1e-5

# The alpha = 1 normalized flow on the tetrahedron must end "diverged"; with
# energies recorded (the CLI default) it instead spends tens of seconds in the
# Ricci-potential quadrature, often ending in QuadratureFailureError (one draw
# through the CLI: 165 s). The job is stopped after DEFECT_FACTOR times the
# time the same flow takes with energies off, measured in each run before the
# timed passes (``calibrate``), so the limit follows the machine's speed. The
# factor leaves room for a working monitor: the one measured draw where
# energies-on ended correctly took 13x its energies-off time (9.23 s against
# 0.71 s), and on genus2_11 energies cost 5.6x.
DEFECT_FACTOR = 20.0


class JobTimeout(Exception):
    """Raised inside a job that ran past its time limit."""


class OutputError(AssertionError):
    """A job's output breaks an invariant: the program computed a wrong result."""


@dataclass
class Job:
    id: str
    kind: str                  # "flow", "check", "solve" or "other"
    call: object               # callable(workdir) -> (exit code or None, value)
    expect_exit: int | None = None
    expect_termination: str | None = None
    eps: float | None = None
    limit_s: float | None = None
    vertices: int = 0
    argv: list | None = None   # the command line of a CLI job
    mesh: object = None        # the complex of a library job
    kernel_tol: float = KERNEL_TOL  # spectrum jobs: largest admitted kernel residual
    reference: object = None   # callable timed by ``calibrate`` to set limit_s
    reference_s: float | None = None


@dataclass
class Outcome:
    job: Job
    seconds: float
    status: str                # "ok", "failed", "timeout" or "incorrect"
    detail: str = ""
    steps: int | None = None
    termination: str | None = None
    digest: str = ""
    bytes_written: int = 0


# -- input generation -----------------------------------------------------------


def grid_torus(n, m):
    """Diagonal triangulation of an n x m torus grid (all vertex degrees 6)."""
    def vid(i, j):
        return (i % n) * m + (j % m)

    faces = []
    for i in range(n):
        for j in range(m):
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            faces.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return Surface2Complex(n * m, faces)


def _radii_arg(r):
    return ",".join(repr(float(x)) for x in r)


def _admissible3(c, rng, lo, hi):
    """Radii drawn until every tetrahedron has a positive Q factor."""
    while True:
        r = rng.uniform(lo, hi, c.vertex_count)
        inv = 1.0 / r[np.asarray(c.tetrahedra)]
        if np.all(inv.sum(axis=1) ** 2 - 2.0 * (inv ** 2).sum(axis=1) > 0.0):
            return r


# -- job constructors -----------------------------------------------------------


def _cli_job(id, kind, argv, expect_exit, expect_termination=None, eps=None,
             vertices=0, kernel_tol=KERNEL_TOL):
    def call(workdir):
        return cli.main(argv + ["--out", workdir]), None
    return Job(id, kind, call, expect_exit, expect_termination, eps,
               vertices=vertices, argv=argv, kernel_tol=kernel_tol)


def _energies_off(c, r0, alpha):
    """The CLI's alpha-family flow through the library, energies not recorded."""
    spec = flows2d.FlowSpec("alpha_ricci_normalized", alpha=alpha,
                            record_energies=False)
    return lambda: flows2d.run(spec, c, r0)


def calibrate(jobs, repeats=5):
    """Set the time limit of each job that has a reference run.

    The fastest of a few reference runs is taken: on a shared machine the
    time of identical work swings by a quarter within seconds, and the
    fastest run varies least.
    """
    for job in jobs:
        if job.reference is not None:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                job.reference()
                times.append(time.perf_counter() - t0)
            job.reference_s = min(times)
            job.limit_s = DEFECT_FACTOR * job.reference_s


SURFACE_FLOWS = (("ricci-normalized", 2.0), ("calabi", 2.0),
                 ("calabi-modified", 2.0), ("alpha-ricci-normalized", 1.0),
                 ("alpha-calabi", 1.0))
# At eps = 1e-9 convergence would be decided by roundoff: torus_7 stalls near
# 2e-9 and genus2_11 cannot reach 1e-10. Each target is 10x above the floor.
SURFACE_EPS = {"torus_7": 1e-7, "genus2_11": 1e-8}
# checks expected to exit 6 (violated): on a sphere, I = V minus one vertex
# spans a disc with an empty link, so rhs(I) = 2 pi > 0; all others exit 0
CHECK_VIOLATED = {("octahedron", "sphere"), ("icosahedron", "sphere")}


def cli_bundled(seed):
    """The five CLI commands on the bundled meshes, energies recorded."""
    rng = np.random.default_rng([seed, 1])
    sizes = {name: data.load(name).vertex_count for name in data.available()}
    jobs = []
    for mesh in ("torus_7", "genus2_11"):
        for family, alpha in SURFACE_FLOWS:
            eps = SURFACE_EPS[mesh]
            r = rng.uniform(0.5, 2.0, sizes[mesh])
            jobs.append(_cli_job(
                f"flow/{mesh}/{family}", "flow",
                ["flow", "--mesh", mesh, "--family", family, "--alpha",
                 repr(alpha), "--eps", repr(eps), "--radii", _radii_arg(r)],
                0, "converged", eps))
    tetrahedron = data.load("tetrahedron")
    for alpha, term, code in ((0.5, "converged", 0), (1.0, "diverged", 4)):
        # a ramp with 0.5% jitter: under U(0.5, 2) draws the energies-off
        # time of the alpha = 1 run, and so its limit, varies 0.2-2.8 s
        r = _ramp(4, rng)
        job = _cli_job(
            f"flow/tetrahedron/alpha-ricci-normalized/{alpha:g}", "flow",
            ["flow", "--mesh", "tetrahedron", "--family",
             "alpha-ricci-normalized", "--alpha", repr(alpha),
             "--radii", _radii_arg(r)],
            code, term, 1e-9)
        if term == "diverged":
            job.reference = _energies_off(tetrahedron, r, alpha)
        jobs.append(job)
    for mesh in ("octahedron", "icosahedron", "torus_7", "genus2_11"):
        r = rng.uniform(0.5, 2.0, sizes[mesh])
        for cond in ("thurston", "sphere", "metric", "y"):
            jobs.append(_cli_job(
                f"check/{mesh}/{cond}", "check",
                ["check", "--mesh", mesh, "--condition", cond,
                 "--radii", _radii_arg(r)],
                6 if (mesh, cond) in CHECK_VIOLATED else 0, vertices=sizes[mesh]))
    for method in ("newton", "flow"):
        for draw in (1, 2, 3, 4):
            r = rng.uniform(0.5, 2.0, sizes["genus2_11"])
            jobs.append(_cli_job(
                f"solve/genus2_11/{method}/{draw}", "solve",
                ["solve", "--mesh", "genus2_11", "--method", method,
                 "--radii", _radii_arg(r)], 0))
    for mesh in ("tetrahedron", "octahedron", "icosahedron", "torus_7",
                 "genus2_11"):
        r = rng.uniform(0.5, 2.0, sizes[mesh])
        jobs.append(_cli_job(f"curvature/{mesh}", "other",
                             ["curvature", "--mesh", mesh,
                              "--radii", _radii_arg(r)], 0))
    for mesh in ("icosahedron", "genus2_11"):
        r = rng.uniform(0.5, 2.0, sizes[mesh])
        jobs.append(_cli_job(f"spectrum/{mesh}", "other",
                             ["spectrum", "--mesh", mesh,
                              "--radii", _radii_arg(r)], 0))
    return jobs


def _flow_job(id, c, r0, family, t_max):
    spec = flows2d.FlowSpec(family, t_max=t_max, record_energies=False)

    def call(workdir):
        return None, flows2d.run(spec, c, r0)
    return Job(id, "flow", call, None, "max_time", spec.eps, mesh=c)


def _newton_job(id, c, r0):
    def call(workdir):
        return None, flows2d.find_constant_curvature(c, 2.0, r0)
    return Job(id, "solve", call, mesh=c)


def _spectrum_job(id, c, r0):
    def call(workdir):
        return None, operators2d.laplacian_spectrum(c, r0)
    return Job(id, "other", call, mesh=c)


GRID_SIDES = (20, 40, 60)
RICCI_T_MAX = 6.0
CALABI_T_MAX = 0.05


def _grid_radii(n, rng, jitter=0.05):
    """A smooth bump profile on the n x n grid with multiplicative jitter.

    Under independent uniform radii the step count of a short Calabi run
    depends on the draw (19-25 steps to t = 0.03 at V = 1600); a fixed profile
    keeps the stiffness, and so the work, the same for every seed.
    """
    x = 2.0 * np.pi * np.arange(n) / n
    base = np.exp(0.3 * np.outer(np.sin(x), np.cos(x)).ravel())
    return base * np.exp(rng.uniform(-jitter, jitter, n * n))


def grid_tori(seed):
    """Library API on grid tori with V = 400, 1600 and 3600, energies off."""
    rng = np.random.default_rng([seed, 2])
    grids = {n: grid_torus(n, n) for n in GRID_SIDES}
    jobs = []
    for n, c in grids.items():
        jobs.append(_flow_job(f"flow/grid{n * n}/ricci_normalized", c,
                              _grid_radii(n, rng), "ricci_normalized",
                              RICCI_T_MAX))
    for n in (20, 40):
        jobs.append(_flow_job(f"flow/grid{n * n}/calabi", grids[n],
                              _grid_radii(n, rng), "calabi", CALABI_T_MAX))
    for n in (20, 40):
        jobs.append(_newton_job(f"solve/grid{n * n}/newton", grids[n],
                                _grid_radii(n, rng)))
    jobs.append(_spectrum_job("spectrum/grid1600", grids[40],
                              _grid_radii(40, rng)))
    return jobs


# (mesh, expected termination, exit code). Flow radii are a fixed ramp with
# 0.5% jitter: under wide uniform draws cell16 and cell5 end in an essential
# or a removable singularity depending on the draw, with 3-10x different step
# counts, and at 2% jitter the cell16 step count still varies by 10%.
SOLIDS = (("torus3_27", "converged", 0), ("cell16", "singularity_essential", 5),
          ("cell5", "singularity_removable", 5))


def _ramp(n, rng, lo=0.7, hi=1.4, jitter=0.005):
    return np.linspace(lo, hi, n) * np.exp(rng.uniform(-jitter, jitter, n))


def sphere_3d(seed):
    """The CLI on the bundled 3-manifolds: Yamabe flow, multistart solve,
    finite-difference spectrum and curvature."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for mesh, term, code in SOLIDS:
        c = data.load(mesh)
        r = _ramp(c.vertex_count, rng)
        # torus3_27 cannot reach 1e-10, so the default 1e-9 sits on its floor
        jobs.append(_cli_job(f"flow/{mesh}", "flow",
                             ["flow", "--mesh", mesh, "--eps", "1e-08",
                              "--radii", _radii_arg(r)], code, term, 1e-8))
        jobs.append(_cli_job(f"solve/{mesh}", "solve",
                             ["solve", "--mesh", mesh, "--starts", "6",
                              "--seed", str(int(rng.integers(2 ** 31)))], 0))
        for cmd in ("spectrum", "curvature"):
            r = _admissible3(c, rng, 0.8, 1.25)
            # the 3-d Jacobian is a finite-difference approximation
            jobs.append(_cli_job(f"{cmd}/{mesh}", "other",
                                 [cmd, "--mesh", mesh, "--radii", _radii_arg(r)],
                                 0, kernel_tol=FD_KERNEL_TOL))
    return jobs


def interleaved(jobs):
    """The jobs with each kind spread evenly over the pass, in its own order.

    On a shared machine slow spells last seconds; spreading every kind over
    the whole pass keeps a spell from landing on one kind's jobs only, such
    as the few solve jobs, whose sum would then swing far more than wall_s.
    """
    counts = Counter(job.kind for job in jobs)
    seen = Counter()
    keyed = []
    for job in jobs:
        keyed.append(((seen[job.kind] + 0.5) / counts[job.kind], job))
        seen[job.kind] += 1
    return [job for _, job in sorted(keyed, key=lambda pair: pair[0])]


WORKLOADS = {"cli-bundled": cli_bundled, "grid-tori": grid_tori,
             "sphere-3d": sphere_3d}


# -- running and checking ---------------------------------------------------------


def _on_alarm(signum, frame):
    raise JobTimeout()


def execute(job, workdir, untraced=nullcontext):
    """Run one job in an empty workdir and check its output.

    The checks run inside ``untraced()``, so a tracer does not count the
    benchmark's own calls into the program as the job's work.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    if job.limit_s:
        signal.setitimer(signal.ITIMER_REAL, job.limit_s)
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stderr(err), redirect_stdout(err):
            code, value = job.call(workdir)
    except JobTimeout:
        return Outcome(job, time.perf_counter() - t0, "timeout",
                       f"timeout after {job.limit_s:g} s")
    except Exception as exc:  # a job that raises is failed, not fatal
        return Outcome(job, time.perf_counter() - t0, "failed",
                       f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - t0
    out = Outcome(job, seconds, "ok")
    try:
        with untraced():
            if job.expect_exit is not None:
                _check_cli(job, code, workdir, out, err.getvalue())
            else:
                _check_library(job, value, out)
    except OutputError as exc:
        _fail(out, str(exc), "incorrect")
    return out


def _fail(out, detail, status="failed"):
    out.status = status
    out.detail = detail


def _read(workdir, name):
    path = os.path.join(workdir, name)
    if not os.path.exists(path):
        return None
    with open(path) as fp:
        return json.load(fp)


def _check_cli(job, code, workdir, out, stderr):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fp:
            blob = fp.read()
        digest.update(name.encode() + b"\0" + blob)
        out.bytes_written += len(blob)
    out.digest = digest.hexdigest()
    command = job.id.split("/")[0]
    flow_doc = _read(workdir, "flow_summary.json") if command == "flow" else None
    if flow_doc is not None:
        out.steps = flow_doc["steps"]
        out.termination = flow_doc["termination"]
    if code != job.expect_exit:
        msg = stderr.strip().splitlines()
        _fail(out, f"exit {code}, expected {job.expect_exit}"
                   + (f" ({msg[-1]})" if msg else ""))
        return
    if command == "flow":
        doc = flow_doc
        if doc is None:
            _fail(out, "no flow_summary.json")
            return
        if not doc["termination"].startswith(job.expect_termination):
            _fail(out, f"ended {doc['termination']}, expected "
                       f"{job.expect_termination}")
            return
        _check_flow(job, doc["termination"], doc["final_residual"],
                    doc["conserved_drift"])
        if doc["termination"].startswith("singularity") and "singularity" not in doc:
            raise OutputError(f"{job.id}: singularity without a classification")
    elif command == "check":
        doc = _read(workdir, "check.json")
        if doc is None:
            _fail(out, "no check.json")
            return
        if doc["subsets_checked"] != 2 ** job.vertices - 2 or not doc["exhaustive"]:
            raise OutputError(f"{job.id}: checked {doc['subsets_checked']} "
                              f"subsets of {2 ** job.vertices - 2}")
        if doc["satisfied"] != (code == 0):
            raise OutputError(f"{job.id}: satisfied={doc['satisfied']} "
                              f"with exit code {code}")
    elif command == "solve":
        doc = _read(workdir, "solve_summary.json")
        if doc is None:
            _fail(out, "no solve_summary.json")
            return
        if "residual" in doc and not doc["residual"] < 1e-9:
            raise OutputError(f"{job.id}: solved residual {doc['residual']:.3g}")
        if "starts" in doc and not math.isfinite(doc["yamabe_quotient_upper_bound"]):
            raise OutputError(f"{job.id}: non-finite Yamabe quotient bound")
    elif command == "curvature":
        doc = _read(workdir, "curvature_summary.json")
        if doc is None:
            _fail(out, "no curvature_summary.json")
            return
        if doc["dim"] == 2 and not doc["gauss_bonnet_residual"] <= GAUSS_BONNET_TOL:
            raise OutputError(f"{job.id}: Gauss-Bonnet residual "
                              f"{doc['gauss_bonnet_residual']:.3g}")
    elif command == "spectrum":
        doc = _read(workdir, "spectrum.json")
        if doc is None:
            _fail(out, "no spectrum.json")
            return
        if not doc["kernel_residual"] < job.kernel_tol:
            raise OutputError(f"{job.id}: kernel residual "
                              f"{doc['kernel_residual']:.3g}")


def _check_flow(job, termination, final_residual, drift):
    if termination == "converged" and not final_residual < job.eps:
        raise OutputError(f"{job.id}: converged with residual "
                          f"{final_residual:.3g} >= eps {job.eps:g}")
    if termination in ("converged", "max_time") and not drift <= DRIFT_TOL:
        raise OutputError(f"{job.id}: conserved quantity drifted by {drift:.3g}")


def _check_library(job, value, out):
    digest = hashlib.sha256()
    if isinstance(value, flows2d.FlowTrace):
        out.steps = value.n_steps
        out.termination = value.termination
        digest.update(value.radii[-1].tobytes())
        if value.termination != job.expect_termination:
            _fail(out, f"ended {value.termination}, expected "
                       f"{job.expect_termination}")
            return
        summary = value.summary()
        _check_flow(job, value.termination, summary["final_residual"],
                    summary["conserved_drift"])
        if not summary["final_residual"] > 10.0 * job.eps:
            raise OutputError(f"{job.id}: fixed-time run near its target "
                              f"({summary['final_residual']:.3g})")
        c = job.mesh
        gb = abs(packing2d.angle_defect(c, value.radii[-1]).sum()
                 - 2.0 * np.pi * euler_characteristic(c))
        if not gb <= GAUSS_BONNET_TOL:
            raise OutputError(f"{job.id}: Gauss-Bonnet residual {gb:.3g}")
    elif job.kind == "solve":
        digest.update(value.tobytes())
        res = flows2d.constant_curvature_residual(job.mesh, value, 2.0)
        if not res < 1e-9:
            raise OutputError(f"{job.id}: solved residual {res:.3g}")
    else:
        w, kernel = value
        digest.update(w.tobytes())
        if not kernel < job.kernel_tol:
            raise OutputError(f"{job.id}: kernel residual {kernel:.3g}")
    out.digest = digest.hexdigest()

