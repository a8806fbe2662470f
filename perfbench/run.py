"""packflows benchmark: one client, one process, jobs back to back.

    python3 perfbench/run.py --workload cli-bundled --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``cli-bundled``, ``grid-tori`` and ``sphere-3d``.

With ``--trace 0`` the job list is run in passes until ``--seconds`` would be
exceeded (at least two, so the outputs of two passes can be compared byte for
byte); timings are medians over passes. With ``--trace 1`` one untraced pass
is followed by one pass with every public function of the program wrapped
(``tracer.py``), and the per-layer metrics come from that traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full result file,
with the environment record and the per-job table, is written under
``perfbench/out/``. The exit code is 1 when an output breaks an invariant of
the theory and 2 when the program cannot be imported.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")


def _blas_threads():
    """Pin the BLAS pool before numpy loads: at most nproc, at most 2."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, 2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


NPROC, BLAS_THREADS = _blas_threads()
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import workloads
workloads.interleaved(workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])))
print(time.perf_counter() - t0)
"""


def _setup_times(workload, seed, repeats=11):
    """Times to import the program and build the workload's inputs.

    Each set-up runs in a fresh interpreter, so every one pays the imports.
    A first set-up, not counted, compiles the bytecode of a fresh checkout.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, workload,
                               str(seed)], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return times[1:]


def _git_commit():
    """Commit of the checkout read from .git, or "unknown" outside a clone."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fp:
            ref = fp.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fp:
                return fp.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": NPROC, "seed": seed,
            "git_commit": _git_commit(), "machine": platform.machine()}


def _stat(values):
    """Median, the highest percentile with at least ten samples beyond it, n."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n > 10:
        tail = {"percentile": round(100.0 * (n - 10) / n, 2),
                "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n}


def _run_pass(jobs, workdir, tracer=None):
    import workloads
    outcomes = []
    t0 = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        outcomes.append(workloads.execute(
            job, os.path.join(workdir, str(index)),
            tracer.paused if tracer is not None else nullcontext))
        if tracer is not None:
            tracer.stack.clear()  # frames a timeout left open
    if tracer is not None:
        tracer.job = -1
    return time.perf_counter() - t0, outcomes


def _sums(wall, outcomes):
    by_kind = {"flow": 0.0, "check": 0.0, "solve": 0.0}
    for out in outcomes:
        if out.job.kind in by_kind:
            by_kind[out.job.kind] += out.seconds
    return {"wall_s": wall, "flow_s": by_kind["flow"],
            "check_s": by_kind["check"], "solve_s": by_kind["solve"]}


def _compare_digests(passes):
    """Outputs of every pass must equal the first pass's, byte for byte."""
    first = passes[0][1]
    errors = []
    for _, outcomes in passes[1:]:
        for a, b in zip(first, outcomes):
            if a.status == b.status == "ok" and a.digest != b.digest:
                errors.append(f"{a.job.id}: outputs differ between passes")
    return errors


def _job_table(passes):
    rows = []
    for index, out in enumerate(passes[0][1]):
        times = [outcomes[index].seconds for _, outcomes in passes]
        rows.append({"id": out.job.id, "seconds": statistics.median(times),
                     "outcome": out.termination or out.status,
                     "status": out.status, "detail": out.detail,
                     "steps": out.steps})
    return rows


def _calibration(workload, table):
    """Grid-tori ms per accepted step, from the untraced passes."""
    cal = {}
    for row in table:
        parts = row["id"].split("/")
        if workload == "grid-tori" and parts[0] == "flow" and row["steps"]:
            cal[f"{parts[2]}_ms_per_step.V{parts[1][4:]}"] = (
                1e3 * row["seconds"] / row["steps"])
    return cal


def _known_defect(jobs, passes):
    """The capped job's limit, reference time and time in each pass."""
    for index, job in enumerate(jobs):
        if job.reference is not None:
            return {"id": job.id, "limit_s": job.limit_s,
                    "reference_s": job.reference_s,
                    "seconds": [outcomes[index].seconds
                                for _, outcomes in passes]}
    return None


def _layer_metrics(summary, untraced, traced, outcomes, cal, defect):
    """Per-layer metrics of the traced pass (check_s, solve_s, the known
    defect's time and the ms-per-step figures come from the untraced pass)."""
    calls, self_s, incl = summary["calls"], summary["self"], summary["incl"]
    layer, counters = summary["layer_self"], summary["counters"]
    accepted = counters["accepted"]
    trials = accepted + counters["rejected_error"] + counters["rejected_domain"]
    subsets = calls["admissibility.subset_rhs"]
    check_incl = sum(incl[f"admissibility.{name}"] for name in (
        "thurston_condition", "y_membership", "metric_condition",
        "sphere_condition"))
    failed = sum(out.status != "ok" for out in outcomes)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "operators2d.ricci_potential.calls": (calls["operators2d.ricci_potential"], "count"),
        "operators2d.ricci_potential.self_s": (self_s["operators2d.ricci_potential"], "s"),
        "operators2d.potential_gradient.calls": (calls["operators2d.potential_gradient"], "count"),
        "flows2d.monitor_s": (summary["monitor_s"], "s"),
        "flows2d.monitor_share": (ratio(summary["monitor_s"], traced["flow_s"]), "ratio"),
        "operators2d.curvature_jacobian.calls": (calls["operators2d.curvature_jacobian"], "count"),
        "operators2d.curvature_jacobian.self_s": (self_s["operators2d.curvature_jacobian"], "s"),
        "operators2d.jacobian_bytes": (counters["jacobian_bytes"], "bytes"),
        "operators2d.potential_hessian.calls": (calls["operators2d.potential_hessian"], "count"),
        "packing2d.angle_evals": (calls["packing2d.inner_angles"], "count"),
        "packing2d.angle_evals_per_step": (ratio(summary["flow_angle_evals"],
                                                 summary["flow_accepted"]), "evals/step"),
        "packing2d.check_metric.calls": (calls["packing2d.check_metric"], "count"),
        "packing2d.self_s": (layer["packing2d"], "s"),
        "rk.accepted_steps": (accepted, "count"),
        "rk.trials": (trials, "count"),
        "rk.rejected_domain": (counters["rejected_domain"], "count"),
        "rk.rejected_error": (counters["rejected_error"], "count"),
        "rk.accept_ratio": (ratio(accepted, trials), "ratio"),
        "rk.self_s": (layer["rk"], "s"),
        "flows2d.run.self_s": (self_s["flows2d.run"], "s"),
        "flows2d.samples": (counters["samples"], "count"),
        "packing3d.solid_angle_defect.calls": (calls["packing3d.solid_angle_defect"], "count"),
        "packing3d.solid_angle_defect.self_s": (self_s["packing3d.solid_angle_defect"], "s"),
        "packing3d.yamabe_state.calls": (calls["packing3d.yamabe_state"], "count"),
        "packing3d.tet_q_factors.calls": (calls["packing3d.tet_q_factors"], "count"),
        "packing3d.defect_jacobian.self_s": (self_s["packing3d.defect_jacobian"], "s"),
        "packing3d.yamabe_flow.self_s": (self_s["packing3d.yamabe_flow"], "s"),
        "admissibility.subset_rhs.calls": (subsets, "count"),
        "admissibility.subset_rhs.self_s": (self_s["admissibility.subset_rhs"], "s"),
        "admissibility.us_per_subset": (1e6 * ratio(check_incl, subsets), "us"),
        "mesh.link_pairs.calls": (calls["mesh.link_pairs"], "count"),
        "mesh.induced_euler.calls": (calls["mesh.induced_euler"], "count"),
        "mesh.self_s": (layer["mesh"], "s"),
        "mesh.construct_s": (summary["construct_s"], "s"),
        "cli.self_s": (layer["cli"], "s"),
        "cli.write_csv_s": (incl["flows2d.FlowTrace.write_csv"], "s"),
        "cli.bytes_written": (sum(out.bytes_written for out in outcomes), "bytes"),
        "check_s": (untraced["check_s"], "s"),
        "solve_s": (untraced["solve_s"], "s"),
        "failed_ratio": (ratio(failed, len(outcomes)), "ratio"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
        "trace.spans": (summary["spans"], "count"),
        "flows2d.known_defect_s": (defect["seconds"][0] if defect else 0.0, "s"),
    }
    for key in CALIBRATION_KEYS:
        m[f"flows2d.{key}"] = (cal.get(key, 0.0), "ms")
    return m


CALIBRATION_KEYS = ("calabi_ms_per_step.V400", "calabi_ms_per_step.V1600",
                    "ricci_normalized_ms_per_step.V400",
                    "ricci_normalized_ms_per_step.V1600",
                    "ricci_normalized_ms_per_step.V3600")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("flow_s", "s"),
              ("peak_rss_mb", "MB"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cli-bundled", "grid-tori", "sphere-3d"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import packflows
    except ImportError as exc:
        print(f"error: cannot import packflows from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(packflows.__file__).startswith(SRC + os.sep):
        print(f"error: packflows was imported from {packflows.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    t_start = time.perf_counter()
    jobs = workloads.interleaved(workloads.WORKLOADS[args.workload](args.seed))
    setup = _stat(_setup_times(args.workload, args.seed))
    workloads.calibrate(jobs)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    passes = []
    try:
        if args.trace:
            passes.append(_run_pass(jobs, workdir))
            tr = tracing.Tracer()
            tr.install()
            try:
                passes.append(_run_pass(jobs, workdir, tr))
            finally:
                tr.uninstall()
        else:
            t0 = time.perf_counter()
            while len(passes) < 2 or (time.perf_counter() - t0 + passes[-1][0]
                                      <= args.seconds):
                passes.append(_run_pass(jobs, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = _compare_digests(passes) + [
        o.detail for _, outcomes in passes for o in outcomes
        if o.status == "incorrect"]
    sums = [_sums(wall, outcomes) for wall, outcomes in passes]
    all_outcomes = [o for _, outcomes in passes for o in outcomes]
    attempted = len(all_outcomes)
    failed = sum(o.status != "ok" for o in all_outcomes)
    table = _job_table(passes[:1] if args.trace else passes)
    cal = _calibration(args.workload, table)
    defect = _known_defect(jobs, passes[:1] if args.trace else passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = sums[:1] if args.trace else sums
    timing = {key: _stat([s[key] for s in timed])
              for key in ("wall_s", "flow_s", "check_s", "solve_s")}
    report = {"setup_s": setup, **timing,
              "peak_rss_mb": {"median": peak_rss_mb, "tail": None, "n": 1},
              "failed_ratio": {"value": failed / attempted, "failed": failed,
                               "attempted": attempted}}
    if args.trace:
        exact = {i for i, o in enumerate(passes[1][1]) if o.status != "timeout"}
        flow_jobs = {i for i, job in enumerate(jobs) if job.kind == "flow"}
        metrics = _layer_metrics(tr.summary(exact, flow_jobs), sums[0], sums[1],
                                 passes[1][1], cal, defect)
        os.makedirs(OUT, exist_ok=True)
        tr.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    else:
        values = {"setup_s": setup["median"], "peak_rss_mb": peak_rss_mb,
                  **{k: timing[k]["median"] for k in ("wall_s", "flow_s")}}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    result = {
        "workload": args.workload, "trace": args.trace,
        "environment": _environment(args.seed),
        "loop": "closed: one client, one process, jobs back to back",
        "passes": len(passes), "pass_sums": sums,
        "elapsed_s": time.perf_counter() - t_start,
        "end_to_end": report, "calibration": cal, "known_defect": defect,
        "jobs": table,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fp:
        json.dump(result, fp, indent=1)

    _print_report(args, result, report, table, errors)
    line = {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}
    print(json.dumps(line))
    return 0 if not errors else 1


def _print_report(args, result, report, table, errors):
    env = result["environment"]
    print(f"# packflows benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  passes={result['passes']}")
    print("# " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'job':48s} {'seconds':>9s} {'steps':>6s}  outcome")
    for row in table:
        steps = "" if row["steps"] is None else str(row["steps"])
        note = f"  {row['status'].upper()}: {row['detail']}" if row["status"] != "ok" else ""
        print(f"{row['id']:48s} {row['seconds']:9.4f} {steps:>6s}  "
              f"{row['outcome']}{note}")
    for key in ("setup_s", "wall_s", "flow_s", "check_s", "solve_s", "peak_rss_mb"):
        st = report[key]
        unit = "MB" if key == "peak_rss_mb" else "s"
        tail = (f"  p{st['tail']['percentile']}={st['tail']['value']:.6g}"
                if st["tail"] else "  (no tail percentile: fewer than 11 samples)")
        print(f"{key:12s} {st['median']:.6g} {unit}  median of {st['n']}{tail}")
    fr = report["failed_ratio"]
    print(f"{'failed_ratio':12s} {fr['value']:.6g} ratio  "
          f"({fr['failed']} failed of {fr['attempted']} attempted)")
    defect = result["known_defect"]
    if defect:
        import workloads
        print(f"known defect  {defect['id']} limit "
              f"{defect['limit_s']:.4g} s = {workloads.DEFECT_FACTOR:g} x "
              f"{defect['reference_s']:.4g} s with energies off; flow_s "
              f"includes {statistics.median(defect['seconds']):.4g} s of it")
    for k, v in result["calibration"].items():
        print(f"calibration  {k} = {v:.6g}")
    for e in errors:
        print(f"ERROR {e}")


if __name__ == "__main__":
    sys.exit(main())
