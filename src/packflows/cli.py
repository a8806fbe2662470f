"""Command-line interface.

Subcommands: curvature | flow | check | spectrum | solve. Outputs are CSV
and JSON files in the output directory; floats in CSV are written with 17
significant digits so identical configurations produce identical bytes.

Exit codes: 0 success; 2 invalid input; 3 degenerate geometry;
4 flow or solver did not converge; 5 flow hit a singularity;
6 an admissibility condition is violated; 7 subset enumeration too large.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import admissibility, data, flows2d, mesh, operators2d, packing2d, packing3d
from .errors import (DegenerateTetrahedronError, DegenerateTriangleError,
                     EnumerationTooLargeError, InvalidComplexError,
                     NoConvergenceError, PackflowsError)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEGENERATE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_SINGULARITY = 5
EXIT_VIOLATED = 6
EXIT_TOO_LARGE = 7

# the flow a complex of each dimension runs when --family is not given
DEFAULT_FAMILY = {2: "ricci-normalized", 3: "yamabe"}


def _write_json(doc, path):
    with open(path, "w") as fp:
        json.dump(doc, fp, indent=1, sort_keys=True)
        fp.write("\n")


def _load_mesh(args):
    """The complex named by --mesh, checked before its vertex_count is read."""
    c = (data.load(args.mesh) if args.mesh in data.available()
         else mesh.load_mesh(args.mesh))
    c.require_valid()
    return c


def _metric_for(args, c):
    n = c.vertex_count
    if getattr(args, "metric", None):
        r = mesh.load_metric(args.metric)
    elif getattr(args, "radii", None):
        r = np.array([float(x) for x in args.radii.split(",")])
    elif getattr(args, "random", None):
        a, b, seed = args.random.split(",")
        rng = np.random.default_rng(int(seed))
        r = rng.uniform(float(a), float(b), n)
    else:
        r = np.ones(n)
    return packing2d.check_metric(c, r, c.dim)


def _add_common(p):
    p.add_argument("--mesh", required=True,
                   help="mesh JSON path or bundled name "
                        f"({', '.join(data.available())})")
    p.add_argument("--metric", help="metric JSON path")
    p.add_argument("--radii", help="comma-separated radii")
    p.add_argument("--random", metavar="A,B,SEED",
                   help="uniform random radii in [A, B] with a seed")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", default="csv,json")


def cmd_curvature(args):
    c = _load_mesh(args)
    r = _metric_for(args, c)
    formats = args.format.split(",")

    if c.dim == 2:
        K = packing2d.angle_defect(c, r)
        R = packing2d.curvature(c, r, 2.0)
        Ra = packing2d.curvature(c, r, args.alpha)
        chi = mesh.euler_characteristic(c)
        gb = abs(float(K.sum()) - 2.0 * np.pi * chi)
        summary = {
            "dim": 2, "vertices": c.vertex_count, "chi": chi,
            "gauss_bonnet_residual": gb, "alpha": args.alpha,
            "K_min": float(K.min()), "K_max": float(K.max()),
            "R_min": float(R.min()), "R_max": float(R.max()),
            "R_alpha_min": float(Ra.min()), "R_alpha_max": float(Ra.max()),
        }
        rows = zip(K, R, Ra)
        header = "vertex,K,R,R_alpha"
    else:
        st = packing3d.yamabe_state(c, r)
        K, R = st.defect, st.curvature
        summary = {
            "dim": 3, "vertices": c.vertex_count,
            "total_curvature": st.total, "volume": st.volume,
            "average_curvature": st.average, "yamabe_quotient": st.quotient,
            "K_min": float(K.min()), "K_max": float(K.max()),
            "R_min": float(R.min()), "R_max": float(R.max()),
        }
        rows = zip(K, R)
        header = "vertex,K,R"

    if "csv" in formats:
        with open(os.path.join(args.out, "curvature.csv"), "w") as fp:
            fp.write(header + "\n")
            for i, vals in enumerate(rows):
                fp.write(",".join([str(i)] + [f"{v:.17g}" for v in vals]) + "\n")
    if "json" in formats:
        _write_json(summary, os.path.join(args.out, "curvature_summary.json"))
    return EXIT_OK


def cmd_flow(args):
    c = _load_mesh(args)
    r0 = _metric_for(args, c)
    target = None
    if args.target:
        with open(args.target) as fp:
            target = np.asarray(json.load(fp)["target"], dtype=float)

    spec = flows2d.FlowSpec(
        family=(args.family or DEFAULT_FAMILY[c.dim]).replace("-", "_"),
        alpha=args.alpha, target=target, t_max=args.t_max, eps=args.eps)
    trace = flows2d.run(spec, c, r0)

    formats = args.format.split(",")
    if "csv" in formats:
        trace.write_csv(os.path.join(args.out, "trace.csv"))
    if "json" in formats:
        _write_json(trace.summary(), os.path.join(args.out, "flow_summary.json"))

    if trace.termination.startswith("singularity"):
        return EXIT_SINGULARITY
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def _read_subsets(path):
    """The --subsets file: a JSON list of lists of integer vertices (JSON
    integers only, so no floats, bools or strings)."""
    with open(path) as fp:
        subsets = json.load(fp)
    if not (isinstance(subsets, list)
            and all(isinstance(s, list) for s in subsets)):
        raise ValueError("--subsets must be a JSON list of lists of vertices")
    for s in subsets:
        if not all(type(v) is int for v in s):
            raise ValueError(f"subset {s} has a non-integer vertex")
    return subsets


def cmd_check(args):
    c = _load_mesh(args)
    subsets = _read_subsets(args.subsets) if args.subsets else None

    if args.condition == "thurston":
        report = admissibility.thurston_condition(c, subsets=subsets)
    elif args.condition == "sphere":
        report = admissibility.sphere_condition(c, subsets=subsets)
    elif args.condition == "metric":
        r = _metric_for(args, c)
        report = admissibility.metric_condition(c, r, args.alpha,
                                                subsets=subsets)
    elif args.condition == "y":
        r = _metric_for(args, c)
        x = packing2d.angle_defect(c, r)
        report = admissibility.y_membership(c, x, subsets=subsets)

    _write_json(report.to_dict(full=args.full),
                os.path.join(args.out, "check.json"))
    return EXIT_OK if report.satisfied else EXIT_VIOLATED


def cmd_spectrum(args):
    c = _load_mesh(args)
    r = _metric_for(args, c)
    if c.dim == 2:
        eigenvalues, kernel_residual = operators2d.laplacian_spectrum(c, r)
    else:
        eigenvalues, kernel_residual = operators2d.spectrum(
            packing3d.defect_jacobian(c, r).matrix)
    _write_json({"eigenvalues": [float(w) for w in eigenvalues],
                 "kernel_residual": float(kernel_residual)},
                os.path.join(args.out, "spectrum.json"))
    return EXIT_OK


def cmd_solve(args):
    c = _load_mesh(args)
    if args.start and not args.radii:
        args.radii = args.start
    r0 = _metric_for(args, c)

    if c.dim == 3:
        est = packing3d.yamabe_invariant_estimate(c, n_starts=args.starts,
                                                  seed=args.seed)
        mesh.save_metric(est.metric, os.path.join(args.out, "solved_metric.json"))
        _write_json({"yamabe_quotient_upper_bound": est.value,
                     "critical_point": est.critical,
                     "starts": est.starts,
                     "converged_starts": est.converged_starts},
                    os.path.join(args.out, "solve_summary.json"))
        return EXIT_OK

    try:
        r = flows2d.find_constant_curvature(c, args.alpha, r0,
                                            method=args.method)
    except NoConvergenceError as exc:
        _write_json({"converged": False, "error": str(exc),
                     "diagnostics": exc.diagnostics},
                    os.path.join(args.out, "solve_summary.json"))
        return EXIT_NO_CONVERGENCE
    mesh.save_metric(r, os.path.join(args.out, "solved_metric.json"))
    _write_json({"converged": True,
                 "residual": flows2d.constant_curvature_residual(c, r, args.alpha),
                 "alpha": args.alpha},
                os.path.join(args.out, "solve_summary.json"))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="packflows", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="curvature report for a metric")
    _add_common(p)
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("flow", help="integrate a curvature flow")
    _add_common(p)
    p.add_argument("--family",
                   help="flow family, e.g. ricci-normalized, calabi, "
                        "alpha-ricci-normalized on a surface, yamabe on a "
                        "3-manifold (default: ricci-normalized on a surface, "
                        "yamabe on a 3-manifold)")
    p.add_argument("--target", help="target curvature JSON for prescribed families")
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--eps", type=float, default=1e-9)
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("check", help="combinatorial-topological conditions")
    _add_common(p)
    p.add_argument("--condition", required=True,
                   choices=["thurston", "y", "metric", "sphere"])
    p.add_argument("--subsets", help="JSON list of vertex subsets")
    p.add_argument("--full", action="store_true",
                   help="include the full per-subset table")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("spectrum", help="Laplacian / Jacobian spectrum")
    _add_common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("solve", help="constant-curvature metric search")
    _add_common(p)
    p.add_argument("--start", help="alias for --radii")
    p.add_argument("--method", default="newton", choices=["newton", "flow"])
    p.add_argument("--starts", type=int, default=20,
                   help="multistart count for the 3-d invariant estimate")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_solve)
    return ap


@functools.cache
def _parser():
    """The parser of build_parser, built once per process: parsing leaves it
    unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if not math.isfinite(args.alpha):
        print(f"error: --alpha must be finite, got {args.alpha}", file=sys.stderr)
        return EXIT_INVALID
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.fn(args)
    except EnumerationTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (DegenerateTriangleError, DegenerateTetrahedronError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InvalidComplexError, ValueError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PackflowsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
