"""Spans and counts at the public functions of each packflows module.

The program itself carries no instrumentation. ``Tracer.install`` replaces
every public function of the traced modules with a wrapper, in every module
that binds it (``from ... import`` makes a second binding, e.g. ``advance`` in
``flows2d`` and ``packing3d``), and ``uninstall`` puts the originals back.
Each call records a span (name, start, end, parent, job) kept in memory; a
span's self time is its duration minus the durations of its child spans.
"""

import functools
import gzip
import inspect
import time
from collections import Counter
from contextlib import contextmanager

from packflows import (_rk, admissibility, cli, data, flows2d, mesh,
                       operators2d, packing2d, packing3d)

# layer name -> modules whose public functions form it
LAYERS = {
    "mesh": (mesh, data),
    "packing2d": (packing2d,),
    "operators2d": (operators2d,),
    "rk": (_rk,),
    "flows2d": (flows2d,),
    "packing3d": (packing3d,),
    "admissibility": (admissibility,),
    "cli": (cli,),
}
# methods traced besides module functions: (class, method, layer)
METHODS = ((mesh.Surface2Complex, "__init__", "mesh"),
           (mesh.Manifold3Complex, "__init__", "mesh"),
           (flows2d.FlowTrace, "write_csv", "flows2d"))
CONSTRUCTION = {"mesh.Surface2Complex.__init__", "mesh.Manifold3Complex.__init__",
                "mesh.mesh_from_dict", "mesh.load_mesh", "data.load"}
MONITORS = {"flows2d.constant_curvature_residual", "flows2d.prescribed_residual",
            "operators2d.ricci_potential", "operators2d.calabi_energy"}


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self.layer_of = []       # layer per name id
        self.spans = []          # sid -> (name id, parent sid, t0, t1, self_s, job)
        self.stack = []          # open spans: [sid, time covered by children]
        self.counts = Counter()  # (job, counter) -> value
        self.job = -1
        self.active = True
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self):
        import packflows
        holders = [packflows] + [m for mods in LAYERS.values() for m in mods]
        for layer, modules in LAYERS.items():
            for module in modules:
                short = module.__name__.rsplit(".", 1)[1]
                for attr, fn in list(vars(module).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    wrapped = self._wrap(fn, f"{short}.{attr}", layer)
                    for holder in holders:
                        for name, value in list(vars(holder).items()):
                            if value is fn:
                                self._set(holder, name, wrapped)
        for cls, attr, layer in METHODS:
            fn = vars(cls)[attr]
            short = cls.__module__.rsplit(".", 1)[1]
            self._set(cls, attr, self._wrap(fn, f"{short}.{cls.__name__}.{attr}",
                                            layer))

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def uninstall(self):
        for holder, name, value in reversed(self._undo):
            setattr(holder, name, value)
        self._undo.clear()

    def _set(self, holder, name, value):
        self._undo.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def _wrap(self, fn, name, layer):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        hook = HOOKS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (nid, parent, t0, t1, dur - frame[1], self.job)
                if hook is not None:
                    hook(self.counts, self.job, args, result, exc)
        return wrapper

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """Write every span as CSV (gzip): sid, parent, job, name, t0, t1, self."""
        with gzip.open(path, "wt", compresslevel=1) as fp:
            fp.write("sid,parent,job,name,t0,t1,self_s\n")
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                nid, parent, t0, t1, self_s, job = span
                fp.write(f"{sid},{parent},{job},{self.names[nid]},"
                         f"{t0:.9f},{t1:.9f},{self_s:.9f}\n")

    def summary(self, exact_jobs, flow_jobs):
        """Per-name calls, inclusive and self time, and counters.

        Calls and counters only count jobs in ``exact_jobs`` (those that ran to
        their own end, not to a wall-clock limit), so they repeat exactly
        between two runs; times count every job. ``monitor_s``,
        ``flow_angle_evals`` and ``flow_accepted`` count the flow jobs only,
        the jobs whose time makes up ``flow_s``.
        """
        flow_exact = exact_jobs & flow_jobs
        flow_angle_evals = 0
        calls, incl, self_s = Counter(), Counter(), Counter()
        layer_self, monitor_s, construct_s = Counter(), 0.0, 0.0
        names = self.names
        # a job stopped by its time limit can leave a span unfinished (None)
        spans = [s if s is not None else (-1, -1, 0.0, 0.0, 0.0, -1)
                 for s in self.spans]
        for nid, parent, t0, t1, s, job in spans:
            if nid < 0:
                continue
            name = names[nid]
            if job in exact_jobs:
                calls[name] += 1
                if name == "packing2d.inner_angles" and job in flow_exact:
                    flow_angle_evals += 1
            incl[name] += t1 - t0
            self_s[name] += s
            layer_self[self.layer_of[nid]] += s
            parent_nid = spans[parent][0] if parent >= 0 else -1
            pname = names[parent_nid] if parent_nid >= 0 else None
            if name in MONITORS and pname == "flows2d.run" and job in flow_jobs:
                monitor_s += t1 - t0
            if name in CONSTRUCTION and pname not in CONSTRUCTION:
                construct_s += t1 - t0
        counters = Counter()
        for (job, key), value in self.counts.items():
            if job in exact_jobs:
                counters[key] += value
        return {"calls": calls, "incl": incl, "self": self_s,
                "layer_self": layer_self, "monitor_s": monitor_s,
                "construct_s": construct_s, "counters": counters,
                "flow_angle_evals": flow_angle_evals,
                "flow_accepted": sum(self.counts[job, "accepted"]
                                     for job in flow_exact),
                "spans": len(spans)}


# -- counters recorded at specific calls ------------------------------------------


def _dopri(counts, job, args, result, exc):
    if exc is None:
        counts[job, "accepted" if result[0] else "rejected_error"] += 1
    elif isinstance(exc, _rk.DomainError):
        counts[job, "rejected_domain"] += 1


def _jacobian(counts, job, args, result, exc):
    counts[job, "jacobian_bytes"] += args[0].vertex_count ** 2 * 8


def _run(counts, job, args, result, exc):
    if exc is None:
        counts[job, "samples"] += len(result.times)


HOOKS = {"_rk.dopri_step": _dopri,
         "operators2d.curvature_jacobian": _jacobian,
         "flows2d.run": _run}
