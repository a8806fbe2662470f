"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a checkout. The counter test makes two traced runs of
every workload (a few minutes on two cores).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from packflows import cli  # noqa: E402

DEFAULT_SEED = 1
EXACT = ("rk.accepted_steps", "rk.trials", "rk.rejected_domain",
         "rk.rejected_error", "packing2d.angle_evals",
         "admissibility.subset_rhs.calls",
         "packing3d.solid_angle_defect.calls")


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counters_repeat_exactly(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    # the counters see the work: every workload steps an integrator
    assert first["metrics"]["rk.accepted_steps"]["value"] > 0


def _flow_jobs():
    for name, build in sorted(workloads.WORKLOADS.items()):
        for job in build(DEFAULT_SEED):
            if job.kind == "flow":
                yield pytest.param(job, id=job.id)


@pytest.mark.parametrize("job", _flow_jobs())
def test_no_flow_job_sits_on_a_roundoff_floor(job, tmp_path):
    """A converged job must also converge at eps / 10, so a change in
    roundoff cannot flip it; a fixed-time job must end far above eps."""
    if job.reference is not None:
        pytest.skip("the known-defect job is bounded by a wall-clock limit")
    out = workloads.execute(job, str(tmp_path / "run"))
    assert out.status == "ok", out.detail
    if out.termination != "converged":
        assert out.termination.startswith(("max_time", "singularity"))
        return
    argv = list(job.argv)
    if "--eps" in argv:
        del argv[argv.index("--eps"):argv.index("--eps") + 2]
    code = cli.main(argv + ["--eps", repr(job.eps / 10.0),
                            "--out", str(tmp_path / "tight")])
    with open(tmp_path / "tight" / "flow_summary.json") as fp:
        doc = json.load(fp)
    assert code == 0 and doc["termination"] == "converged", doc
