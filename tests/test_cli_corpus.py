"""The corpus comparison of tools/cli_corpus.py on hand-made run
directories."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
import cli_corpus  # noqa: E402


def write_run(path, rows, termination="converged", code=0):
    """A flow run directory: its exit code, summary and trace rows."""
    os.makedirs(path)
    with open(os.path.join(path, "exit"), "w") as fp:
        fp.write(f"{code}\n")
    with open(os.path.join(path, "flow_summary.json"), "w") as fp:
        json.dump({"termination": termination, "steps": len(rows) - 1}, fp)
    with open(os.path.join(path, "trace.csv"), "w") as fp:
        fp.write("t,r_1,residual\n")
        for row in rows:
            fp.write(",".join(f"{x:.17g}" for x in row) + "\n")


START = (0.0, 1.5, 0.3)


@pytest.mark.parametrize("rows_b, termination_b, verdict", [
    # the same run
    ([START, (0.5, 1.2, 1e-3), (1.0, 1.0, 1e-10)], "converged", "identical"),
    # the same steps, rounding apart
    ([START, (0.5, 1.2 + 1e-12, 1e-3), (1.0, 1.0, 1e-10)], "converged",
     "within"),
    # other steps to the same end, reached at another time
    ([START, (1.1, 1.0 + 1e-9, 2e-10)], "converged", "ends"),
    # other steps to another end
    ([START, (1.0, 1.01, 1e-10)], "converged", "different"),
    # other steps and another termination
    ([START, (1.1, 1.0, 2e-10)], "max_time", "different"),
])
def test_compare_run_tells_an_end_within_r_from_a_different_run(
        tmp_path, rows_b, termination_b, verdict):
    write_run(tmp_path / "a", [START, (0.5, 1.2, 1e-3), (1.0, 1.0, 1e-10)])
    write_run(tmp_path / "b", rows_b, termination_b)
    got, detail = cli_corpus.compare_run(tmp_path / "a", tmp_path / "b", 1e-6)
    assert got == verdict, detail
    if verdict == "ends":
        assert detail.endswith("steps 2 -> 1")


def test_compare_run_names_what_moved(tmp_path):
    """A run whose numbers moved past rtol names each column and JSON
    number that did, and only those; with rtol 0, all that moved."""
    rows = [START, (0.5, 1.2, 1e-3), (1.0, 1.0, 1e-10)]
    write_run(tmp_path / "a", rows)
    write_run(tmp_path / "b", [START, (0.5, 1.2 + 1e-12, 1e-3 + 1e-7),
                               (1.0, 1.0, 1e-10)])
    for side, drift in (("a", 0.25), ("b", 0.25 + 1e-5)):
        with open(tmp_path / side / "flow_summary.json", "w") as fp:
            json.dump({"termination": "converged", "steps": 2,
                       "conserved_drift": drift, "alpha": 2.0}, fp)
    got, detail = cli_corpus.compare_run(tmp_path / "a", tmp_path / "b", 1e-8)
    assert got == "different"
    assert detail.endswith("past 1e-08: flow_summary.json $.conserved_drift, "
                           "trace.csv residual")
    got, detail = cli_corpus.compare_run(tmp_path / "a", tmp_path / "b", 0.0)
    assert detail.endswith("past 0: flow_summary.json $.conserved_drift, "
                           "trace.csv r_1, trace.csv residual")
    got, detail = cli_corpus.compare_run(tmp_path / "a", tmp_path / "b", 1e-4)
    assert (got, detail) == ("within", "1e-05")


# a subset of the corpus that runs in a few seconds and computes no dense
# spectrum: 2-d flows (angle kernel and Calabi edge weights, with and
# without edge weights), a Newton solve, 2-d curvatures, 3-d flows on cell16,
# the 7 x 7 x 7 3-torus and into a removable singularity, a stacked
# multistart solve and the refusal of an overflowing curvature
MANIFEST_SUBSET = {
    "flow-genus2_11-ricci_normalized-a2", "flow-torus_7-calabi-a2",
    "flow-calabi-genus2_11-weighted", "solve-genus2_11-a2",
    "curvature-genus2_11-weighted", "flow-cell16", "flow-torus3-large",
    "solve-cell5", "flow-cell5-removable", "curvature-torus_7-R-refused"}
MANIFEST = os.path.join(cli_corpus.ROOT, "CORPUS.sha256")


def test_manifest_lists_every_corpus_run(tmp_path):
    runs = {line.split("  ")[2].split("/")[0]
            for line in cli_corpus.read_manifest(MANIFEST)[1]}
    assert runs == {name for name, _ in cli_corpus.corpus(str(tmp_path))}
    assert MANIFEST_SUBSET <= runs


def test_corpus_subset_is_byte_identical_to_the_manifest(tmp_path):
    """The subset's output files have the sha256 and exit code the manifest
    records, when this environment is the one it was made in."""
    record, lines = cli_corpus.read_manifest(MANIFEST)
    here = dict(cli_corpus.environment())
    moved = [f"{key}: {value!r} in the manifest, {here.get(key)!r} here"
             for key, value in record if here.get(key) != value]
    if moved or len(record) != len(here):
        pytest.skip("the environment differs from the manifest's: "
                    + "; ".join(moved or ["other keys"]))
    cli_corpus.run_corpus(str(tmp_path), MANIFEST_SUBSET)
    assert cli_corpus.digest(str(tmp_path), MANIFEST_SUBSET) == [
        line for line in lines
        if line.split("  ")[2].split("/")[0] in MANIFEST_SUBSET]
