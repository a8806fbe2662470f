import json

import numpy as np
import pytest

from conftest import grid_torus
from packflows import data
from packflows.cli import main
from packflows.mesh import save_mesh
from packflows.packing2d import curvature


def read_json(path):
    with open(path) as fp:
        return json.load(fp)


def test_curvature_tetrahedron(tmp_path):
    code = main(["curvature", "--mesh", "tetrahedron", "--out", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "curvature_summary.json")
    assert summary["chi"] == 2
    assert summary["gauss_bonnet_residual"] < 1e-12
    assert abs(summary["K_min"] - np.pi) < 1e-12
    assert abs(summary["K_max"] - np.pi) < 1e-12
    lines = (tmp_path / "curvature.csv").read_text().splitlines()
    assert lines[0] == "vertex,K,R,R_alpha"
    assert len(lines) == 5


def test_curvature_cell5(tmp_path):
    code = main(["curvature", "--mesh", "cell5", "--out", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "curvature_summary.json")
    expect = 4 * np.pi - 4 * (3 * np.arccos(1 / 3.0) - np.pi)
    assert abs(summary["R_min"] - expect) < 1e-9
    assert abs(summary["R_max"] - expect) < 1e-9


def test_curvature_malformed_mesh(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["curvature", "--mesh", str(bad), "--out", str(tmp_path)]) == 2


def test_curvature_invalid_complex(tmp_path):
    doc = {"dim": 2, "vertex_count": 4,
           "faces": [[0, 1, 2], [0, 1, 3]]}  # open surface
    p = tmp_path / "open.json"
    p.write_text(json.dumps(doc))
    assert main(["curvature", "--mesh", str(p), "--out", str(tmp_path)]) == 2


def test_curvature_degenerate_metric_exit3(tmp_path):
    code = main(["curvature", "--mesh", "cell5",
                 "--radii", "1,1,1,1,0.1", "--out", str(tmp_path)])
    assert code == 3


def test_flow_genus2(tmp_path):
    code = main(["flow", "--mesh", "genus2_11", "--family", "ricci-normalized",
                 "--alpha", "2", "--out", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "flow_summary.json")
    assert summary["termination"] == "converged"
    assert summary["rate_fit"]["slope"] < 0
    assert summary["final_residual"] < 1e-9
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("t,r_1")


def test_flow_alpha_zero_chow_luo(tmp_path):
    code = main(["flow", "--mesh", "torus_7",
                 "--family", "alpha-ricci-normalized", "--alpha", "0",
                 "--random", "0.8,1.2,5", "--out", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "flow_summary.json")
    assert summary["conserved_drift"] < 1e-9


def test_flow_not_converged_exit4(tmp_path):
    code = main(["flow", "--mesh", "tetrahedron", "--family", "ricci-normalized",
                 "--radii", "1,1.2,0.9,1.05", "--t-max", "0.5",
                 "--out", str(tmp_path)])
    assert code == 4


def test_flow_3d_singularity_exit5(tmp_path):
    code = main(["flow", "--mesh", "cell5",
                 "--radii", "1.383,0.759,0.37,0.328,1.683",
                 "--out", str(tmp_path)])
    assert code == 5
    summary = read_json(tmp_path / "flow_summary.json")
    assert summary["singularity"]["type"] == "removable"
    assert "witness" in summary["singularity"]


def test_check_sphere_tetrahedron_exit6(tmp_path):
    code = main(["check", "--mesh", "tetrahedron", "--condition", "sphere",
                 "--out", str(tmp_path)])
    assert code == 6
    doc = read_json(tmp_path / "check.json")
    assert doc["witness"] == [0, 1]
    assert abs(doc["witness_margin"]) < 1e-12


def test_check_thurston_icosahedron_exit0(tmp_path):
    code = main(["check", "--mesh", "icosahedron", "--condition", "thurston",
                 "--out", str(tmp_path)])
    assert code == 0
    assert read_json(tmp_path / "check.json")["satisfied"] is True


def test_check_enumeration_too_large_exit7(tmp_path):
    big = grid_torus(5, 6)  # 30 vertices
    p = tmp_path / "big.json"
    save_mesh(big, p)
    code = main(["check", "--mesh", str(p), "--condition", "thurston",
                 "--out", str(tmp_path)])
    assert code == 7
    # explicit subsets make it feasible
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps([[0], [0, 1], list(range(15))]))
    code = main(["check", "--mesh", str(p), "--condition", "thurston",
                 "--subsets", str(subs), "--out", str(tmp_path)])
    assert code in (0, 6)


@pytest.mark.parametrize("subsets, message", [([], "no subsets"),
                                              ([[0.7, 1]], "non-integer")])
def test_check_empty_or_non_integer_subsets_exit2(tmp_path, capsys, subsets,
                                                  message):
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps(subsets))
    code = main(["check", "--mesh", "octahedron", "--condition", "thurston",
                 "--subsets", str(subs), "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "check.json").exists()


@pytest.mark.parametrize("text", ["[0, 1]", "[[0, [1]]]", '["01"]',
                                  "[[true, 2]]", "[[1.0, 2]]", "{}"])
def test_check_malformed_subsets_file_exit2(tmp_path, capsys, text):
    subs = tmp_path / "subs.json"
    subs.write_text(text)
    code = main(["check", "--mesh", "octahedron", "--condition", "thurston",
                 "--subsets", str(subs), "--out", str(tmp_path)])
    assert code == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "check.json").exists()


def test_check_y_and_metric(tmp_path):
    code = main(["check", "--mesh", "octahedron", "--condition", "y",
                 "--random", "0.5,2,9", "--out", str(tmp_path)])
    assert code == 0
    code = main(["check", "--mesh", "genus2_11", "--condition", "metric",
                 "--out", str(tmp_path), "--full"])
    doc = read_json(tmp_path / "check.json")
    assert "records" in doc
    assert code in (0, 6)


def test_spectrum(tmp_path):
    code = main(["spectrum", "--mesh", "icosahedron", "--random", "0.5,2,3",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "spectrum.json")
    assert doc["kernel_residual"] < 1e-9
    w = doc["eigenvalues"]
    assert len(w) == 12
    assert w[1] > 0


def test_spectrum_3d(tmp_path):
    code = main(["spectrum", "--mesh", "cell16", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "spectrum.json")
    assert doc["kernel_residual"] < 1e-6
    assert all(w > -1e-6 for w in doc["eigenvalues"])


def test_solve_second_root(tmp_path):
    code = main(["solve", "--mesh", "tetrahedron", "--start", "1,6,6,6",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "solved_metric.json")
    r = np.asarray(doc["radii"])
    assert abs(r[1] / r[0] - 5.9487) < 5e-5
    assert read_json(tmp_path / "solve_summary.json")["residual"] < 1e-9


def test_solve_from_fixed_point(tmp_path):
    code = main(["solve", "--mesh", "torus_7", "--out", str(tmp_path)])
    assert code == 0
    r = np.asarray(read_json(tmp_path / "solved_metric.json")["radii"])
    assert np.abs(r / r[0] - 1.0).max() < 1e-12


def test_solve_3d_estimate(tmp_path):
    code = main(["solve", "--mesh", "cell5", "--starts", "3", "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "solve_summary.json")
    assert "yamabe_quotient_upper_bound" in doc


def test_outputs_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    args = ["flow", "--mesh", "genus2_11", "--family", "calabi",
            "--random", "0.8,1.3,42", "--t-max", "3"]
    assert main(args + ["--out", str(d1)]) in (0, 4)
    assert main(args + ["--out", str(d2)]) in (0, 4)
    for name in ("trace.csv", "flow_summary.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    c1 = ["curvature", "--mesh", "icosahedron", "--random", "0.5,2,7"]
    assert main(c1 + ["--out", str(d1)]) == 0
    assert main(c1 + ["--out", str(d2)]) == 0
    assert (d1 / "curvature.csv").read_bytes() == (d2 / "curvature.csv").read_bytes()


def test_flow_non_finite_eps_exit2(tmp_path):
    code = main(["flow", "--mesh", "genus2_11", "--eps", "nan",
                 "--out", str(tmp_path)])
    assert code == 2


def test_flow_target_of_wrong_shape_exit2(tmp_path):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"target": [3.14159]}))
    code = main(["flow", "--mesh", "tetrahedron", "--family", "alpha-prescribed",
                 "--alpha", "0", "--target", str(target), "--out", str(tmp_path)])
    assert code == 2


def test_flow_3d_rejects_alpha_and_target_exit2(tmp_path):
    code = main(["flow", "--mesh", "cell5", "--alpha", "0.5",
                 "--out", str(tmp_path)])
    assert code == 2
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"target": [1.0] * 5}))
    code = main(["flow", "--mesh", "cell5", "--target", str(target),
                 "--out", str(tmp_path)])
    assert code == 2


def test_metric_with_non_finite_radius_exit2(tmp_path):
    code = main(["curvature", "--mesh", "tetrahedron", "--radii", "1,nan,1,1",
                 "--out", str(tmp_path)])
    assert code == 2


def test_flow_prescribed_runaway_radii_writes_outputs(tmp_path):
    # the prescribed target pulls the radii to ~1e4 by t = 3; the Ricci
    # potential must follow them without a quadrature failure
    tetra = data.load("tetrahedron")
    r_target = np.random.default_rng(101).uniform(0.9, 1.1, 4)
    target = tmp_path / "target.json"
    target.write_text(json.dumps(
        {"target": [float(x) for x in curvature(tetra, r_target, 2.0)]}))
    out = tmp_path / "out"
    code = main(["flow", "--mesh", "tetrahedron", "--family", "alpha-prescribed",
                 "--alpha", "2", "--random", "0.8,1.3,1", "--t-max", "3",
                 "--target", str(target), "--out", str(out)])
    assert code == 4
    summary = read_json(out / "flow_summary.json")
    assert summary["termination"] == "max_time"
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == summary["samples"] + 1
    # F, C and the residual are finite (the prescribed family conserves nothing)
    assert all(np.isfinite([float(x) for x in lines[-1].split(",")[-3:]]))


@pytest.mark.parametrize("argv", [
    ["check", "--condition", "metric", "--mesh", "octahedron"],
    ["curvature", "--mesh", "octahedron"],
])
def test_non_finite_alpha_exit2(tmp_path, argv):
    # NaN alpha once gave "violated" with NaN margins (invalid JSON) or a
    # curvature summary with "alpha": NaN
    code = main(argv + ["--alpha", "nan", "--random", "0.5,2,1",
                        "--out", str(tmp_path)])
    assert code == 2
    assert not list(tmp_path.iterdir())


def test_solve_icosahedron_trial_overflow_is_not_invalid_input(tmp_path):
    # a line-search trial of this valid start overflows; that is a failed
    # trial, not invalid input (exit 2), and raises no RuntimeWarning
    radii = ("1.73464,0.749798,1.5736,1.75386,0.732441,1.14366,0.590435,"
             "1.52357,1.37567,1.35655,0.815812,1.09915")
    code = main(["solve", "--mesh", "icosahedron", "--radii", radii,
                 "--out", str(tmp_path)])
    assert code in (0, 4)
