import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from liecurv.cli import main

SQ7 = math.sqrt(7.0)
U_2X2 = json.dumps([[1.0, SQ7 / 2.0], [-SQ7 / 2.0, 2.0]])
V_2X2 = json.dumps([[0.0, 1.0], [1.0, 0.0]])
SKEW_3 = json.dumps([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
SYM_3 = json.dumps([[1.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 2.0]])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_section_paper_pair(capsys):
    code, out, _ = run(capsys, "section", "--u", U_2X2, "--v", V_2X2)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["quartic"]) <= 1e-10
    assert abs(payload["sectional"]) <= 1e-10
    assert payload["structure"] == "gl:real:2"
    assert payload["case"] == "g_p"


def test_section_commuting_case(capsys):
    code, out, _ = run(capsys, "section",
                       "--u", "[[1,0],[0,2]]", "--v", "[[3,0],[0,-1]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "commuting"
    assert payload["quartic"] == 0.0
    assert payload["special_value"] == 0.0


def test_section_general_case(capsys):
    code, out, _ = run(capsys, "section",
                       "--u", "[[1,2],[3,4]]", "--v", "[[0,1],[1,1]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] in ("general", "g_p")
    assert payload["quartic"] == pytest.approx(
        payload["term_pp"] + payload["term_mixed"] + payload["term_cross"])


def test_section_dependent_pair_exit_3(capsys):
    code, _, err = run(capsys, "section",
                       "--u", "[[1,0],[0,2]]", "--v", "[[2,0],[0,4]]")
    assert code == 3
    assert "area" in err


def test_section_bad_json_exit_2(capsys):
    code, _, _ = run(capsys, "section", "--u", "{broken json", "--v", V_2X2)
    assert code == 2


def test_section_dimension_mismatch_exit_2(capsys):
    code, _, _ = run(capsys, "section", "--u", "[[1,0],[0,1]]", "--v", SKEW_3)
    assert code == 2


def test_section_bad_structure_exit_2(capsys):
    code, _, _ = run(capsys, "section", "--structure", "gl:octonion:2",
                     "--u", U_2X2, "--v", V_2X2)
    assert code == 2


def test_section_csv_not_supported(capsys):
    code, _, _ = run(capsys, "section", "--format", "csv",
                     "--u", U_2X2, "--v", V_2X2)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["section", "--u", U_2X2, "--v", V_2X2, "--seed", "5"],
    ["section", "--u", U_2X2, "--v", V_2X2, "--tol", "3"],
    ["geodesic", "--u", SKEW_3, "--trials", "9"],
    ["subgroup", "--group", "so:3", "--u", SKEW_3, "--format", "json"],
    ["subgroup", "--group", "so:3", "--u", SKEW_3, "--structure", "gl:real:3"],
    ["sample", "--tol", "1e-3"],
])
def test_options_a_command_ignores_are_rejected(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 2


def test_section_overflow_exit_1(capsys):
    code, out, err = run(capsys, "section",
                         "--u", "[[1e200,2e200],[3e200,4e200]]",
                         "--v", "[[0,1e200],[1e200,0]]")
    assert code == 1
    assert out == ""
    assert "not finite" in err


def test_matrix_object_form_and_file_input(capsys, tmp_path):
    obj = {"n": 2, "field": "real", "entries": [0.0, 1.0, 1.0, 0.0]}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "section", "--u", U_2X2, "--v", str(path))
    assert code == 0
    assert abs(json.loads(out)["quartic"]) <= 1e-10


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "section", "--u", "nosuchfile.json", "--v", V_2X2)
    assert code == 2


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "section", "--u", U_2X2, "--v", V_2X2,
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert abs(json.loads(target.read_text())["quartic"]) <= 1e-10


def test_verify_small_run(capsys):
    code, out, _ = run(capsys, "verify", "--structure", "gl:real:2",
                       "--trials", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    names = {s["name"] for s in payload["suites"]}
    assert "oracle_agreement" in names
    assert "subgroup_ut3_control" in names


def test_verify_impossible_tolerance_fails(capsys):
    code, out, _ = run(capsys, "verify", "--structure", "gl:real:2",
                       "--trials", "5", "--tol", "1e-30")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failing = [s["name"] for s in payload["suites"] if not s["passed"]]
    assert "oracle_agreement" in failing


def test_verify_tol_moves_only_error_bounds(capsys):
    # ratio suites pass at 1, the iff suite counts violations: --tol must
    # not move either pass line
    code, out, _ = run(capsys, "verify", "--structure", "gl:real:2",
                       "--trials", "1", "--tol", "10")
    assert code == 0
    bounds = {s["name"]: s["bound"] for s in json.loads(out)["suites"]}
    assert bounds["structure_axioms"] == 1.0
    assert bounds["example_3x3"] == 1.0
    assert bounds["symmetric_iff"] == 0.0
    assert bounds["oracle_agreement"] == 10.0
    assert bounds["subgroup_ut3_control"] == 1e-3


def test_verify_rejects_csv(capsys):
    code, _, _ = run(capsys, "verify", "--format", "csv")
    assert code == 2


def test_verify_bad_trials_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--structure", "gl:real:2",
                         "--trials", "0")
    assert code == 2
    assert out == ""
    assert "trials" in err


def test_sample_csv_shape_and_signs(capsys):
    code, out, _ = run(capsys, "sample", "--trials", "25", "--seed", "7")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 100
    assert set(r["case_tag"] for r in rows) == {"p_p", "k_k", "p_k", "general"}
    for r in rows:
        if r["case_tag"] == "p_p":
            assert float(r["quartic"]) <= 1e-12
        if r["case_tag"] in ("k_k", "p_k"):
            assert float(r["quartic"]) >= -1e-12
    header = out.splitlines()[0]
    assert header == "seed_index,case_tag,quartic,area_sq,sectional"


def test_sample_deterministic(capsys):
    _, first, _ = run(capsys, "sample", "--trials", "10", "--seed", "3")
    _, second, _ = run(capsys, "sample", "--trials", "10", "--seed", "3")
    assert first == second
    _, third, _ = run(capsys, "sample", "--trials", "10", "--seed", "4")
    assert first != third


def test_sample_json_format(capsys):
    code, out, _ = run(capsys, "sample", "--trials", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows_per_case"] == 2
    assert len(payload["rows"]) == 8


def test_sample_bad_trials_exit_2(capsys):
    code, _, _ = run(capsys, "sample", "--trials", "0")
    assert code == 2


def test_geodesic_skew_tangent_orthogonal(capsys):
    code, out, _ = run(capsys, "geodesic", "--u", SKEW_3, "--steps", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_residual"] <= 1e-6
    for sample in payload["samples"]:
        entries = np.array(sample["gamma"]["entries"]).reshape(3, 3)
        assert np.linalg.norm(entries.T @ entries - np.eye(3)) <= 1e-10


def test_geodesic_symmetric_tangent_constant_velocity(capsys):
    code, out, _ = run(capsys, "geodesic", "--u", SYM_3, "--steps", "5")
    assert code == 0
    payload = json.loads(out)
    reference = json.loads(SYM_3)
    for sample in payload["samples"]:
        entries = np.array(sample["omega"]["entries"]).reshape(3, 3)
        assert np.allclose(entries, reference, atol=1e-12)


def test_geodesic_csv(capsys):
    code, out, _ = run(capsys, "geodesic", "--u", SKEW_3, "--steps", "4",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert "gamma_00" in rows[0] and "omega_22" in rows[0]
    assert float(rows[0]["t"]) == 0.0


def test_geodesic_complex_csv_rejected(capsys):
    u = json.dumps({"n": 2, "field": "complex",
                    "entries": [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]})
    code, _, _ = run(capsys, "geodesic", "--u", u, "--format", "csv")
    assert code == 2


def test_geodesic_bad_steps_exit_2(capsys):
    code, _, _ = run(capsys, "geodesic", "--u", SKEW_3, "--steps", "1")
    assert code == 2
    code, _, _ = run(capsys, "subgroup", "--group", "so:3", "--u", SKEW_3,
                     "--steps", "1")
    assert code == 2


def test_subgroup_so3_passes(capsys):
    code, out, _ = run(capsys, "subgroup", "--group", "so:3", "--u", SKEW_3)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["max_defect"] <= 1e-9


def test_subgroup_ut3_control_fails(capsys):
    e12 = json.dumps([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    code, out, _ = run(capsys, "subgroup", "--group", "ut:3", "--u", e12)
    assert code == 1
    payload = json.loads(out)
    assert payload["max_defect"] >= 1e-3


def test_subgroup_tangency_violation_exit_4(capsys):
    code, _, err = run(capsys, "subgroup", "--group", "so:3", "--u", SYM_3)
    assert code == 4
    assert "defect" in err


def test_subgroup_complex_tangent_exit_2_without_warning(capsys):
    u = json.dumps({"n": 2, "field": "complex",
                    "entries": [[1, 0], [0, 1], [0, 0], [-1, 0]]})
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, out, err = run(capsys, "subgroup", "--group", "sl:2", "--u", u)
    assert code == 2
    assert out == ""
    assert "ComplexWarning" not in err
    assert "does not belong to gl:real:2" in err


def test_subgroup_unknown_group_exit_2(capsys):
    code, _, _ = run(capsys, "subgroup", "--group", "spin:3", "--u", SKEW_3)
    assert code == 2
