import contextlib
import csv
import io
import json
import math
import re
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecurv import (DegenerateSection, DimensionMismatch, IncompleteBasis,
                     LieCurvError, NotCommuting, NotPureType, Overflow,
                     TangentNotInAlgebra, UnknownGroup, cli, curvature,
                     from_selector, matrix_from_json, random_part, sectional)
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


@pytest.mark.parametrize("matrix", [
    '[["1","2"],["3","4"]]', "[[true,false],[false,true]]",
    "[[1,2,3],[4,5,6]]", "[[1,2],[3]]", "[1,2]"])
def test_bare_nested_list_is_validated_like_the_object_form(capsys, matrix):
    code, out, err = run(capsys, "section", "--u", matrix, "--v", V_2X2)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_ragged_rows_are_named_exit_2(capsys):
    code, out, err = run(capsys, "section", "--u", "[[1,2],[3]]", "--v", V_2X2)
    assert code == 2
    assert out == ""
    assert err == ("error: rows of a nested list must have equal lengths, "
                   "got [2, 1]\n")


def test_missing_file_exit_2(capsys):
    code, _, _ = run(capsys, "section", "--u", "nosuchfile.json", "--v", V_2X2)
    assert code == 2


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# the table of exit codes in the README
@pytest.mark.parametrize("error, code", [
    (DegenerateSection, 3), (TangentNotInAlgebra, 4),
    (ValueError, 2), (OSError, 2), (UnknownGroup, 2), (DimensionMismatch, 2),
    (NotPureType, 2), (IncompleteBasis, 2),
    (Overflow, 1), (NotCommuting, 1), (LieCurvError, 1)])
def test_each_error_type_has_its_exit_code(capsys, monkeypatch, error, code):
    def failing(args):
        raise error("the message")

    monkeypatch.setattr(cli, "cmd_section", failing)
    assert run(capsys, "section", "--u", "[[1]]", "--v", "[[1]]") \
        == (code, "", "error: the message\n")


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    commands = [("section", "--u", "[[1]]"),
                ("frobnicate",),
                ("--help",),
                ("geodesic", "--u", SKEW_3, "--steps", "3", "--format", "csv"),
                ("geodesic", "--u", SKEW_3, "--steps", "3"),
                ("sample", "--trials", "2", "--seed", "7"),
                ("sample", "--trials", "2")]
    first = {argv: run(capsys, *argv) for argv in commands}
    # each command gives the same exit code, stdout and stderr again, run
    # after the others in the reverse order
    assert {argv: run(capsys, *argv) for argv in reversed(commands)} == first
    assert [first[argv][0] for argv in commands] == [2, 2, 0, 0, 0, 0, 0]
    assert "required: --v" in first[commands[0]][2]
    # the defaults of --format and --seed hold after a call that set them
    json.loads(first[commands[4]][1])
    assert first[commands[6]][1] != first[commands[5]][1]
    assert first[commands[6]][1] == run(capsys, "sample", "--trials", "2",
                                        "--seed", "42")[1]


def test_main_calls_a_handler_patched_after_its_first_call(capsys,
                                                           monkeypatch):
    argv = ("geodesic", "--u", "[[0]]", "--steps", "2")
    assert run(capsys, *argv)[0] == 0
    steps = []
    monkeypatch.setattr(cli, "cmd_geodesic",
                        lambda args: steps.append(args.steps) or 5)
    assert run(capsys, *argv) == (5, "", "")
    assert steps == [2]


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


def test_verify_certificate_records_times_and_environment(capsys):
    code, out, _ = run(capsys, "verify", "--structure", "gl:real:2",
                       "--trials", "5")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["environment"]) == {"liecurv", "numpy", "scipy",
                                           "python", "cpu_count"}
    times = [s["elapsed_seconds"] for s in payload["suites"]]
    assert all(isinstance(t, float) and t >= 0.0 for t in times)
    assert sum(times) <= payload["elapsed_seconds"]
    riemann = {s["name"]: s for s in payload["suites"]}["riemann_identities"]
    assert list(riemann["detail"]) == ["gl:real:2"]


def test_verify_certificate_without_scipy_records_null(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)  # import scipy fails
    code, out, _ = run(capsys, "verify", "--structure", "gl:real:2",
                       "--trials", "1")
    assert code == 0
    assert json.loads(out)["environment"]["scipy"] is None


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


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
def test_verify_non_finite_tol_exit_2(capsys, tol):
    # inf would pass every absolute suite, and neither value is valid JSON
    code, out, err = run(capsys, "verify", "--structure", "gl:real:2",
                         "--trials", "1", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "tol_override must be finite" in err


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


@pytest.mark.parametrize("structure, stratum",
                         [("gl:real:2", "k_k"), ("gl:complex:1", "p_p")])
def test_sample_stratum_without_a_plane_exit_3(capsys, structure, stratum):
    # so(2) and the 1x1 eigenspaces are one-dimensional: no draw can span a
    # plane there, so the command refuses before drawing
    code, out, err = run(capsys, "sample", "--structure", structure)
    assert code == 3
    assert out == ""
    assert f"stratum {stratum} of {structure}" in err


SAMPLE_HEADER = ("seed_index", "case_tag", "quartic", "area_sq", "sectional")


def _sample_csv(rows):
    """What `liecurv sample` prints for these rows as CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SAMPLE_HEADER)
    writer.writerows(rows)
    return buf.getvalue() + "\n"


def _reference_sample(structure, seed, trials):
    """The rows `liecurv sample` writes, made pair by pair with the one-pair
    sectional: each stratum draws u then v with random_part and draws again
    in place of a degenerate plane. Also returns the number of redraws."""
    s = from_selector(structure)
    rng = np.random.default_rng(seed)
    rows, redraws = [], 0
    for tag, parts in (("p_p", "pp"), ("k_k", "kk"), ("p_k", "pk"),
                       ("general", "gg")):
        for _ in range(trials):
            while True:
                u, v = (random_part(s, rng, part) for part in parts)
                try:
                    rep = sectional(s, u, v)
                    break
                except DegenerateSection:
                    redraws += 1
            rows.append((len(rows), tag, rep.quartic, rep.area_sq, rep.sectional))
    return rows, redraws


@pytest.mark.parametrize("condition", ["plain", "redraws", "small_chunks"])
@pytest.mark.parametrize("structure", ["gl:real:3", "gl:real:6",
                                       "gl:complex:2", "gl:complex:4"])
def test_sample_matches_the_pair_by_pair_loop(capsys, monkeypatch, structure,
                                              condition):
    # redraws: at 0.6 a share of the draws is degenerate and is redrawn;
    # small_chunks: chunk boundaries fall inside each stratum of 100 rows
    if condition == "redraws":
        monkeypatch.setattr(curvature, "DEGENERATE_AREA_RTOL", 0.6)
    if condition == "small_chunks":
        monkeypatch.setattr(curvature, "_CHUNK_ROWS", 7)
    rows, redraws = _reference_sample(structure, 19, 100)
    if condition != "redraws":
        assert redraws == 0
    elif structure in ("gl:real:3", "gl:complex:2"):
        # thin planes are common in the small algebras, rare in the large
        assert redraws > 0
    expected_json = json.dumps(
        {"structure": structure, "seed": 19, "rows_per_case": 100,
         "rows": [dict(zip(SAMPLE_HEADER, r)) for r in rows]}, indent=2) + "\n"
    argv = ("sample", "--structure", structure, "--seed", "19")
    assert run(capsys, *argv) == (0, _sample_csv(rows), "")
    assert run(capsys, *argv, "--format", "json") == (0, expected_json, "")


def test_sample_gives_up_only_on_consecutive_degenerate_draws(capsys,
                                                              monkeypatch):
    # at 0.9 the k_k stratum of gl:real:3 redraws far more than 100 planes,
    # but never 100 in a row
    monkeypatch.setattr(curvature, "DEGENERATE_AREA_RTOL", 0.9)
    rows, redraws = _reference_sample("gl:real:3", 19, 100)
    assert redraws > 300
    assert run(capsys, "sample", "--structure", "gl:real:3", "--seed", "19") \
        == (0, _sample_csv(rows), "")


@pytest.mark.parametrize("chunk", [1024, 7])
def test_sample_names_the_stratum_it_gives_up(capsys, monkeypatch, chunk):
    # at 1.0 every draw is degenerate: <u,v>^2 <= <u,u><v,v>
    monkeypatch.setattr(curvature, "DEGENERATE_AREA_RTOL", 1.0)
    monkeypatch.setattr(curvature, "_CHUNK_ROWS", chunk)
    code, out, err = run(capsys, "sample", "--structure", "gl:real:3")
    assert (code, out) == (3, "")
    assert err == ("error: stratum p_p of gl:real:3: 100 consecutive "
                   "degenerate draws\n")


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


def test_geodesic_complex_csv_is_refused_before_the_trace(monkeypatch, capsys):
    # the trace of a long grid costs time and memory that a refusal wastes
    def traced(*args, **kwargs):
        raise AssertionError("the trace ran")

    monkeypatch.setattr(cli, "geodesic_trace", traced)
    u = json.dumps({"n": 2, "field": "complex",
                    "entries": [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]})
    code, out, err = run(capsys, "geodesic", "--u", u, "--format", "csv",
                         "--steps", "20000")
    assert (code, out) == (2, "")
    assert "csv output supports real matrices only" in err


# each of the first four was once read as a matrix of the size in the
# second place; a negative n once reached numpy's reshape, which named
# neither n nor the input, and n = 0 was caught only by MatrixElement
@pytest.mark.parametrize(
    "n, size, rule",
    [(1.5, 1, ""), ("2", 2, ""), (True, 1, ""), (2.0, 2, ""),
     (-1, 1, " >= 1"), (-2, 2, " >= 1"), (0, 0, " >= 1")],
    ids=["float", "string", "bool", "integral_float",
         "minus_one", "minus_two", "zero"])
def test_a_size_that_is_not_an_integer_exit_2(capsys, n, size, rule):
    obj = {"n": n, "field": "real", "entries": [0.0] * (size * size)}
    message = f"n must be an integer{rule}, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        matrix_from_json(obj)
    code, out, err = run(capsys, "geodesic", "--u", json.dumps(obj))
    assert code == 2
    assert out == ""
    assert message in err


def test_geodesic_bad_steps_exit_2(capsys):
    code, _, _ = run(capsys, "geodesic", "--u", SKEW_3, "--steps", "1")
    assert code == 2
    code, _, _ = run(capsys, "subgroup", "--group", "so:3", "--u", SKEW_3,
                     "--steps", "1")
    assert code == 2


@pytest.mark.parametrize("t_max", ["nan", "inf"])
def test_non_finite_t_max_exit_2(capsys, t_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["geodesic", "--u", SKEW_3],
                     ["subgroup", "--group", "so:3", "--u", SKEW_3]):
            code, out, err = run(capsys, *argv, "--t-max", t_max)
            assert code == 2
            assert out == ""
            assert "t_max must be finite" in err


# each overflows; the sweeps once printed numpy RuntimeWarnings before their
# error line, from the norm of a huge tangent or from det in the sl defect;
# the geodesic's residual is not finite from t = 0 on, and its error names
# the exponential that overflows later on the grid
@pytest.mark.parametrize("argv", [
    ["subgroup", "--group", "so:3", "--u",
     "[[0,1e300,0],[-1e300,0,0],[0,0,0]]"],
    ["subgroup", "--group", "sl:2", "--u", "[[1000,2000],[0,-1000]]"],
    ["subgroup", "--group", "ut:2", "--u", "[[1e300,1],[0,1e300]]"],
    ["geodesic", "--u", "[[1e200,0],[0,1e200]]", "--steps", "9"]],
    ids=["so3", "sl2", "ut2", "geodesic"])
def test_an_overflow_prints_only_its_error_line(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: exponential overflowed for a matrix of "
                        r"norm \S+\n", err)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


# gamma stays finite on these boosts, but the O(1, 2) defect g^T eta g - eta
# and the SL(2) defect det g - 1 overflow
@pytest.mark.parametrize("argv", [
    ["subgroup", "--group", "opq:1,2", "--u", "[[0,300,0],[300,0,0],[0,0,0]]"],
    ["subgroup", "--group", "sl:2", "--u", "[[0,300],[300,0]]"]],
    ids=["opq12_boost_300", "sl2_boost_300"])
def test_subgroup_prints_no_non_finite_defect(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    if out:
        json.loads(out, parse_constant=_no_constant)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: subgroup defect at t = \S+ is not finite\n",
                        err)


# the edges of the other commands that print JSON: entries near underflow
# and overflow, dependent planes, a zero tangent, exponentials near the top
# of the range, and strata that hold no plane
@pytest.mark.parametrize("argv, code", [
    (["section", "--u", "[[1,0],[0,2]]", "--v", "[[3,0],[0,-1]]"], 0),
    (["section", "--u", "[[1e-320,2e-320],[3e-320,4e-320]]",
      "--v", "[[0,1e-320],[1e-320,0]]"], 0),
    (["section", "--u", "[[1e70,2e70],[3e70,4e70]]",
      "--v", "[[0,1e70],[1e70,0]]"], 0),
    (["section", "--u", "[[1e100,2e100],[3e100,4e100]]",
      "--v", "[[0,1e100],[1e100,0]]"], 1),
    (["section", "--u", "[[1.7976931348623157e308,0],[0,0]]",
      "--v", V_2X2], 1),
    (["section", "--u", "[[1,2],[3,4]]", "--v", "[[1,2],[3,4.000000001]]"], 3),
    (["geodesic", "--u", "[[0,0],[0,0]]", "--steps", "3"], 0),
    (["geodesic", "--u", "[[1e-300,0],[0,1e-300]]", "--steps", "3"], 0),
    (["geodesic", "--u", "[[300,0],[0,-300]]", "--steps", "3"], 0),
    (["geodesic", "--u", "[[0,300],[-300,0]]", "--steps", "3"], 0),
    (["geodesic", "--u", "[[5]]", "--steps", "2", "--t-max", "-150"], 0),
    (["geodesic", "--u", "[[1e200,0],[0,1e200]]", "--steps", "9"], 1),
    (["geodesic", "--u", "[[709.5,1],[0,709.5]]", "--steps", "5",
      "--t-max", "1"], 1),
    (["sample", "--structure", "gl:complex:2", "--trials", "3",
      "--format", "json"], 0),
    (["sample", "--structure", "gl:real:6", "--trials", "3",
      "--format", "json"], 0),
    (["sample", "--structure", "gl:real:2", "--format", "json"], 3),
], ids=lambda x: "-".join(x[:1] + x[2:3])[:40] if isinstance(x, list) else None)
def test_no_command_prints_a_non_finite_number(capsys, argv, code):
    got, out, _ = run(capsys, *argv)
    assert got == code
    if code:
        assert out == ""
    else:
        json.loads(out, parse_constant=_no_constant)


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


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", readme, re.M | re.S)
    commands = [line for _, body in blocks for line in body.splitlines()
                if line.startswith("liecurv ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
    (snippet,) = [body for lang, body in blocks if lang == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue().split()[0] == "-40.5"


# -- the JSON text ------------------------------------------------------------

_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
_NUMBERS = (st.none() | st.booleans() | _FLOATS
            | st.integers(-2**200, 2**200) | _FLOATS.map(np.float64))
_STRINGS = st.text() | st.sampled_from(
    [", ", "]", "], [", '"', "\\", "\u00e9, ]"])
_KEYS = _STRINGS | st.integers() | _FLOATS | st.booleans() | st.none()
JSON_VALUES = st.recursive(
    _NUMBERS | _STRINGS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.lists(st.lists(_NUMBERS, min_size=1, max_size=3),
                              min_size=1, max_size=3)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=30)


# the emitter coerces keys as json does: numbers, bools and None become
# their JSON text
@settings(database=None, derandomize=True, max_examples=400)
@given(JSON_VALUES)
@example([[]])
@example([[1.0], []])
@example([1, [2]])
@example([[1, [2]], 3])
@example([5, [[1]]])
@example({1: [[1.5, -0.0]], None: [True, None], 2.5: [], "": {}})
def test_json_text_is_json_dumps_with_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{(1, 2): 0}, [object()], {"a": {1j: 0}}],
                         ids=["tuple_key", "object", "complex_key"])
def test_json_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as ours:
        cli._json_text(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2)
    assert str(ours.value) == str(theirs.value)


_ELAPSED = re.compile(r'"elapsed_seconds": [^,\n]+')
COMPLEX_3 = json.dumps({"n": 3, "field": "complex", "entries": [
    [0, 1], [1, 0], [0, 0], [-1, 0], [0.5, 0], [0, 0.5], [0, 0], [0, 0.5],
    [0, -1]]})


# every command that writes JSON writes what json.dumps(indent=2) writes, to
# stdout and to --out alike
@pytest.mark.parametrize("argv, code", [
    (["section", "--u", U_2X2, "--v", V_2X2], 0),
    (["verify", "--structure", "gl:real:2", "--trials", "5"], 0),
    (["sample", "--structure", "gl:complex:2", "--trials", "3",
      "--format", "json"], 0),
    (["geodesic", "--u", SKEW_3, "--steps", "5"], 0),
    (["geodesic", "--structure", "gl:complex:3", "--u", COMPLEX_3,
      "--steps", "5"], 0),
    (["subgroup", "--group", "so:3", "--u", SKEW_3], 0),
    (["subgroup", "--group", "ut:3", "--u",
      "[[0,1,0],[0,0,0],[0,0,0]]"], 1),
], ids=["section", "verify", "sample", "geodesic_real", "geodesic_complex",
        "subgroup_pass", "subgroup_fail"])
def test_json_output_is_json_dumps_with_indent_2(capsys, tmp_path, argv, code):
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    target = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert _ELAPSED.sub("", target.read_text()) == _ELAPSED.sub("", out)
