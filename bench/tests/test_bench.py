"""Tests of the benchmark itself: input determinism, output checks, tracing.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from liecurv import cli  # noqa: E402

CheckError = workloads.CheckError


def argvs(name, seed, count=40):
    wl = workloads.CLASSES[name](seed)
    return [op.argv for k in range(count) for op in wl.request(k)]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.CLASSES))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = argvs(name, 7)
    assert first == argvs(name, 7)
    assert first != argvs(name, 8)


def test_section_pool_expectations_repeat_per_seed():
    a, b = workloads.section_pool(5), workloads.section_pool(5)
    qa = np.array([p.quartic for p in a])
    qb = np.array([p.quartic for p in b])
    assert np.array_equal(qa, qb, equal_nan=True)
    # gl:real:2 k_k pairs are dependent: k is one-dimensional there
    kk = [p for p in a if p.selector == "gl:real:2" and p.kind == "k_k"]
    assert kk and all(p.expect_exit == 3 for p in kk)


# -- output checks ----------------------------------------------------------------


def test_sample_check_rejects_a_flipped_sign():
    rc, out = run_cli(["sample", "--structure", "gl:real:3", "--seed", "3"])
    assert rc == 0
    assert workloads.check_sample_csv(out) == 400
    lines = out.splitlines()
    idx, tag, q, area, sect = lines[1].split(",")
    assert tag == "p_p" and float(q) < 0
    lines[1] = ",".join([idx, tag, str(-float(q)), area, str(-float(sect))])
    with pytest.raises(CheckError, match="p_p quartic"):
        workloads.check_sample_csv("\n".join(lines))


def test_sample_check_rejects_a_missing_row():
    rc, out = run_cli(["sample", "--structure", "gl:complex:2", "--seed", "3"])
    assert rc == 0
    with pytest.raises(CheckError, match="rows"):
        workloads.check_sample_csv("\n".join(out.strip().splitlines()[:-1]))


def test_section_check_rejects_a_wrong_quartic():
    wl = workloads.Section(11)
    k = next(k for k in range(100)
             if wl.request(k)[0].expect_exit == 0
             and wl.pool[int(wl.inputs[k][0])].kind == "general")
    op = wl.request(k)[0]
    rc, out = run_cli(op.argv)
    assert rc == 0 and op.check(out) == 1
    d = json.loads(out)
    shift = 1e-6 * (abs(d["quartic"]) + 1.0)
    d["quartic"] += shift
    d["term_pp"] += shift          # the terms still add up
    with pytest.raises(CheckError, match="oracle"):
        op.check(json.dumps(d))
    d = json.loads(out)
    d["term_cross"] += 1.0
    with pytest.raises(CheckError, match="terms"):
        op.check(json.dumps(d))


def test_section_dependent_pair_expects_exit_3_and_no_output():
    wl = workloads.Section(11)
    k = next(k for k in range(400) if wl.request(k)[0].expect_exit == 3)
    op = wl.request(k)[0]
    rc, out = run_cli(op.argv)
    assert rc == 3 and op.check(out) == 1
    with pytest.raises(CheckError):
        op.check('{"quartic": 0.0}')


def test_geodesic_check_rejects_a_residual_above_its_bound():
    op = workloads.Geodesic(2).request(0)[5]            # gl:complex:3
    rc, out = run_cli(op.argv)
    assert rc == 0 and op.check(out) == workloads.STEPS
    d = json.loads(out)
    d["samples"][10]["residual"] = d["max_residual"] = 1e-3
    with pytest.raises(CheckError, match="residual"):
        op.check(json.dumps(d))


def test_subgroup_check_rejects_a_wrong_verdict():
    ops = [op for op in workloads.Geodesic(2).request(0) if op.kind == "sweep"]
    control = ops[-1]
    assert control.argv[2] == "ut:3" and control.expect_exit == 1
    for op in (ops[0], control):
        rc, out = run_cli(op.argv)
        assert rc == op.expect_exit and op.check(out) == workloads.STEPS
        d = json.loads(out)
        d["passed"] = not d["passed"]
        with pytest.raises(CheckError, match="passed"):
            op.check(json.dumps(d))


def test_certificate_check_recomputes_each_verdict():
    rc, out = run_cli(["verify", "--structure", "gl:real:2", "--trials", "1"])
    assert rc == 0 and workloads.check_certificate(out) == 1
    d = json.loads(out)
    suite = next(s for s in d["suites"] if s["comparator"] == "<=")
    suite["max_error"] = 2 * suite["bound"] + 1.0      # still says passed
    with pytest.raises(CheckError, match=suite["name"]):
        workloads.check_certificate(json.dumps(d))


def test_strip_timing_removes_only_the_wall_time():
    text = '{\n  "passed": true,\n  "elapsed_seconds": 9.25,\n  "suites": []\n}'
    assert json.loads(workloads.strip_timing(text)) == {"passed": True,
                                                        "suites": []}


# -- tracing ----------------------------------------------------------------------


def test_self_time_on_a_synthetic_tree():
    # 0: root [0, 100]
    #   1: [10, 30]    2: [20, 50] overlaps 1, so the children cover 10..50
    #   3: [60, 70]
    #     4: [62, 65]
    # 5: second root [200, 210] with no children
    parent = [-1, 0, 0, 0, 3, -1]
    start = [0, 10, 20, 60, 62, 200]
    end = [100, 30, 50, 70, 65, 210]
    got = tracing.self_times(parent, start, end)
    assert got.tolist() == [100 - 40 - 10, 20, 30, 10 - 3, 3, 10]


def test_outermost_finds_the_first_span_of_each_module():
    # cli -> curvature -> curvature -> cartan -> curvature
    parent = [-1, 0, 1, 2, 3]
    group = [0, 1, 1, 2, 1]
    assert tracing.outermost(parent, group).tolist() == [True, True, False,
                                                         True, False]


def test_tracer_records_patches_and_restores(monkeypatch):
    from liecurv import curvature, oracles, verify

    monkeypatch.setitem(tracing.TARGETS, "oracles",
                        ["quartic_from_definition", "no_such_function"])
    original = oracles.quartic_from_definition
    sectional = curvature.sectional
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify.quartic_from_definition is not original
        tracer.request_id = 0
        rc, out = run_cli(["section", "--u", "[[1,2],[3,4]]",
                           "--v", "[[0,1],[1,0]]"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert verify.quartic_from_definition is original
    assert oracles.quartic_from_definition is original
    assert curvature.sectional is sectional
    metrics = tracer.layer_metrics(requests=1)
    assert tracer.missing == ["oracles.no_such_function"]
    assert "oracles.no_such_function.calls" not in metrics
    assert metrics["cli.main.calls"] == 1
    assert metrics["curvature.sectional.calls"] == 1
    assert metrics["cli.inclusive_s"] >= metrics["cli.self_s"] > 0
    assert metrics["algebra.MatrixElement.constructed"] > 0
    spans = tracer.arrays()
    main_id = tracer.names.index("cli.main")
    assert (spans["parent"][spans["name"] == main_id] == -1).all()
    assert (spans["request"] == 0).all()


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names()


def test_traced_run_reports_every_layer_and_identical_outputs(monkeypatch,
                                                              tmp_path):
    import worker

    monkeypatch.setattr(worker, "ROOT", tmp_path)
    base, metrics, _ = worker.traced_run(cli, "section", workloads.Section(3),
                                         seconds=0.2)
    assert base["correct"] and base["attempted"] >= 1
    assert set(metrics) == set(tracing.per_layer_names())
    assert metrics["oracles.quartic_from_definition.calls"] == 0
    assert metrics["cli.build_parser.calls"] == 1


def test_traced_run_flags_outputs_that_differ(monkeypatch, tmp_path):
    import worker

    monkeypatch.setattr(worker, "ROOT", tmp_path)
    class Timed(workloads.Workload):
        # the certificate's elapsed_seconds differs between runs when it
        # is not stripped
        def request(self, k):
            return [workloads.Op("certificate", ["verify", "--structure",
                                                 "gl:real:2", "--trials", "1"],
                                 0, workloads.check_certificate)]

    base, _, _ = worker.traced_run(cli, "timed", Timed(), seconds=0.1)
    assert not base["correct"]
    assert "differ" in base["problems"][-1]
