"""Acceptance gate: the ten headline checks, one test each.

Every test prints a single "criterion NN: PASS/FAIL" line (visible even under
capture) and asserts at the stated tolerance. Nothing here relaxes a bound;
a red line means the library misses its contract.
"""

import json
import math
import time

import numpy as np

from liecurv.algebra import MatrixElement, bracket, random_matrix
from liecurv.cartan import gl_complex, gl_real, theta_split
from liecurv.cli import main
from liecurv.curvature import (bracket_norm_identity_gap, quartic,
                               quartic_commuting, quartic_special)
from liecurv.geodesics import (geodesic_residual, subgroup_from_selector,
                               totally_geodesic_check)
from liecurv.oracles import commuting_pair, quartic_from_definition, standard_basis
from liecurv.verify import rel_gap

U_2X2 = MatrixElement([[1.0, math.sqrt(7.0) / 2.0], [-math.sqrt(7.0) / 2.0, 2.0]])
V_2X2 = MatrixElement([[0.0, 1.0], [1.0, 0.0]])
U_3X3 = MatrixElement([[1.0, 1.0, -1.0], [1.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
V_3X3 = MatrixElement([[0.0, -1.0, 1.0], [-1.0, 2.0, -1.0], [-2.0, 2.0, -1.0]])

SUITE_NAMES = {
    "structure_axioms", "example_2x2", "example_3x3", "oracle_agreement",
    "sign_pp", "sign_kk", "sign_pk", "sign_gk", "match_gp",
    "bracket_norm_claim", "commuting_theorem", "commuting_2x2_flat",
    "symmetric_iff", "geodesic_residual", "subgroup_so3", "subgroup_sl2",
    "subgroup_o12", "subgroup_ut3_control",
}


def _report(capsys, number: int, passed: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if passed else 'FAIL'} -- {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


def test_criterion_01_zero_curvature_noncommuting_2x2(capsys):
    s = gl_real(2)
    q = quartic(s, U_2X2, V_2X2)
    b = bracket(U_2X2, V_2X2)
    bn_sq = s.b_theta(b, b)
    for _ in range(5):
        quartic(s, U_2X2, V_2X2)  # warm up caches before timing
    best = math.inf
    for _ in range(25):
        t0 = time.perf_counter()
        quartic(s, U_2X2, V_2X2)
        best = min(best, time.perf_counter() - t0)
    passed = abs(q) <= 1e-10 and abs(bn_sq - 16.0) <= 1e-10 and best < 1e-3
    _report(capsys, 1, passed,
            f"|quartic| = {abs(q):.3g}, bracket_norm_sq = {bn_sq!r}, "
            f"best eval {best * 1e6:.1f} us")


def test_criterion_02_commuting_3x3_strictly_negative(capsys):
    s = gl_real(3)
    bn = np.linalg.norm(bracket(U_3X3, V_3X3))
    q = quartic(s, U_3X3, V_3X3)
    qc = quartic_commuting(s, U_3X3, V_3X3)
    gap = rel_gap(q, qc)
    passed = bn <= 1e-13 and q < -0.1 and gap <= 1e-12
    _report(capsys, 2, passed,
            f"bracket_norm = {bn:.3g}, quartic = {q!r}, "
            f"closed-vs-commuting rel gap = {gap:.3g}")


def test_criterion_03_oracle_equivalence(capsys):
    rng = np.random.default_rng(1234)
    plan = [(gl_real(2), 1000), (gl_real(3), 1000), (gl_real(4), 1000),
            (gl_complex(2), 500)]
    t0 = time.perf_counter()
    worst = 0.0
    for s, count in plan:
        basis = standard_basis(s)
        for _ in range(count):
            u = random_matrix(rng, s.n, s.field)
            v = random_matrix(rng, s.n, s.field)
            worst = max(worst, rel_gap(quartic(s, u, v),
                                       quartic_from_definition(s, u, v, basis)))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-8 and elapsed < 30.0
    _report(capsys, 3, passed,
            f"max rel gap = {worst:.3g} over 3500 sections, {elapsed:.1f} s")


def test_criterion_04_sign_theorems(capsys):
    s = gl_real(3)
    rng = np.random.default_rng(77)
    worst_pp = worst_kk = worst_pk = worst_gk = -math.inf
    worst_gp = 0.0
    for _ in range(500):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        c, d = random_matrix(rng, 3), random_matrix(rng, 3)
        p1, p2 = theta_split(s, a).p_part, theta_split(s, b).p_part
        k1, k2 = theta_split(s, c).k_part, theta_split(s, d).k_part
        worst_pp = max(worst_pp, quartic(s, p1, p2))
        worst_kk = max(worst_kk, -quartic(s, k1, k2))
        worst_pk = max(worst_pk, -quartic(s, p1, k2))
        worst_gk = max(worst_gk, -quartic(s, a, k1))
        worst_gp = max(worst_gp,
                       rel_gap(quartic(s, b, p2), quartic_special(s, b, p2)[0]))
    passed = (worst_pp <= 1e-12 and worst_kk <= 1e-12 and worst_pk <= 1e-12
              and worst_gk <= 1e-12 and worst_gp <= 1e-10)
    _report(capsys, 4, passed,
            f"pp <= {worst_pp:.3g}, kk/pk/gk violations <= "
            f"{max(worst_kk, worst_pk, worst_gk):.3g}, gp rel gap = {worst_gp:.3g}"
            " (500 samples per regime)")


def test_criterion_05_bracket_norm_identity(capsys):
    s = gl_real(3)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(500):
        u, v = random_matrix(rng, 3), random_matrix(rng, 3)
        scale = s.b_theta(u, u) * s.b_theta(v, v) + 1.0
        worst = max(worst, abs(bracket_norm_identity_gap(s, u, v)) / scale)
    passed = worst <= 1e-12
    _report(capsys, 5, passed,
            f"max scaled identity gap = {worst:.3g} over 500 pairs")


def test_criterion_06_geodesic_residual(capsys):
    s = gl_real(3)
    rng = np.random.default_rng(4242)
    grid = [0.25 * k for k in range(9)]
    worst = 0.0
    for _ in range(100):
        u = random_matrix(rng, 3)
        if np.linalg.norm(u) > 2.0:
            u = (2.0 / np.linalg.norm(u)) * u
        for t in grid:
            worst = max(worst, geodesic_residual(s, u, t))
    passed = worst <= 1e-6
    _report(capsys, 6, passed,
            f"max residual = {worst:.3g} over 100 tangents x 9 times")


def test_criterion_07_totally_geodesic_sweeps(capsys):
    rng = np.random.default_rng(1717)
    worst = 0.0
    for spec in map(subgroup_from_selector, ("so:3", "sl:2", "opq:1,2")):
        for _ in range(10):
            u = spec.project(random_matrix(rng, spec.n))
            if np.linalg.norm(u) > 0:
                u = u / np.linalg.norm(u)
            worst = max(worst, totally_geodesic_check(spec, u, t_max=2.0).max_defect)
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    control = totally_geodesic_check(subgroup_from_selector("ut:3"), e12, t_max=2.0)
    passed = worst <= 1e-9 and control.max_defect >= 1e-3
    _report(capsys, 7, passed,
            f"max defect so/sl/opq = {worst:.3g}, ut control defect = "
            f"{control.max_defect:.3g}")


def test_criterion_08_commuting_2x2_flat(capsys):
    s = gl_real(2)
    worst = 0.0
    for i in range(500):
        u, v = commuting_pair(90_000 + i, 2)
        worst = max(worst, abs(quartic(s, u, v)))
    passed = worst <= 1e-12
    _report(capsys, 8, passed,
            f"max |quartic| = {worst:.3g} over 500 commuting 2x2 pairs")


def test_criterion_09_symmetric_iff(capsys):
    s = gl_real(3)
    rng = np.random.default_rng(31337)
    violations = 0
    checked = 0
    for i in range(250):
        if i < 200:
            u = theta_split(s, random_matrix(rng, 3)).p_part
            v = theta_split(s, random_matrix(rng, 3)).p_part
        else:
            u, v = commuting_pair(70_000 + i, 3, symmetric=True)
        bracket_zero = np.linalg.norm(bracket(u, v)) <= 1e-10
        scale = s.b_theta(u, u) * s.b_theta(v, v) + 1.0
        quartic_zero = abs(quartic(s, u, v)) <= 1e-12 * scale
        if bracket_zero != quartic_zero:
            violations += 1
        checked += 1
    passed = violations == 0
    _report(capsys, 9, passed,
            f"{violations} iff violations over {checked} symmetric pairs "
            "(200 random + 50 commuting)")


def test_criterion_10_verify_certificate(capsys, tmp_path):
    out = tmp_path / "certificate.json"
    t0 = time.perf_counter()
    rc = main(["verify", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    payload = json.loads(out.read_text())
    names = {suite["name"] for suite in payload["suites"]}
    have_metrics = all(isinstance(suite["max_error"], float)
                       for suite in payload["suites"])
    passed = (rc == 0 and payload["passed"] is True and SUITE_NAMES <= names
              and have_metrics and elapsed < 60.0)
    _report(capsys, 10, passed,
            f"exit {rc}, {len(names)} suites, wall {elapsed:.1f} s")
