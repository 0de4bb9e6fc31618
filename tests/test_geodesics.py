import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from liecurv import (COMPLEX, DimensionMismatch, MatrixElement, Overflow,
                     TangentNotInAlgebra, UnknownGroup, builtin_subgroup,
                     geodesic_body_velocity, geodesic_point, geodesic_residual,
                     geodesic_trace, gl_complex, gl_real, random_matrix,
                     subgroup_from_selector, totally_geodesic_check)
from liecurv import geodesics

SKEW_3 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
SYM_3 = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 1.0], [0.0, 1.0, 0.5]])
norm = np.linalg.norm


def test_geodesic_point_at_zero_is_identity():
    u = MatrixElement([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(geodesic_point(gl_real(2), u, 0.0), np.eye(2))


def test_geodesic_point_symmetric_tangent():
    # u symmetric collapses the product to a single exponential
    for t in (0.3, 1.0, 1.7):
        gamma = geodesic_point(gl_real(3), SYM_3, t)
        assert np.allclose(gamma, expm(t * SYM_3), rtol=1e-12, atol=1e-13)


def test_geodesic_point_skew_tangent_is_orthogonal():
    for t in (0.5, 1.0, 2.0):
        gamma = geodesic_point(gl_real(3), SKEW_3, t)
        assert np.allclose(gamma, expm(t * SKEW_3), rtol=1e-12, atol=1e-13)
        assert norm(gamma.T @ gamma - np.eye(3)) <= 1e-12


def test_geodesic_point_rejects_complex():
    u = 1j * np.eye(2)
    with pytest.raises(DimensionMismatch):
        geodesic_point(gl_real(2), u, 1.0)
    with pytest.raises(DimensionMismatch):
        geodesic_body_velocity(gl_real(2), u, 1.0)


def test_geodesic_point_is_invertible():
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = random_matrix(rng, 3)
        t = float(rng.uniform(0.0, 2.0))
        assert abs(np.linalg.det(geodesic_point(gl_real(3), u, t))) > 1e-8


def test_body_velocity_at_zero_is_tangent():
    rng = np.random.default_rng(13)
    for _ in range(5):
        u = random_matrix(rng, 3)
        assert norm(geodesic_body_velocity(gl_real(3), u, 0.0) - u) <= 1e-14


def test_body_velocity_constant_for_symmetric():
    for t in (0.0, 0.8, 2.0):
        assert norm(geodesic_body_velocity(gl_real(3), SYM_3, t) - SYM_3) == 0.0


def test_body_velocity_matches_finite_difference():
    # omega = gamma^-1 gamma' on both fields
    rng = np.random.default_rng(19)
    h = 1e-5
    t = 0.7
    for s in (gl_real(3), gl_complex(2), gl_complex(3)):
        for _ in range(10):
            u = random_matrix(rng, s.n, s.field)
            omega = geodesic_body_velocity(s, u, t)
            gamma = geodesic_point(s, u, t)
            fd = np.linalg.solve(gamma, (geodesic_point(s, u, t + h)
                                         - geodesic_point(s, u, t - h)) / (2.0 * h))
            assert norm(omega - fd) <= 1e-6


def test_geodesic_point_is_the_real_closed_form_on_gl_real():
    # exp(-t theta u) exp(t (u + theta u)) is exp(t u^T) exp(t (u - u^T))
    # bit-for-bit when theta u = -u^T
    s = gl_real(3)
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = random_matrix(rng, 3)
        t = float(rng.uniform(0.0, 2.0))
        assert np.array_equal(geodesic_point(s, u, t),
                              expm(t * u.T) @ expm(t * (u - u.T)))


def test_geodesic_residual_symmetric_tangent():
    s = gl_real(3)
    for t in (0.0, 1.0, 2.0):
        assert geodesic_residual(s, SYM_3, t) <= 1e-9


def test_geodesic_residual_skew_tangent():
    s = gl_real(3)
    for t in (0.0, 1.0, 2.0):
        assert geodesic_residual(s, SKEW_3, t) <= 1e-8


def test_geodesic_residual_random_tangent():
    s = gl_real(3)
    rng = np.random.default_rng(29)
    for _ in range(10):
        u = random_matrix(rng, 3)
        assert geodesic_residual(s, u, 1.0) <= 1e-6


def test_geodesic_residual_complex_structure():
    s = gl_complex(2)
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = random_matrix(rng, 2, COMPLEX)
        for t in (0.0, 0.5, 1.5):
            assert geodesic_residual(s, u, t) <= 1e-6


def test_geodesic_residual_rejects_bad_step():
    with pytest.raises(ValueError):
        geodesic_residual(gl_real(2), np.eye(2), 1.0, h=0.0)


def test_geodesic_residual_huge_tangent_overflows():
    # omega stays at 1e200 for a symmetric tangent, so nabla(omega, omega)
    # meets inf - inf
    with pytest.raises(Overflow):
        geodesic_residual(gl_real(3), 1e200 * SYM_3, 1.0)


def test_geodesic_trace_grid():
    s = gl_real(3)
    samples = geodesic_trace(s, SKEW_3, t_max=2.0, steps=9)
    assert len(samples) == 9
    assert samples[0].t == 0.0
    assert samples[-1].t == 2.0
    assert norm(samples[0].omega - SKEW_3) <= 1e-14
    assert all(x.residual <= 1e-6 for x in samples)
    with pytest.raises(ValueError):
        geodesic_trace(s, SKEW_3, steps=1)


def test_geodesic_trace_reuses_its_body_velocity(monkeypatch):
    # 8 matrix_exp calls per grid point: two each for gamma and omega, and
    # two each for omega(t + h) and omega(t - h) in the residual
    s = gl_real(3)
    u = random_matrix(np.random.default_rng(43), 3)
    calls = []
    exp = geodesics.matrix_exp
    monkeypatch.setattr(geodesics, "matrix_exp",
                        lambda a: calls.append(1) or exp(a))
    samples = geodesic_trace(s, u, steps=64)
    monkeypatch.undo()
    assert len(calls) == 512
    for x in samples:
        assert np.array_equal(x.omega, geodesic_body_velocity(s, u, x.t))
        assert x.residual == geodesic_residual(s, u, x.t)


# -- subgroups ----------------------------------------------------------------


def test_builtin_so():
    so3 = builtin_subgroup("so", 3)
    assert so3.group_defect(np.eye(3)) == 0.0
    assert so3.algebra_defect(SKEW_3) == 0.0
    assert so3.algebra_defect(SYM_3) > 1.0
    assert so3.transpose_invariant


def test_builtin_sl():
    sl2 = builtin_subgroup("sl", 2)
    assert sl2.group_defect(2.0 * np.eye(2)) == pytest.approx(3.0)
    assert sl2.group_defect(np.eye(2)) == 0.0
    assert sl2.algebra_defect(np.array([[1.0, 2.0], [0.0, -1.0]])) == 0.0


def test_builtin_opq():
    o12 = builtin_subgroup("opq", p=1, q=2)
    assert o12.n == 3
    assert o12.group_defect(np.eye(3)) == 0.0
    boost = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert o12.algebra_defect(boost) == 0.0
    assert o12.transpose_invariant


def test_builtin_ut_flags_below_diagonal():
    ut3 = builtin_subgroup("ut", 3)
    assert ut3.group_defect(np.eye(3)) == 0.0
    lower = np.array([[1.0, 0.0, 0.0], [0.7, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert ut3.group_defect(lower) == pytest.approx(0.7)
    assert not ut3.transpose_invariant


def test_builtin_unknown_group():
    with pytest.raises(UnknownGroup):
        builtin_subgroup("sp", 4)
    with pytest.raises(UnknownGroup):
        builtin_subgroup("so", 0)
    with pytest.raises(UnknownGroup):
        builtin_subgroup("opq", p=1, q=0)


def test_projections_land_in_algebra():
    rng = np.random.default_rng(37)
    for spec in (builtin_subgroup("so", 3), builtin_subgroup("sl", 3),
                 builtin_subgroup("opq", p=1, q=2), builtin_subgroup("ut", 3)):
        for _ in range(5):
            u = spec.project(random_matrix(rng, spec.n))
            assert spec.algebra_defect(u) <= 1e-13 * (norm(u) + 1.0)


def test_subgroup_from_selector():
    assert subgroup_from_selector("so:3").name == "SO(3)"
    assert subgroup_from_selector("sl:2").name == "SL(2)"
    assert subgroup_from_selector("opq:1,2").name == "O(1,2)"
    assert subgroup_from_selector("ut:3").name == "UT(3)"
    for text in ("so", "so:x", "opq:1", "spin:3"):
        with pytest.raises(UnknownGroup):
            subgroup_from_selector(text)


def test_totally_geodesic_so3():
    report = totally_geodesic_check(builtin_subgroup("so", 3), SKEW_3, t_max=2.0)
    assert report.passed
    assert report.max_defect <= 1e-10


def test_totally_geodesic_sl2():
    u = np.array([[1.0, 2.0], [0.0, -1.0]])
    report = totally_geodesic_check(builtin_subgroup("sl", 2), u, t_max=2.0)
    assert report.passed
    assert report.max_defect <= 1e-9


def test_totally_geodesic_o12():
    rng = np.random.default_rng(41)
    spec = builtin_subgroup("opq", p=1, q=2)
    for _ in range(5):
        u = spec.project(random_matrix(rng, 3))
        report = totally_geodesic_check(spec, u, t_max=2.0)
        assert report.passed


def test_ut3_control_escapes():
    # the geodesic with tangent E12 leaves the upper-triangular group: the
    # second exponential factor carries a below-diagonal entry
    spec = builtin_subgroup("ut", 3)
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    report = totally_geodesic_check(spec, e12, t_max=2.0)
    assert not report.passed
    assert report.max_defect >= 1e-3


def test_tangent_not_in_algebra():
    with pytest.raises(TangentNotInAlgebra):
        totally_geodesic_check(builtin_subgroup("so", 3), SYM_3)


def test_totally_geodesic_check_input_validation():
    spec = builtin_subgroup("so", 3)
    with pytest.raises(DimensionMismatch):
        totally_geodesic_check(spec, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    # a complex tangent is rejected before the real algebra_defect can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch):
            totally_geodesic_check(builtin_subgroup("sl", 2),
                                   np.array([[1.0, 1.0j], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        totally_geodesic_check(spec, SKEW_3, steps=1)
