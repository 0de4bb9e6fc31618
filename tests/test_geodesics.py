import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from liecurv import (COMPLEX, DimensionMismatch, MatrixElement, Overflow,
                     TangentNotInAlgebra, UnknownGroup,
                     geodesic_body_velocity, geodesic_point, geodesic_residual,
                     geodesic_trace, gl_complex, gl_real, matrix_exp, nabla,
                     random_matrix, subgroup_from_selector,
                     totally_geodesic_check)
from liecurv import curvature, geodesics, verify

SKEW_3 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
SYM_3 = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 1.0], [0.0, 1.0, 0.5]])
SKEW_BIG = np.array([[0.0, 1e100], [-1e100, 0.0]])
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
                              matrix_exp(t * u.T) @ matrix_exp(t * (u - u.T)))


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


def test_geodesic_residual_huge_tangent_overflows():
    # omega stays at 1e200 for a symmetric tangent, so nabla(omega, omega)
    # meets inf - inf
    with pytest.raises(Overflow):
        geodesic_residual(gl_real(3), 1e200 * SYM_3, 1.0)


def test_geodesic_trace_grid():
    s = gl_real(3)
    trace = geodesic_trace(s, SKEW_3, t_max=2.0, steps=9)
    assert trace.t.shape == trace.residual.shape == (9,)
    assert trace.gamma.shape == trace.omega.shape == (9, 3, 3)
    assert trace.t[0] == 0.0
    assert trace.t[-1] == 2.0
    assert norm(trace.omega[0] - SKEW_3) <= 1e-14
    assert all(r <= 1e-6 for r in trace.residual)
    with pytest.raises(ValueError):
        geodesic_trace(s, SKEW_3, steps=1)


def test_geodesic_trace_reuses_its_body_velocity(monkeypatch):
    # one exponential call on one stack of 7 matrices per grid point:
    # exp(t a) for gamma, exp(t s2), which gamma and omega share, exp(-t s2)
    # for omega, and two each for omega(t + h) and omega(t - h) in the
    # residual
    s = gl_real(3)
    u = random_matrix(np.random.default_rng(43), 3)
    calls = []
    exp = geodesics._exp
    monkeypatch.setattr(geodesics, "_exp",
                        lambda a: calls.append(np.shape(a)) or exp(a))
    trace = geodesic_trace(s, u, steps=64)
    monkeypatch.undo()
    assert calls == [(448, 3, 3)]
    assert sum(np.prod(shape[:-2]) for shape in calls) <= 448
    for t, omega, r in zip(trace.t.tolist(), trace.omega, trace.residual):
        assert np.array_equal(omega, geodesic_body_velocity(s, u, t))
        assert r == geodesic_residual(s, u, t)


# -- subgroups ----------------------------------------------------------------


def test_builtin_so():
    so3 = subgroup_from_selector("so:3")
    assert so3.group_defect(np.eye(3)) == 0.0
    assert so3.algebra_defect(SKEW_3) == 0.0
    assert so3.algebra_defect(SYM_3) > 1.0
    assert so3.transpose_invariant


def test_builtin_sl():
    sl2 = subgroup_from_selector("sl:2")
    assert sl2.group_defect(2.0 * np.eye(2)) == pytest.approx(3.0)
    assert sl2.group_defect(np.eye(2)) == 0.0
    assert sl2.algebra_defect(np.array([[1.0, 2.0], [0.0, -1.0]])) == 0.0


def test_builtin_opq():
    o12 = subgroup_from_selector("opq:1,2")
    assert o12.n == 3
    assert o12.group_defect(np.eye(3)) == 0.0
    boost = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert o12.algebra_defect(boost) == 0.0
    assert o12.transpose_invariant


def test_builtin_ut_flags_below_diagonal():
    ut3 = subgroup_from_selector("ut:3")
    assert ut3.group_defect(np.eye(3)) == 0.0
    lower = np.array([[1.0, 0.0, 0.0], [0.7, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert ut3.group_defect(lower) == pytest.approx(0.7)
    assert not ut3.transpose_invariant


def test_builtin_unknown_group():
    for text in ("sp:4", "so:0", "opq:1,0"):
        with pytest.raises(UnknownGroup):
            subgroup_from_selector(text)


def test_projections_land_in_algebra():
    rng = np.random.default_rng(37)
    for spec in map(subgroup_from_selector, ("so:3", "sl:3", "opq:1,2", "ut:3")):
        for _ in range(5):
            u = spec.project(random_matrix(rng, spec.n))
            assert spec.algebra_defect(u) <= 1e-13 * (norm(u) + 1.0)


@pytest.mark.parametrize("selector", ["so:3", "so:1", "sl:2", "sl:3",
                                      "opq:1,2", "opq:2,2", "ut:3", "ut:1"])
def test_a_closure_on_a_stack_is_its_call_on_each_slice(selector):
    spec = subgroup_from_selector(selector)
    rng = np.random.default_rng(71)
    # plain draws, and points of a geodesic from a tangent of the subgroup
    tangent = spec.project(random_matrix(rng, spec.n))
    x = np.stack([random_matrix(rng, spec.n, shape=(5,)),
                  geodesic_point(gl_real(spec.n), tangent,
                                 np.linspace(0.0, 2.0, 5))])
    for f in (spec.group_defect, spec.algebra_defect, spec.project):
        stacked = f(x)
        assert stacked.shape == (x.shape if f is spec.project else x.shape[:2])
        for k in np.ndindex(x.shape[:2]):
            one = f(x[k])
            assert np.ndim(one) == (2 if f is spec.project else 0)
            assert np.array_equal(stacked[k], one)


def test_subgroup_from_selector():
    assert subgroup_from_selector("so:3").name == "SO(3)"
    assert subgroup_from_selector("sl:2").name == "SL(2)"
    assert subgroup_from_selector("opq:1,2").name == "O(1,2)"
    assert subgroup_from_selector("ut:3").name == "UT(3)"
    # "²" is a digit but not a decimal, so it must meet the selector's text
    for text in ("so", "so:x", "opq:1", "sl:2,3", "opq:1,2,3", "ut:", "so:²",
                 "opq:1,²"):
        with pytest.raises(UnknownGroup, match="^bad subgroup selector"):
            subgroup_from_selector(text)
    with pytest.raises(UnknownGroup, match="^unknown subgroup name"):
        subgroup_from_selector("spin:3")


def test_totally_geodesic_so3():
    report = totally_geodesic_check(subgroup_from_selector("so:3"), SKEW_3, t_max=2.0)
    assert report.passed
    assert report.max_defect <= 1e-10


def test_totally_geodesic_sl2():
    u = np.array([[1.0, 2.0], [0.0, -1.0]])
    report = totally_geodesic_check(subgroup_from_selector("sl:2"), u, t_max=2.0)
    assert report.passed
    assert report.max_defect <= 1e-9


def test_totally_geodesic_o12():
    rng = np.random.default_rng(41)
    spec = subgroup_from_selector("opq:1,2")
    for _ in range(5):
        u = spec.project(random_matrix(rng, 3))
        report = totally_geodesic_check(spec, u, t_max=2.0)
        assert report.passed


def test_ut3_control_escapes():
    # the geodesic with tangent E12 leaves the upper-triangular group: the
    # second exponential factor carries a below-diagonal entry
    spec = subgroup_from_selector("ut:3")
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    report = totally_geodesic_check(spec, e12, t_max=2.0)
    assert not report.passed
    assert report.max_defect >= 1e-3


@pytest.mark.parametrize("selector, u, passed", [
    ("so:3", SKEW_3, True),
    ("so:2", np.array([[0.0, 1.0], [-1.0, 0.0]]), True),
    ("ut:3", np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
     False)])
def test_a_negative_t_max_sweeps_back_to_zero(selector, u, passed):
    # the pass line grows with |t_max|: a sweep over [-2, 0] is held to the
    # bound of one over [0, 2]
    report = totally_geodesic_check(subgroup_from_selector(selector), u,
                                    t_max=-2.0)
    assert report.threshold == 1e-9 * (1.0 + np.linalg.norm(u) * 2.0)
    assert report.passed is passed


@pytest.mark.parametrize("chunk", [None, 2])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_defect_that_is_not_finite_is_an_overflow(monkeypatch, bad, chunk):
    # a NaN compares false with the running maximum, so only an explicit
    # test keeps it from passing unseen; the error names its first t
    if chunk is not None:
        monkeypatch.setattr(curvature, "_CHUNK_ROWS", chunk)
    so3 = subgroup_from_selector("so:3")
    spec = dataclasses.replace(so3, group_defect=lambda g: np.where(
        g[..., 0, 0] < 0.0, bad, so3.group_defect(g)))
    with pytest.raises(Overflow, match=r"subgroup defect at t = 1\.2 is not finite"):
        totally_geodesic_check(spec, 1.5 * SKEW_3, t_max=2.0, steps=6)


def test_tangent_not_in_algebra():
    with pytest.raises(TangentNotInAlgebra):
        totally_geodesic_check(subgroup_from_selector("so:3"), SYM_3)


def test_totally_geodesic_check_input_validation():
    spec = subgroup_from_selector("so:3")
    with pytest.raises(DimensionMismatch):
        totally_geodesic_check(spec, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    # a complex tangent is rejected before the real algebra_defect can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch):
            totally_geodesic_check(subgroup_from_selector("sl:2"),
                                   np.array([[1.0, 1.0j], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        totally_geodesic_check(spec, SKEW_3, steps=1)


# -- the stacked t-grid ---------------------------------------------------------


@pytest.mark.parametrize("s", [gl_real(n) for n in (2, 3, 4, 6)]
                         + [gl_complex(n) for n in (2, 3, 4, 6)],
                         ids=lambda s: s.name)
def test_a_stacked_grid_is_bit_equal_to_its_scalar_calls(s):
    rng = np.random.default_rng(47 + s.n)
    u = random_matrix(rng, s.n, s.field)
    ts = np.linspace(0.0, 2.0, 9)
    gammas = geodesic_point(s, u, ts)
    omegas = geodesic_body_velocity(s, u, ts)
    residuals = geodesic_residual(s, u, ts)
    exps = matrix_exp(ts[:, None, None] * u)
    nablas = nabla(s, omegas, gammas)
    assert gammas.shape == omegas.shape == exps.shape == (9, s.n, s.n)
    assert residuals.shape == (9,)
    for k, t in enumerate(ts):
        assert np.array_equal(gammas[k], geodesic_point(s, u, t))
        assert np.array_equal(omegas[k], geodesic_body_velocity(s, u, t))
        assert residuals[k] == geodesic_residual(s, u, float(t))
        assert np.array_equal(exps[k], matrix_exp(t * u))
        assert np.array_equal(nablas[k], nabla(s, omegas[k], gammas[k]))


def test_sweeps_take_one_tangent_and_all_a_flat_grid():
    s = gl_real(3)
    for f in (geodesic_point, geodesic_body_velocity, geodesic_residual):
        with pytest.raises(DimensionMismatch):
            f(s, SKEW_3, np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            f(s, np.stack([SKEW_3, SYM_3]), np.zeros((2, 2)))
    # a sweep reports one curve; it is the one function that refuses a stack
    with pytest.raises(DimensionMismatch, match=r"^totally_geodesic_check "
                       r"takes one tangent, got shape \(2, 3, 3\)$"):
        totally_geodesic_check(subgroup_from_selector("so:3"),
                               np.stack([SKEW_3, SKEW_3]))


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("shape", [(4,), (2, 3)], ids=["m", "m-k"])
@pytest.mark.parametrize("s", [gl_real(2), gl_real(3), gl_real(6),
                               gl_complex(2), gl_complex(4)],
                         ids=lambda s: s.name)
def test_a_stack_of_tangents_is_bit_equal_to_its_one_tangent_calls(
        monkeypatch, s, shape, chunk):
    # at a chunk of 5 matrices the exponentials of a stack, and of most
    # one-tangent calls, go to matrix_exp in several calls
    u = random_matrix(np.random.default_rng(73 + s.n), s.n, s.field, shape)
    ts = np.linspace(0.0, 2.0, 9)
    for f in (geodesic_point, geodesic_body_velocity, geodesic_residual):
        matrix = () if f is geodesic_residual else (s.n, s.n)
        for t, times in ((0.7, ()), (ts, (9,))):
            if chunk is not None:
                monkeypatch.setattr(geodesics, "_EXP_CHUNK", chunk)
            stacked = f(s, u, t)
            monkeypatch.undo()
            assert stacked.shape == shape + times + matrix
            for k in np.ndindex(shape):
                one = f(s, u[k], t)
                assert np.shape(one) == times + matrix
                assert np.array_equal(stacked[k], one)


UT2 = np.array([[116.0, -8e21], [0.0, 2477.0]])


def test_a_product_that_is_not_finite_is_an_overflow():
    # each exponential is finite at these times, their product is not
    with pytest.raises(Overflow, match=r"^geodesic body velocity at "
                       r"t = 0\.126984 is not finite$"):
        geodesic_body_velocity(gl_real(2), UT2, 8.0 / 63.0)
    with pytest.raises(Overflow, match=r"^geodesic point at t = 1 is not finite$"):
        geodesic_point(gl_real(2), np.array([[709.5, 1.0], [0.0, 709.5]]), 1.0)


def test_a_trace_whose_gamma_is_not_finite_is_an_overflow():
    # the residuals are finite up to t = 1, where gamma leaves the range
    u = np.array([[709.5, 1.0], [0.0, 709.5]])
    assert np.isfinite(geodesic_residual(gl_real(2), u, np.linspace(0.0, 1.0, 5))).all()
    with pytest.raises(Overflow, match=r"^geodesic point at t = 1 is not finite$"):
        geodesic_trace(gl_real(2), u, t_max=1.0, steps=5)


@pytest.mark.parametrize("chunk", [None, 3])
def test_a_stack_names_the_row_and_the_time_that_overflow(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(geodesics, "_EXP_CHUNK", chunk)
    s = gl_real(2)
    # each grid starts at t, or where every row is finite, and holds t
    cases = [
        (geodesic_body_velocity, UT2, "geodesic body velocity", 8.0 / 63.0,
         "0.126984", np.linspace(0.0, 8.0 / 63.0, 5)),
        (geodesic_point, np.array([[709.5, 1.0], [0.0, 709.5]]),
         "geodesic point", 1.0, "1", np.linspace(0.0, 1.0, 5)),
        (geodesic_residual, 1e200 * np.eye(2), "geodesic residual", 0.5, "0.5",
         np.array([0.5, 1.0])),
    ]
    rng = np.random.default_rng(79)
    for f, bad, what, t, text, grid in cases:
        # the bad tangent is row 1 of (3,) and row 2, at [1, 0], of (2, 2)
        for shape, flat in (((3,), 1), ((2, 2), 2)):
            u = random_matrix(rng, 2, shape=shape)
            u.reshape(-1, 2, 2)[flat] = bad
            for times in (t, grid):
                with pytest.raises(Overflow, match=(
                        rf"^row {flat}: {what} at t = {text} is not finite$")):
                    f(s, u, times)


def test_stacked_residual_names_the_first_time_that_is_not_finite():
    with pytest.raises(Overflow, match=r"at t = 0\.5 is"):
        geodesic_residual(gl_real(3), 1e200 * SYM_3, [0.5, 1.0])


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("f, bad, times, at", [
    (geodesic_residual, SKEW_BIG, 0.5, "0.5"),
    (geodesic_residual, SKEW_BIG, [0.0, 0.5], "0"),
    (geodesic_point, 2000.0 * np.eye(2), 0.5, "0.5"),
    (geodesic_point, 2000.0 * np.eye(2), [0.0, 0.5], "0.5")],
    ids=["residual-t", "residual-grid", "point-t", "point-grid"])
def test_a_stacked_exponential_overflow_names_its_row_and_t(
        monkeypatch, chunk, f, bad, times, at):
    # the residual's exp(-+h s2) of the skew tangent overflows at t = 0, the
    # point's exp(t a) of 2000 I at t = 0.5; a stack names the row and t
    # around the text of the one-tangent call, also where chunks of 3
    # exponentials put the failure past the first chunk
    if chunk is not None:
        monkeypatch.setattr(geodesics, "_EXP_CHUNK", chunk)
    s = gl_real(2)
    with pytest.raises(Overflow, match="^exponential overflowed") as one:
        f(s, bad, times)
    rng = np.random.default_rng(83)
    for shape, flat in (((2,), 1), ((2, 2), 2)):
        u = random_matrix(rng, 2, shape=shape)
        u.reshape(-1, 2, 2)[flat] = bad
        with pytest.raises(Overflow) as stacked:
            f(s, u, times)
        assert str(stacked.value) == f"row {flat}: {one.value} at t = {at}"


def test_an_overflowing_trace_fails_where_a_sweep_in_t_does():
    # omega(+-h) at t = 0 overflows before the stacked grid's first step:
    # the error names h ||s2||, as a point-by-point sweep does
    u = np.array([[0.0, 1e100], [-1e100, 0.0]])
    with pytest.raises(Overflow, match=r"of norm 2\.83e\+95$"):
        geodesic_trace(gl_real(2), u)


def test_an_overflowing_sweep_fails_where_a_sweep_in_t_does():
    # the second factor of gamma overflows at an earlier t than the first
    u = np.array([[116.0, -8e21], [0.0, 2477.0]])
    with pytest.raises(Overflow) as walked:
        for t in np.linspace(0.0, 2.0, geodesics.DEFAULT_STEPS):
            geodesic_point(gl_real(2), u, float(t))
    with pytest.raises(Overflow) as swept:
        totally_geodesic_check(subgroup_from_selector("ut:2"), u)
    assert str(swept.value) == str(walked.value)


def test_a_chunked_sweep_gives_the_report_of_one_stack(monkeypatch):
    # the 64-step grid is one chunk at the default bound and ten at 7
    rng = np.random.default_rng(53)
    specs = [subgroup_from_selector(g) for g in ("so:3", "opq:1,2", "ut:3")]
    tangents = [spec.project(random_matrix(rng, spec.n)) for spec in specs]
    whole = [totally_geodesic_check(spec, u) for spec, u in zip(specs, tangents)]
    monkeypatch.setattr(curvature, "_CHUNK_ROWS", 7)
    assert [totally_geodesic_check(spec, u)
            for spec, u in zip(specs, tangents)] == whole
    # the overflow is still met where a sweep in t meets it: at t[1], and
    # with this tangent at t[38], in the sixth chunk
    test_an_overflowing_sweep_fails_where_a_sweep_in_t_does()
    test_an_overflowing_trace_fails_where_a_sweep_in_t_does()
    u = np.array([[116.0, -1000.0], [0.0, 600.0]])
    with pytest.raises(Overflow) as walked:
        for t in np.linspace(0.0, 2.0, geodesics.DEFAULT_STEPS):
            geodesic_point(gl_real(2), u, float(t))
    with pytest.raises(Overflow) as swept:
        totally_geodesic_check(subgroup_from_selector("ut:2"), u)
    assert str(swept.value) == str(walked.value)


# at the first tangent the second factor of gamma overflows at an earlier t
# than the first; at the second omega(t +- h) overflows at t = 0
@pytest.mark.parametrize("u", [[[116.0, -8e21], [0.0, 2477.0]],
                               [[0.0, 1e100], [-1e100, 0.0]]],
                         ids=["ut2", "skew"])
@pytest.mark.parametrize("f", [geodesic_point, geodesic_body_velocity,
                               geodesic_residual], ids=lambda f: f.__name__)
def test_a_stacked_grid_overflows_where_a_loop_over_t_does(f, u):
    # the loop goes on past a value that is not finite and stops at the
    # first exponential that overflows: the stack reports that one, or else
    # the loop's first error
    ts = np.linspace(0.0, 2.0, geodesics.DEFAULT_STEPS)
    looped = []
    for t in ts:
        try:
            f(gl_real(2), u, float(t))
        except Overflow as e:
            looped.append(str(e))
            if looped[-1].startswith("exponential"):
                break
    assert looped
    with pytest.raises(Overflow) as stacked:
        f(gl_real(2), u, ts)
    assert str(stacked.value) == next(
        (e for e in looped if e.startswith("exponential")), looped[0])
    # only omega at the first tangent fails first on a value, at t = 8/63
    moved = f is geodesic_body_velocity and np.array_equal(u, UT2)
    assert looped[0].startswith("exponential") is not moved


@pytest.mark.parametrize("chunk", [None, 3])
def test_an_overflow_anywhere_on_the_grid_comes_before_a_body_velocity(
        monkeypatch, chunk):
    # one time at a time, omega stops at t = 8/63, where its exponentials are
    # finite and their product is not; the stacked grid reports the
    # exponential that overflows at a later t, in whatever chunks it goes
    if chunk is not None:
        monkeypatch.setattr(geodesics, "_EXP_CHUNK", chunk)
    ts = np.linspace(0.0, 2.0, geodesics.DEFAULT_STEPS)
    assert ts[4] == 8.0 / 63.0
    with pytest.raises(Overflow, match=r"^geodesic body velocity at t = 0\.126984 is"):
        for t in ts:
            geodesic_body_velocity(gl_real(2), UT2, float(t))
    with pytest.raises(Overflow, match=r"^exponential overflowed .* norm 2\.51e\+21$"):
        geodesic_body_velocity(gl_real(2), UT2, ts)


def test_each_call_takes_one_stack_of_exponentials(monkeypatch):
    s = gl_real(3)
    u = random_matrix(np.random.default_rng(59), 3)
    ts = np.linspace(0.0, 2.0, 9)
    calls = []
    exp = geodesics._exp
    monkeypatch.setattr(geodesics, "_exp",
                        lambda a: calls.append(np.shape(a)) or exp(a))
    # gamma takes exp(t a) and exp(t s2), omega exp(+-t s2), the residual
    # exp(+-t s2), exp(-+(t + h) s2) and exp(-+(t - h) s2), all in one call
    # below _EXP_CHUNK matrices
    for f, k in ((geodesic_point, 2), (geodesic_body_velocity, 2),
                 (geodesic_residual, 6)):
        for t, shape in ((0.5, (k, 3, 3)), (ts, (9 * k, 3, 3))):
            calls.clear()
            f(s, u, t)
            assert calls == [shape]
    # a sweep takes one stack of exponentials and one group_defect call per
    # chunk of the grid
    so3 = subgroup_from_selector("so:3")
    defects = []
    spec = dataclasses.replace(so3, group_defect=lambda g: defects.append(
        np.shape(g)) or so3.group_defect(g))
    monkeypatch.setattr(curvature, "_CHUNK_ROWS", 7)
    calls.clear()
    totally_geodesic_check(spec, SKEW_3)
    assert calls == [(14, 3, 3)] * 9 + [(2, 3, 3)]
    assert defects == [(7, 3, 3)] * 9 + [(1, 3, 3)]
    # above _EXP_CHUNK matrices, in calls of at most that many: 54 = 13 * 4 + 2
    monkeypatch.setattr(geodesics, "_EXP_CHUNK", 4)
    calls.clear()
    geodesic_residual(s, u, ts)
    assert calls == [(4, 3, 3)] * 13 + [(2, 3, 3)]


def test_velocity_link_suite_passes_and_catches_a_corrupted_omega(monkeypatch):
    report = verify._velocity_link_suite(np.random.default_rng(42))
    assert report.name == "geodesic_velocity_link"
    assert report.passed and report.kind == "absolute"
    assert report.bound == verify.GEODESIC_BOUND
    assert set(report.detail) == {"gl:real:3", "gl:complex:2", "t_grid", "h"}

    def without_s2(s, u, t):
        # the closed form with its "+ s2" term dropped
        return (geodesic_body_velocity(s, u, t)
                - (u - np.conj(u).swapaxes(-1, -2))[..., None, :, :])
    monkeypatch.setattr(verify, "geodesic_body_velocity", without_s2)
    report = verify._velocity_link_suite(np.random.default_rng(42))
    assert not report.passed
    assert report.metric > 1e-2
