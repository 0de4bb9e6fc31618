import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecurv import (COMPLEX, REAL, CartanStructure, DegenerateSection,
                     DimensionMismatch, LieCurvError, MatrixElement,
                     NotCommuting, NotPureType, Overflow, SectionReport,
                     bracket, bracket_norm_identity_gap, geodesic_trace,
                     gl_complex, gl_real, matrix_exp, nabla, nabla_from_metric,
                     pure_class, quartic, quartic_commuting,
                     quartic_from_definition, quartic_special, random_matrix,
                     random_part, sectional, sections, theta_part, theta_split)
from liecurv.algebra import _per_row
from liecurv.curvature import _terms

SQ7 = math.sqrt(7.0)
norm = np.linalg.norm
PAIR_2X2_U = MatrixElement([[1.0, SQ7 / 2.0], [-SQ7 / 2.0, 2.0]])
PAIR_2X2_V = MatrixElement([[0.0, 1.0], [1.0, 0.0]])
PAIR_3X3_U = MatrixElement([[1.0, 1.0, -1.0], [1.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
PAIR_3X3_V = MatrixElement([[0.0, -1.0, 1.0], [-1.0, 2.0, -1.0], [-2.0, 2.0, -1.0]])
SO3_U = MatrixElement([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
SO3_V = MatrixElement([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])


# -- connection ---------------------------------------------------------------


def test_nabla_pp_example():
    s = gl_real(2)
    u = MatrixElement([[1.0, 0.0], [0.0, 2.0]])
    v = MatrixElement([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(nabla(s, u, v), [[0.0, -0.5], [0.5, 0.0]], atol=1e-15)


def test_nabla_kp_example():
    s = gl_real(2)
    u = MatrixElement([[0.0, 1.0], [-1.0, 0.0]])
    v = MatrixElement([[1.0, 0.0], [0.0, -1.0]])
    expected = 1.5 * bracket(u, v)
    assert np.allclose(nabla(s, u, v), expected, atol=1e-15)
    assert np.allclose(expected, [[0.0, -3.0], [-3.0, 0.0]], atol=1e-15)


def test_nabla_symmetric_self_vanishes():
    s = gl_real(3)
    u = MatrixElement([[2.0, 1.0, 0.0], [1.0, 0.0, 3.0], [0.0, 3.0, -1.0]])
    assert norm(nabla(s, u, u)) == 0.0


def test_nabla_real_closed_form_transpose_shape():
    # over gl(n, R) the generalized formula collapses to
    # ([u,v] + [u,v^T] + [v,u^T]) / 2
    s = gl_real(3)
    rng = np.random.default_rng(31)
    for _ in range(20):
        u, v = random_matrix(rng, 3), random_matrix(rng, 3)
        direct = 0.5 * (bracket(u, v) + bracket(u, v.T) + bracket(v, u.T))
        assert norm(nabla(s, u, v) - direct) <= 1e-14 * (norm(direct) + 1.0)


@pytest.mark.parametrize("cu,cv,coeff", [
    ("p", "p", 0.5), ("k", "k", 0.5), ("p", "k", -0.5), ("k", "p", 1.5)])
def test_nabla_case_coefficients(cu, cv, coeff):
    # on pure inputs the connection is a multiple of the bracket, with the
    # paper's coefficient for each pair of classes
    s = gl_real(3)
    seeds = {("p", "p"): 211, ("k", "k"): 223, ("p", "k"): 227, ("k", "p"): 229}
    rng = np.random.default_rng(seeds[(cu, cv)])
    for _ in range(10):
        u = random_part(s, rng, cu)
        v = random_part(s, rng, cv)
        assert (pure_class(s, u), pure_class(s, v)) == (cu, cv)
        direct = coeff * bracket(u, v)
        assert norm(nabla(s, u, v) - direct) <= 1e-13 * (norm(u) * norm(v) + 1.0)


def test_nabla_metric_compatibility():
    # left-invariant fields have constant inner products, so
    # <nabla_u v, w> + <v, nabla_u w> = 0
    rng = np.random.default_rng(41)
    for s, field in ((gl_real(3), REAL), (gl_complex(2), COMPLEX)):
        for _ in range(25):
            u, v, w = (random_matrix(rng, s.n, field) for _ in range(3))
            total = s.b_theta(nabla(s, u, v), w) + s.b_theta(v, nabla(s, u, w))
            assert abs(total) <= 1e-12 * (norm(u) * norm(v) * norm(w) + 1.0)


def test_nabla_torsion_free():
    rng = np.random.default_rng(43)
    s = gl_real(3)
    for _ in range(25):
        u, v = random_matrix(rng, 3), random_matrix(rng, 3)
        gap = nabla(s, u, v) - nabla(s, v, u) - bracket(u, v)
        assert norm(gap) <= 1e-13 * (norm(u) * norm(v) + 1.0)


def test_nabla_koszul_consistency():
    rng = np.random.default_rng(47)
    s = gl_real(3)
    for _ in range(25):
        u, v, w = (random_matrix(rng, 3) for _ in range(3))
        lhs = s.b_theta(nabla(s, u, v), w)
        rhs = 0.5 * (s.b_theta(bracket(u, v), w)
                     - s.b_theta(bracket(v, w), u)
                     - s.b_theta(bracket(u, w), v))
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)


# -- curvature tensor ---------------------------------------------------------


def curvature_tensor(s: CartanStructure, u, v, w) -> np.ndarray:
    """R(u, v)w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_[u,v] w."""
    return (nabla(s, u, nabla(s, v, w))
            - nabla(s, v, nabla(s, u, w))
            - nabla(s, bracket(u, v), w))


def test_curvature_tensor_vanishes_on_equal_arguments():
    s = gl_real(3)
    rng = np.random.default_rng(53)
    u, w = random_matrix(rng, 3), random_matrix(rng, 3)
    assert norm(curvature_tensor(s, u, u, w)) == 0.0


def test_curvature_tensor_antisymmetry():
    s = gl_real(3)
    rng = np.random.default_rng(59)
    for _ in range(10):
        u, v, w = (random_matrix(rng, 3) for _ in range(3))
        forward = curvature_tensor(s, u, v, w)
        backward = curvature_tensor(s, v, u, w)
        assert norm(forward + backward) <= 1e-12 * (norm(forward) + 1.0)


def test_curvature_tensor_symmetric_triple():
    # for symmetric u, v the tensor on w = v collapses to -(7/4)[[u, v], v]
    s = gl_real(3)
    rng = np.random.default_rng(61)
    for _ in range(10):
        u, v = random_part(s, rng, "p"), random_part(s, rng, "p")
        value = curvature_tensor(s, u, v, v)
        direct = -1.75 * bracket(bracket(u, v), v)
        assert norm(value - direct) <= 1e-12 * (norm(direct) + 1.0)


def test_curvature_tensor_pair_symmetry():
    s = gl_real(3)
    rng = np.random.default_rng(67)
    for _ in range(10):
        u, v, w, x = (random_matrix(rng, 3) for _ in range(4))
        lhs = s.b_theta(curvature_tensor(s, u, v, w), x)
        rhs = s.b_theta(curvature_tensor(s, v, u, x), w)
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)


def test_quartic_matches_tensor_definition():
    rng = np.random.default_rng(71)
    for s, field in ((gl_real(3), REAL), (gl_real(5), REAL), (gl_complex(3), COMPLEX)):
        for _ in range(15):
            u, v = random_matrix(rng, s.n, field), random_matrix(rng, s.n, field)
            through_tensor = s.b_theta(curvature_tensor(s, u, v, v), u)
            closed = quartic(s, u, v)
            assert abs(closed - through_tensor) <= 1e-10 * (abs(closed) + 1.0)


def test_cross_term_claim():
    # <R(u1, v)v, u2> = 0 for the split parts of any u and pure v
    s = gl_real(3)
    rng = np.random.default_rng(73)
    for _ in range(15):
        parts = theta_split(s, random_matrix(rng, 3))
        for v in (random_part(s, rng, "p"), random_part(s, rng, "k")):
            val = s.b_theta(curvature_tensor(s, parts.p_part, v, v), parts.k_part)
            assert abs(val) <= 1e-12 * (norm(v) ** 2 + 1.0)


# -- quartic and sectional ----------------------------------------------------


def test_quartic_2x2_pair_is_zero():
    assert abs(quartic(gl_real(2), PAIR_2X2_U, PAIR_2X2_V)) <= 1e-10


def test_quartic_3x3_pair_matches_commuting_theorem():
    s = gl_real(3)
    q = quartic(s, PAIR_3X3_U, PAIR_3X3_V)
    assert q < -0.1
    b11 = bracket(theta_split(s, PAIR_3X3_U).p_part,
                  theta_split(s, PAIR_3X3_V).p_part)
    assert q == pytest.approx(-4.0 * s.b_theta(b11, b11), rel=1e-12)


def test_quartic_commuting_diagonals_is_zero():
    s = gl_real(2)
    u = MatrixElement(np.diag([1.0, 2.0]))
    v = MatrixElement(np.diag([3.0, -1.0]))
    assert quartic(s, u, v) == 0.0


def test_quartic_pair_symmetry():
    rng = np.random.default_rng(79)
    s = gl_real(3)
    for _ in range(25):
        u, v = random_matrix(rng, 3), random_matrix(rng, 3)
        a, b = quartic(s, u, v), quartic(s, v, u)
        assert abs(a - b) <= 1e-12 * (abs(a) + 1.0)


def test_sectional_report_terms_sum():
    rng = np.random.default_rng(83)
    s = gl_real(3)
    for _ in range(20):
        u, v = random_matrix(rng, 3), random_matrix(rng, 3)
        rep = sectional(s, u, v)
        assert rep.quartic == rep.term_pp + rep.term_mixed + rep.term_cross
        assert rep.sectional == rep.quartic / rep.area_sq
        assert rep.area_sq > 0.0


def test_sectional_orthonormal_pair():
    s = gl_real(2)
    u = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = sectional(s, u, u.T)
    assert rep.area_sq == 1.0
    assert rep.sectional == rep.quartic


def test_sectional_2x2_pair_is_zero():
    rep = sectional(gl_real(2), PAIR_2X2_U, PAIR_2X2_V)
    assert abs(rep.sectional) <= 1e-11


def test_sectional_so3_generators():
    rep = sectional(gl_real(3), SO3_U, SO3_V)
    assert rep.quartic == pytest.approx(0.5, rel=1e-14)
    assert rep.area_sq == pytest.approx(4.0, rel=1e-14)
    assert rep.sectional == pytest.approx(0.125, rel=1e-14)


def test_sectional_degenerate_rejected():
    s = gl_real(2)
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DegenerateSection):
        sectional(s, u, 2.0 * u)


def test_sectional_overflow_is_caught_before_degeneracy():
    # the quartic of this independent pair is near 1e800; a dependent pair
    # is degenerate at any scale, since the test runs on the rescaled pair
    u = MatrixElement([[1e200, 2e200], [3e200, 4e200]])
    v = MatrixElement([[0.0, 1e200], [1e200, 0.0]])
    with pytest.raises(Overflow):
        sectional(gl_real(2), u, v)
    with pytest.raises(DegenerateSection):
        sectional(gl_real(2), u, u)


SCALE_STRUCTURES = st.sampled_from([gl_real(3), gl_complex(2)])


@settings(database=None, derandomize=True)
@given(SCALE_STRUCTURES, st.integers(0, 2**32 - 1),
       st.integers(-400, 200), st.integers(-400, 200))
def test_sectional_is_bit_equal_under_power_of_two_scales(s, seed, k, j):
    rng = np.random.default_rng(seed)
    u, v = random_matrix(rng, s.n, s.field), random_matrix(rng, s.n, s.field)
    base = sectional(s, u, v)
    rep = sectional(s, math.ldexp(1.0, k) * u, math.ldexp(1.0, j) * v)
    assert rep.sectional == base.sectional
    assert rep.quartic == math.ldexp(base.quartic, 2 * (k + j))
    assert rep.area_sq == math.ldexp(base.area_sq, 2 * (k + j))


@settings(database=None, derandomize=True)
@given(SCALE_STRUCTURES, st.integers(0, 2**32 - 1),
       st.floats(1e-150, 1e-1), st.floats(1e-150, 1e-1))
def test_sectional_keeps_its_value_at_small_scales(s, seed, a, b):
    # 1e-100 used to underflow the area to 0 and read as degenerate. The gap
    # is measured against the size of the terms: a sectional value near 0
    # is the difference of terms of order 1
    rng = np.random.default_rng(seed)
    u, v = random_matrix(rng, s.n, s.field), random_matrix(rng, s.n, s.field)
    base = sectional(s, u, v)
    rep = sectional(s, a * u, b * v)
    size = (abs(base.term_pp) + abs(base.term_mixed)
            + abs(base.term_cross)) / base.area_sq
    assert abs(rep.sectional - base.sectional) <= 1e-12 * size


def _section_leaves(s, u, v):
    report, degenerate = sections(s, u, v)
    return (*_fields(report), degenerate)


def _fields(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _trace_leaves(s, u, v):
    trace = geodesic_trace(s, u, t_max=1.0, steps=3)
    assert trace.t.tolist() == [0.0, 0.5, 1.0]
    return trace.gamma, trace.omega, trace.residual


# the checked functions that take one matrix or pair, or stacks of them,
# each as a call that returns its results as a tuple of leaves; the
# exponentials of 1000 v overflow on some rows
STACKED = {
    "b_theta": lambda s, u, v: (s.b_theta(u, v),),
    "_terms": lambda s, u, v: tuple(
        map(_per_row, _terms(s, *s.check_stacks(u, v)))),
    "quartic": lambda s, u, v: (quartic(s, u, v),),
    "quartic_special": quartic_special,
    "quartic_commuting": lambda s, u, v: (quartic_commuting(s, u, v),),
    "bracket_norm_identity_gap":
        lambda s, u, v: (bracket_norm_identity_gap(s, u, v),),
    "quartic_from_definition":
        lambda s, u, v: (quartic_from_definition(s, u, v),),
    "matrix_exp": lambda s, u, v: (matrix_exp(1000.0 * v),),
    "sectional": lambda s, u, v: _fields(sectional(s, u, v)),
    "sections": _section_leaves,
    "pure_class": lambda s, u, v: (pure_class(s, u),),
    "theta_split": lambda s, u, v: _fields(theta_split(s, u)),
    "nabla_from_metric": lambda s, u, v: (nabla_from_metric(s, u, v),),
    "geodesic_trace": _trace_leaves,
}

# a row: the theta-part of u ("0" for the zero matrix, which spans no
# plane) and of v ("2u" for 2u, which spans none either)
ROW_KINDS = st.tuples(st.sampled_from("pkg0"),
                      st.sampled_from(["p", "k", "g", "2u"]))


@settings(database=None, derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 6), st.sampled_from([REAL, COMPLEX]),
       st.integers(0, 2**32 - 1), st.lists(ROW_KINDS, max_size=6),
       st.booleans())
def test_checked_functions_take_stacks_row_by_row(n, field, seed, kinds,
                                                  two_axes):
    # every row of a stack is bit-equal to its one-pair call, or the stack
    # raises the error of the first row that fails, prefixed "row i: "; a
    # stack may have no rows, and it has two batch axes when two_axes holds
    # for an even count
    s = CartanStructure(n, field)
    x = random_matrix(np.random.default_rng(seed), n, field, (len(kinds), 2))
    u, v = np.zeros_like(x[:, 0]), np.zeros_like(x[:, 1])
    for i, (a, b) in enumerate(kinds):
        if a != "0":
            u[i] = theta_part(s, x[i, 0], a)
        v[i] = 2.0 * u[i] if b == "2u" else theta_part(s, x[i, 1], b)
    shape = ((2, len(kinds) // 2) if two_axes and len(kinds) % 2 == 0
             else (len(kinds),))
    us, vs = u.reshape(*shape, n, n), v.reshape(*shape, n, n)
    for name, call in STACKED.items():
        rows = []
        for i in range(len(kinds)):
            try:
                rows.append(call(s, u[i], v[i]))
            except LieCurvError as exc:
                with pytest.raises(type(exc), match="^" + re.escape(
                        f"row {i}: {exc}") + "$"):
                    call(s, us, vs)
                break
        else:
            leaves = call(s, us, vs)
            for j, leaf in enumerate(leaves):
                assert leaf.shape[:len(shape)] == shape, name
                flat = leaf.reshape(len(kinds), *leaf.shape[len(shape):])
                for i, row in enumerate(rows):
                    # one pair gives a float or a str, not a numpy scalar
                    assert name == "sections" or not isinstance(
                        row[j], np.generic), name
                    want = np.asarray(row[j])
                    assert flat[i].dtype == want.dtype, name
                    assert flat[i].tobytes() == want.tobytes(), (name, i, j)


SECTION_FIELDS = [f.name for f in dataclasses.fields(SectionReport)]


# One row: the power-of-two exponents of u and v, and its kind: "free" for
# two independent draws; "zero" for u = 0; "subnormal" for u at 2^-1060,
# below the floor of the rescaling; or a number eps for v = u + eps * w,
# which is dependent at eps 0 and straddles the degeneracy threshold near
# eps 1e-6
ROWS = st.tuples(st.integers(-400, 200), st.integers(-400, 200),
                 st.sampled_from(["free", "zero", "subnormal",
                                  0.0, 1e-7, 1e-6, 1e-5]))


@settings(database=None, derandomize=True, max_examples=80)
@given(st.integers(1, 9), st.sampled_from([REAL, COMPLEX]),
       st.integers(0, 2**32 - 1), st.lists(ROWS, min_size=1, max_size=10))
def test_sections_rows_are_bit_equal_to_sectional(n, field, seed, rows):
    # n = 9 crosses numpy's 8-element summation block, and the scales of one
    # stack differ row by row
    s = CartanStructure(n, field)
    rng = np.random.default_rng(seed)
    u = random_matrix(rng, n, field, (len(rows),))
    v = random_matrix(rng, n, field, (len(rows),))
    scales = []
    for i, (k, j, kind) in enumerate(rows):
        if kind == "zero":
            u[i] = 0.0
        elif kind == "subnormal":
            k = -1060
        elif kind != "free":
            v[i] = u[i] + kind * v[i]
        u[i] *= math.ldexp(1.0, k)
        v[i] *= math.ldexp(1.0, j)
        scales.append((k, j))
    report, degenerate = sections(s, u, v)
    assert degenerate.shape == (len(rows),)
    for i, (k, j) in enumerate(scales):
        try:
            want = sectional(s, u[i], v[i])
        except DegenerateSection:
            assert degenerate[i]
            # all but the sectional value stay exact on a masked row: the
            # one-pair forms at unit scale, scaled back (2^-k stays finite)
            k = max(k, -1021)
            u0, v0 = u[i] * math.ldexp(1.0, -k), v[i] * math.ldexp(1.0, -j)
            uu, vv, uv = (s.b_theta(a, b) for a, b in
                          ((u0, u0), (v0, v0), (u0, v0)))
            exact = [quartic(s, u0, v0), uu * vv - uv * uv,
                     *_terms(s, u0, v0)]
            assert ([float(getattr(report, f)[i]).hex() for f in SECTION_FIELDS
                     if f != "sectional"]
                    == [math.ldexp(x, 2 * (k + j)).hex() for x in exact])
            continue
        assert not degenerate[i]
        assert ([float(getattr(report, f)[i]).hex() for f in SECTION_FIELDS]
                == [getattr(want, f).hex() for f in SECTION_FIELDS])


def test_sections_raises_overflow_where_sectional_does():
    s = gl_real(3)
    rng = np.random.default_rng(11)
    u, v = random_matrix(rng, 3, REAL, (3,)), random_matrix(rng, 3, REAL, (3,))
    bad = u.copy()
    bad[2, 0, 1] = np.nan
    with pytest.raises(Overflow, match="^row 2: "):
        sections(s, bad, v)
    # at 2^1000 an independent plane's quartic overflows once scaled back,
    # while a dependent plane is degenerate at any scale
    u *= 2.0 ** 1000
    v[0] = u[0]
    with pytest.raises(DegenerateSection):
        sectional(s, u[0], v[0])
    with pytest.raises(Overflow):
        sectional(s, u[1], v[1])
    with pytest.raises(Overflow, match="^row 1: "):
        sections(s, u, v)
    assert sections(s, u[:1], v[:1])[1].tolist() == [True]


def test_sections_takes_two_stacks_of_one_shape():
    s = gl_real(2)
    stack = np.stack([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]])
    report, degenerate = sections(s, stack, stack[::-1])
    assert report.quartic.shape == degenerate.shape == (2,)
    report, degenerate = sections(s, stack[None], stack[None, ::-1])
    assert report.quartic.shape == degenerate.shape == (1, 2)
    for u, v in ((stack, stack[:1]), (stack[0], stack[:1]),
                 (stack, stack.astype(complex))):
        with pytest.raises(DimensionMismatch):
            sections(s, u, v)


def test_a_zero_vector_spans_no_plane_and_no_negative_zero():
    s = gl_real(2)
    assert math.copysign(1.0, s.b_theta(np.zeros((2, 2)), np.eye(2))) == 1.0
    assert math.copysign(1.0, s.b_theta(np.zeros((2, 2)), np.zeros((2, 2)))) == 1.0
    with pytest.raises(DegenerateSection,
                       match=r"^squared area 0 is below .* = 0 \("):
        sectional(s, np.zeros((2, 2)), np.eye(2))
    # vanishing terms of a commuting pair print unsigned
    rep = sectional(s, np.diag([1.0, 2.0]), np.diag([3.0, -1.0]))
    assert all(math.copysign(1.0, x) == 1.0 for x in
               (rep.quartic, rep.term_pp, rep.term_mixed, rep.term_cross))
    assert math.copysign(1.0, quartic_commuting(
        s, np.diag([1.0, 2.0]), np.diag([3.0, -1.0]))) == 1.0


def test_nabla_quartic_dimension_mismatch():
    for fn in (nabla, quartic):
        with pytest.raises(DimensionMismatch):
            fn(gl_real(2), np.eye(2), np.eye(3))
        with pytest.raises(DimensionMismatch):
            fn(gl_real(2), np.eye(2), np.eye(2, dtype=complex))


def test_sectional_scaling_and_shear_invariance():
    rng = np.random.default_rng(89)
    s = gl_real(3)
    for _ in range(15):
        u, v = random_matrix(rng, 3), random_matrix(rng, 3)
        base = sectional(s, u, v).sectional
        a, b = (float(x) for x in rng.uniform(0.2, 3.0, size=2))
        c = float(rng.uniform(-2.0, 2.0))
        scaled = sectional(s, a * u, b * v).sectional
        sheared = sectional(s, u, v + c * u).sectional
        assert abs(scaled - base) <= 1e-10 * (abs(base) + 1.0)
        assert abs(sheared - base) <= 1e-10 * (abs(base) + 1.0)


# -- special cases ------------------------------------------------------------


def test_quartic_special_pp_example():
    s = gl_real(2)
    u = MatrixElement([[1.0, 0.0], [0.0, -1.0]])
    v = MatrixElement([[0.0, 1.0], [1.0, 0.0]])
    value, tag = quartic_special(s, u, v)
    assert tag == "p_p"
    assert value == pytest.approx(-14.0, rel=1e-14)
    assert value == pytest.approx(quartic(s, u, v), rel=1e-12)


def test_quartic_special_so3_pair():
    s = gl_real(3)
    value, tag = quartic_special(s, SO3_U, SO3_V)
    assert tag == "k_k"
    assert value == pytest.approx(0.5, rel=1e-14)


def test_quartic_special_mixed_u_pure_p_v():
    s = gl_real(3)
    rng = np.random.default_rng(97)
    for _ in range(20):
        u = random_matrix(rng, 3)
        v = random_part(s, rng, "p")
        value, tag = quartic_special(s, u, v)
        assert tag == "g_p"
        parts = theta_split(s, u)
        b1, b2 = bracket(parts.p_part, v), bracket(parts.k_part, v)
        direct = -1.75 * s.b_theta(b1, b1) + 0.25 * s.b_theta(b2, b2)
        assert value == pytest.approx(direct, rel=1e-13)
        assert abs(value - quartic(s, u, v)) <= 1e-12 * (abs(value) + 1.0)


def test_quartic_special_all_pure_cases_match_general():
    s = gl_real(3)
    rng = np.random.default_rng(101)
    for cu in ("p", "k"):
        for cv in ("p", "k"):
            for _ in range(10):
                u, v = random_part(s, rng, cu), random_part(s, rng, cv)
                value, tag = quartic_special(s, u, v)
                assert tag == f"{cu}_{cv}"
                assert abs(value - quartic(s, u, v)) <= 1e-12 * (abs(value) + 1.0)


def test_quartic_special_rejects_mixed_v():
    s = gl_real(2)
    with pytest.raises(NotPureType):
        quartic_special(s, np.eye(2), [[1.0, 1.0], [0.0, 1.0]])


def test_quartic_commuting_3x3_pair():
    s = gl_real(3)
    value = quartic_commuting(s, PAIR_3X3_U, PAIR_3X3_V)
    assert value == pytest.approx(quartic(s, PAIR_3X3_U, PAIR_3X3_V), rel=1e-12)
    assert value < -0.1


def test_quartic_commuting_diagonal_pair_is_zero():
    s = gl_real(3)
    u = MatrixElement(np.diag([1.0, 2.0, -1.0]))
    v = MatrixElement(np.diag([0.5, 3.0, 2.0]))
    assert quartic_commuting(s, u, v) == 0.0


def test_quartic_commuting_rejects_2x2_pair():
    with pytest.raises(NotCommuting):
        quartic_commuting(gl_real(2), PAIR_2X2_U, PAIR_2X2_V)


NOT_COMMUTING = (np.array([[1.0, 2.0], [0.0, 1.0]]),
                 np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("fn", [
    lambda s, u, v: pure_class(s, u), quartic_special, quartic_commuting,
    bracket_norm_identity_gap],
    ids=["pure_class", "quartic_special", "quartic_commuting",
         "bracket_norm_identity_gap"])
@pytest.mark.parametrize("s,scale", [(gl_real(3), 1.0), (gl_real(2), 1j)],
                         ids=["2x2_on_gl3", "complex_on_real_gl2"])
def test_split_references_check_their_inputs_at_entry(fn, s, scale):
    # the pair does not commute, so the size or field check must come before
    # the commutator test of quartic_commuting
    u, v = (scale * x for x in NOT_COMMUTING)
    with pytest.raises(DimensionMismatch, match="does not belong to gl:real"):
        fn(s, u, v)


# -- sign theorems and the iff ------------------------------------------------


def test_sign_theorems_sweep():
    rng = np.random.default_rng(103)
    for s, field in ((gl_real(3), REAL), (gl_complex(2), COMPLEX)):
        for _ in range(50):
            p1, p2 = random_part(s, rng, "p"), random_part(s, rng, "p")
            k1, k2 = random_part(s, rng, "k"), random_part(s, rng, "k")
            g = random_matrix(rng, s.n, field)
            assert quartic(s, p1, p2) <= 1e-12
            assert quartic(s, k1, k2) >= -1e-12
            assert quartic(s, p1, k1) >= -1e-12
            assert quartic(s, g, k2) >= -1e-12


def test_symmetric_iff_forward():
    # symmetric pairs with a genuinely nonzero bracket have strictly negative
    # quartic form
    s = gl_real(3)
    rng = np.random.default_rng(107)
    for _ in range(50):
        u, v = random_part(s, rng, "p"), random_part(s, rng, "p")
        if norm(bracket(u, v)) > 1e-10:
            assert quartic(s, u, v) < 0.0


def test_symmetric_iff_backward():
    # commuting symmetric pairs have vanishing quartic form
    s = gl_real(3)
    rng = np.random.default_rng(109)
    for _ in range(20):
        d1 = MatrixElement(np.diag(rng.uniform(-2, 2, size=3)))
        d2 = MatrixElement(np.diag(rng.uniform(-2, 2, size=3)))
        assert abs(quartic(s, d1, d2)) <= 1e-12


def test_skew_iff_both_directions():
    # with v skew the quartic is exactly (1/4)||[u,v]||^2, so it vanishes
    # exactly when the bracket does
    s = gl_real(3)
    rng = np.random.default_rng(113)
    for _ in range(25):
        u = random_matrix(rng, 3)
        v = random_part(s, rng, "k")
        q = quartic(s, u, v)
        bn = norm(bracket(u, v))
        assert (q <= 1e-12 * (norm(u) * norm(v) + 1.0) ** 2) == (bn <= 1e-6)


# -- bracket-norm decomposition ----------------------------------------------


def test_bracket_norm_gap_pure_v_exact():
    s = gl_real(3)
    rng = np.random.default_rng(127)
    for _ in range(10):
        u = random_matrix(rng, 3)
        v = random_part(s, rng, "p")
        assert bracket_norm_identity_gap(s, u, v) == 0.0


def test_bracket_norm_gap_skew_u_small():
    s = gl_real(3)
    rng = np.random.default_rng(131)
    for _ in range(10):
        u = random_part(s, rng, "k")
        v = random_matrix(rng, 3)
        scale = s.b_theta(u, u) * s.b_theta(v, v) + 1.0
        assert abs(bracket_norm_identity_gap(s, u, v)) <= 1e-13 * scale


def test_bracket_norm_gap_random_sweep():
    rng = np.random.default_rng(137)
    s = gl_real(3)
    for _ in range(50):
        u, v = random_matrix(rng, 3), random_matrix(rng, 3)
        scale = s.b_theta(u, u) * s.b_theta(v, v) + 1.0
        assert abs(bracket_norm_identity_gap(s, u, v)) <= 1e-12 * scale
