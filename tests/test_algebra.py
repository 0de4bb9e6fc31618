import dataclasses
import math

import numpy as np
import pytest

from liecurv import (COMPLEX, REAL, DimensionMismatch, MatrixElement, Overflow,
                     bracket, bracket_norm_identity_gap, builtin_subgroup,
                     curvature_tensor, frobenius_inner,
                     geodesic_body_velocity, geodesic_point, geodesic_residual,
                     geodesic_trace, gl_real, matrix_exp, matrix_from_json,
                     matrix_to_json, nabla, nabla_case, nabla_from_metric,
                     pure_class, quartic, quartic_commuting,
                     quartic_from_definition, quartic_special, quartic_terms,
                     random_element, random_matrix, sectional, theta_split,
                     totally_geodesic_check)

norm = np.linalg.norm

SQ7 = math.sqrt(7.0)
PAIR_2X2_U = [[1.0, SQ7 / 2.0], [-SQ7 / 2.0, 2.0]]
PAIR_2X2_V = [[0.0, 1.0], [1.0, 0.0]]
PAIR_3X3_U = [[1.0, 1.0, -1.0], [1.0, 1.0, 0.0], [2.0, 0.0, 1.0]]
PAIR_3X3_V = [[0.0, -1.0, 1.0], [-1.0, 2.0, -1.0], [-2.0, 2.0, -1.0]]


def test_element_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        MatrixElement([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_element_rejects_non_finite():
    with pytest.raises(ValueError):
        MatrixElement([[1.0, float("nan")], [0.0, 1.0]])
    with pytest.raises(ValueError):
        MatrixElement([[1.0, float("inf")], [0.0, 1.0]])


def test_element_data_is_immutable():
    u = MatrixElement([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        u.data[0, 0] = 9.0


def test_element_does_not_alias_caller_array():
    arr = np.ones((2, 2))
    u = MatrixElement(arr)
    arr[0, 0] = 5.0
    assert u.data[0, 0] == 1.0


def test_element_converts_to_its_read_only_array():
    u = MatrixElement([[1, 2], [3, 4]])
    arr = np.asarray(u)
    assert arr is u.data
    assert arr.dtype == np.float64 and not arr.flags.writeable
    assert np.asarray(u, dtype=np.complex128).dtype == np.complex128


def test_bracket_self_is_zero():
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = random_matrix(rng, 3)
        assert norm(bracket(u, u)) == 0.0


def test_bracket_2x2_pair_value():
    u = MatrixElement(PAIR_2X2_U)
    v = MatrixElement(PAIR_2X2_V)
    expected = np.array([[SQ7, -1.0], [1.0, -SQ7]])
    assert np.allclose(bracket(u, v), expected, atol=1e-14)


def test_bracket_3x3_pair_commutes_exactly():
    u = MatrixElement(PAIR_3X3_U)
    v = MatrixElement(PAIR_3X3_V)
    assert np.array_equal(bracket(u, v), np.zeros((3, 3)))


def test_frobenius_inner_unit_cell():
    e11 = np.diag([1.0, 0.0])
    assert frobenius_inner(e11, e11) == 1.0


def test_frobenius_inner_diagonal_vs_hollow():
    d = MatrixElement([[1.0, 0.0], [0.0, 2.0]])
    h = MatrixElement([[0.0, 1.0], [1.0, 0.0]])
    assert frobenius_inner(d, h) == 0.0


def test_frobenius_inner_complex_ii():
    i_eye = MatrixElement(1j * np.eye(2))
    assert frobenius_inner(i_eye, i_eye) == pytest.approx(2.0, abs=1e-15)


def test_frobenius_inner_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        frobenius_inner(np.eye(2), [[1.0]])


def test_frobenius_inner_positive_definite():
    rng = np.random.default_rng(11)
    for field in (REAL, COMPLEX):
        for _ in range(20):
            u = random_matrix(rng, 3, field)
            assert frobenius_inner(u, u) > 0.0


def test_matrix_exp_zero():
    assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_diagonal():
    u = MatrixElement([[1.0, 0.0], [0.0, -2.0]])
    expected = np.diag([math.e, math.exp(-2.0)])
    assert np.allclose(matrix_exp(u), expected, rtol=1e-13)


def test_matrix_exp_nilpotent():
    u = MatrixElement([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exp(u), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_matrix_exp_inverse_pairing():
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = random_matrix(rng, 3)
        u = (5.0 * float(rng.uniform(0, 1)) / norm(r)) * r
        prod = matrix_exp(u) @ matrix_exp(-u)
        assert norm(prod - np.eye(3)) <= 1e-10


def test_matrix_exp_overflow():
    with pytest.raises(Overflow):
        matrix_exp(MatrixElement([[2000.0, 0.0], [0.0, 2000.0]]))


def test_random_element_deterministic():
    a = random_element(9, 3)
    b = random_element(9, 3)
    assert np.array_equal(a, b)


def test_random_element_seed_sensitivity():
    a = random_element(1, 3)
    b = random_element(2, 3)
    assert not np.array_equal(a, b)


def test_random_element_range():
    u = random_element(4, 5)
    assert np.all(np.abs(u) <= 1.0)
    c = random_element(4, 5, field=COMPLEX)
    assert c.dtype == np.complex128
    assert np.all(np.abs(c.real) <= 1.0)
    assert np.all(np.abs(c.imag) <= 1.0)


def test_jacobi_identity_sweep():
    rng = np.random.default_rng(17)
    for field in (REAL, COMPLEX):
        for _ in range(25):
            u, v, w = (random_matrix(rng, 3, field) for _ in range(3))
            cyc = (bracket(u, bracket(v, w)) + bracket(v, bracket(w, u))
                   + bracket(w, bracket(u, v)))
            scale = norm(u) * norm(v) * norm(w) + 1.0
            assert norm(cyc) <= 1e-12 * scale


def test_bracket_and_inner_bilinearity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        u, v, w = (random_matrix(rng, 3) for _ in range(3))
        a, b = rng.uniform(-2, 2, size=2)
        lhs = bracket(float(a) * u + float(b) * v, w)
        rhs = float(a) * bracket(u, w) + float(b) * bracket(v, w)
        assert norm(lhs - rhs) <= 1e-12 * (norm(lhs) + 1.0)
        li = frobenius_inner(float(a) * u + float(b) * v, w)
        ri = float(a) * frobenius_inner(u, w) + float(b) * frobenius_inner(v, w)
        assert abs(li - ri) <= 1e-12 * (abs(li) + 1.0)


def test_json_round_trip_real():
    u = random_element(2, 3)
    again = matrix_from_json(matrix_to_json(u))
    assert again.field == REAL
    assert np.array_equal(again.data, u)


def test_json_round_trip_complex():
    u = random_element(2, 2, field=COMPLEX)
    obj = matrix_to_json(u)
    assert obj["field"] == "complex"
    assert all(isinstance(e, list) and len(e) == 2 for e in obj["entries"])
    again = matrix_from_json(obj)
    assert again.field == COMPLEX
    assert np.array_equal(again.data, u)


def test_json_accepts_bare_rows():
    u = matrix_from_json([[1.0, 2.0], [3.0, 4.0]])
    assert u.field == REAL
    assert u.data[1, 0] == 3.0


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "field": "real", "entries": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "field": "quaternion", "entries": [0.0] * 4})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "field": "complex", "entries": [1.0, 2, 3, 4]})


# -- the entry type at the edge -------------------------------------------------

S3 = gl_real(3)
EDGE_INPUTS = {
    "u": [[1.0, 1.0, -1.0], [1.0, 1.0, 0.0], [2.0, 0.5, 1.0]],
    "v": [[0.0, -1.0, 1.0], [-1.0, 2.0, -1.0], [-2.0, 2.0, -1.0]],
    "w": [[0.5, 0.0, 1.0], [3.0, -1.0, 0.0], [0.0, 1.0, 2.0]],
    "p": [[1.0, 2.0, 0.0], [2.0, -1.0, 3.0], [0.0, 3.0, 5.0]],
    "k": [[0.0, 1.0, -2.0], [-1.0, 0.0, 4.0], [2.0, -4.0, 0.0]],
    "d1": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]],
    "d2": [[0.5, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 2.0]],
}
SUBGROUPS = [builtin_subgroup("so", 3), builtin_subgroup("sl", 3),
             builtin_subgroup("opq", p=1, q=2), builtin_subgroup("ut", 3)]
EDGE_CASES = {
    "bracket": lambda m: bracket(m["u"], m["v"]),
    "frobenius_inner": lambda m: frobenius_inner(m["u"], m["v"]),
    "matrix_exp": lambda m: matrix_exp(m["u"]),
    "matrix_to_json": lambda m: matrix_to_json(m["u"]),
    "b_theta": lambda m: S3.b_theta(m["u"], m["v"]),
    "structure_norm": lambda m: S3.norm(m["u"]),
    "check_member": lambda m: S3.check_member(m["u"]),
    "theta_split": lambda m: theta_split(S3, m["u"]),
    "pure_class": lambda m: (pure_class(S3, m["p"]), pure_class(S3, m["k"])),
    "nabla": lambda m: nabla(S3, m["u"], m["v"]),
    "nabla_case": lambda m: nabla_case(S3, m["k"], m["p"]),
    "curvature_tensor": lambda m: curvature_tensor(S3, m["u"], m["v"], m["w"]),
    "quartic_terms": lambda m: quartic_terms(S3, m["u"], m["w"]),
    "quartic": lambda m: quartic(S3, m["u"], m["w"]),
    "sectional": lambda m: sectional(S3, m["u"], m["w"]),
    "quartic_special": lambda m: quartic_special(S3, m["u"], m["p"]),
    "quartic_commuting": lambda m: quartic_commuting(S3, m["d1"], m["d2"]),
    "bracket_norm_identity_gap":
        lambda m: bracket_norm_identity_gap(S3, m["u"], m["v"]),
    "nabla_from_metric": lambda m: nabla_from_metric(S3, m["u"], m["v"]),
    "quartic_from_definition":
        lambda m: quartic_from_definition(S3, m["u"], m["w"]),
    "geodesic_point": lambda m: geodesic_point(S3, m["u"], 0.7),
    "geodesic_body_velocity": lambda m: geodesic_body_velocity(S3, m["u"], 0.7),
    "geodesic_residual": lambda m: geodesic_residual(S3, m["u"], 0.7),
    "geodesic_trace": lambda m: geodesic_trace(S3, m["u"], steps=3),
    "totally_geodesic_check":
        lambda m: totally_geodesic_check(SUBGROUPS[0], m["k"], steps=5),
    "subgroup_closures": lambda m: [
        (g.group_defect(m["u"]), g.algebra_defect(m["u"]), g.project(m["u"]))
        for g in SUBGROUPS],
}


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_matrix_element_and_ndarray_give_the_same_value(name):
    arrays = {k: np.array(x) for k, x in EDGE_INPUTS.items()}
    elements = {k: MatrixElement(x) for k, x in EDGE_INPUTS.items()}
    from_arrays = EDGE_CASES[name](arrays)
    assert _same(EDGE_CASES[name](elements), from_arrays)
    assert not isinstance(from_arrays, MatrixElement)
