import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from liecurv import (COMPLEX, REAL, DimensionMismatch, MatrixElement, Overflow,
                     bracket, bracket_norm_identity_gap, geodesic_body_velocity,
                     geodesic_point, geodesic_residual, geodesic_trace,
                     gl_complex, gl_real, matrix_exp, matrix_from_json,
                     matrix_to_json, nabla, nabla_from_metric, pure_class,
                     quartic, quartic_commuting, quartic_from_definition,
                     quartic_special, random_matrix, sectional,
                     subgroup_from_selector, theta_split,
                     totally_geodesic_check)
from liecurv.curvature import _terms

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


def frobenius(u, v) -> float:
    """Re tr(u* v) by np.vdot: an independent reference for b_theta, which
    is the Frobenius inner product on both fields."""
    return float(np.vdot(u, v).real)


def test_frobenius_inner_unit_cell():
    e11 = np.diag([1.0, 0.0])
    assert gl_real(2).b_theta(e11, e11) == frobenius(e11, e11) == 1.0


def test_frobenius_inner_diagonal_vs_hollow():
    d = MatrixElement([[1.0, 0.0], [0.0, 2.0]])
    h = MatrixElement([[0.0, 1.0], [1.0, 0.0]])
    assert gl_real(2).b_theta(d, h) == frobenius(d, h) == 0.0


def test_frobenius_inner_complex_ii():
    i_eye = MatrixElement(1j * np.eye(2))
    assert gl_complex(2).b_theta(i_eye, i_eye) == pytest.approx(2.0, abs=1e-15)
    assert frobenius(i_eye, i_eye) == pytest.approx(2.0, abs=1e-15)


def test_frobenius_inner_positive_definite():
    rng = np.random.default_rng(11)
    for s in (gl_real(3), gl_complex(3)):
        for _ in range(20):
            u = random_matrix(rng, 3, s.field)
            assert s.b_theta(u, u) > 0.0


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
    with pytest.raises(Overflow, match="of norm 2.83e"):
        matrix_exp(MatrixElement([[2000.0, 0.0], [0.0, 2000.0]]))
    # the message names the norm even where its squared entries overflow,
    # without a warning; only a matrix that is not finite has norm inf or nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match=r"of norm 2e\+300$"):
            matrix_exp(1e300 * np.ones((2, 2)))
        with pytest.raises(Overflow, match=r"of norm inf$"):
            matrix_exp(np.array([[np.inf, 1.0], [0.0, 1.0]]))
        with pytest.raises(Overflow, match=r"of norm nan$"):
            matrix_exp(np.array([[np.inf, np.nan], [0.0, 1.0]]))


def test_stacked_matrix_exp_overflow_names_the_first_bad_slice():
    # slices 0 and 1 are finite, 2 and 3 overflow: the text names row 2,
    # by its flat index in a stack of any leading shape
    stack = np.array([s * np.eye(2) for s in (1.0, 300.0, 800.0, 2000.0)])
    text = r"^row 2: exponential overflowed for a matrix of norm 1\.13e\+03$"
    with pytest.raises(Overflow, match=text):
        matrix_exp(stack)
    with pytest.raises(Overflow, match=text):
        matrix_exp(stack.reshape(2, 2, 2, 2))
    with pytest.raises(Overflow, match=r"^exponential overflowed .* 1\.13e\+03$"):
        matrix_exp(stack[2])


def test_matrix_exp_matches_closed_forms_on_both_sides_of_the_scaling_norm():
    # rotations [[0, th], [-th, 0]], boosts [[0, th], [th, 0]] and complex
    # phases diag(i th, -i th, i th / 2) of 1-norm th from 0.25 to 40: no
    # squaring up to 5.37, up to 3 squarings above it
    th = np.linspace(0.25, 40.0, 160)
    z = np.zeros_like(th)

    def two_by_two(a, b, c, d):
        return np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], -2)

    rotation = two_by_two(np.cos(th), np.sin(th), -np.sin(th), np.cos(th))
    assert np.abs(matrix_exp(two_by_two(z, th, -th, z)) - rotation).max() <= 2e-14
    boost = two_by_two(np.cosh(th), np.sinh(th), np.sinh(th), np.cosh(th))
    assert (np.abs(matrix_exp(two_by_two(z, th, th, z)) - boost)
            <= 5e-13 * boost).all()
    phases = th[:, None] * np.array([1j, -1j, 0.5j])
    generators = np.stack([np.diag(p) for p in phases])
    exact = np.stack([np.diag(np.exp(p)) for p in phases])
    assert np.abs(matrix_exp(generators) - exact).max() <= 2e-14


def test_matrix_exp_stack_mixing_scalings_is_bit_equal_slice_by_slice():
    # slices that need no squaring next to skew ones that need 11 to 16
    rng = np.random.default_rng(31)
    small = random_matrix(rng, 3, shape=(4,)) / 4.0
    r = random_matrix(rng, 3, shape=(4,))
    skew = (r - r.swapaxes(-1, -2)) * np.array([1e4, 3e4, 1e5, 2e5])[:, None, None]
    stack = np.stack([small, skew], axis=1).reshape(8, 3, 3)
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    assert norms[::2].max() <= 5.37 and norms[1::2].min() >= 5.38 * 2**10
    # i |x| is skew-Hermitian for a symmetric |x|, so the large complex
    # slices stay bounded too
    for st in (stack, stack + 1j * np.abs(stack)):
        whole = matrix_exp(st)
        for k, a in enumerate(st):
            assert np.array_equal(whole[k], matrix_exp(a))


def test_importing_the_cli_leaves_scipy_unloaded():
    code = ("import sys, liecurv.cli; print(any(m.split('.')[0] == 'scipy' "
            "for m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def random_element(seed: int, n: int, field: str = REAL) -> np.ndarray:
    """One random_matrix draw from a fresh generator of the seed."""
    return random_matrix(np.random.default_rng(seed), n, field)


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
    s = gl_real(3)
    for _ in range(10):
        u, v, w = (random_matrix(rng, 3) for _ in range(3))
        a, b = rng.uniform(-2, 2, size=2)
        lhs = bracket(float(a) * u + float(b) * v, w)
        rhs = float(a) * bracket(u, w) + float(b) * bracket(v, w)
        assert norm(lhs - rhs) <= 1e-12 * (norm(lhs) + 1.0)
        li = s.b_theta(float(a) * u + float(b) * v, w)
        ri = float(a) * s.b_theta(u, w) + float(b) * s.b_theta(v, w)
        assert abs(li - ri) <= 1e-12 * (abs(li) + 1.0)
        assert li == pytest.approx(frobenius(float(a) * u + float(b) * v, w),
                                   abs=1e-12)


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


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_json_wire_form_of_a_stack_lists_its_matrices(field):
    stack = random_matrix(np.random.default_rng(5), 3, field, (2, 4))
    stack[0, 1, 2, 0] = -0.0
    assert matrix_to_json(stack) == [[matrix_to_json(m) for m in row]
                                     for row in stack]
    # the same floats, -0.0 included, not only equal ones
    assert repr(matrix_to_json(stack[0])) == repr(
        [matrix_to_json(m) for m in stack[0]])


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_random_matrix_stack_draws_as_its_matrices_one_by_one(field):
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    stack = random_matrix(a, 3, field, (4, 2))
    assert stack.shape == (4, 2, 3, 3)
    one_by_one = [random_matrix(b, 3, field) for _ in range(8)]
    assert np.array_equal(stack.reshape(8, 3, 3), one_by_one)
    assert a.random() == b.random()


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
SUBGROUPS = [subgroup_from_selector(x)
             for x in ("so:3", "sl:3", "opq:1,2", "ut:3")]
EDGE_CASES = {
    "bracket": lambda m: bracket(m["u"], m["v"]),
    "matrix_exp": lambda m: matrix_exp(m["u"]),
    "matrix_to_json": lambda m: matrix_to_json(m["u"]),
    "b_theta": lambda m: S3.b_theta(m["u"], m["v"]),
    "structure_norm": lambda m: math.sqrt(S3.b_theta(m["u"], m["u"])),
    "check_member": lambda m: S3.check_member(m["u"]),
    "theta_split": lambda m: theta_split(S3, m["u"]),
    "pure_class": lambda m: (pure_class(S3, m["p"]), pure_class(S3, m["k"])),
    "nabla": lambda m: nabla(S3, m["u"], m["v"]),
    "curvature_tensor": lambda m: (
        nabla(S3, m["u"], nabla(S3, m["v"], m["w"]))
        - nabla(S3, m["v"], nabla(S3, m["u"], m["w"]))
        - nabla(S3, bracket(m["u"], m["v"]), m["w"])),
    "quartic_terms": lambda m: _terms(S3, *S3.check_stacks(m["u"], m["w"])),
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
