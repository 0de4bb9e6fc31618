import math

import numpy as np
import pytest

from liecurv import (COMPLEX, REAL, CartanStructure, DimensionMismatch,
                     MatrixElement, NotPureType, bracket, from_selector,
                     gl_complex, gl_real, pure_class, random_matrix,
                     random_part, theta_part, theta_split, validate)

SQ7 = math.sqrt(7.0)
norm = np.linalg.norm


def test_gl_real_theta_is_negative_transpose():
    s = gl_real(2)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(s.theta(e12), [[0.0, 0.0], [-1.0, 0.0]])


def test_gl_real_b_theta_is_frobenius():
    s = gl_real(3)
    rng = np.random.default_rng(2)
    for _ in range(20):
        u, v = random_matrix(rng, 3), random_matrix(rng, 3)
        assert s.b_theta(u, u) == pytest.approx(np.vdot(u, u).real, abs=1e-14)
        assert s.b_theta(u, v) == pytest.approx(np.vdot(u, v).real, abs=1e-14)


def test_gl_complex_b_theta_is_frobenius():
    s = gl_complex(2)
    rng = np.random.default_rng(8)
    for _ in range(20):
        u, v = random_matrix(rng, 2, COMPLEX), random_matrix(rng, 2, COMPLEX)
        assert s.b_theta(u, v) == pytest.approx(np.vdot(u, v).real, abs=1e-14)


def test_gl_complex_theta_fixes_skew_hermitian():
    s = gl_complex(2)
    i_eye = 1j * np.eye(2)
    assert np.array_equal(s.theta(i_eye), i_eye)


def test_gl_complex_hermitian_orthogonal_to_skew_hermitian():
    s = gl_complex(2)
    e11 = np.diag([1.0 + 0j, 0.0])
    i_e11 = 1j * e11
    assert s.b_theta(i_e11, e11) == 0.0


def test_theta_split_2x2_example():
    s = gl_real(2)
    u = MatrixElement([[1.0, SQ7 / 2.0], [-SQ7 / 2.0, 2.0]])
    parts = theta_split(s, u)
    assert np.array_equal(parts.p_part, np.diag([1.0, 2.0]))
    assert np.array_equal(parts.k_part,
                          [[0.0, SQ7 / 2.0], [-SQ7 / 2.0, 0.0]])


def test_theta_split_pure_inputs():
    s = gl_real(3)
    sym = MatrixElement([[1.0, 2.0, 0.0], [2.0, -1.0, 3.0], [0.0, 3.0, 5.0]])
    skew = MatrixElement([[0.0, 1.0, -2.0], [-1.0, 0.0, 4.0], [2.0, -4.0, 0.0]])
    ps = theta_split(s, sym)
    assert np.array_equal(ps.p_part, sym.data)
    assert np.array_equal(ps.k_part, np.zeros((3, 3)))
    ks = theta_split(s, skew)
    assert np.array_equal(ks.p_part, np.zeros((3, 3)))
    assert np.array_equal(ks.k_part, skew.data)


def test_theta_split_reconstructs_exactly():
    # p_part + k_part must give back u without rounding, and for gl_real the
    # p_part must be the symmetrization entry for entry
    s = gl_real(4)
    rng = np.random.default_rng(21)
    for _ in range(20):
        u = random_matrix(rng, 4)
        parts = theta_split(s, u)
        assert np.array_equal(parts.p_part + parts.k_part, u)
        assert np.array_equal(parts.p_part, (u + u.T) / 2.0)


def test_theta_split_eigen_property():
    rng = np.random.default_rng(33)
    for s, field in ((gl_real(3), REAL), (gl_complex(3), COMPLEX)):
        for _ in range(10):
            u = random_matrix(rng, 3, field)
            parts = theta_split(s, u)
            assert norm(s.theta(parts.p_part) + parts.p_part) <= 1e-13 * (norm(u) + 1.0)
            assert norm(s.theta(parts.k_part) - parts.k_part) <= 1e-13 * (norm(u) + 1.0)


def test_theta_split_rejects_wrong_size():
    with pytest.raises(DimensionMismatch):
        theta_split(gl_real(3), np.eye(2))
    with pytest.raises(DimensionMismatch):
        theta_split(gl_real(2), np.eye(2, dtype=complex))


def test_pure_class():
    s = gl_real(2)
    assert pure_class(s, MatrixElement([[1.0, 0.0], [0.0, -3.0]])) == "p"
    assert pure_class(s, MatrixElement([[0.0, 2.0], [-2.0, 0.0]])) == "k"
    with pytest.raises(NotPureType):
        pure_class(s, MatrixElement([[1.0, 1.0], [0.0, 1.0]]))


def test_pure_class_zero_matrix_is_pure():
    assert pure_class(gl_real(2), np.zeros((2, 2))) in ("p", "k")


def test_validate_gl_real_passes():
    ratios = validate(gl_real(3))
    assert max(ratios.values()) <= 1.0
    assert set(ratios) >= {
        "theta_involution", "theta_bracket_automorphism", "bform_symmetry",
        "bform_ad_invariance", "b_theta_positive_definite_basis",
        "split_orthogonality", "inclusion_kk_in_k", "inclusion_pp_in_k",
        "inclusion_kp_in_p"}


def test_validate_gl_complex_passes():
    assert max(validate(gl_complex(2)).values()) <= 1.0


# corrupted involutions; like theta itself, each works slice by slice on a
# stack
class Transposed(CartanStructure):
    """+transpose: B_theta(u, u) = -tr(u u^T) is negative and the bracket
    is reversed."""

    def theta(self, u):
        return u.swapaxes(-1, -2)


class Half(CartanStructure):
    """-u*/2: B_theta is halved, so the cells are orthogonal with squared
    norm 1/2, and theta is no involution."""

    def theta(self, u):
        return -0.5 * np.conj(u).swapaxes(-1, -2)


class Twice(CartanStructure):
    """-2u*: B_theta is doubled, which the two-sided basis check flags."""

    def theta(self, u):
        return -2.0 * np.conj(u).swapaxes(-1, -2)


def test_validate_flags_corrupted_involution():
    # the validator must report both failures rather than raise
    ratios = validate(Transposed(2, REAL), trials=50)
    failed = {name for name, ratio in ratios.items() if not ratio <= 1.0}
    assert {"b_theta_positive_definite_basis",
            "theta_bracket_automorphism"} <= failed


def test_validate_rejects_a_basis_that_is_not_orthonormal():
    # positive definite, but not the orthonormal frame the oracle reads
    # coordinates off. The basis ratio is (1 - 1/2) / 1e-9.
    ratios = validate(Half(2, REAL), trials=10)
    assert ratios["b_theta_positive_definite_basis"] > 1.0
    assert ratios["b_theta_positive_definite_basis"] == pytest.approx(5e8)


NOT_AN_INVOLUTION = {"theta_involution", "theta_bracket_automorphism",
                     "split_orthogonality", "inclusion_kk_in_k",
                     "inclusion_pp_in_k", "inclusion_kp_in_p"}
TRANSPOSED_FLAGS = {"b_theta_positive_definite_basis",
                    "theta_bracket_automorphism", "inclusion_kk_in_k",
                    "inclusion_kp_in_p"}


# the odd counts leave the last sample without a partner in the pair axioms
@pytest.mark.parametrize("trials", [2, 3, 7])
@pytest.mark.parametrize("s, flagged", [
    (Transposed(2, REAL), TRANSPOSED_FLAGS),
    (Transposed(2, COMPLEX), TRANSPOSED_FLAGS),
    # [p, p] of the skew p of gl(2, R) vanishes; not so at n = 3
    (Transposed(3, REAL), TRANSPOSED_FLAGS | {"inclusion_pp_in_k"}),
    (Half(2, REAL), NOT_AN_INVOLUTION | {"b_theta_positive_definite_basis"}),
    (Half(2, COMPLEX), NOT_AN_INVOLUTION | {"b_theta_positive_definite_basis"}),
    (Twice(2, REAL), NOT_AN_INVOLUTION | {"b_theta_positive_definite_basis"}),
    (Twice(2, COMPLEX), NOT_AN_INVOLUTION | {"b_theta_positive_definite_basis"}),
], ids=["transposed-real-2", "transposed-complex-2", "transposed-real-3",
        "half-real-2", "half-complex-2", "twice-real-2", "twice-complex-2"])
def test_validate_flags_exactly_the_broken_axioms(s, flagged, trials):
    ratios = validate(s, trials=trials)
    assert {name for name, ratio in ratios.items()
            if not ratio <= 1.0} == flagged


def test_validate_needs_a_pair_of_samples():
    # the pair axioms see no pair below two samples and would pass vacuously
    for trials in (1, 0, -3):
        with pytest.raises(ValueError, match="trials"):
            validate(gl_real(2), trials=trials)
    assert max(validate(gl_real(2), trials=2).values()) <= 1.0


def test_adjoint_identity():
    # <[u, w], v> = -<w, [theta u, v]> on random triples
    rng = np.random.default_rng(14)
    for s, field in ((gl_real(3), REAL), (gl_complex(2), COMPLEX)):
        for _ in range(25):
            u, v, w = (random_matrix(rng, s.n, field) for _ in range(3))
            lhs = s.b_theta(bracket(u, w), v)
            rhs = -s.b_theta(w, bracket(s.theta(u), v))
            assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + 1.0)


def test_bracket_inclusions_tight():
    rng = np.random.default_rng(19)
    s = gl_real(3)
    for _ in range(25):
        a = theta_split(s, random_matrix(rng, 3)).k_part
        b = theta_split(s, random_matrix(rng, 3)).k_part
        p = theta_split(s, random_matrix(rng, 3)).p_part
        q = theta_split(s, random_matrix(rng, 3)).p_part
        kk = theta_split(s, bracket(a, b))
        assert norm(kk.p_part) <= 1e-13 * norm(a) * norm(b)
        pp = theta_split(s, bracket(p, q))
        assert norm(pp.p_part) <= 1e-13 * norm(p) * norm(q)
        kp = theta_split(s, bracket(a, p))
        assert norm(kp.k_part) <= 1e-13 * norm(a) * norm(p)


def test_from_selector():
    s = from_selector("gl:real:4")
    assert s.n == 4 and s.field == REAL and s.real_dim == 16
    c = from_selector("gl:complex:2")
    assert c.n == 2 and c.field == COMPLEX and c.real_dim == 8
    # "²" is a digit but not a decimal, so it must meet the selector's text
    for text in ("gl:rational:3", "so:3", "gl:real:x", "gl:real", "gl:real:²"):
        with pytest.raises(ValueError, match="^bad structure selector"):
            from_selector(text)


def test_b_theta_checks_membership():
    # a foreign size, a foreign field, and a member against a foreign size
    s = gl_real(2)
    for u, v in ((np.eye(3), np.eye(3)), (np.eye(2), 1j * np.eye(2)),
                 (np.eye(2), [[1.0]])):
        with pytest.raises(DimensionMismatch):
            s.b_theta(u, v)


def test_structure_norm():
    s = gl_real(2)
    assert math.sqrt(s.b_theta(np.eye(2), np.eye(2))) == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("s", [gl_real(3), gl_complex(2)])
@pytest.mark.parametrize("part", ["p", "k", "g"])
def test_random_part_stack_draws_as_its_parts_one_by_one(s, part):
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    stack = random_part(s, a, part, (5,))
    one_by_one = [random_part(s, b, part) for _ in range(5)]
    assert np.array_equal(stack, one_by_one)
    assert a.random() == b.random()
    for u in random_matrix(a, s.n, s.field, (3,)):
        split = theta_split(s, u)
        assert np.array_equal(theta_part(s, u, "p"), split.p_part)
        assert np.array_equal(theta_part(s, u, "k"), split.k_part)
    with pytest.raises(ValueError):
        theta_part(s, u, "q")
