import ast
import inspect
import math

import numpy as np
import pytest

import liecurv.cartan
import liecurv.oracles
from liecurv import (COMPLEX, REAL, DimensionMismatch, IncompleteBasis,
                     MatrixElement, bracket, commuting_pair, gl_complex,
                     gl_real, nabla, nabla_from_metric, quartic,
                     quartic_from_definition, random_matrix, standard_basis,
                     theta_split)

SQ7 = math.sqrt(7.0)
norm = np.linalg.norm


def _imported_names(module) -> list[str]:
    tree = ast.parse(inspect.getsource(module))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    return imported


def test_oracles_import_nothing_from_curvature():
    # the definition route must stay independent of the closed forms, and
    # the structure layer sits below the oracles (no cycle back into them)
    assert not [name for name in _imported_names(liecurv.oracles)
                if "curvature" in name]
    assert not [name for name in _imported_names(liecurv.cartan)
                if "oracles" in name]


def test_standard_basis_counts():
    assert len(standard_basis(gl_real(3))) == 9
    assert len(standard_basis(gl_complex(2))) == 8


def test_standard_basis_orthonormal():
    for s in (gl_real(2), gl_complex(2)):
        elems = standard_basis(s)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                expected = 1.0 if i == j else 0.0
                assert abs(s.b_theta(a, b) - expected) <= 1e-13


def test_incomplete_basis_rejected():
    wrong = standard_basis(gl_real(2))
    s3 = gl_real(3)
    u = np.eye(3)
    with pytest.raises(IncompleteBasis):
        nabla_from_metric(s3, u, u, wrong)
    with pytest.raises(IncompleteBasis):
        quartic_from_definition(s3, u, u, wrong)


def test_nabla_from_metric_agrees_with_closed_form_real():
    s = gl_real(3)
    basis = standard_basis(s)
    rng = np.random.default_rng(3)
    for _ in range(500):
        u, v = random_matrix(rng, 3), random_matrix(rng, 3)
        closed = nabla(s, u, v)
        solved = nabla_from_metric(s, u, v, basis)
        assert norm(closed - solved) <= 1e-11 * (norm(closed) + 1.0)


def test_nabla_from_metric_agrees_with_closed_form_complex():
    s = gl_complex(2)
    basis = standard_basis(s)
    rng = np.random.default_rng(5)
    for _ in range(100):
        u, v = random_matrix(rng, 2, COMPLEX), random_matrix(rng, 2, COMPLEX)
        closed = nabla(s, u, v)
        solved = nabla_from_metric(s, u, v, basis)
        assert norm(closed - solved) <= 1e-11 * (norm(closed) + 1.0)


def test_nabla_from_metric_symmetric_self():
    s = gl_real(3)
    sym = MatrixElement([[1.0, 2.0, 0.0], [2.0, 0.0, -1.0], [0.0, -1.0, 3.0]])
    assert norm(nabla_from_metric(s, sym, sym)) <= 1e-13


def test_quartic_from_definition_2x2_pair():
    s = gl_real(2)
    u = MatrixElement([[1.0, SQ7 / 2.0], [-SQ7 / 2.0, 2.0]])
    v = MatrixElement([[0.0, 1.0], [1.0, 0.0]])
    assert abs(quartic_from_definition(s, u, v)) <= 1e-10


def test_quartic_from_definition_commuting_diagonals():
    s = gl_real(3)
    u = MatrixElement(np.diag([1.0, -2.0, 3.0]))
    v = MatrixElement(np.diag([2.0, 0.5, -1.0]))
    assert abs(quartic_from_definition(s, u, v)) <= 1e-13


def test_quartic_from_definition_matches_closed_form():
    rng = np.random.default_rng(11)
    for s, field, count in ((gl_real(2), REAL, 60), (gl_real(3), REAL, 60),
                            (gl_real(4), REAL, 40), (gl_complex(2), COMPLEX, 40)):
        basis = standard_basis(s)
        for _ in range(count):
            u = random_matrix(rng, s.n, field)
            v = random_matrix(rng, s.n, field)
            a = quartic(s, u, v)
            b = quartic_from_definition(s, u, v, basis)
            assert abs(a - b) <= 1e-8 * (max(abs(a), abs(b)) + 1.0)


def test_quartic_from_definition_symmetry():
    s = gl_real(3)
    basis = standard_basis(s)
    rng = np.random.default_rng(13)
    for _ in range(25):
        u, v = random_matrix(rng, 3), random_matrix(rng, 3)
        a = quartic_from_definition(s, u, v, basis)
        b = quartic_from_definition(s, v, u, basis)
        assert abs(a - b) <= 1e-10 * (abs(a) + 1.0)


def test_cross_term_claim_at_definition_level():
    # <R(u1, v)v, u2> with R assembled purely from the metric route
    s = gl_real(3)
    basis = standard_basis(s)
    rng = np.random.default_rng(17)
    for _ in range(10):
        parts = theta_split(s, random_matrix(rng, 3))
        v = theta_split(s, random_matrix(rng, 3)).p_part
        u1 = parts.p_part
        r = (nabla_from_metric(s, u1, nabla_from_metric(s, v, v, basis), basis)
             - nabla_from_metric(s, v, nabla_from_metric(s, u1, v, basis), basis)
             - nabla_from_metric(s, bracket(u1, v), v, basis))
        assert abs(s.b_theta(r, parts.k_part)) <= 1e-10 * (norm(v) ** 2 + 1.0)


def test_commuting_pair_contract():
    for seed in range(20):
        u, v = commuting_pair(seed, 3)
        assert norm(bracket(u, v)) <= 1e-12
        assert norm(u) == pytest.approx(1.0, abs=1e-12)
        assert norm(v) == pytest.approx(1.0, abs=1e-12)


def test_commuting_pair_deterministic():
    a1, b1 = commuting_pair(99, 3)
    a2, b2 = commuting_pair(99, 3)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_commuting_pair_2x2_flat():
    s = gl_real(2)
    for seed in range(50):
        u, v = commuting_pair(seed, 2)
        scale = s.b_theta(u, u) * s.b_theta(v, v) + 1.0
        assert abs(quartic(s, u, v)) <= 1e-12 * scale


def test_commuting_pair_3x3_nonpositive():
    s = gl_real(3)
    for seed in range(50):
        u, v = commuting_pair(seed, 3)
        assert quartic(s, u, v) <= 1e-15


def test_commuting_pair_complex_field():
    s = gl_complex(2)
    u, v = commuting_pair(4, 2, field=COMPLEX)
    assert u.dtype == np.complex128
    assert norm(bracket(u, v)) <= 1e-12
    assert quartic(s, u, v) <= 1e-15


def test_commuting_pair_symmetric_option():
    for seed in range(10):
        u, v = commuting_pair(seed, 3, symmetric=True)
        assert norm(u - u.T) <= 1e-13
        assert norm(v - v.T) <= 1e-13
        assert norm(bracket(u, v)) <= 1e-12


def test_commuting_pair_input_validation():
    with pytest.raises(DimensionMismatch):
        commuting_pair(0, 1)
    with pytest.raises(ValueError):
        commuting_pair(0, 3, deg=0)
