import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liecurv.cartan
import liecurv.oracles
import liecurv.verify
from liecurv import (COMPLEX, REAL, CartanStructure, DimensionMismatch,
                     IncompleteBasis, MatrixElement, NotCommuting,
                     NotPureType, bracket,
                     bracket_norm_identity_gap, commuting_pair, gl_complex,
                     gl_real, nabla, nabla_from_metric, quartic,
                     quartic_commuting, quartic_from_definition,
                     quartic_special, random_matrix, riemann_from_metric, standard_basis,
                     theta_split)
from liecurv.oracles import _default_frame, _frame
from liecurv.verify import rel_gap, run_verify

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
                            (gl_real(4), REAL, 40), (gl_complex(2), COMPLEX, 40),
                            (gl_real(6), REAL, 20), (gl_complex(3), COMPLEX, 20),
                            (gl_complex(4), COMPLEX, 20)):
        basis = standard_basis(s)
        for _ in range(count):
            u = random_matrix(rng, s.n, field)
            v = random_matrix(rng, s.n, field)
            a = quartic(s, u, v)
            b = quartic_from_definition(s, u, v, basis)
            assert abs(a - b) <= 1e-8 * (max(abs(a), abs(b)) + 1.0)


def _rotated_basis(s, seed):
    # cells rotated by an orthogonal Q: still orthonormal, no longer cells
    d = s.real_dim
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return tuple(np.tensordot(q, np.stack(standard_basis(s)), 1))


@pytest.mark.parametrize("s", [gl_real(3), gl_complex(2)], ids=lambda s: s.name)
def test_oracles_do_not_depend_on_the_orthonormal_basis(s):
    rotated = _rotated_basis(s, 19)
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = random_matrix(rng, s.n, s.field)
        v = random_matrix(rng, s.n, s.field)
        a = quartic_from_definition(s, u, v)
        b = quartic_from_definition(s, u, v, rotated)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))
        na = nabla_from_metric(s, u, v)
        nb = nabla_from_metric(s, u, v, rotated)
        assert norm(na - nb) <= 1e-12 * norm(na)


def _nabla_by_basis_loop(s, u, v, basis):
    # the metric identity solved one basis element at a time: the reference
    # the structure-constant route replaced
    acc = np.zeros_like(u)
    for e in basis:
        acc = acc + 0.5 * (s.b_theta(bracket(u, v), e)
                           - s.b_theta(bracket(v, e), u)
                           - s.b_theta(bracket(u, e), v)) * e
    return acc


@pytest.mark.parametrize("s", [gl_real(3), gl_complex(2)], ids=lambda s: s.name)
def test_oracles_match_the_basis_loop(s):
    basis = _rotated_basis(s, 43)
    rng = np.random.default_rng(47)
    for _ in range(10):
        u = random_matrix(rng, s.n, s.field)
        v = random_matrix(rng, s.n, s.field)
        loop = lambda a, b: _nabla_by_basis_loop(s, a, b, basis)
        expected = loop(u, v)
        assert norm(nabla_from_metric(s, u, v, basis) - expected) \
            <= 1e-13 * norm(expected)
        r = loop(u, loop(v, v)) - loop(v, loop(u, v)) - loop(bracket(u, v), v)
        a, b = s.b_theta(r, u), quartic_from_definition(s, u, v, basis)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize("s", [gl_real(3), gl_complex(2)], ids=lambda s: s.name)
def test_frame_coordinates_are_the_metric(s):
    rng = np.random.default_rng(29)
    for basis in (standard_basis(s), _rotated_basis(s, 31)):
        frame = _frame(s, basis)
        for _ in range(5):
            u = random_matrix(rng, s.n, s.field)
            for e, f in zip(basis, frame.F):
                assert abs(np.trace(u @ f).real - s.b_theta(u, e)) <= 1e-14


def test_default_frame_is_built_once_per_structure():
    assert _default_frame(gl_real(3)) is _default_frame(gl_real(3))
    assert _default_frame(gl_real(3)) is not _default_frame(gl_complex(3))


@pytest.mark.parametrize("s", [gl_real(3), gl_complex(2)], ids=lambda s: s.name)
def test_riemann_from_metric_symmetries(s):
    R = riemann_from_metric(s, _rotated_basis(s, 37))
    scale = np.abs(R).max()
    assert scale > 0.1
    for permuted, sign in (("jikl", 1.0), ("ijlk", 1.0), ("klij", -1.0)):
        assert np.abs(R + sign * np.einsum(f"{permuted}->ijkl", R)).max() \
            <= 1e-14 * scale
    bianchi = R + np.einsum("jkil->ijkl", R) + np.einsum("kijl->ijkl", R)
    assert np.abs(bianchi).max() <= 1e-14 * scale


def test_riemann_from_metric_contracts_to_the_quartic():
    rng = np.random.default_rng(41)
    for s in (gl_real(2), gl_real(3), gl_complex(2)):
        R = riemann_from_metric(s)
        for _ in range(10):
            u = random_matrix(rng, s.n, s.field)
            v = random_matrix(rng, s.n, s.field)
            # coordinates over the cells: the entries (real parts first)
            x = np.concatenate([u.real.ravel(), u.imag.ravel()])[:s.real_dim]
            y = np.concatenate([v.real.ravel(), v.imag.ravel()])[:s.real_dim]
            a = np.einsum("ijkl,i,j,k,l->", R, x, y, y, x)
            b = quartic(s, u, v)
            assert abs(a - b) <= 1e-12 * (max(abs(a), abs(b)) + 1.0)


def test_riemann_from_metric_rejects_an_incomplete_basis():
    with pytest.raises(IncompleteBasis):
        riemann_from_metric(gl_real(3), standard_basis(gl_real(2)))


@st.composite
def _scaled_sections(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    u = random_matrix(rng, n, field) * 2.0 ** a
    v = random_matrix(rng, n, field) * 2.0 ** b
    return n, field, u, v, a + b


@settings(database=None, derandomize=True)
@given(_scaled_sections())
def test_quartic_matches_definition_over_sizes_fields_and_scales(section):
    n, field, u, v, exponent = section
    s = gl_real(n) if field == REAL else gl_complex(n)
    q, q_def = quartic(s, u, v), quartic_from_definition(s, u, v)
    assert rel_gap(q, q_def) <= 1e-8
    # rel_gap is absolute below 1, so also compare at unit scale: the quartic
    # is quadratic in u and in v, and powers of two rescale exactly
    unit = 4.0 ** -exponent
    assert rel_gap(q * unit, q_def * unit) <= 1e-8


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


def test_commuting_theorem_keeps_the_field_of_a_1x1_structure(monkeypatch):
    # gl(1) holds no interesting commuting pairs, so the suite moves to
    # n = 2; it must stay over the structure's field. Its pairs use seeds
    # seed + i, the other commuting suites seed + 10_000 and up.
    drawn = {}

    def recording(seeds, n, field=REAL, symmetric=False):
        drawn.update(dict.fromkeys(seeds, (n, field)))
        return commuting_pair(seeds, n, field=field, symmetric=symmetric)

    monkeypatch.setattr(liecurv.verify, "commuting_pair", recording)
    report = run_verify(gl_complex(1), seed=42, trials=2)
    assert drawn[42] == drawn[43] == (2, COMPLEX)
    assert report.suite("commuting_theorem").passed


# -- the references on stacks ---------------------------------------------------


def _rows(fn, u, v) -> list[str]:
    """fn on each pair of rows of two (..., n, n) stacks, as hex strings."""
    n = u.shape[-1]
    values = [fn(a, b) for a, b in zip(u.reshape(-1, n, n), v.reshape(-1, n, n))]
    assert all(type(x) is float for x in values)
    return [x.hex() for x in values]


# a leading shape (m,) or (m, k)
LEADING = st.one_of(st.tuples(st.integers(1, 30)),
                    st.tuples(st.integers(1, 10), st.integers(1, 3)))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n", range(1, 10))
@settings(database=None, derandomize=True, max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=LEADING, rotate=st.booleans())
@example(seed=5, shape=(26,), rotate=True)
def test_stacked_references_rows_are_bit_equal_to_one_pair_calls(
        n, field, seed, shape, rotate):
    s = CartanStructure(n, field)
    # a block holds 25 rows of gl(6, R), 4 of gl(9, R) and 1 of gl(9, C);
    # rows past two blocks add time, not cases
    step = liecurv.oracles._BLOCK_BYTES // (8 * s.real_dim ** 2)
    k = math.prod(shape[1:])
    shape = (max(1, min(shape[0], (2 * step + 1) // k)), *shape[1:])
    rng = np.random.default_rng(seed)
    u, v = random_matrix(rng, n, field, (2, *shape))
    # a caller's basis builds its frame on every call, once per row here
    basis = _rotated_basis(s, seed) if rotate and s.real_dim <= 36 else None
    references = [
        lambda a, b: quartic_from_definition(s, a, b, basis),
        lambda a, b: bracket_norm_identity_gap(s, a, b)]
    for fn in references:
        stacked = fn(u, v)
        assert stacked.shape == shape
        assert [x.hex() for x in stacked.ravel().tolist()] == _rows(fn, u, v)
    if n >= 2:
        pairs = [commuting_pair(seed % 1000 + i, n, field)
                 for i in range(math.prod(shape))]
        cu, cv = (np.stack(x).reshape(*shape, n, n) for x in zip(*pairs))
        fn = lambda a, b: quartic_commuting(s, a, b)
        stacked = fn(cu, cv)
        assert stacked.shape == shape
        assert [x.hex() for x in stacked.ravel().tolist()] == _rows(fn, cu, cv)


@pytest.mark.parametrize("fn", [quartic_from_definition, quartic_commuting,
                                quartic_special, bracket_norm_identity_gap])
def test_stacked_references_take_stacks_of_one_shape(fn):
    s = gl_real(2)
    stack = random_matrix(np.random.default_rng(3), 2, REAL, (3,))
    for u, v in ((stack, stack[:2]), (stack[0], stack[:1]),
                 (stack[:2], stack[:2, None])):
        with pytest.raises(DimensionMismatch):
            fn(s, u, v)


def test_quartic_commuting_names_the_first_row_that_does_not_commute():
    s = gl_real(2)
    u, v = (np.stack(x) for x in zip(*(commuting_pair(i, 2) for i in range(5))))
    u[3], v[3] = [[1.0, 2.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]
    u[4] = u[3]
    with pytest.raises(NotCommuting, match=r"^row 3: \|\|\[u, v\]\|\| = "):
        quartic_commuting(s, u, v)
    with pytest.raises(NotCommuting, match=r"^\|\|\[u, v\]\|\| = "):
        quartic_commuting(s, u[3], v[3])
    assert quartic_commuting(s, u[:3], v[:3]).shape == (3,)


def _hex(a) -> list[str]:
    """The entries of a real or complex array as hex strings."""
    return [x.hex() for x in np.ascontiguousarray(a).view(float).ravel().tolist()]


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n", range(2, 7))
@settings(database=None, derandomize=True, max_examples=3, deadline=None)
@given(start=st.integers(0, 2**32 - 50), count=st.integers(0, 40))
def test_commuting_pair_seed_ranges_are_bit_equal_to_one_seed_calls(
        n, field, symmetric, start, count):
    # 2-9% of seeds need a second attempt, which the stack draws for them
    # alone; each row must still be its seed's pair bit for bit
    seeds = range(start, start + count)
    u, v = commuting_pair(seeds, n, field, symmetric)
    assert u.shape == v.shape == (count, n, n)
    for i, seed in enumerate(seeds):
        one = commuting_pair(seed, n, field, symmetric)
        assert (_hex(u[i]), _hex(v[i])) == tuple(map(_hex, one))


@pytest.mark.parametrize("seed, n, field, symmetric", [
    (6, 2, REAL, False), (91, 3, REAL, False), (14, 3, REAL, True),
    (212, 2, COMPLEX, False)])
def test_commuting_pair_redraws_only_the_rejected_seeds(
        monkeypatch, seed, n, field, symmetric):
    # seed's first attempt is rejected, its neighbours' are not
    attempts = []
    real_draw = liecurv.oracles.random_matrix

    def counting(rng, *args):
        attempts.append(rng)
        return real_draw(rng, *args)

    monkeypatch.setattr(liecurv.oracles, "random_matrix", counting)
    one = commuting_pair(seed, n, field, symmetric)
    assert len(attempts) == 2
    attempts.clear()
    seeds = range(seed - 3, seed + 4)
    u, v = commuting_pair(seeds, n, field, symmetric)
    assert len(attempts) == len(seeds) + 1
    assert (_hex(u[3]), _hex(v[3])) == tuple(map(_hex, one))
    for i, x in enumerate(seeds):
        assert (_hex(u[i]), _hex(v[i])) == tuple(map(
            _hex, commuting_pair(x, n, field, symmetric)))


def test_commuting_pair_names_a_seed_that_yields_no_pair(monkeypatch):
    # with one attempt, seed 6 of gl(2, R) is the first of 0..9 left over
    monkeypatch.setattr(liecurv.oracles, "_MAX_ATTEMPTS", 1)
    with pytest.raises(RuntimeError, match=r"in 1 draws \(seed 6\)$"):
        commuting_pair(range(10), 2)
    with pytest.raises(RuntimeError, match=r"in 1 draws \(seed 6\)$"):
        commuting_pair(6, 2)
    assert commuting_pair(range(6), 2)[0].shape == (6, 2, 2)


# rows of quartic_special stacks by the parts of u and v: every tag, and
# the zero matrix ("0"), which counts as pure
SPECIAL_ROWS = [("p", "p"), ("k", "k"), ("p", "k"), ("k", "p"), ("g", "p"),
                ("g", "k"), ("0", "k"), ("g", "0"), ("0", "0")]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n", range(1, 7))
@settings(database=None, derandomize=True, max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=LEADING)
@example(seed=5, shape=(9,))
def test_stacked_quartic_special_rows_are_bit_equal_to_one_pair_calls(
        n, field, seed, shape):
    s = CartanStructure(n, field)
    rng = np.random.default_rng(seed)
    x = random_matrix(rng, n, field, (2, math.prod(shape)))
    kinds = [SPECIAL_ROWS[(seed + i) % len(SPECIAL_ROWS)] for i in range(len(x[0]))]
    u, v = (np.stack([np.zeros((n, n), x.dtype) if part == "0" else
                      liecurv.cartan.theta_part(s, row, part)
                      for row, part in zip(x[j], parts)]).reshape(*shape, n, n)
            for j, parts in enumerate(zip(*kinds)))
    values, tags = quartic_special(s, u, v)
    assert values.shape == tags.shape == shape
    pairs = [quartic_special(s, a, b) for a, b in
             zip(u.reshape(-1, n, n), v.reshape(-1, n, n))]
    assert all(type(x) is float and type(t) is str for x, t in pairs)
    assert [x.hex() for x in values.ravel().tolist()] == [x.hex() for x, _ in pairs]
    assert tags.ravel().tolist() == [t for _, t in pairs]
    if n >= 2 and len(pairs) >= len(SPECIAL_ROWS):
        assert {t for _, t in pairs} == {"p_p", "k_k", "p_k", "k_p", "g_p", "g_k"}


def test_stacked_quartic_special_names_the_first_row_with_a_mixed_v():
    s = gl_real(2)
    rng = np.random.default_rng(89)
    u = random_matrix(rng, 2, shape=(2, 2))
    v = liecurv.cartan.theta_part(s, random_matrix(rng, 2, shape=(2, 2)), "p")
    v[1, 0] = v[1, 1] = [[1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(NotPureType, match=r"^row 2: vector mixes p and k "):
        quartic_special(s, u, v)
    with pytest.raises(NotPureType, match=r"^vector mixes p and k "):
        quartic_special(s, u[1, 0], v[1, 0])
    values, tags = quartic_special(s, u[0], v[0])
    assert values.shape == (2,) and tags.tolist() == ["g_p", "g_p"]


def test_stacked_oracle_keeps_its_temporaries_in_blocks():
    # 1024 rows of gl(6, R) hold 10 MB in each (rows, d, d) temporary
    s = gl_real(6)
    u, v = random_matrix(np.random.default_rng(5), 6, REAL, (2, 1024))
    quartic_from_definition(s, u[0], v[0])  # builds the cached frame
    tracemalloc.start()
    try:
        quartic_from_definition(s, u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
