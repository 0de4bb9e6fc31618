"""Independent verification paths for the closed-form geometry.

The definition route works from the structure constants of the algebra.
Over an orthonormal basis e_1..e_d it builds, once,

    C_ijk = <[e_i, e_j], e_k>

from the basis, the bracket and theta only, and the Koszul identity

    <nabla_u v, w> = 1/2 (<[u,v], w> - <[v,w], u> - <[u,w], v>)

becomes Gamma_ijk = 1/2 (C_ijk - C_jki - C_ikj) (Milnor 1976, "Curvatures
of left invariant metrics on Lie groups"). nabla_from_metric and
quartic_from_definition then work in coordinates and never touch the
closed-form connection, so agreement between the two is a genuine
two-route check. riemann_from_metric assembles the full tensor R_ijkl from
the same constants. commuting_pair manufactures exactly-commuting inputs
(two polynomials in one matrix) for the commuting-pair theorems.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import COMPLEX, REAL, _norms, _per_row, bracket, random_matrix
from .cartan import CartanStructure, standard_basis
from .errors import DimensionMismatch, IncompleteBasis


class _Frame(NamedTuple):
    """Basis stack B (d, n, n), dual frame F_k = -theta(e_k) so that
    <a, e_k> = Re tr(a F_k), and C_ijk = <[e_i, e_j], e_k> as (d, d*d)."""

    B: np.ndarray
    F: np.ndarray
    C: np.ndarray


def _check_basis(s: CartanStructure, basis: Sequence[np.ndarray]) -> None:
    if len(basis) != s.real_dim:
        raise IncompleteBasis(
            f"basis has {len(basis)} elements, algebra of {s.name} "
            f"has real dimension {s.real_dim}")


def _frame(s: CartanStructure, basis: Sequence[np.ndarray]) -> _Frame:
    B = np.stack([np.asarray(e) for e in basis])
    F = -s.theta(B)
    d = len(B)
    # row i holds the coordinates of [e_i, e_j] for every j, one slice at a
    # time so the (d, d, n, n) bracket stack is never held whole
    C = np.empty((d, d * d))
    for i in range(d):
        C[i] = np.einsum("...ij,kji->...k", bracket(B[i], B), F).real.ravel()
    for a in (B, F, C):
        a.setflags(write=False)  # the default frame is shared through the cache
    return _Frame(B, F, C)


@functools.lru_cache
def _default_frame(s: CartanStructure) -> _Frame:
    return _frame(s, standard_basis(s))


def _frame_for(s: CartanStructure,
               basis: Sequence[np.ndarray] | None) -> _Frame:
    """The cached frame of the standard cells, or one built for the caller's
    basis on every call."""
    if basis is None:
        return _default_frame(s)
    _check_basis(s, basis)
    return _frame(s, basis)


def _coords(F: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<a, e_k> = Re tr(a F_k) for every k, as a (..., 1, d) row. a may carry
    leading axes; each of its matrices takes its own vector-matrix product,
    so a row does not depend on the stack around it."""
    n2 = F.shape[-1] ** 2
    return (a.reshape(*a.shape[:-2], 1, n2)
            @ F.swapaxes(-1, -2).reshape(len(F), n2).T).real


def _ad(C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M_x with M_x[j, k] = <[x, e_j], e_k>, row by row on (..., 1, d) rows."""
    d = x.shape[-1]
    return (x @ C).reshape(*x.shape[:-2], d, d)


def _nabla(x: np.ndarray, y: np.ndarray, mx: np.ndarray,
           my: np.ndarray) -> np.ndarray:
    """Coordinates of nabla_x y from M_x and M_y, on (..., 1, d) rows:
    1/2 (y M_x - x M_y^T - y M_x^T)."""
    return 0.5 * (y @ mx - x @ my.swapaxes(-1, -2) - y @ mx.swapaxes(-1, -2))


def nabla_from_metric(s: CartanStructure, u, v,
                      basis: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Connection solved from the metric identity over an orthonormal basis
    (definition route; the standard cells by default)."""
    frame = _frame_for(s, basis)
    u, v = s.check_stacks(u, v)
    x, y = _coords(frame.F, u), _coords(frame.F, v)
    mx, my = _ad(frame.C, x), _ad(frame.C, y)
    # one vector-matrix product per row, as in _coords
    return (_nabla(x, y, mx, my) @ frame.B.reshape(len(frame.B), -1)).reshape(u.shape)


# each (rows, d, d) temporary of quartic_from_definition stays under this size
_BLOCK_BYTES = 256 * 1024


def quartic_from_definition(s: CartanStructure, u, v,
                            basis: Sequence[np.ndarray] | None = None):
    """<R(u,v)v, u> = <nabla_u nabla_v v - nabla_v nabla_u v - nabla_[u,v] v, u>
    with every nabla taken from the metric identity."""
    frame = _frame_for(s, basis)
    u, v = s.check_stacks(u, v)
    C, d = frame.C, len(frame.C)
    x, y = (_coords(frame.F, w).reshape(-1, 1, d) for w in (u, v))
    q = np.empty(len(x))
    step = max(1, _BLOCK_BYTES // (8 * d * d))
    for i in range(0, len(x), step):
        xb, yb = x[i:i + step], y[i:i + step]
        mx, my = _ad(C, xb), _ad(C, yb)
        nabla_vv = _nabla(yb, yb, my, my)
        nabla_uv = _nabla(xb, yb, mx, my)
        bracket_uv = yb @ mx
        r = (_nabla(xb, nabla_vv, mx, _ad(C, nabla_vv))
             - _nabla(yb, nabla_uv, my, _ad(C, nabla_uv))
             - _nabla(bracket_uv, yb, _ad(C, bracket_uv), my))
        q[i:i + step] = (r @ xb.swapaxes(-1, -2))[:, 0, 0]
    return _per_row(q.reshape(u.shape[:-2]))


def riemann_from_metric(s: CartanStructure,
                        basis: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """R_ijkl = <R(e_i, e_j) e_k, e_l> over an orthonormal basis, assembled
    from the structure constants: with nabla_{e_i} e_j = Gamma_ijm e_m,

        R_ijkl = Gamma_jkm Gamma_iml - Gamma_ikm Gamma_jml - C_ijm Gamma_mkl.

    The result has d^4 entries for an algebra of real dimension d.
    """
    C = _frame_for(s, basis).C
    d = len(C)
    C = C.reshape(d, d, d)
    G = 0.5 * (C - np.einsum("jki->ijk", C) - np.einsum("ikj->ijk", C))
    R = np.empty((d, d, d, d))
    for i in range(d):  # one slice at a time: no d^4 temporaries
        R[i] = (np.einsum("jkm,ml->jkl", G, G[i])
                - np.einsum("km,jml->jkl", G[i], G)
                - np.einsum("jm,mkl->jkl", C[i], G))
    return R


# commuting_pair redraws until both polynomial combinations clear this norm
# before unit normalization: dividing a tiny combination by its norm would
# amplify the commutator rounding noise past the 1e-12 guarantee.
_MIN_COMBINATION_NORM = 0.25
_COMMUTATOR_CEILING = 1e-12
_MAX_ATTEMPTS = 200
_DEGREE = 3


def commuting_pair(seed: int | Sequence[int], n: int, field: str = REAL,
                   symmetric: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-norm exactly-commuting matrices: random polynomials in one matrix.

    Draws a base matrix m (rescaled to unit norm) and two coefficient vectors
    of length _DEGREE + 1, forms the polynomial combinations, and redraws
    whenever a combination is too small to normalize safely or the resulting
    commutator norm exceeds 1e-12. With symmetric=True the base matrix is symmetrized
    (Hermitian over the complex field), so both outputs are symmetric as
    well. Deterministic per seed.

    A sequence of m seeds (a range, say) gives two (m, n, n) stacks, row i
    bit-equal to the call with seeds[i]: the attempts of all seeds are
    formed as one stack, and only the rejected seeds draw again.
    """
    if n < 2:
        raise DimensionMismatch(f"commuting pairs need n >= 2, got {n}")
    one = np.ndim(seed) == 0
    seeds = [seed] if one else list(seed)
    rngs = [np.random.default_rng(x) for x in seeds]
    out = np.empty((2, len(seeds), n, n), complex if field == COMPLEX else float)
    done = np.zeros(len(seeds), dtype=bool)
    for _ in range(_MAX_ATTEMPTS):
        rows = np.flatnonzero(~done)
        if not len(rows):
            break
        m = np.array([random_matrix(rngs[i], n, field) for i in rows])
        if symmetric:
            m = 0.5 * (m + np.conj(m).swapaxes(-1, -2))
        m_norm = _norms(m)
        # a zero draw is redrawn before it takes its coefficients
        drawn = m_norm != 0.0
        rows, m = rows[drawn], m[drawn] / m_norm[drawn, None, None]
        a, b = np.empty((2, len(rows), _DEGREE + 1))
        for j, i in enumerate(rows):
            a[j] = rngs[i].uniform(-1.0, 1.0, size=_DEGREE + 1)
            b[j] = rngs[i].uniform(-1.0, 1.0, size=_DEGREE + 1)
        powers = [np.eye(n, dtype=m.dtype)]
        for _ in range(_DEGREE):
            powers.append(powers[-1] @ m)
        u, v = _combine(powers, a), _combine(powers, b)
        nu, nv = _norms(u), _norms(v)
        u, v = u / nu[:, None, None], v / nv[:, None, None]
        ok = ((nu >= _MIN_COMBINATION_NORM) & (nv >= _MIN_COMBINATION_NORM)
              & (_norms(bracket(u, v)) <= _COMMUTATOR_CEILING))
        out[:, rows[ok]] = u[ok], v[ok]
        done[rows[ok]] = True
    if not done.all():
        raise RuntimeError(f"no admissible commuting pair in {_MAX_ATTEMPTS} "
                           f"draws (seed {seeds[np.argmin(done)]})")
    return (out[0, 0], out[1, 0]) if one else (out[0], out[1])


def _combine(powers: list[np.ndarray], coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[:, k] powers[k]: one row of coefficients per matrix."""
    acc = np.zeros_like(powers[-1])
    for c, p in zip(coeffs.T, powers):
        acc = acc + c[:, None, None] * p
    return acc
