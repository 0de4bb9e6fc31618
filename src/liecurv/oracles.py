"""Independent verification paths for the closed-form geometry.

nabla_from_metric solves the metric identity

    <nabla_u v, w> = 1/2 (<[u,v], w> - <[v,w], u> - <[u,w], v>)

coordinate by coordinate over an orthonormal basis and never touches the
closed-form connection, so agreement between the two is a genuine
two-route check. quartic_from_definition evaluates <R(u,v)v, u> with every
covariant derivative taken from the metric route. commuting_pair
manufactures exactly-commuting inputs (two polynomials in one matrix) for
the commuting-pair theorems.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import REAL, bracket, random_matrix
from .cartan import CartanStructure, standard_basis
from .errors import DimensionMismatch, IncompleteBasis


def _check_basis(s: CartanStructure,
                 basis: Sequence[np.ndarray] | None) -> Sequence[np.ndarray]:
    if basis is None:
        return standard_basis(s)
    if len(basis) != s.real_dim:
        raise IncompleteBasis(
            f"basis has {len(basis)} elements, algebra of {s.name} "
            f"has real dimension {s.real_dim}")
    return basis


def nabla_from_metric(s: CartanStructure, u, v,
                      basis: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Connection solved from the metric identity over a basis (definition route)."""
    basis = _check_basis(s, basis)
    u, v = s.check_member(u), s.check_member(v)
    uv = bracket(u, v)
    acc = np.zeros_like(u)
    for e in basis:
        coeff = 0.5 * (s.b_theta(uv, e)
                       - s.b_theta(bracket(v, e), u)
                       - s.b_theta(bracket(u, e), v))
        acc = acc + coeff * e
    return acc


def quartic_from_definition(s: CartanStructure, u, v,
                            basis: Sequence[np.ndarray] | None = None) -> float:
    """<R(u,v)v, u> where every nabla inside R comes from nabla_from_metric."""
    basis = _check_basis(s, basis)
    r = (nabla_from_metric(s, u, nabla_from_metric(s, v, v, basis), basis)
         - nabla_from_metric(s, v, nabla_from_metric(s, u, v, basis), basis)
         - nabla_from_metric(s, bracket(u, v), v, basis))
    return s.b_theta(r, u)


# commuting_pair redraws until both polynomial combinations clear this norm
# before unit normalization: dividing a tiny combination by its norm would
# amplify the commutator rounding noise past the 1e-12 guarantee.
_MIN_COMBINATION_NORM = 0.25
_COMMUTATOR_CEILING = 1e-12
_MAX_ATTEMPTS = 200


def commuting_pair(seed: int, n: int, deg: int = 3, field: str = REAL,
                   symmetric: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-norm exactly-commuting matrices: random polynomials in one matrix.

    Draws a base matrix m (rescaled to unit norm) and two coefficient vectors
    of length deg+1, forms the polynomial combinations, and redraws whenever a
    combination is too small to normalize safely or the resulting commutator
    norm exceeds 1e-12. With symmetric=True the base matrix is symmetrized
    (Hermitian over the complex field), so both outputs are symmetric as
    well. Deterministic per seed.
    """
    if n < 2:
        raise DimensionMismatch(f"commuting pairs need n >= 2, got {n}")
    if deg < 1:
        raise ValueError(f"deg must be >= 1, got {deg}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        m = random_matrix(rng, n, field)
        if symmetric:
            m = 0.5 * (m + np.conj(m).T)
        m_norm = np.linalg.norm(m)
        if m_norm == 0.0:
            continue
        m = m / m_norm
        powers = [np.eye(n, dtype=m.dtype)]
        for _ in range(deg):
            powers.append(powers[-1] @ m)
        a = rng.uniform(-1.0, 1.0, size=deg + 1)
        b = rng.uniform(-1.0, 1.0, size=deg + 1)
        u = _combine(powers, a)
        v = _combine(powers, b)
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu < _MIN_COMBINATION_NORM or nv < _MIN_COMBINATION_NORM:
            continue
        u = u / nu
        v = v / nv
        if np.linalg.norm(bracket(u, v)) <= _COMMUTATOR_CEILING:
            return u, v
    raise RuntimeError(
        f"no admissible commuting pair in {_MAX_ATTEMPTS} draws (seed {seed})")


def _combine(powers: list[np.ndarray], coeffs: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(powers[0])
    for c, p in zip(coeffs, powers):
        acc = acc + float(c) * p
    return acc
