"""Cartan structures on matrix algebras.

A structure packages the data a reductive matrix group carries: an involution
theta on the Lie algebra, the derived inner product B_theta(u, v) = -B(u,
theta v) with B the trace form Re tr(uv), and the eigenspace split g = k + p
(k the +1 eigenspace of theta, p the -1 eigenspace). For the full general
linear groups

    gl(n, R): theta u = -u^T  -> p symmetric, k skew
    gl(n, C): theta u = -u*   -> p Hermitian, k skew-Hermitian

and B_theta is the Frobenius inner product in both cases. Structures carry
theta as a closure so new reductive instances can be registered without
touching this module; the closure must be a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import COMPLEX, REAL, bracket, field_of, random_matrix
from .errors import DimensionMismatch, NotPureType


@dataclass(frozen=True)
class CartanStructure:
    """Algebraic package (name, n, field, theta) with derived helpers.

    theta maps an ndarray to an ndarray.
    """

    name: str
    n: int
    field: str
    theta: Callable[[np.ndarray], np.ndarray]

    @property
    def real_dim(self) -> int:
        """Dimension of the algebra as a real vector space (n^2 for
        gl(n, R), 2 n^2 for gl(n, C))."""
        return self.n * self.n * (2 if self.field == COMPLEX else 1)

    def b_theta(self, u, v) -> float:
        """Derived inner product -B(u, theta v): the metric everything
        downstream uses."""
        return -_trace_form(np.asarray(u), self.theta(np.asarray(v)))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.b_theta(u, u), 0.0)))

    def check_member(self, u) -> np.ndarray:
        """u as an ndarray; DimensionMismatch unless it is an n x n matrix
        over the structure's field."""
        u = np.asarray(u)
        if u.shape != (self.n, self.n) or field_of(u) != self.field:
            shape = "x".join(map(str, u.shape))
            raise DimensionMismatch(
                f"{shape} {field_of(u)} matrix does not belong to {self.name}")
        return u


@dataclass(frozen=True)
class ThetaSplit:
    """Eigencomponents of a vector under theta: u = p_part + k_part with
    theta(p_part) = -p_part and theta(k_part) = k_part."""

    p_part: np.ndarray
    k_part: np.ndarray


def gl_real(n: int) -> CartanStructure:
    """Full real general linear structure on n x n matrices."""
    return _gl(n, REAL)


def gl_complex(n: int) -> CartanStructure:
    """Full complex general linear structure on n x n matrices."""
    return _gl(n, COMPLEX)


def _gl(n: int, field: str) -> CartanStructure:
    if n < 1:
        raise DimensionMismatch(f"n must be >= 1, got {n}")
    return CartanStructure(name=f"gl:{field}:{n}", n=n, field=field,
                           theta=_theta)


def _theta(u: np.ndarray) -> np.ndarray:
    # -u* over C; conj is the identity on real matrices, so -u^T over R
    return -np.conj(u).T


def _trace_form(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.trace(u @ v).real)


def standard_basis(s: CartanStructure) -> tuple[np.ndarray, ...]:
    """Matrix-cell basis of the algebra: E_ij, plus i E_ij over the complex field.

    The cells are exactly orthonormal under B_theta (the Frobenius inner
    product), so no re-orthonormalization is applied.
    """
    dtype = np.complex128 if s.field == COMPLEX else np.float64
    units = (1.0, 1j) if s.field == COMPLEX else (1.0,)
    elems = []
    for unit in units:
        for i in range(s.n):
            for j in range(s.n):
                e = np.zeros((s.n, s.n), dtype=dtype)
                e[i, j] = unit
                elems.append(e)
    return tuple(elems)


def from_selector(text: str) -> CartanStructure:
    """Parse a structure selector: "gl:real:<n>" or "gl:complex:<n>"."""
    parts = text.strip().lower().split(":")
    if len(parts) == 3 and parts[0] == "gl" and parts[2].isdigit():
        n = int(parts[2])
        if parts[1] == REAL:
            return gl_real(n)
        if parts[1] == COMPLEX:
            return gl_complex(n)
    raise ValueError(f"bad structure selector {text!r} (expected gl:real:<n> or gl:complex:<n>)")


def theta_split(s: CartanStructure, u) -> ThetaSplit:
    """Split u into its -1 (p) and +1 (k) eigencomponents under theta.

    p_part is (u - theta u)/2; k_part is the exact complement u - p_part, so
    the two parts reconstruct u without rounding. For gl(n, R) this is the
    symmetric/skew-symmetric split.
    """
    u = s.check_member(u)
    p = (u - s.theta(u)) / 2.0
    return ThetaSplit(p, u - p)


def pure_class(s: CartanStructure, u, rtol: float = 1e-10) -> str:
    """Classify u as purely "p" or purely "k".

    The off-class component must have norm <= rtol * ||u|| (with a small
    additive floor so the zero matrix counts as pure). Raises NotPureType for
    genuinely mixed vectors.
    """
    parts = theta_split(s, u)
    np_, nk = np.linalg.norm(parts.p_part), np.linalg.norm(parts.k_part)
    allowed = rtol * np.linalg.norm(u) + 1e-14
    if nk <= allowed:
        return "p"
    if np_ <= allowed:
        return "k"
    raise NotPureType(
        f"vector mixes p and k (component norms {np_:.3g} / {nk:.3g}, allowed {allowed:.3g})")


# -- validator ---------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    error: float        # worst normalized violation over the samples
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    structure: str
    seed: int
    trials: int
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_error_ratio(self) -> float:
        """Largest error/tolerance ratio across axioms (1.0 is the pass line)."""
        return max(c.error / c.tolerance for c in self.checks)


def validate(s: CartanStructure, trials: int = 100, tol: float = 1e-12,
             seed: int = 42) -> ValidationReport:
    """Check the machine-checkable axioms of a structure on random samples.

    Covered: theta is an involution and a bracket automorphism, B is symmetric
    and ad-invariant, B_theta is positive definite on the standard cell basis,
    the p/k split is B_theta-orthogonal, and the bracket inclusions
    [k,k] in k, [p,p] in k, [k,p] in p hold. Failures land in the report;
    nothing is raised, except ValueError for trials < 2 (the pair axioms
    need at least one pair of samples).
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    rng = np.random.default_rng(seed)
    samples = [random_matrix(rng, s.n, s.field) for _ in range(trials)]

    def worst(fn) -> float:
        return max(fn(u) for u in samples)

    def worst_pair(fn) -> float:
        it = iter(samples)
        return max(fn(a, b) for a, b in zip(it, it))

    norm = np.linalg.norm
    checks = []

    checks.append(_check("theta_involution", tol, worst(
        lambda u: norm(s.theta(s.theta(u)) - u) / (norm(u) + 1e-14))))

    checks.append(_check("theta_bracket_automorphism", tol, worst_pair(
        lambda u, v: norm(s.theta(bracket(u, v)) - bracket(s.theta(u), s.theta(v)))
        / (norm(u) * norm(v) + 1e-14))))

    checks.append(_check("bform_symmetry", tol, worst_pair(
        lambda u, v: abs(_trace_form(u, v) - _trace_form(v, u))
        / (norm(u) * norm(v) + 1e-14))))

    def ad_invariance(u: np.ndarray) -> float:
        x, y, z = u, samples[0], samples[-1]
        gap = abs(_trace_form(bracket(x, y), z) + _trace_form(y, bracket(x, z)))
        return gap / (norm(x) * norm(y) * norm(z) + 1e-14)
    checks.append(_check("bform_ad_invariance", tol, worst(ad_invariance)))

    gram = _basis_gram(s)
    min_eig = float(np.linalg.eigvalsh((gram + gram.T) / 2.0).min())
    sym_gap = float(np.abs(gram - gram.T).max())
    checks.append(AxiomCheck("b_theta_positive_definite_basis",
                             error=max(0.0, 1.0 - min_eig) + sym_gap,
                             tolerance=1e-9,
                             passed=min_eig > 1e-9 and sym_gap <= tol))

    checks.append(_check("split_orthogonality", tol, worst(
        lambda u: abs(s.b_theta(theta_split(s, u).p_part, theta_split(s, u).k_part))
        / (norm(u) ** 2 + 1e-14))))

    def inclusion(picker_a, picker_b, off_picker) -> float:
        def err(u, v):
            a = picker_a(theta_split(s, u))
            b = picker_b(theta_split(s, v))
            off = off_picker(theta_split(s, bracket(a, b)))
            return norm(off) / (norm(a) * norm(b) + 1e-14)
        return worst_pair(err)

    p_of = lambda sp: sp.p_part
    k_of = lambda sp: sp.k_part
    checks.append(_check("inclusion_kk_in_k", tol, inclusion(k_of, k_of, p_of)))
    checks.append(_check("inclusion_pp_in_k", tol, inclusion(p_of, p_of, p_of)))
    checks.append(_check("inclusion_kp_in_p", tol, inclusion(k_of, p_of, k_of)))

    return ValidationReport(structure=s.name, seed=seed, trials=trials,
                            checks=tuple(checks))


def _check(name: str, tol: float, error: float) -> AxiomCheck:
    return AxiomCheck(name=name, error=float(error), tolerance=tol,
                      passed=bool(error <= tol))


def _basis_gram(s: CartanStructure) -> np.ndarray:
    elems = standard_basis(s)
    g = np.empty((len(elems), len(elems)))
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            g[i, j] = s.b_theta(a, b)
    return g
