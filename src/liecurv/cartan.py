"""Cartan structures on matrix algebras.

A structure packages the data a reductive matrix group carries: an involution
theta on the Lie algebra, the derived inner product B_theta(u, v) = -B(u,
theta v) with B the trace form Re tr(uv), and the eigenspace split g = k + p
(k the +1 eigenspace of theta, p the -1 eigenspace). For the full general
linear groups

    gl(n, R): theta u = -u^T  -> p symmetric, k skew
    gl(n, C): theta u = -u*   -> p Hermitian, k skew-Hermitian

and B_theta is the Frobenius inner product in both cases. One formula,
theta u = -u* (conj is the identity on real matrices), covers both fields,
so a structure is fixed by its size n and its field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (COMPLEX, REAL, _norms, _per_row, _raise_first, bracket,
                      field_of, random_matrix)
from .errors import DimensionMismatch, NotPureType

# tolerances of pure_class (relative to ||u||) and of the validate axioms;
# the basis check measures max |eig - 1| of the Gram matrix, hence its own
PURITY_RTOL = 1e-10
AXIOM_TOL = 1e-12
BASIS_TOL = 1e-9


@dataclass(frozen=True)
class CartanStructure:
    """gl(n, R) or gl(n, C) with the involution theta u = -u* and the
    helpers derived from it."""

    n: int
    field: str

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionMismatch(f"n must be >= 1, got {self.n}")

    @property
    def name(self) -> str:
        return f"gl:{self.field}:{self.n}"

    def theta(self, u: np.ndarray) -> np.ndarray:
        """theta u = -u*, slice by slice on a stack."""
        return -np.conj(u).swapaxes(-1, -2)

    @property
    def real_dim(self) -> int:
        """Dimension of the algebra as a real vector space (n^2 for
        gl(n, R), 2 n^2 for gl(n, C))."""
        return self.n * self.n * (2 if self.field == COMPLEX else 1)

    def b_theta(self, u, v):
        """Derived inner product -B(u, theta v): the metric everything
        downstream uses. DimensionMismatch unless u and v are members."""
        return _per_row(self.b_theta_stack(*self.check_stacks(u, v)))

    def b_theta_stack(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """b_theta on (..., n, n) arrays, unchecked, so numpy broadcasts
        their shapes: an array (0-d for two matrices)."""
        # 0.0 - x is -x for every x but +0.0, which it keeps unsigned
        return 0.0 - _trace_form(u, self.theta(v))

    def check_member(self, u) -> np.ndarray:
        """u as an ndarray; DimensionMismatch unless it is an n x n matrix,
        or a stack of them on its last two axes, over the structure's field."""
        u = np.asarray(u)
        if u.shape[-2:] != (self.n, self.n) or field_of(u) != self.field:
            shape = "x".join(map(str, u.shape))
            raise DimensionMismatch(
                f"{shape} {field_of(u)} matrix does not belong to {self.name}")
        return u

    def check_stacks(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        """check_member of u and v, which must have one shape."""
        u, v = self.check_member(u), self.check_member(v)
        if u.shape != v.shape:
            raise DimensionMismatch(f"u and v differ in shape: {u.shape}, {v.shape}")
        return u, v


@dataclass(frozen=True)
class ThetaSplit:
    """Eigencomponents of a vector under theta: u = p_part + k_part with
    theta(p_part) = -p_part and theta(k_part) = k_part."""

    p_part: np.ndarray
    k_part: np.ndarray


def gl_real(n: int) -> CartanStructure:
    """Full real general linear structure on n x n matrices."""
    return CartanStructure(n, REAL)


def gl_complex(n: int) -> CartanStructure:
    """Full complex general linear structure on n x n matrices."""
    return CartanStructure(n, COMPLEX)


def _trace_form(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re tr(uv), slice by slice on stacks."""
    return np.trace(u @ v, axis1=-2, axis2=-1).real


def standard_basis(s: CartanStructure) -> tuple[np.ndarray, ...]:
    """Matrix-cell basis of the algebra: E_ij, plus i E_ij over the complex field.

    The cells are exactly orthonormal under B_theta (the Frobenius inner
    product), so no re-orthonormalization is applied.
    """
    cells = np.eye(s.n * s.n).reshape(-1, s.n, s.n)
    if s.field == COMPLEX:
        cells = np.concatenate([cells, 1j * cells])
    return tuple(cells)


def from_selector(text: str) -> CartanStructure:
    """Parse a structure selector: "gl:real:<n>" or "gl:complex:<n>"."""
    parts = text.strip().lower().split(":")
    if (len(parts) == 3 and parts[0] == "gl" and parts[1] in (REAL, COMPLEX)
            and parts[2].isdecimal()):
        return CartanStructure(int(parts[2]), parts[1])
    raise ValueError(f"bad structure selector {text!r} (expected gl:real:<n> or gl:complex:<n>)")


def theta_split(s: CartanStructure, u) -> ThetaSplit:
    """Split u into its -1 (p) and +1 (k) eigencomponents under theta.

    p_part is (u - theta u)/2; k_part is the exact complement u - p_part, so
    the two parts reconstruct u without rounding. For gl(n, R) this is the
    symmetric/skew-symmetric split.
    """
    u = s.check_member(u)
    p = theta_part(s, u, "p")
    return ThetaSplit(p, u - p)


def theta_part(s: CartanStructure, u: np.ndarray, part: str) -> np.ndarray:
    """The theta-part of u: "p" or "k", or "g" for u itself. Slice by slice
    on a stack, and unchecked: u is a plain array. Every split in the
    library goes through here."""
    if part == "g":
        return u
    if part not in ("p", "k"):
        raise ValueError(f"part must be 'p', 'k' or 'g', got {part!r}")
    p = (u - s.theta(u)) / 2.0
    return p if part == "p" else u - p


# the NotPureType text of pure_class and quartic_special
_MIXED = ("vector mixes p and k (component norms {:.3g} / {:.3g}, "
          "allowed {:.3g})")


def pure_class(s: CartanStructure, u):
    """Classify u as purely "p" or purely "k", per row of a stack (a str
    for one matrix).

    The off-class component must have norm <= PURITY_RTOL * ||u|| (with a small
    additive floor so the zero matrix counts as pure). Raises NotPureType for
    genuinely mixed vectors, naming the first such row of a stack.
    """
    classes, norms = _pure_classes(s, s.check_member(u))
    _raise_first(NotPureType, classes == 2, _MIXED, *norms)
    return _per_row(np.array(["p", "k"])[classes])


def _pure_classes(s: CartanStructure, u: np.ndarray) -> tuple:
    """pure_class matrix by matrix on a (..., n, n) stack, unchecked: the
    classes, 0 for p, 1 for k and 2 for mixed, and the norms of the p and
    k parts and their allowance, the values of _MIXED."""
    p = theta_part(s, u, "p")
    np_, nk, nu = _norms(np.array((p, u - p, u)))
    allowed = PURITY_RTOL * nu + 1e-14
    # 0 where u is purely p, else 1 where it is purely k, else 2
    return ~(nk <= allowed) * (2 - (np_ <= allowed)), (np_, nk, allowed)


def random_part(s: CartanStructure, rng: np.random.Generator, part: str,
                shape: tuple[int, ...] = ()) -> np.ndarray:
    """One random_matrix draw of s, or a stack of the leading shape,
    reduced to its theta-part: "p" or "k", or "g" for the whole matrix."""
    return theta_part(s, random_matrix(rng, s.n, s.field, shape), part)


# -- validator ---------------------------------------------------------------


def validate(s: CartanStructure, trials: int = 100,
             seed: int = 42) -> dict[str, float]:
    """Check the machine-checkable axioms of a structure on random samples.

    Covered: theta is an involution and a bracket automorphism, B is symmetric
    and ad-invariant, B_theta is orthonormal on the standard cell basis (the
    frame the oracle reads coordinates off), the p/k split is
    B_theta-orthogonal, and the bracket inclusions [k,k] in k, [p,p] in k,
    [k,p] in p hold. Returns each axiom's worst normalized violation divided
    by its tolerance (AXIOM_TOL; BASIS_TOL for the basis check): the axiom
    holds when its ratio is <= 1. Nothing is raised, except ValueError for
    trials < 2 (the pair axioms need at least one pair of samples).
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    x = random_matrix(np.random.default_rng(seed), s.n, s.field, (trials,))
    # the pairs (x0, x1), (x2, x3), ...: an odd last sample has no partner
    u, v = x[0:trials - 1:2], x[1::2]
    y, z = x[0], x[-1]
    p = theta_part(s, x, "p")

    def norm(a: np.ndarray) -> np.ndarray:
        return np.linalg.norm(a, axis=(-2, -1))

    def inclusion(part_a: str, part_b: str, off_part: str) -> np.ndarray:
        a, b = theta_part(s, u, part_a), theta_part(s, v, part_b)
        off = theta_part(s, bracket(a, b), off_part)
        return norm(off) / (norm(a) * norm(b) + 1e-14)

    basis = np.stack(standard_basis(s))
    gram = s.b_theta_stack(basis[:, None], basis[None])
    # orthonormal is two-sided: a Gram matrix above I fails as one below it
    eig_gap = float(np.abs(np.linalg.eigvalsh((gram + gram.T) / 2.0) - 1.0).max())
    sym_gap = float(np.abs(gram - gram.T).max())

    errors = {
        "theta_involution":
            norm(s.theta(s.theta(x)) - x) / (norm(x) + 1e-14),
        "theta_bracket_automorphism":
            norm(s.theta(bracket(u, v)) - bracket(s.theta(u), s.theta(v)))
            / (norm(u) * norm(v) + 1e-14),
        "bform_symmetry":
            np.abs(_trace_form(u, v) - _trace_form(v, u))
            / (norm(u) * norm(v) + 1e-14),
        "bform_ad_invariance":
            np.abs(_trace_form(bracket(x, y), z) + _trace_form(y, bracket(x, z)))
            / (norm(x) * norm(y) * norm(z) + 1e-14),
        "b_theta_positive_definite_basis": eig_gap + sym_gap,
        "split_orthogonality":
            np.abs(s.b_theta_stack(p, x - p)) / (norm(x) ** 2 + 1e-14),
        "inclusion_kk_in_k": inclusion("k", "k", "p"),
        "inclusion_pp_in_k": inclusion("p", "p", "p"),
        "inclusion_kp_in_p": inclusion("k", "p", "k"),
    }
    tolerance = {"b_theta_positive_definite_basis": BASIS_TOL}
    return {name: float(np.max(err)) / tolerance.get(name, AXIOM_TOL)
            for name, err in errors.items()}

