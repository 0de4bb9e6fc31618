"""Geodesics through the identity and totally-geodesic subgroup checks.

For the Frobenius left-invariant metric on GL(n, R) the geodesic with
gamma(0) = I and gamma'(0) = u is

    gamma(t) = exp(t u^T) exp(t (u - u^T))

and its body velocity gamma(t)^-1 gamma'(t) has the closed form
exp(-t s) u^T exp(t s) + s with s = u - u^T. A generalized variant
exp(-t theta u) exp(t (u + theta u)) is exposed for arbitrary Cartan
structures behind experimental_* names; it reduces to the formula above for
the real structure and is certified only through geodesic_residual, not
presented as established.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import REAL, field_of, matrix_exp
from .cartan import CartanStructure
from .curvature import nabla
from .errors import DimensionMismatch, Overflow, TangentNotInAlgebra, UnknownGroup

# totally_geodesic_check: tangency gate and pass line for the defect sweep
TANGENT_RTOL = 1e-10
DEFECT_RTOL = 1e-9
DEFAULT_STEPS = 64


def _real_tangent(u) -> np.ndarray:
    u = np.asarray(u)
    if field_of(u) != REAL:
        raise DimensionMismatch(
            "the closed-form geodesic is defined on real matrices only")
    return u


def geodesic_point(u, t: float) -> np.ndarray:
    """gamma(t) = exp(t u^T) exp(t (u - u^T)) on the real general linear group."""
    u = _real_tangent(u)
    ut = u.T
    return matrix_exp(t * ut) @ matrix_exp(t * (u - ut))


def geodesic_body_velocity(u, t: float) -> np.ndarray:
    """omega(t) = gamma(t)^-1 gamma'(t) = exp(-ts) u^T exp(ts) + s, s = u - u^T."""
    u = _real_tangent(u)
    return _conjugated_velocity(u.T, u - u.T, t)


def experimental_geodesic_point(s: CartanStructure, u, t: float) -> np.ndarray:
    """Generalized curve exp(-t theta u) exp(t (u + theta u)).

    Coincides with geodesic_point for the real structure. Its geodesic
    property on other structures is certified only numerically (see
    geodesic_residual); treat it as experimental.
    """
    u = s.check_member(u)
    a = -1.0 * s.theta(u)
    return matrix_exp(t * a) @ matrix_exp(t * (u - a))


def experimental_geodesic_body_velocity(s: CartanStructure, u,
                                        t: float) -> np.ndarray:
    """Body velocity of the generalized curve: exp(-t s2) a exp(t s2) + s2
    with a = -theta u and s2 = u + theta u."""
    u = s.check_member(u)
    a = -1.0 * s.theta(u)
    return _conjugated_velocity(a, u - a, t)


def _conjugated_velocity(a: np.ndarray, s2: np.ndarray, t: float) -> np.ndarray:
    e = matrix_exp(t * s2)
    e_inv = matrix_exp(-t * s2)
    return e_inv @ a @ e + s2


def geodesic_residual(s: CartanStructure, u, t: float, h: float = 1e-5) -> float:
    """Geodesic-equation defect ||omega'(t) + nabla(omega(t), omega(t))||.

    omega' is a central finite difference with step h. For a true geodesic
    the residual is at the differencing noise floor (<= 1e-6 for ||u|| <= 2,
    t in [0, 2], h = 1e-5). Raises Overflow when the defect is not finite.
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        w = experimental_geodesic_body_velocity(s, u, t)
        w_plus = experimental_geodesic_body_velocity(s, u, t + h)
        w_minus = experimental_geodesic_body_velocity(s, u, t - h)
        w_dot = (w_plus - w_minus) / (2.0 * h)
        residual = float(np.linalg.norm(w_dot + nabla(s, w, w)))
    if not math.isfinite(residual):
        raise Overflow(f"geodesic residual at t = {t:g} is not finite")
    return residual


@dataclass(frozen=True)
class GeodesicSample:
    """One grid point of a geodesic trace."""

    t: float
    gamma: np.ndarray
    omega: np.ndarray
    residual: float


def geodesic_trace(s: CartanStructure, u, t_max: float = 2.0,
                   steps: int = DEFAULT_STEPS, h: float = 1e-5) -> list[GeodesicSample]:
    """Sample the geodesic on a uniform grid of `steps` points over [0, t_max]."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    out = []
    for t in np.linspace(0.0, t_max, steps):
        t = float(t)
        gamma = experimental_geodesic_point(s, u, t)
        omega = experimental_geodesic_body_velocity(s, u, t)
        out.append(GeodesicSample(t=t, gamma=gamma, omega=omega,
                                  residual=geodesic_residual(s, u, t, h=h)))
    return out


# -- subgroups ----------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupSpec:
    """A closed matrix subgroup described by defect functionals.

    group_defect(g) vanishes exactly on members of the subgroup,
    algebra_defect(u) exactly on its tangent algebra; both are >= 0.
    project sends an arbitrary matrix to the tangent algebra (used to build
    admissible test tangents). All three take array-likes.
    transpose_invariant records whether the subgroup is stable under
    transposition, the hypothesis of the totally-geodesic theorem; UT(n) is
    shipped with the flag false as a negative control.
    """

    name: str
    n: int
    group_defect: Callable[[np.ndarray], float]
    algebra_defect: Callable[[np.ndarray], float]
    transpose_invariant: bool
    project: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class TotallyGeodesicReport:
    subgroup: str
    transpose_invariant: bool
    t_max: float
    steps: int
    max_defect: float
    argmax_t: float
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        return {"subgroup": self.subgroup,
                "transpose_invariant": self.transpose_invariant,
                "t_max": self.t_max, "steps": self.steps,
                "max_defect": self.max_defect, "argmax_t": self.argmax_t,
                "threshold": self.threshold, "passed": self.passed}


def builtin_subgroup(name: str, n: int = 0, p: int = 0, q: int = 0) -> SubgroupSpec:
    """Construct one of the shipped subgroup specs.

    Names (case-insensitive): "so" (special orthogonal), "sl" (unimodular),
    "opq" (indefinite orthogonal, pass p and q), "ut" (upper triangular,
    the non-transpose-invariant control). Raises UnknownGroup otherwise.
    """
    key = name.strip().lower()
    if key == "so":
        _require_size(n)
        return SubgroupSpec(
            name=f"SO({n})", n=n,
            group_defect=lambda g: float(
                np.linalg.norm(np.transpose(g) @ g - np.eye(n))),
            algebra_defect=lambda u: float(np.linalg.norm(u + np.transpose(u))),
            transpose_invariant=True,
            project=lambda r: (r - np.transpose(r)) / 2.0)
    if key == "sl":
        _require_size(n)
        return SubgroupSpec(
            name=f"SL({n})", n=n,
            group_defect=lambda g: abs(float(np.linalg.det(g)) - 1.0),
            algebra_defect=lambda u: abs(float(np.trace(u))),
            transpose_invariant=True,
            project=lambda r: r - (np.trace(r) / n) * np.eye(n))
    if key == "opq":
        if p < 1 or q < 1:
            raise UnknownGroup(f"opq needs p >= 1 and q >= 1, got p={p}, q={q}")
        m = p + q
        eta = np.diag(np.concatenate([np.ones(p), -np.ones(q)]))
        return SubgroupSpec(
            name=f"O({p},{q})", n=m,
            group_defect=lambda g: float(
                np.linalg.norm(np.transpose(g) @ eta @ g - eta)),
            algebra_defect=lambda u: float(
                np.linalg.norm(np.transpose(u) @ eta + eta @ u)),
            transpose_invariant=True,
            project=lambda r: (r - eta @ np.transpose(r) @ eta) / 2.0)
    if key == "ut":
        _require_size(n)

        def below_diag_max(g) -> float:
            strict_lower = np.tril(g, k=-1)
            return float(np.abs(strict_lower).max()) if n > 1 else 0.0

        return SubgroupSpec(
            name=f"UT({n})", n=n,
            group_defect=below_diag_max,
            algebra_defect=below_diag_max,
            transpose_invariant=False,
            project=np.triu)
    raise UnknownGroup(f"unknown subgroup name {name!r} (expected so, sl, opq or ut)")


def _require_size(n: int) -> None:
    if n < 1:
        raise UnknownGroup(f"subgroup size must be >= 1, got {n}")


def subgroup_from_selector(text: str) -> SubgroupSpec:
    """Parse a subgroup selector: "so:<n>", "sl:<n>", "opq:<p>,<q>", "ut:<n>"."""
    parts = text.strip().lower().split(":")
    if len(parts) != 2:
        raise UnknownGroup(f"bad subgroup selector {text!r}")
    key, arg = parts
    if key == "opq":
        pieces = arg.split(",")
        if len(pieces) != 2 or not all(x.strip().isdigit() for x in pieces):
            raise UnknownGroup(f"bad opq selector {text!r} (expected opq:<p>,<q>)")
        return builtin_subgroup("opq", p=int(pieces[0]), q=int(pieces[1]))
    if not arg.isdigit():
        raise UnknownGroup(f"bad subgroup selector {text!r}")
    return builtin_subgroup(key, n=int(arg))


def totally_geodesic_check(spec: SubgroupSpec, u, t_max: float = 2.0,
                           steps: int = DEFAULT_STEPS) -> TotallyGeodesicReport:
    """Track the subgroup defect of the geodesic from a tangent u in the algebra.

    Raises TangentNotInAlgebra when algebra_defect(u) > 1e-10 ||u||. The
    report passes when the largest defect over the t-grid stays at or below
    1e-9 (1 + ||u|| t_max); for a transpose-invariant subgroup the geodesic
    should never leave, while the UT control visibly escapes.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    u = np.asarray(u)
    if u.shape != (spec.n, spec.n):
        shape = "x".join(map(str, u.shape))
        raise DimensionMismatch(
            f"tangent is {shape} but {spec.name} lives in size {spec.n}")
    u_norm = float(np.linalg.norm(u))
    adef = spec.algebra_defect(u)
    if adef > TANGENT_RTOL * u_norm:
        raise TangentNotInAlgebra(
            f"algebra defect {adef:.3g} exceeds {TANGENT_RTOL:g} * ||u|| "
            f"= {TANGENT_RTOL * u_norm:.3g} for {spec.name}")
    max_defect, argmax_t = 0.0, 0.0
    for t in np.linspace(0.0, t_max, steps):
        d = spec.group_defect(geodesic_point(u, float(t)))
        if d > max_defect:
            max_defect, argmax_t = d, float(t)
    threshold = DEFECT_RTOL * (1.0 + u_norm * t_max)
    return TotallyGeodesicReport(
        subgroup=spec.name, transpose_invariant=spec.transpose_invariant,
        t_max=t_max, steps=steps, max_defect=max_defect, argmax_t=argmax_t,
        threshold=threshold, passed=max_defect <= threshold)
