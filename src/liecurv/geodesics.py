"""Geodesics through the identity and totally-geodesic subgroup checks.

For a Cartan structure with involution theta (theta u = -u^T on gl(n, R),
-u^* on gl(n, C)) the geodesic of the left-invariant metric with
gamma(0) = I and gamma'(0) = u is

    gamma(t) = exp(-t theta u) exp(t (u + theta u))

and its body velocity gamma(t)^-1 gamma'(t) has the closed form
exp(-t s) a exp(t s) + s with a = -theta u and s = u - a. On gl(n, R) this
is exp(t u^T) exp(t (u - u^T)). geodesic_residual measures how well the
curve satisfies the geodesic equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import matrix_exp
from .cartan import CartanStructure, gl_real
from .curvature import nabla
from .errors import Overflow, TangentNotInAlgebra, UnknownGroup

# totally_geodesic_check: tangency gate and pass line for the defect sweep
TANGENT_RTOL = 1e-10
DEFECT_RTOL = 1e-9
DEFAULT_STEPS = 64


def geodesic_point(s: CartanStructure, u, t: float) -> np.ndarray:
    """gamma(t) = exp(-t theta u) exp(t (u + theta u))."""
    u = s.check_member(u)
    a = -1.0 * s.theta(u)
    return matrix_exp(t * a) @ matrix_exp(t * (u - a))


def geodesic_body_velocity(s: CartanStructure, u, t: float) -> np.ndarray:
    """omega(t) = gamma(t)^-1 gamma'(t) = exp(-t s2) a exp(t s2) + s2
    with a = -theta u and s2 = u + theta u."""
    u = s.check_member(u)
    a = -1.0 * s.theta(u)
    s2 = u - a
    return matrix_exp(-t * s2) @ a @ matrix_exp(t * s2) + s2


# The benchmark's tracer still lists these names and requires each to
# resolve; they bind the same functions and go once its target list drops them.
experimental_geodesic_point = geodesic_point
experimental_geodesic_body_velocity = geodesic_body_velocity


def geodesic_residual(s: CartanStructure, u, t: float, h: float = 1e-5) -> float:
    """Geodesic-equation defect ||omega'(t) + nabla(omega(t), omega(t))||.

    omega' is a central finite difference with step h. For a true geodesic
    the residual is at the differencing noise floor (<= 1e-6 for ||u|| <= 2,
    t in [0, 2], h = 1e-5). Raises Overflow when the defect is not finite.
    """
    return _residual(s, u, t, h)


def _residual(s: CartanStructure, u, t: float, h: float,
              w: Optional[np.ndarray] = None) -> float:
    """geodesic_residual, reusing omega(t) = w when the caller has it."""
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        if w is None:
            w = geodesic_body_velocity(s, u, t)
        w_plus = geodesic_body_velocity(s, u, t + h)
        w_minus = geodesic_body_velocity(s, u, t - h)
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
        gamma = geodesic_point(s, u, t)
        omega = geodesic_body_velocity(s, u, t)
        out.append(GeodesicSample(t=t, gamma=gamma, omega=omega,
                                  residual=_residual(s, u, t, h, omega)))
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

    Raises DimensionMismatch unless u is a real matrix of the subgroup's
    size, and TangentNotInAlgebra when algebra_defect(u) > 1e-10 ||u||. The
    report passes when the largest defect over the t-grid stays at or below
    1e-9 (1 + ||u|| t_max); for a transpose-invariant subgroup the geodesic
    should never leave, while the UT control visibly escapes.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    s = gl_real(spec.n)
    u = s.check_member(u)
    u_norm = float(np.linalg.norm(u))
    adef = spec.algebra_defect(u)
    if adef > TANGENT_RTOL * u_norm:
        raise TangentNotInAlgebra(
            f"algebra defect {adef:.3g} exceeds {TANGENT_RTOL:g} * ||u|| "
            f"= {TANGENT_RTOL * u_norm:.3g} for {spec.name}")
    max_defect, argmax_t = 0.0, 0.0
    for t in np.linspace(0.0, t_max, steps):
        d = spec.group_defect(geodesic_point(s, u, float(t)))
        if d > max_defect:
            max_defect, argmax_t = d, float(t)
    threshold = DEFECT_RTOL * (1.0 + u_norm * t_max)
    return TotallyGeodesicReport(
        subgroup=spec.name, transpose_invariant=spec.transpose_invariant,
        t_max=t_max, steps=steps, max_defect=max_defect, argmax_t=argmax_t,
        threshold=threshold, passed=max_defect <= threshold)
