"""Geodesics through the identity and totally-geodesic subgroup checks.

For a Cartan structure with involution theta (theta u = -u^T on gl(n, R),
-u^* on gl(n, C)) the geodesic of the left-invariant metric with
gamma(0) = I and gamma'(0) = u is

    gamma(t) = exp(-t theta u) exp(t (u + theta u))

and its body velocity gamma(t)^-1 gamma'(t) has the closed form
exp(-t s) a exp(t s) + s with a = -theta u and s = u - a. On gl(n, R) this
is exp(t u^T) exp(t (u - u^T)). geodesic_residual measures how well the
curve satisfies the geodesic equation.

Every function but totally_geodesic_check, which reports one curve,
takes a tangent u that is one matrix or a (..., n, n) stack of them.
geodesic_point, geodesic_body_velocity and geodesic_residual take t as a
float or as a 1-D array of T times, which adds a time axis after the
tangent's: (..., T, n, n) matrices, (..., T) residuals; geodesic_trace
takes a grid of T times. Each call takes all its exponentials from one
stack (and totally_geodesic_check one per chunk of its grid), with the
factors of each time next to each other in the order a sweep in t meets
them, in chunks of at most _EXP_CHUNK matrices: every row and time is
bit-equal to the one-tangent call at its own t, and an Overflow names
the first exponential of that sweep that overflows, for a stack of
tangents with its row and t. A value that is not finite although its
exponentials are raises Overflow too, naming its t, and for a stack its
row as "row i: " (the flat index of the tangent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import curvature
from .algebra import (_EXP_OVERFLOW, _big_norms, _exp, _norms, _per_row,
                      _raise_first)
from .cartan import CartanStructure, gl_real
from .curvature import nabla
from .errors import DimensionMismatch, Overflow, TangentNotInAlgebra, UnknownGroup

# totally_geodesic_check: tangency gate and pass line for the defect sweep
TANGENT_RTOL = 1e-10
DEFECT_RTOL = 1e-9
DEFAULT_STEPS = 64
# central-difference step of the geodesic residual
FD_STEP = 1e-5
# most matrices exponentiated at once
_EXP_CHUNK = 1024


Times = float | np.ndarray


def geodesic_point(s: CartanStructure, u, t: Times) -> np.ndarray:
    """gamma(t) = exp(-t theta u) exp(t (u + theta u)). Raises Overflow
    where gamma is not finite."""
    times = np.asarray(t, dtype=float)
    gamma = _point(s, u, times)
    _raise_at_t(np.isfinite(gamma).all(axis=(-2, -1)), times, "geodesic point")
    return gamma


def _point(s: CartanStructure, u, t: Times) -> np.ndarray:
    """geodesic_point without the check that gamma is finite."""
    times = np.asarray(t, dtype=float)
    t, a, s2 = _factors(s, u, times)
    e_a, e_s2 = _exps(times, t * a, t * s2)
    with np.errstate(over="ignore", invalid="ignore"):
        return e_a @ e_s2


def geodesic_body_velocity(s: CartanStructure, u, t: Times) -> np.ndarray:
    """omega(t) = gamma(t)^-1 gamma'(t) = exp(-t s2) a exp(t s2) + s2
    with a = -theta u and s2 = u + theta u. Raises Overflow where omega is
    not finite."""
    times = np.asarray(t, dtype=float)
    t, a, s2 = _factors(s, u, times)
    e_plus, e_minus = _exps(times, t * s2, -t * s2)
    with np.errstate(over="ignore", invalid="ignore"):
        omega = e_minus @ a @ e_plus + s2
    _raise_at_t(np.isfinite(omega).all(axis=(-2, -1)), times,
                "geodesic body velocity")
    return omega


def _factors(s: CartanStructure, u, t: Times) -> tuple:
    """(t, a, s2) of the closed forms, with a = -theta u and
    s2 = u - a = u + theta u for a tangent or a (..., n, n) stack: t as a
    float, or a 1-D array of T times as a (T, 1, 1) column that scales one
    matrix per time, and then a and s2 get a time axis, (..., 1, n, n)."""
    u, t = s.check_member(u), np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise DimensionMismatch(
            f"t must be a float or a 1-D array, got shape {t.shape}")
    a = -1.0 * s.theta(u)
    s2 = u - a
    if t.ndim:
        return t.reshape(-1, 1, 1), a[..., None, :, :], s2[..., None, :, :]
    return float(t), a, s2


def _raise_at_t(finite: np.ndarray, times: np.ndarray, what: str) -> None:
    """Overflow naming the first value that is not finite, in C order, of
    a (..., T) mask over rows and times (a (...) mask for one time): the
    first row that holds one, by _raise_first, and that row's first t."""
    if not finite.all():
        finite = finite if times.ndim else finite[..., None]
        _raise_first(Overflow, ~finite.all(axis=-1),
                     what + " at t = {:g} is not finite",
                     times.ravel()[np.argmin(finite, axis=-1)])


def _exps(times: np.ndarray, *factors: np.ndarray) -> list[np.ndarray]:
    """The exponentials of equally shaped factors at times, from one stack.

    The factors of each time sit next to each other in the stack, in the
    order given, so its C order is the order in which a sweep in t meets
    them, and the Overflow names the first failure of that sweep: for one
    tangent in the text of matrix_exp, for a stack of tangents as
    "row i: ... at t = ...". The stack is exponentiated in C order in
    chunks of at most _EXP_CHUNK matrices, which bounds the memory of its
    intermediates for a stack of tangents; a slice is bit-equal in any
    chunk, and an earlier chunk holds no failure.
    """
    x = np.stack(factors, axis=-3)
    flat = x.reshape(-1, *x.shape[-2:])
    e = np.empty_like(flat)
    for start in range(0, len(flat), _EXP_CHUNK):
        e[start:start + _EXP_CHUNK], finite = _exp(flat[start:start + _EXP_CHUNK])
        if not finite.all():
            j = start + int(np.argmin(finite))
            text = _EXP_OVERFLOW.format(_big_norms(flat[j]))
            row, k = divmod(j // len(factors), times.size)
            raise Overflow(text if x.ndim - 3 == times.ndim else
                           f"row {row}: {text} at t = {times.ravel()[k]:g}")
    return list(np.moveaxis(e.reshape(x.shape), -3, 0))


# The benchmark's tracer still lists these names and requires each to
# resolve; they bind the same functions and go once its target list drops them.
experimental_geodesic_point = geodesic_point
experimental_geodesic_body_velocity = geodesic_body_velocity


def geodesic_residual(s: CartanStructure, u, t: Times) -> float | np.ndarray:
    """Geodesic-equation defect ||omega'(t) + nabla(omega(t), omega(t))||.

    omega' is a central finite difference with step FD_STEP. For a true
    geodesic the residual is at the differencing noise floor (<= 1e-6 for
    ||u|| <= 2, t in [0, 2]). Raises Overflow when an exponential of the
    grid overflows, or else when a defect is not finite, naming the first
    such t (and row of a stack).
    """
    return _sweep(s, u, t, with_point=False)[2]


def _sweep(s: CartanStructure, u, t: Times, with_point: bool) -> tuple:
    """(gamma or None, omega, residual) at t, from one stack of exponentials:
    per time exp(t a) when with_point, then exp(+-t s2), exp(-+(t + h) s2)
    and exp(-+(t - h) s2), in the order a sweep in t meets them."""
    times = np.asarray(t, dtype=float)
    t, a, s2 = _factors(s, u, times)
    t_plus, t_minus = t + FD_STEP, t - FD_STEP
    with np.errstate(over="ignore", invalid="ignore"):
        *e_a, e, e_inv, e_plus_inv, e_plus, e_minus_inv, e_minus = _exps(
            times, *([t * a] if with_point else []), t * s2, -t * s2,
            -t_plus * s2, t_plus * s2, -t_minus * s2, t_minus * s2)
        gamma = e_a[0] @ e if with_point else None
        w = e_inv @ a @ e + s2
        w_dot = ((e_plus_inv @ a @ e_plus + s2)
                 - (e_minus_inv @ a @ e_minus + s2)) / (2.0 * FD_STEP)
        residual = _norms(w_dot + nabla(s, w, w))
    _raise_at_t(np.isfinite(residual), times, "geodesic residual")
    if with_point:
        _raise_at_t(np.isfinite(gamma).all(axis=(-2, -1)), times, "geodesic point")
    return gamma, w, _per_row(residual)


def _check_grid(t_max: float, steps: int) -> None:
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")


@dataclass(frozen=True)
class GeodesicSample:
    """A geodesic trace on its grid of T times: t of shape (T,), and for a
    tangent of shape (..., n, n) residual of shape (..., T), gamma and
    omega of shape (..., T, n, n)."""

    t: np.ndarray
    gamma: np.ndarray
    omega: np.ndarray
    residual: np.ndarray


def geodesic_trace(s: CartanStructure, u, t_max: float = 2.0,
                   steps: int = DEFAULT_STEPS) -> GeodesicSample:
    """Sample the geodesic from a tangent u, or from each of a stack, on a
    uniform grid of `steps` points over [0, t_max] (ValueError for
    steps < 2 or a non-finite t_max). Overflow as for geodesic_residual,
    or else where gamma is not finite."""
    _check_grid(t_max, steps)
    ts = np.linspace(0.0, t_max, steps)
    gamma, omega, residual = _sweep(s, u, ts, with_point=True)
    return GeodesicSample(t=ts, gamma=gamma, omega=omega, residual=residual)


# -- subgroups ----------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupSpec:
    """A closed matrix subgroup described by defect functionals.

    group_defect(g) vanishes exactly on members of the subgroup,
    algebra_defect(u) exactly on its tangent algebra; both are >= 0.
    project sends an arbitrary matrix to the tangent algebra (used to build
    admissible test tangents). All three take a (..., n, n) stack and work
    slice by slice: the defects return one value per slice (0-d for one
    matrix), each equal to the call on its own slice.
    transpose_invariant records whether the subgroup is stable under
    transposition, the hypothesis of the totally-geodesic theorem; UT(n) is
    shipped with the flag false as a negative control.
    """

    name: str
    n: int
    group_defect: Callable[[np.ndarray], np.ndarray]
    algebra_defect: Callable[[np.ndarray], np.ndarray]
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


def subgroup_from_selector(text: str) -> SubgroupSpec:
    """Build a shipped subgroup from its case-insensitive selector: "so:<n>",
    "sl:<n>", "opq:<p>,<q>" (indefinite orthogonal) or "ut:<n>" (upper
    triangular, the non-transpose-invariant control), sizes >= 1. Raises
    UnknownGroup otherwise."""
    key, _, arg = text.strip().lower().partition(":")
    if key not in ("so", "sl", "opq", "ut"):
        raise UnknownGroup(
            f"unknown subgroup name {key!r} (expected so, sl, opq or ut)")
    sizes = arg.split(",")
    if (len(sizes) != (2 if key == "opq" else 1)
            or not all(x.strip().isdecimal() and int(x) >= 1 for x in sizes)):
        raise UnknownGroup(
            f"bad subgroup selector {text!r} (expected so:<n>, sl:<n>, "
            f"opq:<p>,<q> or ut:<n> with sizes >= 1)")
    n = sum(map(int, sizes))
    if key in ("so", "opq"):
        # O(p, q) preserves eta = diag(I_p, -I_q); so:<n> is q = 0, eta = I
        p = int(sizes[0])
        eta = np.diag(np.concatenate([np.ones(p), -np.ones(n - p)]))
        return SubgroupSpec(
            name=f"SO({n})" if key == "so" else f"O({p},{n - p})", n=n,
            group_defect=lambda g: np.linalg.norm(
                np.swapaxes(g, -1, -2) @ eta @ g - eta, axis=(-2, -1)),
            algebra_defect=lambda u: np.linalg.norm(
                np.swapaxes(u, -1, -2) @ eta + eta @ u, axis=(-2, -1)),
            transpose_invariant=True,
            project=lambda r: (r - eta @ np.swapaxes(r, -1, -2) @ eta) / 2.0)
    if key == "sl":
        trace = lambda a: np.trace(a, axis1=-2, axis2=-1)
        return SubgroupSpec(
            name=f"SL({n})", n=n,
            group_defect=lambda g: np.abs(np.linalg.det(g) - 1.0),
            algebra_defect=lambda u: np.abs(trace(u)),
            transpose_invariant=True,
            project=lambda r: r - (trace(r)[..., None, None] / n) * np.eye(n))
    below_diag_max = lambda g: np.abs(np.tril(g, k=-1)).max(axis=(-2, -1))
    return SubgroupSpec(
        name=f"UT({n})", n=n,
        group_defect=below_diag_max,
        algebra_defect=below_diag_max,
        transpose_invariant=False,
        project=np.triu)


def totally_geodesic_check(spec: SubgroupSpec, u, t_max: float = 2.0,
                           steps: int = DEFAULT_STEPS) -> TotallyGeodesicReport:
    """Track the subgroup defect of the geodesic from a tangent u in the algebra.

    Raises DimensionMismatch unless u is a real matrix of the subgroup's
    size, TangentNotInAlgebra when algebra_defect(u) > 1e-10 ||u||,
    ValueError for steps < 2 or a non-finite t_max, and Overflow naming the
    first exponential of the sweep that overflows, or else the first t
    where the defect is not finite (so a report holds finite numbers
    only). The report passes when the largest defect over the t-grid stays
    at or below 1e-9 (1 + ||u|| |t_max|); for a transpose-invariant subgroup
    the geodesic should never leave, while the UT control visibly escapes.
    """
    _check_grid(t_max, steps)
    s = gl_real(spec.n)
    u = s.check_member(u)
    if u.ndim != 2:
        raise DimensionMismatch(
            f"totally_geodesic_check takes one tangent, got shape {u.shape}")
    # norms and defects of a huge tangent or gamma overflow to inf quietly,
    # as the stacks do: the sweep reports them as an Overflow
    with np.errstate(over="ignore", invalid="ignore"):
        u_norm = float(np.linalg.norm(u))
        adef = spec.algebra_defect(u)
        if adef > TANGENT_RTOL * u_norm:
            raise TangentNotInAlgebra(
                f"algebra defect {adef:.3g} exceeds {TANGENT_RTOL:g} * ||u|| "
                f"= {TANGENT_RTOL * u_norm:.3g} for {spec.name}")
        ts = np.linspace(0.0, t_max, steps)
        max_defect, argmax_t, not_finite = 0.0, 0.0, None
        # the grid goes in chunks of at most _CHUNK_ROWS times, one stack of
        # exponentials and one group_defect call each, which bounds the
        # memory for any steps; an exponential Overflow names the first
        # failure of a sweep in t, since the earlier chunks have passed
        for start in range(0, steps, curvature._CHUNK_ROWS):
            chunk = ts[start:start + curvature._CHUNK_ROWS]
            d = spec.group_defect(_point(s, u, chunk))
            finite = np.isfinite(d)
            if not_finite is None and not finite.all():
                not_finite = chunk[np.argmin(finite)]
            # the first t of the largest defect, as a sweep in t finds it
            k = np.argmax(d)
            if d[k] > max_defect:
                max_defect, argmax_t = float(d[k]), float(chunk[k])
    # as in geodesic_trace, an exponential that overflows anywhere on the
    # grid comes first, whatever the chunk size
    if not_finite is not None:
        raise Overflow(f"subgroup defect at t = {not_finite:g} is not finite")
    threshold = DEFECT_RTOL * (1.0 + u_norm * abs(t_max))
    return TotallyGeodesicReport(
        subgroup=spec.name, transpose_invariant=spec.transpose_invariant,
        t_max=t_max, steps=steps, max_defect=max_defect, argmax_t=argmax_t,
        threshold=threshold, passed=max_defect <= threshold)
