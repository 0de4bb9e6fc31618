"""Closed-form connection and curvature for left-invariant metrics.

Everything is generic over a CartanStructure s: the connection is

    nabla(u, v) = 1/2 ([u, v] - [u, theta v] - [v, theta u])

and the quartic form <R(u,v)v, u> has the closed expression

    -2 ||[u1, v1]||^2 + 1/4 ||[u, v]||^2 + 2 <[u1, v1], [u2, v2]>

where u1/u2 are the p/k eigencomponents of u under theta and all inner
products are B_theta. quartic always evaluates this general expression; the
special-case formulas (pure-class pairs, mixed-by-pure pairs, commuting
pairs) live in separate functions so they can be cross-checked against it
rather than replace it.

Every function takes one pair of matrices or two (..., n, n) stacks of one
shape and returns one value per row, each bit-equal to the call on that
row alone. The general expression is evaluated by one kernel, _terms, and
sectional and sections share one evaluator around it (power-of-two
rescaling, finiteness and degeneracy checks, scale-back): sectional raises
for the first degenerate row, where sections returns a mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _per_row, _raise_first, _unit_scale, bracket
from .cartan import _MIXED, CartanStructure, _pure_classes, theta_part
from .errors import DegenerateSection, NotCommuting, NotPureType, Overflow

# A 2-plane is rejected as degenerate when its squared area falls below this
# multiple of ||u||^2 ||v||^2.
DEGENERATE_AREA_RTOL = 1e-12

# quartic_commuting: relative tolerance on the commutator norm
COMMUTING_RTOL = 1e-10

# sample and the sampled suites of verify draw and evaluate at most this
# many rows at a time, which bounds their memory for any --trials
_CHUNK_ROWS = 1024

_NOT_FINITE = "the quartic or the squared area of the plane is not finite"
_DEGENERATE = ("squared area {:.3g} is below " f"{DEGENERATE_AREA_RTOL:g}"
               " * ||u||^2 ||v||^2 = {:.3g} (u scaled by 2^{}, v by 2^{})")


@dataclass(frozen=True)
class SectionReport:
    """Curvature data of the 2-plane spanned by u and v.

    quartic is <R(u,v)v, u>; area_sq is <u,u><v,v> - <u,v>^2; sectional is
    their ratio. term_pp, term_mixed, term_cross are the three summands of
    the general formula and add up to quartic exactly (the implementation
    computes quartic as their sum). Each field is a float for one pair, and
    for stacks an array with one value per row.
    """

    quartic: float
    area_sq: float
    sectional: float
    term_pp: float
    term_mixed: float
    term_cross: float


def nabla(s: CartanStructure, u, v) -> np.ndarray:
    """Covariant derivative of the left-invariant field v along u at the
    identity."""
    u, v = s.check_stacks(u, v)
    return 0.5 * (bracket(u, v) - bracket(u, s.theta(v)) - bracket(v, s.theta(u)))


def _terms(s: CartanStructure, u: np.ndarray, v: np.ndarray) -> tuple:
    """The three summands of the general quartic formula, in order
    (-2||[u1,v1]||^2, 1/4||[u,v]||^2, 2<[u1,v1],[u2,v2]>), on (..., n, n)
    arrays, unchecked."""
    pu, pv = theta_part(s, u, "p"), theta_part(s, v, "p")
    b11 = bracket(pu, pv)
    b22 = bracket(u - pu, v - pv)
    buv = bracket(u, v)
    # 0.0 - x is -x except that a vanishing term stays +0.0, as in b_theta
    return (0.0 - 2.0 * s.b_theta_stack(b11, b11),
            0.25 * s.b_theta_stack(buv, buv),
            2.0 * s.b_theta_stack(b11, b22))


def _gram(s: CartanStructure, u: np.ndarray, v: np.ndarray) -> tuple:
    """<u,u>, <v,v>, <u,v> slice by slice on (..., n, n) arrays, unchecked."""
    return s.b_theta_stack(u, u), s.b_theta_stack(v, v), s.b_theta_stack(u, v)


def quartic(s: CartanStructure, u, v):
    """<R(u,v)v, u> by the general closed formula."""
    t1, t2, t3 = _terms(s, *s.check_stacks(u, v))
    return _per_row(t1 + t2 + t3)


def sectional(s: CartanStructure, u, v) -> SectionReport:
    """Sectional curvature of span{u, v} with the full term breakdown.

    Computed on u and v rescaled by powers of two to a largest entry in
    [1/2, 1), so the sectional value and the degeneracy test do not depend
    on the scale of the inputs; the other fields are scaled back exactly and
    may underflow. Raises Overflow when one leaves the floating-point range,
    and DegenerateSection when the squared area is at or below
    DEGENERATE_AREA_RTOL * ||u||^2 ||v||^2 (nearly dependent inputs), for
    the first row of a stack that fails either way.
    """
    fields, degenerate, overflow, why = _section(s, *s.check_stacks(u, v))
    failed = degenerate | overflow
    if np.count_nonzero(failed):
        # the first row that fails names the error, Overflow if not finite
        first = np.arange(failed.size).reshape(failed.shape) == np.argmax(failed)
        _raise_first(Overflow, first & overflow, _NOT_FINITE)
        area_sq, floor, eu, ev = why
        _raise_first(DegenerateSection, first, _DEGENERATE, area_sq, floor,
                     -eu, -ev)
    return SectionReport(*map(_per_row, fields))


def sections(s: CartanStructure, u, v) -> tuple[SectionReport, np.ndarray]:
    """sectional row by row, with a mask of the degenerate rows in place
    of DegenerateSection: a SectionReport of arrays and the mask.

    Where sectional(s, u[i], v[i]) returns, row i holds its six values;
    where it raises DegenerateSection, row i is masked, and only its
    sectional value means nothing: quartic, area_sq and the three terms
    are exact at unit scale and scaled back (so quartic is bit-equal to
    quartic(s, u[i], v[i]) where no intermediate leaves the normal range,
    and may be inf on a masked row, which is not checked for overflow).
    Raises Overflow for a row on which sectional does.
    """
    fields, degenerate, overflow, _ = _section(s, *s.check_stacks(u, v))
    _raise_first(Overflow, overflow, _NOT_FINITE)
    return SectionReport(*fields), degenerate


def _section(s: CartanStructure, u: np.ndarray, v: np.ndarray) -> tuple:
    """sectional on (..., n, n) arrays, unchecked.

    Returns the six SectionReport fields, the degenerate mask, the mask of
    the rows whose values at unit scale are not finite or, unless
    degenerate, do not stay finite once scaled back, and for the
    DegenerateSection text the squared area at unit scale, the floor it is
    tested against and the exponents of u and v.
    """
    # with entries below 1 in modulus nothing overflows, so only a
    # non-finite input makes a value at unit scale non-finite
    u, eu = _unit_scale(u)
    v, ev = _unit_scale(v)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t1, t2, t3 = _terms(s, u, v)
        uu, vv, uv = _gram(s, u, v)
        area_sq = uu * vv - uv * uv
        floor = DEGENERATE_AREA_RTOL * uu * vv
        degenerate = area_sq <= floor
        # quartic, area_sq and the three terms have degree 2 in u and in v
        unit = np.array([t1 + t2 + t3, area_sq, t1, t2, t3])
        scaled = np.ldexp(unit, 2 * (eu + ev))
        fields = (*scaled[:2], unit[0] / area_sq, *scaled[2:])
    # the sectional value of a plane that is not degenerate is finite with
    # the rest
    ok = np.isfinite(unit).all(axis=0)
    ok &= degenerate | np.isfinite(scaled).all(axis=0)
    return fields, degenerate, ~ok, (area_sq, floor, eu, ev)


# quartic_special's tag of a pair by 2 * class of u + class of v, with the
# classes of _pure_classes: 0 for p, 1 for k, 2 for a mixed u
_TAGS = np.array(["p_p", "p_k", "k_p", "k_k", "g_p", "g_k"])


def quartic_special(s: CartanStructure, u, v):
    """Special-case value of the quartic form and its tag, dispatched on
    purity: an array of values and one of tags (a float and a str for one
    pair).

    v must be purely p or purely k (NotPureType otherwise, naming the first
    such row of a stack). When u is also pure the four pure cases fire
    (tags p_p, k_k, p_k, k_p); for mixed u the tag is g_p or g_k. The
    returned value agrees with quartic(s, u, v); this function exists as a
    cross-check, not a fast path.
    """
    u, v = s.check_stacks(u, v)
    # v and u take one purity test, as two rows of one stack
    (cv, cu), norms = _pure_classes(s, np.array((v, u)))
    _raise_first(NotPureType, cv == 2, _MIXED, *(x[0] for x in norms))

    def nsq(x: np.ndarray) -> np.ndarray:
        return s.b_theta_stack(x, x)

    g_p = (cu == 2) & (cv == 0)
    count = np.count_nonzero(g_p)
    value = np.zeros(g_p.shape)
    if count < g_p.size:
        # k_k, p_k, k_p and g_k all carry the coefficient +1/4
        b = nsq(bracket(u, v))
        value = np.where((cu == 0) & (cv == 0), 0.0 - 1.75 * b, 0.25 * b)
    if count:
        pu = theta_part(s, u, "p")
        value = np.where(g_p, (-1.75 * nsq(bracket(pu, v))
                               + 0.25 * nsq(bracket(u - pu, v))), value)
    return _per_row(value), _per_row(_TAGS[2 * cu + cv])


def quartic_commuting(s: CartanStructure, u, v):
    """Quartic form for a commuting pair: -4 ||[u1, v1]||^2.

    Raises NotCommuting, naming the first such row of a stack, when
    ||[u, v]|| > COMMUTING_RTOL * (||u|| ||v|| + 1). The value agrees with
    quartic(s, u, v) whenever the precondition holds.
    """
    u, v = s.check_stacks(u, v)
    bn, nu, nv = (np.sqrt(np.maximum(s.b_theta_stack(x, x), 0.0))
                  for x in (bracket(u, v), u, v))
    allowed = COMMUTING_RTOL * (nu * nv + 1.0)
    _raise_first(NotCommuting, bn > allowed,
                 "||[u, v]|| = {:.3g} exceeds {:.3g}; pair does not commute",
                 bn, allowed)
    b11 = bracket(theta_part(s, u, "p"), theta_part(s, v, "p"))
    q = 0.0 - 4.0 * s.b_theta_stack(b11, b11)
    return _per_row(q)


def bracket_norm_identity_gap(s: CartanStructure, u, v):
    """LHS - RHS of the commutator-norm decomposition

        ||[u,v]||^2 = ||[u,v1]||^2 + ||[u,v2]||^2 - 2 <[v1,v2], [u1,u2]>

    (a diagnostic; the gap should vanish to rounding on any inputs)."""
    u, v = s.check_stacks(u, v)
    u1, v1 = theta_part(s, u, "p"), theta_part(s, v, "p")
    u2, v2 = u - u1, v - v1
    buv, buv1, buv2 = bracket(u, v), bracket(u, v1), bracket(u, v2)
    b = s.b_theta_stack
    gap = (b(buv, buv) - (b(buv1, buv1) + b(buv2, buv2)
                          - 2.0 * b(bracket(v1, v2), bracket(u1, u2))))
    return _per_row(gap)
