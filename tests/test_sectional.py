"""sectional against its former one-pair form.

sectional is the one-pair case of the evaluator that sections runs on
stacks. The reference below is the scalar path it replaced: Python floats,
a finiteness check, the degeneracy test, then math.ldexp to scale back.
Both must give the same six values bit for bit, and the same error type
and text, on every pair of the corpus.
"""

import dataclasses
import math

import numpy as np
import pytest

from liecurv import (COMPLEX, REAL, CartanStructure, DegenerateSection,
                     Overflow, SectionReport, random_matrix, sectional)
from liecurv.curvature import (_NOT_FINITE, DEGENERATE_AREA_RTOL, _gram,
                               _terms)


def _reference_unit_scale(u):
    _, e = math.frexp(max(map(abs, u.ravel().tolist()), default=0.0))
    e = max(e, -1021)
    return (u, e) if e == 0 else (u * math.ldexp(1.0, -e), e)


def _reference_sectional(s, u, v):
    u, eu = _reference_unit_scale(s.check_member(u))
    v, ev = _reference_unit_scale(s.check_member(v))
    t1, t2, t3 = map(float, _terms(s, u, v))
    q = t1 + t2 + t3
    uu, vv, uv = map(float, _gram(s, u, v))
    area_sq = uu * vv - uv * uv
    if not all(map(math.isfinite, (t1, t2, t3, q, area_sq))):
        raise Overflow(_NOT_FINITE)
    if area_sq <= DEGENERATE_AREA_RTOL * uu * vv:
        raise DegenerateSection(
            f"squared area {area_sq:.3g} is below {DEGENERATE_AREA_RTOL:g} * "
            f"||u||^2 ||v||^2 = {DEGENERATE_AREA_RTOL * uu * vv:.3g} "
            f"(u scaled by 2^{-eu}, v by 2^{-ev})")
    k = 2 * (eu + ev)
    try:
        return SectionReport(
            quartic=math.ldexp(q, k), area_sq=math.ldexp(area_sq, k),
            sectional=q / area_sq, term_pp=math.ldexp(t1, k),
            term_mixed=math.ldexp(t2, k), term_cross=math.ldexp(t3, k))
    except OverflowError:
        raise Overflow(_NOT_FINITE) from None


# The kind of a pair: "free" for two independent draws; "zero" for u = 0;
# "subnormal" for u at 2^-1060, below the floor of the rescaling; a number
# eps for v = u + eps * w, dependent at eps 0 and straddling the degeneracy
# threshold near 1e-6; "double" for v = 2u; "huge" for entries near 1e300,
# where an independent plane overflows and a nearly dependent one (eps 1e-7)
# is degenerate with fields that overflow; "inf" and "nan" for a
# non-finite entry of u or v
KINDS = ("free", "zero", "subnormal", 0.0, 1e-7, 1e-6, 1e-5, "double",
         "huge", "inf", "nan")


def corpus(n, field, count):
    """count seeded pairs of the kinds above, each kind with its own
    power-of-two scales of u and v in 2^-400 .. 2^200 (none for "huge")."""
    rng = np.random.default_rng([n, field == COMPLEX])
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        u, w = random_matrix(rng, n, field, (2,))
        v = w
        k, j = map(int, rng.integers(-400, 201, 2))
        if kind == "zero":
            u = 0.0 * u
        elif kind == "subnormal":
            k = -1060
        elif kind == "double":
            v = 2.0 * u
        elif kind == "huge":
            v = u + 1e-7 * w if rng.integers(2) else v
            u, v, k, j = 1e300 * u, 1e300 * v, 0, 0
        elif kind in ("inf", "nan"):
            bad = u if rng.integers(2) else v
            bad[divmod(int(rng.integers(n * n)), n)] = float(kind)
        elif kind != "free":
            v = u + kind * w
        yield u * math.ldexp(1.0, k), v * math.ldexp(1.0, j)


def outcome(fn, s, u, v):
    """("value", the six fields by float.hex), or the error type and text."""
    try:
        report = fn(s, u, v)
    except (Overflow, DegenerateSection) as exc:
        return type(exc).__name__, str(exc)
    return "value", tuple(x.hex() for x in dataclasses.astuple(report))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n", range(1, 10))
def test_sectional_matches_the_scalar_path(n, field):
    # n = 9 crosses numpy's 8-element summation block
    s = CartanStructure(n, field)
    kinds = set()
    with np.errstate(all="ignore"):
        for u, v in corpus(n, field, 110):
            want = outcome(_reference_sectional, s, u, v)
            assert outcome(sectional, s, u, v) == want
            kinds.add(want[0])
    # every corpus reaches each outcome; on the line gl(1, R) every plane
    # is degenerate
    assert kinds == {"Overflow", "DegenerateSection"} | (
        {"value"} if s.real_dim > 1 else set())
