"""The geodesic layer against its former point-by-point walk.

Each geodesic function takes its exponentials from one stack. The
reference below is the walk the library once ran whenever a stack
overflowed: one time at a time, each exponential its own matrix_exp call,
in the order a sweep in t meets them. Both must give the same values bit
for bit, and the same error type and text, on every tangent of a seeded
edge corpus, with one rule the walk did not have: an exponential that
overflows anywhere on the grid is reported before a residual that is not
finite.
"""

import math

import numpy as np
import pytest

from liecurv import (COMPLEX, REAL, CartanStructure, Overflow,
                     TotallyGeodesicReport, geodesic_residual, geodesic_trace,
                     gl_real, matrix_exp, nabla, random_matrix,
                     subgroup_from_selector, totally_geodesic_check)
from liecurv import curvature
from liecurv.geodesics import DEFECT_RTOL, FD_STEP, TANGENT_RTOL



def quiet():
    return np.errstate(over="ignore", invalid="ignore")


def _factors(s, u):
    u = s.check_member(u)
    a = -1.0 * s.theta(u)
    return a, u - a


def _reference_point(s, u, t):
    a, s2 = _factors(s, u)
    return matrix_exp(t * a) @ matrix_exp(t * s2)


def _reference_velocity(s, u, t):
    a, s2 = _factors(s, u)
    return matrix_exp(-t * s2) @ a @ matrix_exp(t * s2) + s2


def _reference_residual(s, u, t, w):
    """The defect at t, or None where it is not finite."""
    w_dot = (_reference_velocity(s, u, t + FD_STEP)
             - _reference_velocity(s, u, t - FD_STEP)) / (2.0 * FD_STEP)
    residual = float(np.linalg.norm(w_dot + nabla(s, w, w)))
    return residual if math.isfinite(residual) else None


def _walk(s, u, ts, with_point, stop_at_residual):
    """[(t, gamma, omega, residual)] over ts, point by point; gamma is None
    without with_point. An exponential that overflows raises at once. A
    residual that is not finite raises at once when stop_at_residual, as
    the library's walk did; otherwise the walk goes on and raises it only
    when no exponential of the grid overflows (the rule of the one stack),
    and after it, the first gamma that is not finite."""
    samples, late, late_point = [], None, None
    with quiet():
        for t in map(float, ts):
            gamma = _reference_point(s, u, t) if with_point else None
            omega = _reference_velocity(s, u, t)
            residual = _reference_residual(s, u, t, omega)
            if residual is None:
                error = Overflow(f"geodesic residual at t = {t:g} is not finite")
                if stop_at_residual:
                    raise error
                late = late or error
            if with_point and not np.isfinite(gamma).all():
                late_point = late_point or Overflow(
                    f"geodesic point at t = {t:g} is not finite")
            samples.append((t, gamma, omega, residual))
    if late is not None or late_point is not None:
        raise late or late_point
    return samples


def _reference_check(spec, u, t_max, steps):
    s = gl_real(spec.n)
    u = s.check_member(u)
    with quiet():
        u_norm = float(np.linalg.norm(u))
        assert spec.algebra_defect(u) <= TANGENT_RTOL * u_norm
        max_defect, argmax_t = 0.0, 0.0
        for t in map(float, np.linspace(0.0, t_max, steps)):
            d = spec.group_defect(_reference_point(s, u, t))
            if d > max_defect:
                max_defect, argmax_t = d, t
    threshold = DEFECT_RTOL * (1.0 + u_norm * t_max)
    return TotallyGeodesicReport(
        subgroup=spec.name, transpose_invariant=spec.transpose_invariant,
        t_max=t_max, steps=steps, max_defect=max_defect, argmax_t=argmax_t,
        threshold=threshold, passed=max_defect <= threshold)


def _outcome(f, *args):
    """f's value, or the type and text of the exception it raises."""
    try:
        return f(*args)
    except Overflow as e:
        return type(e), str(e)


def _same(x, y):
    if type(x) is not type(y):
        return False
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    if isinstance(x, (list, tuple)) and isinstance(y, (list, tuple)):
        return len(x) == len(y) and all(map(_same, x, y))
    return x == y


STRUCTURES = [CartanStructure(2, REAL), CartanStructure(3, REAL),
              CartanStructure(2, COMPLEX)]
SCALES = (1.0, 1e2, 1e20, 1e100, 1e150, 1e200, 1e307)
GRID = np.linspace(0.0, 2.0, 9)


def _tangents(s, seed):
    """A random tangent, and ones with a huge Hermitian and a huge
    anti-Hermitian part, at each scale."""
    base = random_matrix(np.random.default_rng(seed), s.n, s.field)
    herm, anti = base + base.conj().T, base - base.conj().T
    for c in SCALES:
        yield c * base
        yield c * herm + base
        yield c * anti + base


CORPUS = [(s, u) for k, s in enumerate(STRUCTURES)
          for u in _tangents(s, 61 + k)]
IDS = [f"{s.name}-{k}" for k, (s, _) in enumerate(CORPUS)]


def _trace_rows(s, u):
    """The trace's arrays as the walk's rows; they must have its shapes."""
    x = geodesic_trace(s, u, t_max=2.0, steps=len(GRID))
    assert x.t.shape == x.residual.shape == GRID.shape
    assert x.gamma.shape == x.omega.shape == (len(GRID), s.n, s.n)
    return list(zip(x.t.tolist(), x.gamma, x.omega, x.residual.tolist()))


def test_the_corpus_reaches_every_outcome():
    outcomes = [_outcome(_walk, s, u, GRID, True, True) for s, u in CORPUS]
    errors = [o[1] for o in outcomes if isinstance(o, tuple)]
    assert any(e.startswith("exponential overflowed") for e in errors)
    assert any(e.startswith("geodesic residual") for e in errors)
    assert len(outcomes) - len(errors) >= 10


@pytest.mark.parametrize("s, u", CORPUS, ids=IDS)
def test_a_trace_is_the_walk_of_its_grid(s, u):
    with quiet():
        expected = _outcome(_walk, s, u, GRID, True, False)
        assert _same(_outcome(_trace_rows, s, u), expected)


@pytest.mark.parametrize("s, u", CORPUS, ids=IDS)
def test_a_residual_is_the_walk_at_its_times(s, u):
    with quiet():
        walked = _outcome(_walk, s, u, GRID, False, False)
        expected = (walked if isinstance(walked, tuple)
                    else np.array([r for *_, r in walked]))
        assert _same(_outcome(geodesic_residual, s, u, GRID), expected)
        for t in (0.0, 1.25):
            walked = _outcome(_walk, s, u, [t], False, False)
            expected = walked if isinstance(walked, tuple) else walked[0][3]
            assert _same(_outcome(geodesic_residual, s, u, t), expected)


def test_an_overflow_anywhere_on_the_grid_comes_before_a_residual():
    # omega stays at 1e200 I, so the residual is not finite from t = 0 on,
    # where the walk stopped; the factor exp(t a) of gamma overflows later
    s, u = gl_real(2), 1e200 * np.eye(2)
    with pytest.raises(Overflow, match=r"^geodesic residual at t = 0 is"):
        _walk(s, u, GRID, True, True)
    with pytest.raises(Overflow, match=r"^exponential overflowed .* norm 3\.54e\+199$"):
        geodesic_trace(s, u, t_max=2.0, steps=len(GRID))
    # the residual alone takes no exp(t a), so the residual error stands
    with pytest.raises(Overflow, match=r"^geodesic residual at t = 0 is"):
        geodesic_residual(s, u, GRID)
    # in the corpus the rule moves some errors and no value
    moved = [(s, u) for s, u in CORPUS
             if not _same(_outcome(_walk, s, u, GRID, True, True),
                          _outcome(_walk, s, u, GRID, True, False))]
    assert moved
    for s, u in moved:
        assert "residual" in _outcome(_walk, s, u, GRID, True, True)[1]
        assert "exponential" in _outcome(_trace_rows, s, u)[1]


SUBGROUPS = ("so:3", "sl:2", "opq:1,2", "ut:2", "ut:3")


def _sweeps():
    rng = np.random.default_rng(67)
    for g in SUBGROUPS:
        spec = subgroup_from_selector(g)
        u = spec.project(random_matrix(rng, spec.n))
        for c in (1.0, 10.0, 1e3, 1e20, 1e300):
            yield spec, c * u
    yield subgroup_from_selector("ut:2"), np.array([[116.0, -8e21],
                                                     [0.0, 2477.0]])
    yield subgroup_from_selector("ut:2"), np.array([[116.0, -1000.0],
                                                     [0.0, 600.0]])


@pytest.mark.parametrize("chunk", [None, 7])
def test_a_sweep_is_the_walk_of_its_grid(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(curvature, "_CHUNK_ROWS", chunk)
    outcomes = []
    for spec, u in _sweeps():
        expected = _outcome(_reference_check, spec, u, 2.0, 64)
        assert _outcome(totally_geodesic_check, spec, u, 2.0, 64) == expected
        outcomes.append(expected)
    assert any(isinstance(o, tuple) for o in outcomes)
    assert any(isinstance(o, TotallyGeodesicReport) and not o.passed
               for o in outcomes)
