"""Verification battery: every library-level claim as a named, bounded suite.

run_verify executes the full set of checks (structure axioms, two-route
oracle agreement, sign theorems, mixed-pair match, commutator-norm
decomposition, commuting-pair theorems, the symmetric iff, geodesic
residuals, totally-geodesic subgroup sweeps, the symmetries of the
Riemann tensor, and the link between the geodesic and its body velocity)
and returns one report with a max-error-versus-bound line and a wall time
per suite, plus the software environment. The CLI's verify command
serializes this report as the library's correctness certificate.

Suites keyed to a specific structure (the worked 2x2 and 3x3 pairs, the 2x2
flatness of commuting pairs, the subgroup sweeps, the velocity link on
gl:real:3 and gl:complex:2) always run on their fixed structures; the
generic suites run on the structure passed in (default gl:real:3, plus a
multi-size sweep for the oracle and Riemann suites when no structure is
forced). Sampled suites draw stacks of at most 1024 rows
(curvature._CHUNK_ROWS) in pair-by-pair order and pass the same stacks to
quartic and to each reference, quartic_special included; the commuting
suites draw each stack of pairs with one commuting_pair call over a range
of seeds. The geodesic suites pass all their tangents and times to each
geodesic function as one stack; the subgroup sweeps take one tangent per
call, as each totally_geodesic_check reports one curve.
"""

from __future__ import annotations

import math
import os
import platform
import time
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from . import curvature
from .algebra import _norms, bracket, random_matrix
from .cartan import (CartanStructure, gl_complex, gl_real, standard_basis,
                     theta_part, validate)
from .curvature import (bracket_norm_identity_gap, quartic, quartic_commuting,
                        quartic_special)
from .geodesics import (FD_STEP, geodesic_body_velocity, geodesic_point,
                        geodesic_residual, subgroup_from_selector,
                        totally_geodesic_check)
from .oracles import commuting_pair, quartic_from_definition, riemann_from_metric

SIGN_BOUND = 1e-12
ORACLE_BOUND = 1e-8
MIXED_MATCH_BOUND = 1e-10
BRACKET_CLAIM_BOUND = 1e-12
GEODESIC_BOUND = 1e-6
SUBGROUP_BOUND = 1e-9
CONTROL_FLOOR = 1e-3
EXAMPLE_BOUND = 1e-10
# R_ijkl has d^4 entries: 105k at d = 18 (gl(3, C)), 1.7M for gl(6, R)
RIEMANN_MAX_DIM = 18

# sample counts that do not follow --trials
IFF_RANDOM_PAIRS = 200
IFF_COMMUTING_PAIRS = 50
GEODESIC_SAMPLES = 100
SUBGROUP_TANGENTS = 10
RIEMANN_SECTIONS = 10
LINK_TANGENTS = 10
# times of the geodesic suites, taken with all their tangents as one stack
GEODESIC_GRID = 0.25 * np.arange(9)
GEODESIC_GRID.setflags(write=False)

# structures of the oracle sweep when none is forced; the Riemann suite runs
# on those with real dimension <= RIEMANN_MAX_DIM
DEFAULT_PLAN = (gl_real(2), gl_real(3), gl_real(4), gl_real(6),
                gl_complex(2), gl_complex(3), gl_complex(4))

EXAMPLE_2X2_U = [[1.0, math.sqrt(7.0) / 2.0], [-math.sqrt(7.0) / 2.0, 2.0]]
EXAMPLE_2X2_V = [[0.0, 1.0], [1.0, 0.0]]
EXAMPLE_3X3_U = [[1.0, 1.0, -1.0], [1.0, 1.0, 0.0], [2.0, 0.0, 1.0]]
EXAMPLE_3X3_V = [[0.0, -1.0, 1.0], [-1.0, 2.0, -1.0], [-2.0, 2.0, -1.0]]


@dataclass(frozen=True)
class SuiteResult:
    """One verification suite: a scalar metric against its bound.

    kind says what the bound means: "absolute" (an error that stays below a
    tolerance), "ratio" (a normalized error, pass line 1), "count" (a
    number of violations, pass line 0) or "floor" (a control that stays
    above its bound). Only absolute bounds follow --tol. elapsed_seconds is
    the wall time of the pass that computed the suite; a pass that yields
    several suites from shared draws (the sign suites, the subgroup sweeps)
    splits its time equally among them.
    """

    name: str
    metric: float
    bound: float
    kind: str
    passed: bool
    detail: dict
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        comparator = ">=" if self.kind == "floor" else "<="
        return {"name": self.name, "max_error": self.metric, "bound": self.bound,
                "comparator": comparator, "passed": self.passed,
                "elapsed_seconds": self.elapsed_seconds, "detail": self.detail}


@dataclass(frozen=True)
class VerifyReport:
    structure: str
    seed: int
    trials: int
    tol_override: Optional[float]
    suites: tuple[SuiteResult, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def suite(self, name: str) -> SuiteResult:
        for s in self.suites:
            if s.name == name:
                return s
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"structure": self.structure, "seed": self.seed,
                "trials": self.trials, "tol_override": self.tol_override,
                "passed": self.passed, "elapsed_seconds": self.elapsed_seconds,
                "environment": _environment(),
                "suites": [s.as_dict() for s in self.suites]}


def _environment() -> dict:
    """Versions and cpu count; scipy is no dependency, so its version is
    None when it cannot be imported."""
    from . import __version__  # set by the package after this module loads
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"liecurv": __version__, "numpy": np.__version__,
            "scipy": scipy_version, "python": platform.python_version(),
            "cpu_count": os.cpu_count()}


def rel_gap(a, b):
    """|a - b| over the larger magnitude floored at 1 (so tiny values compare
    absolutely instead of blowing up the ratio), elementwise on arrays."""
    return np.abs(np.subtract(a, b)) / (np.maximum(np.abs(a), np.abs(b)) + 1.0)


def _suite(name: str, metric: float, bound: float, kind: str = "absolute",
           detail: Optional[dict] = None) -> SuiteResult:
    ok = metric >= bound if kind == "floor" else metric <= bound
    return SuiteResult(name=name, metric=float(metric), bound=float(bound),
                       kind=kind, passed=bool(ok), detail=detail or {})


def run_verify(structure: Optional[CartanStructure] = None, seed: int = 42,
               trials: int = 500,
               tol_override: Optional[float] = None) -> VerifyReport:
    """Run every suite and collect the certificate.

    tol_override, when given, replaces the bound of every absolute suite;
    ratio, count and floor suites keep theirs. Failures are recorded in the
    report, never raised; trials below 1 and a non-finite tol_override
    raise ValueError.
    """
    t0 = time.perf_counter()
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if tol_override is not None and not math.isfinite(tol_override):
        raise ValueError(f"tol_override must be finite, got {tol_override}")
    target = structure if structure is not None else gl_real(3)
    label = structure.name if structure is not None else "default"
    plan = (structure,) if structure is not None else DEFAULT_PLAN
    rng = np.random.default_rng(seed)
    suites = []

    suites += _timed(_axioms_suite, structure, seed, trials)
    suites += _timed(_example_2x2_suite)
    suites += _timed(_example_3x3_suite)
    suites += _timed(_oracle_suite, plan, rng, trials)
    suites += _timed(_sign_suites, target, rng, trials)
    suites += _timed(_bracket_claim_suite, target, rng, trials)
    suites += _timed(_commuting_suite, target, seed, trials)
    suites += _timed(_flat_2x2_suite, seed, trials)
    suites += _timed(_symmetric_iff_suite, rng, seed)
    suites += _timed(_geodesic_suite, target, rng)
    suites += _timed(_subgroup_suites, rng)
    suites += _timed(_riemann_suite, plan, rng)
    suites += _timed(_velocity_link_suite, rng)

    if tol_override is not None:
        suites = [replace(s, bound=float(tol_override),
                          passed=bool(s.metric <= tol_override))
                  if s.kind == "absolute" else s
                  for s in suites]

    return VerifyReport(structure=label, seed=seed, trials=trials,
                        tol_override=tol_override, suites=tuple(suites),
                        elapsed_seconds=time.perf_counter() - t0)


def _timed(make, *args) -> list[SuiteResult]:
    t0 = time.perf_counter()
    out = make(*args)
    out = out if isinstance(out, list) else [out]
    share = (time.perf_counter() - t0) / len(out)
    return [replace(s, elapsed_seconds=share) for s in out]


def _axioms_suite(structure: Optional[CartanStructure], seed: int,
                  trials: int) -> SuiteResult:
    targets = [structure] if structure is not None else [gl_real(3), gl_complex(2)]
    detail = {}
    for s in targets:
        ratio = max(validate(s, max(2, min(trials, 100)), seed).values())
        detail[s.name] = {"passed": bool(ratio <= 1.0), "max_error_ratio": ratio}
    worst = max(d["max_error_ratio"] for d in detail.values())
    return _suite("structure_axioms", worst, 1.0, "ratio", detail)


def _example_2x2_suite() -> SuiteResult:
    s = gl_real(2)
    u, v = np.array(EXAMPLE_2X2_U), np.array(EXAMPLE_2X2_V)
    q = quartic(s, u, v)
    bn_sq = s.b_theta(bracket(u, v), bracket(u, v))
    metric = max(abs(q), abs(bn_sq - 16.0))
    return _suite("example_2x2", metric, EXAMPLE_BOUND,
                  detail={"quartic": q, "bracket_norm_sq": bn_sq})


def _example_3x3_suite() -> SuiteResult:
    s = gl_real(3)
    u, v = np.array(EXAMPLE_3X3_U), np.array(EXAMPLE_3X3_V)
    bn = float(np.linalg.norm(bracket(u, v)))
    q = quartic(s, u, v)
    qc = quartic_commuting(s, u, v)
    # three normalized sub-checks: exact commutation, strict negativity,
    # agreement with -4||[u1,v1]||^2
    ratio = max(bn / 1e-13, rel_gap(q, qc) / 1e-12,
                0.0 if q < -0.1 else 2.0)
    return _suite("example_3x3", ratio, 1.0, "ratio",
                  detail={"bracket_norm": bn, "quartic": q,
                          "commuting_value": qc})


def _draws(s: CartanStructure, rng: np.random.Generator, count: int,
           parts: str) -> Iterator[list[np.ndarray]]:
    """count rows of random_part draws of s, a part per letter of parts,
    drawn row by row: per chunk, one (rows, n, n) stack per letter."""
    step = curvature._CHUNK_ROWS
    for i in range(0, count, step):
        x = random_matrix(rng, s.n, s.field, (min(step, count - i), len(parts)))
        yield [theta_part(s, x[:, j], part) for j, part in enumerate(parts)]


def _commuting_pairs(first_seed: int, count: int, n: int,
                     **kwargs) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """commuting_pair(first_seed + i, n, **kwargs), i < count, in stacks."""
    step, end = curvature._CHUNK_ROWS, first_seed + count
    for i in range(first_seed, end, step):
        yield commuting_pair(range(i, min(i + step, end)), n, **kwargs)


def _oracle_suite(plan: tuple[CartanStructure, ...], rng: np.random.Generator,
                  trials: int) -> SuiteResult:
    detail = {}
    for s in plan:
        local = max(
            rel_gap(quartic(s, u, v), quartic_from_definition(s, u, v)).max()
            for u, v in _draws(s, rng, trials, "gg"))
        detail[s.name] = {"sections": trials, "max_rel_gap": float(local)}
    worst = max(d["max_rel_gap"] for d in detail.values())
    return _suite("oracle_agreement", worst, ORACLE_BOUND, detail=detail)


def _sign_suites(s: CartanStructure, rng: np.random.Generator,
                 trials: int) -> list[SuiteResult]:
    chunks = [
        [quartic(s, p1, p2).max(),     # must stay <= 0
         (-quartic(s, k1, k2)).max(),  # must stay >= 0
         (-quartic(s, p1, k2)).max(),
         (-quartic(s, g1, k1)).max(),
         rel_gap(quartic(s, g2, p2), quartic_special(s, g2, p2)[0]).max()]
        for p1, p2, k1, k2, g1, g2 in _draws(s, rng, trials, "ppkkgg")]
    names = ("sign_pp", "sign_kk", "sign_pk", "sign_gk", "match_gp")
    return [_suite(name, worst, SIGN_BOUND if name != "match_gp" else
                   MIXED_MATCH_BOUND, detail={"samples": trials})
            for name, worst in zip(names, np.max(chunks, axis=0))]


def _bracket_claim_suite(s: CartanStructure, rng: np.random.Generator,
                         trials: int) -> SuiteResult:
    worst = max(
        (np.abs(bracket_norm_identity_gap(s, u, v))
         / (s.b_theta_stack(u, u) * s.b_theta_stack(v, v) + 1.0)).max()
        for u, v in _draws(s, rng, trials, "gg"))
    return _suite("bracket_norm_claim", worst, BRACKET_CLAIM_BOUND,
                  detail={"samples": trials})


def _commuting_suite(s: CartanStructure, seed: int, trials: int) -> SuiteResult:
    # a 1x1 algebra has no interesting commuting pairs; use n = 2, same field
    target = s if s.n >= 2 else replace(s, n=2)
    worst = max(
        rel_gap(quartic(target, u, v), quartic_commuting(target, u, v)).max()
        for u, v in _commuting_pairs(seed, trials, target.n, field=target.field))
    return _suite("commuting_theorem", worst, SIGN_BOUND,
                  detail={"pairs": trials, "n": target.n})


def _flat_2x2_suite(seed: int, trials: int) -> SuiteResult:
    s = gl_real(2)
    worst = max(np.abs(quartic(s, u, v)).max()
                for u, v in _commuting_pairs(seed + 10_000, trials, 2))
    return _suite("commuting_2x2_flat", worst, SIGN_BOUND,
                  detail={"pairs": trials})


def _symmetric_iff_suite(rng: np.random.Generator, seed: int) -> SuiteResult:
    s = gl_real(3)
    violations = 0
    for u, v in chain(_draws(s, rng, IFF_RANDOM_PAIRS, "pp"),
                      _commuting_pairs(seed + 20_000 + IFF_RANDOM_PAIRS,
                                       IFF_COMMUTING_PAIRS, 3, symmetric=True)):
        bracket_zero = np.linalg.norm(bracket(u, v), axis=(-2, -1)) <= 1e-10
        scale = s.b_theta_stack(u, u) * s.b_theta_stack(v, v) + 1.0
        quartic_zero = np.abs(quartic(s, u, v)) <= 1e-12 * scale
        violations += int((bracket_zero != quartic_zero).sum())
    return _suite("symmetric_iff", float(violations), 0.0, "count",
                  detail={"random_pairs": IFF_RANDOM_PAIRS,
                          "commuting_pairs": IFF_COMMUTING_PAIRS})


def _geodesic_suite(s: CartanStructure, rng: np.random.Generator) -> SuiteResult:
    worst = float(geodesic_residual(
        s, _tangents(s, rng, GEODESIC_SAMPLES), GEODESIC_GRID).max())
    return _suite("geodesic_residual", worst, GEODESIC_BOUND,
                  detail={"samples": GEODESIC_SAMPLES,
                          "t_grid": GEODESIC_GRID.tolist(), "h": FD_STEP})


def _tangents(s: CartanStructure, rng: np.random.Generator, count: int) -> np.ndarray:
    """count random_matrix draws of s, each scaled down to norm 2 if longer."""
    u = random_matrix(rng, s.n, s.field, (count,))
    norms = _norms(u)[:, None, None]
    return np.where(norms > 2.0, (2.0 / norms) * u, u)


def _subgroup_suites(rng: np.random.Generator) -> list[SuiteResult]:
    out = []
    for suite_name, selector in (("subgroup_so3", "so:3"),
                                 ("subgroup_sl2", "sl:2"),
                                 ("subgroup_o12", "opq:1,2")):
        spec = subgroup_from_selector(selector)
        worst = 0.0
        tangents = spec.project(
            random_matrix(rng, spec.n, shape=(SUBGROUP_TANGENTS,)))
        norms = _norms(tangents)[:, None, None]
        for u in tangents / np.where(norms > 0, norms, 1.0):
            worst = max(worst, totally_geodesic_check(spec, u, t_max=2.0).max_defect)
        out.append(_suite(suite_name, worst, SUBGROUP_BOUND,
                          detail={"tangents": SUBGROUP_TANGENTS, "t_max": 2.0}))
    control = subgroup_from_selector("ut:3")
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    report = totally_geodesic_check(control, e12, t_max=2.0)
    out.append(_suite("subgroup_ut3_control", report.max_defect, CONTROL_FLOOR,
                      "floor", detail={"tangent": "E12", "t_max": 2.0}))
    return out


def _riemann_suite(plan: tuple[CartanStructure, ...],
                   rng: np.random.Generator) -> SuiteResult:
    """Symmetries of R_ijkl over a basis of cells rotated by a seeded
    orthogonal Q, relative to max|R|: antisymmetry in (k, l), pair symmetry,
    the first Bianchi identity, and R contracted with (u, v, v, u) against
    quartic_from_definition on the cell basis. (i, j) antisymmetry holds by
    construction and is not reported. On the plain cells every entry is an
    integer combination and the identities hold exactly; the rotation makes
    them a real test. A forced structure above RIEMANN_MAX_DIM falls back to
    the small members of DEFAULT_PLAN."""
    plan = ([s for s in plan if s.real_dim <= RIEMANN_MAX_DIM]
            or [s for s in DEFAULT_PLAN if s.real_dim <= RIEMANN_MAX_DIM])
    worst = 0.0
    detail = {}
    for s in plan:
        d = s.real_dim
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        basis = np.tensordot(q, np.stack(standard_basis(s)), 1)
        R = riemann_from_metric(s, tuple(basis))
        scale = float(np.abs(R).max()) or 1.0
        # permuted views of R; the identities are summed slice by slice, since
        # a d^4 temporary would set the peak memory of the whole run
        P = {spec: np.einsum(spec + "->ijkl", R)
             for spec in ("ijlk", "klij", "jkil", "kijl")}

        def gap(term) -> float:
            return max(float(np.abs(term(i)).max()) for i in range(d)) / scale

        quartic_gap = 0.0
        for u, v in random_matrix(rng, s.n, s.field, (RIEMANN_SECTIONS, 2)):
            x, y = (s.b_theta_stack(w, basis) for w in (u, v))
            contracted = np.einsum("ijkl,i,j,k,l->", R, x, y, y, x)
            quartic_gap = max(quartic_gap, abs(
                contracted - quartic_from_definition(s, u, v))
                / (scale * (x @ x) * (y @ y)))
        local = {
            "antisymmetry_kl": gap(lambda i: R[i] + P["ijlk"][i]),
            "pair_symmetry": gap(lambda i: R[i] - P["klij"][i]),
            "bianchi": gap(lambda i: R[i] + P["jkil"][i] + P["kijl"][i]),
            "quartic_gap": quartic_gap,
        }
        worst = max(worst, *local.values())
        detail[s.name] = {"real_dim": d, "sections": RIEMANN_SECTIONS, **local}
    return _suite("riemann_identities", worst, SIGN_BOUND, detail=detail)


def _velocity_link_suite(rng: np.random.Generator) -> SuiteResult:
    """gamma(t)^-1 (gamma(t + h) - gamma(t - h)) / 2h against the closed-form
    omega(t), h = FD_STEP: ties the body velocity to the curve it claims to
    differentiate, which the residual suite takes on trust."""
    detail = {}
    for s in (gl_real(3), gl_complex(2)):
        u = _tangents(s, rng, LINK_TANGENTS)
        gamma, plus, minus = np.split(geodesic_point(s, u, np.concatenate(
            [GEODESIC_GRID, GEODESIC_GRID + FD_STEP, GEODESIC_GRID - FD_STEP])),
            3, axis=1)
        fd = (plus - minus) / (2.0 * FD_STEP)
        gap = (np.linalg.solve(gamma, fd)
               - geodesic_body_velocity(s, u, GEODESIC_GRID))
        detail[s.name] = {"tangents": LINK_TANGENTS,
                          "max_gap": float(np.linalg.norm(gap, axis=(-2, -1)).max())}
    worst = max(d["max_gap"] for d in detail.values())
    detail.update(t_grid=GEODESIC_GRID.tolist(), h=FD_STEP)
    return _suite("geodesic_velocity_link", worst, GEODESIC_BOUND, detail=detail)
