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
forced).
"""

from __future__ import annotations

import math
import os
import platform
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy

from .algebra import bracket, random_matrix
from .cartan import (CartanStructure, gl_complex, gl_real, random_part,
                     standard_basis, validate)
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
# times of the geodesic suites, each grid taken as one stack per tangent
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
    from . import __version__  # set by the package after this module loads
    return {"liecurv": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "cpu_count": os.cpu_count()}


def rel_gap(a: float, b: float) -> float:
    """|a - b| scaled by the larger magnitude, floored at 1 so values that are
    both tiny compare absolutely instead of blowing up the ratio."""
    return abs(a - b) / (max(abs(a), abs(b)) + 1.0)


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
    worst = 0.0
    detail = {}
    for s in targets:
        ratio = max(validate(s, max(2, min(trials, 100)), seed).values())
        detail[s.name] = {"passed": bool(ratio <= 1.0), "max_error_ratio": ratio}
        worst = max(worst, ratio)
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


def _oracle_suite(plan: tuple[CartanStructure, ...], rng: np.random.Generator,
                  trials: int) -> SuiteResult:
    worst = 0.0
    detail = {}
    for s in plan:
        local = 0.0
        for _ in range(trials):
            u, v = random_part(s, rng, "g"), random_part(s, rng, "g")
            local = max(local, rel_gap(quartic(s, u, v),
                                       quartic_from_definition(s, u, v)))
        detail[s.name] = {"sections": trials, "max_rel_gap": local}
        worst = max(worst, local)
    return _suite("oracle_agreement", worst, ORACLE_BOUND, detail=detail)


def _sign_suites(s: CartanStructure, rng: np.random.Generator,
                 trials: int) -> list[SuiteResult]:
    worst_pp = worst_kk = worst_pk = worst_gk = -np.inf
    worst_gp = 0.0
    for _ in range(trials):
        p1, p2 = random_part(s, rng, "p"), random_part(s, rng, "p")
        k1, k2 = random_part(s, rng, "k"), random_part(s, rng, "k")
        g1, g2 = random_part(s, rng, "g"), random_part(s, rng, "g")
        worst_pp = max(worst_pp, quartic(s, p1, p2))        # must stay <= 0
        worst_kk = max(worst_kk, -quartic(s, k1, k2))       # must stay >= 0
        worst_pk = max(worst_pk, -quartic(s, p1, k2))
        worst_gk = max(worst_gk, -quartic(s, g1, k1))
        worst_gp = max(worst_gp,
                       rel_gap(quartic(s, g2, p2), quartic_special(s, g2, p2)[0]))
    return [
        _suite("sign_pp", worst_pp, SIGN_BOUND, detail={"samples": trials}),
        _suite("sign_kk", worst_kk, SIGN_BOUND, detail={"samples": trials}),
        _suite("sign_pk", worst_pk, SIGN_BOUND, detail={"samples": trials}),
        _suite("sign_gk", worst_gk, SIGN_BOUND, detail={"samples": trials}),
        _suite("match_gp", worst_gp, MIXED_MATCH_BOUND,
               detail={"samples": trials}),
    ]


def _bracket_claim_suite(s: CartanStructure, rng: np.random.Generator,
                         trials: int) -> SuiteResult:
    worst = 0.0
    for _ in range(trials):
        u, v = random_part(s, rng, "g"), random_part(s, rng, "g")
        scale = s.b_theta(u, u) * s.b_theta(v, v) + 1.0
        worst = max(worst, abs(bracket_norm_identity_gap(s, u, v)) / scale)
    return _suite("bracket_norm_claim", worst, BRACKET_CLAIM_BOUND,
                  detail={"samples": trials})


def _commuting_suite(s: CartanStructure, seed: int, trials: int) -> SuiteResult:
    # a 1x1 algebra has no interesting commuting pairs; use n = 2, same field
    target = s if s.n >= 2 else replace(s, n=2)
    worst = 0.0
    for i in range(trials):
        u, v = commuting_pair(seed + i, target.n, field=target.field)
        worst = max(worst, rel_gap(quartic(target, u, v),
                                   quartic_commuting(target, u, v)))
    return _suite("commuting_theorem", worst, SIGN_BOUND,
                  detail={"pairs": trials, "n": target.n})


def _flat_2x2_suite(seed: int, trials: int) -> SuiteResult:
    s = gl_real(2)
    worst = 0.0
    for i in range(trials):
        u, v = commuting_pair(seed + 10_000 + i, 2)
        worst = max(worst, abs(quartic(s, u, v)))
    return _suite("commuting_2x2_flat", worst, SIGN_BOUND,
                  detail={"pairs": trials})


def _symmetric_iff_suite(rng: np.random.Generator, seed: int) -> SuiteResult:
    s = gl_real(3)
    violations = 0
    for i in range(IFF_RANDOM_PAIRS + IFF_COMMUTING_PAIRS):
        if i < IFF_RANDOM_PAIRS:
            u, v = random_part(s, rng, "p"), random_part(s, rng, "p")
        else:
            u, v = commuting_pair(seed + 20_000 + i, 3, symmetric=True)
        bracket_zero = np.linalg.norm(bracket(u, v)) <= 1e-10
        scale = s.b_theta(u, u) * s.b_theta(v, v) + 1.0
        quartic_zero = abs(quartic(s, u, v)) <= 1e-12 * scale
        if bracket_zero != quartic_zero:
            violations += 1
    return _suite("symmetric_iff", float(violations), 0.0, "count",
                  detail={"random_pairs": IFF_RANDOM_PAIRS,
                          "commuting_pairs": IFF_COMMUTING_PAIRS})


def _geodesic_suite(s: CartanStructure, rng: np.random.Generator) -> SuiteResult:
    worst = 0.0
    for _ in range(GEODESIC_SAMPLES):
        u = _tangent(s, rng)
        worst = max(worst, float(geodesic_residual(s, u, GEODESIC_GRID).max()))
    return _suite("geodesic_residual", worst, GEODESIC_BOUND,
                  detail={"samples": GEODESIC_SAMPLES,
                          "t_grid": GEODESIC_GRID.tolist(), "h": FD_STEP})


def _tangent(s: CartanStructure, rng: np.random.Generator) -> np.ndarray:
    """A random_part draw of s scaled down to norm 2 when it is longer."""
    u = random_part(s, rng, "g")
    u_norm = np.linalg.norm(u)
    return (2.0 / u_norm) * u if u_norm > 2.0 else u


def _subgroup_suites(rng: np.random.Generator) -> list[SuiteResult]:
    out = []
    for suite_name, selector in (("subgroup_so3", "so:3"),
                                 ("subgroup_sl2", "sl:2"),
                                 ("subgroup_o12", "opq:1,2")):
        spec = subgroup_from_selector(selector)
        worst = 0.0
        for _ in range(SUBGROUP_TANGENTS):
            u = spec.project(random_matrix(rng, spec.n))
            u_norm = np.linalg.norm(u)
            if u_norm > 0:
                u = u / u_norm
            report = totally_geodesic_check(spec, u, t_max=2.0)
            worst = max(worst, report.max_defect)
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
        basis = tuple(np.tensordot(q, np.stack(standard_basis(s)), 1))
        R = riemann_from_metric(s, basis)
        scale = float(np.abs(R).max()) or 1.0
        # permuted views of R; the identities are summed slice by slice, since
        # a d^4 temporary would set the peak memory of the whole run
        P = {spec: np.einsum(spec + "->ijkl", R)
             for spec in ("ijlk", "klij", "jkil", "kijl")}

        def gap(term) -> float:
            return max(float(np.abs(term(i)).max()) for i in range(d)) / scale

        quartic_gap = 0.0
        for _ in range(RIEMANN_SECTIONS):
            u, v = random_part(s, rng, "g"), random_part(s, rng, "g")
            x = np.array([s.b_theta(u, e) for e in basis])
            y = np.array([s.b_theta(v, e) for e in basis])
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
    worst = 0.0
    detail = {}
    for s in (gl_real(3), gl_complex(2)):
        local = 0.0
        for _ in range(LINK_TANGENTS):
            u = _tangent(s, rng)
            gamma = geodesic_point(s, u, GEODESIC_GRID)
            fd = (geodesic_point(s, u, GEODESIC_GRID + FD_STEP)
                  - geodesic_point(s, u, GEODESIC_GRID - FD_STEP)) / (2.0 * FD_STEP)
            gap = (np.linalg.solve(gamma, fd)
                   - geodesic_body_velocity(s, u, GEODESIC_GRID))
            local = max(local, float(np.linalg.norm(gap, axis=(-2, -1)).max()))
        detail[s.name] = {"tangents": LINK_TANGENTS, "max_gap": local}
        worst = max(worst, local)
    detail.update(t_grid=GEODESIC_GRID.tolist(), h=FD_STEP)
    return _suite("geodesic_velocity_link", worst, GEODESIC_BOUND, detail=detail)
