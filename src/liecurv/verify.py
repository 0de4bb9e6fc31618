"""Verification battery: every library-level claim as a named, bounded suite.

run_verify executes the full set of checks (structure axioms, two-route
oracle agreement, sign theorems, mixed-pair match, commutator-norm
decomposition, commuting-pair theorems, the symmetric iff, geodesic
residuals, and totally-geodesic subgroup sweeps) and returns one report with
a max-error-versus-bound line per suite. The CLI's verify command serializes
this report as the library's correctness certificate.

Suites keyed to a specific structure (the worked 2x2 and 3x3 pairs, the 2x2
flatness of commuting pairs, the subgroup sweeps) always run on their fixed
real structures; the generic suites run on the structure passed in (default
gl:real:3, plus a multi-size sweep for the oracle suite when no structure is
forced).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import bracket, random_matrix
from .cartan import (CartanStructure, gl_complex, gl_real, standard_basis,
                     theta_split, validate)
from .curvature import (bracket_norm_identity_gap, quartic, quartic_commuting,
                        quartic_special)
from .geodesics import (builtin_subgroup, geodesic_residual,
                        totally_geodesic_check)
from .oracles import commuting_pair, quartic_from_definition

SIGN_BOUND = 1e-12
ORACLE_BOUND = 1e-8
MIXED_MATCH_BOUND = 1e-10
BRACKET_CLAIM_BOUND = 1e-12
GEODESIC_BOUND = 1e-6
SUBGROUP_BOUND = 1e-9
CONTROL_FLOOR = 1e-3
EXAMPLE_BOUND = 1e-10

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
    above its bound). Only absolute bounds follow --tol.
    """

    name: str
    metric: float
    bound: float
    kind: str
    passed: bool
    detail: dict

    def as_dict(self) -> dict:
        comparator = ">=" if self.kind == "floor" else "<="
        return {"name": self.name, "max_error": self.metric, "bound": self.bound,
                "comparator": comparator, "passed": self.passed,
                "detail": self.detail}


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
                "suites": [s.as_dict() for s in self.suites]}


def rel_gap(a: float, b: float) -> float:
    """|a - b| scaled by the larger magnitude, floored at 1 so values that are
    both tiny compare absolutely instead of blowing up the ratio."""
    return abs(a - b) / (max(abs(a), abs(b)) + 1.0)


def _suite(name: str, metric: float, bound: float, kind: str = "absolute",
           detail: Optional[dict] = None) -> SuiteResult:
    ok = metric >= bound if kind == "floor" else metric <= bound
    return SuiteResult(name=name, metric=float(metric), bound=float(bound),
                       kind=kind, passed=bool(ok), detail=detail or {})


def _p_sample(s: CartanStructure, rng: np.random.Generator) -> np.ndarray:
    return theta_split(s, random_matrix(rng, s.n, s.field)).p_part


def _k_sample(s: CartanStructure, rng: np.random.Generator) -> np.ndarray:
    return theta_split(s, random_matrix(rng, s.n, s.field)).k_part


def _g_sample(s: CartanStructure, rng: np.random.Generator) -> np.ndarray:
    return random_matrix(rng, s.n, s.field)


def run_verify(structure: Optional[CartanStructure] = None, seed: int = 42,
               trials: int = 500,
               tol_override: Optional[float] = None) -> VerifyReport:
    """Run every suite and collect the certificate.

    tol_override, when given, replaces the bound of every absolute suite;
    ratio, count and floor suites keep theirs. Failures are recorded in the
    report, never raised; trials below 1 raise ValueError.
    """
    t0 = time.perf_counter()
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    target = structure if structure is not None else gl_real(3)
    label = structure.name if structure is not None else "default"
    rng = np.random.default_rng(seed)
    suites = []

    suites.append(_axioms_suite(structure, seed, trials))
    suites.append(_example_2x2_suite())
    suites.append(_example_3x3_suite())
    suites.append(_oracle_suite(structure, target, rng, trials))
    suites.extend(_sign_suites(target, rng, trials))
    suites.append(_bracket_claim_suite(target, rng, trials))
    suites.append(_commuting_suite(target, seed, trials))
    suites.append(_flat_2x2_suite(seed, trials))
    suites.append(_symmetric_iff_suite(rng, seed))
    suites.append(_geodesic_suite(target, rng))
    suites.extend(_subgroup_suites(rng))

    if tol_override is not None:
        suites = [_suite(s.name, s.metric, tol_override, s.kind, s.detail)
                  if s.kind == "absolute" else s
                  for s in suites]

    return VerifyReport(structure=label, seed=seed, trials=trials,
                        tol_override=tol_override, suites=tuple(suites),
                        elapsed_seconds=time.perf_counter() - t0)


def _axioms_suite(structure: Optional[CartanStructure], seed: int,
                  trials: int) -> SuiteResult:
    targets = [structure] if structure is not None else [gl_real(3), gl_complex(2)]
    worst = 0.0
    detail = {}
    for s in targets:
        report = validate(s, trials=max(2, min(trials, 100)), seed=seed)
        detail[s.name] = {"passed": report.passed,
                          "max_error_ratio": report.max_error_ratio}
        worst = max(worst, report.max_error_ratio)
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


def _oracle_suite(structure: Optional[CartanStructure], target: CartanStructure,
                  rng: np.random.Generator, trials: int) -> SuiteResult:
    if structure is not None:
        plan = [(target, trials)]
    else:
        plan = [(gl_real(2), trials), (gl_real(3), trials), (gl_real(4), trials),
                (gl_complex(2), min(trials, 500))]
    worst = 0.0
    detail = {}
    for s, count in plan:
        basis = standard_basis(s)
        local = 0.0
        for _ in range(count):
            u, v = _g_sample(s, rng), _g_sample(s, rng)
            local = max(local, rel_gap(quartic(s, u, v),
                                       quartic_from_definition(s, u, v, basis)))
        detail[s.name] = {"sections": count, "max_rel_gap": local}
        worst = max(worst, local)
    return _suite("oracle_agreement", worst, ORACLE_BOUND, detail=detail)


def _sign_suites(s: CartanStructure, rng: np.random.Generator,
                 trials: int) -> list[SuiteResult]:
    worst_pp = worst_kk = worst_pk = worst_gk = -np.inf
    worst_gp = 0.0
    for _ in range(trials):
        p1, p2 = _p_sample(s, rng), _p_sample(s, rng)
        k1, k2 = _k_sample(s, rng), _k_sample(s, rng)
        g1, g2 = _g_sample(s, rng), _g_sample(s, rng)
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
        u, v = _g_sample(s, rng), _g_sample(s, rng)
        scale = s.b_theta(u, u) * s.b_theta(v, v) + 1.0
        worst = max(worst, abs(bracket_norm_identity_gap(s, u, v)) / scale)
    return _suite("bracket_norm_claim", worst, BRACKET_CLAIM_BOUND,
                  detail={"samples": trials})


def _commuting_suite(s: CartanStructure, seed: int, trials: int) -> SuiteResult:
    # a 1x1 algebra has no interesting commuting pairs; fall back to gl(2, R)
    target = s if s.n >= 2 else gl_real(2)
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


def _symmetric_iff_suite(rng: np.random.Generator, seed: int,
                         n_random: int = 200, n_commuting: int = 50) -> SuiteResult:
    s = gl_real(3)
    violations = 0
    for i in range(n_random + n_commuting):
        if i < n_random:
            u, v = _p_sample(s, rng), _p_sample(s, rng)
        else:
            u, v = commuting_pair(seed + 20_000 + i, 3, symmetric=True)
        bracket_zero = np.linalg.norm(bracket(u, v)) <= 1e-10
        scale = s.b_theta(u, u) * s.b_theta(v, v) + 1.0
        quartic_zero = abs(quartic(s, u, v)) <= 1e-12 * scale
        if bracket_zero != quartic_zero:
            violations += 1
    return _suite("symmetric_iff", float(violations), 0.0, "count",
                  detail={"random_pairs": n_random,
                          "commuting_pairs": n_commuting})


def _geodesic_suite(s: CartanStructure, rng: np.random.Generator,
                    samples: int = 100) -> SuiteResult:
    grid = [0.25 * k for k in range(9)]
    worst = 0.0
    for _ in range(samples):
        u = random_matrix(rng, s.n, s.field)
        u_norm = np.linalg.norm(u)
        if u_norm > 2.0:
            u = (2.0 / u_norm) * u
        for t in grid:
            worst = max(worst, geodesic_residual(s, u, t, h=1e-5))
    return _suite("geodesic_residual", worst, GEODESIC_BOUND,
                  detail={"samples": samples, "t_grid": grid, "h": 1e-5})


def _subgroup_suites(rng: np.random.Generator, tangents: int = 10) -> list[SuiteResult]:
    out = []
    for suite_name, spec in (("subgroup_so3", builtin_subgroup("so", 3)),
                             ("subgroup_sl2", builtin_subgroup("sl", 2)),
                             ("subgroup_o12", builtin_subgroup("opq", p=1, q=2))):
        worst = 0.0
        for _ in range(tangents):
            u = spec.project(random_matrix(rng, spec.n))
            u_norm = np.linalg.norm(u)
            if u_norm > 0:
                u = u / u_norm
            report = totally_geodesic_check(spec, u, t_max=2.0)
            worst = max(worst, report.max_defect)
        out.append(_suite(suite_name, worst, SUBGROUP_BOUND,
                          detail={"tangents": tangents, "t_max": 2.0}))
    control = builtin_subgroup("ut", 3)
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    report = totally_geodesic_check(control, e12, t_max=2.0)
    out.append(_suite("subgroup_ut3_control", report.max_defect, CONTROL_FLOOR,
                      "floor", detail={"tangent": "E12", "t_max": 2.0}))
    return out
