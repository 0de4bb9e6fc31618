"""Workload inputs, the CLI commands they become, and the output checks.

Every workload drives documented ``liecurv`` commands through
``liecurv.cli.main``. Inputs are drawn from the workload seed with numpy
before the timed phase; the program only sees the commands. A request is
the unit whose latency is reported:

- certify:  one default ``liecurv verify --seed S`` certificate;
- sample:   one pass over the structure grid, one ``liecurv sample`` each;
- section:  one ``liecurv section`` call on a pre-generated pair;
- geodesic: one pass of ``liecurv geodesic`` traces over the structure grid
            plus one ``liecurv subgroup`` sweep per subgroup.

The checks rely on facts the closed forms do not supply: sign theorems,
the definitional oracle (evaluated at generation time, outside the timed
phase), exact power-of-two scaling, and the bounds the package documents.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

GRID = [f"gl:{field}:{n}" for field in ("real", "complex") for n in (2, 3, 4, 6)]

STEPS = 64
RESIDUAL_BOUND = 1e-6        # geodesic_residual's documented noise floor
CONTROL_FLOOR = 1e-3         # the UT control must leave its subgroup by this
SIGN_RTOL = 1e-12
ORACLE_RTOL = 1e-10
DEPENDENT_RTOL = 1e-12       # the CLI's degenerate-area threshold
CLEAR_RTOL = 1e-6            # pairs between the two thresholds are redrawn
SAMPLE_CASES = ("p_p", "k_k", "p_k", "general")
SAMPLE_TRIALS = 100          # `liecurv sample` default rows per case
SECTION_KINDS = ("general", "p_p", "k_k", "p_k", "commuting", "dependent")
SECTION_WEIGHTS = (0.35, 0.15, 0.15, 0.15, 0.12, 0.08)
SUBGROUPS = ("so:3", "so:4", "sl:2", "sl:3", "opq:1,2", "opq:2,2", "ut:3")
# Input schedules are generated up front; a run that outlasts one cycles.
SCHEDULE = {"certify": 256, "sample": 2048, "section": 1 << 16,
            "geodesic": 512}


class CheckError(ValueError):
    """An output that contradicts what the inputs imply."""


@dataclass(frozen=True)
class Op:
    """One CLI command with its expected exit code and output check.

    check(stdout) returns the number of work items in the output (rows,
    sections, points, certificates) or raises CheckError.
    """

    kind: str
    argv: list[str]
    expect_exit: int
    check: Callable[[str], int]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# -- shared helpers -----------------------------------------------------------


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _structure(selector: str) -> tuple[str, int]:
    _, field, n = selector.split(":")
    return field, int(n)


def _random(rng: np.random.Generator, field: str, n: int) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, (n, n))
    if field == "complex":
        a = a + 1j * rng.uniform(-1.0, 1.0, (n, n))
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(a).T


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(np.conj(a) * b).real)


def wire(a: np.ndarray) -> str:
    """JSON wire form of a matrix, as documented in the README."""
    if np.iscomplexobj(a):
        entries = [[float(z.real), float(z.imag)] for z in a.flat]
        field = "complex"
    else:
        entries = [float(x) for x in a.flat]
        field = "real"
    return json.dumps({"n": a.shape[0], "field": field, "entries": entries})


def _from_wire(obj: dict) -> np.ndarray:
    if obj["field"] == "complex":
        flat = [complex(re_, im) for re_, im in obj["entries"]]
    else:
        flat = obj["entries"]
    return np.array(flat).reshape(obj["n"], obj["n"])


# -- certify ------------------------------------------------------------------


def certify_inputs(seed: int) -> np.ndarray:
    return _rng(seed, 0).integers(0, 2**31, SCHEDULE["certify"])


def check_certificate(out: str) -> int:
    cert = json.loads(out)
    suites = cert["suites"]
    _require(len(suites) > 0, "certificate has no suites")
    for s in suites:
        metric, bound = s["max_error"], s["bound"]
        holds = metric <= bound if s["comparator"] == "<=" else metric >= bound
        _require(holds, f"suite {s['name']}: {metric!r} {s['comparator']} "
                        f"{bound!r} does not hold")
        _require(s["passed"] is True, f"suite {s['name']} reports failure")
    _require(cert["passed"] is True, "certificate reports failure")
    return 1


_ELAPSED = re.compile(r'\s*"elapsed_seconds": [^,\n]*,?')


def strip_timing(out: str) -> str:
    """The certificate records its own wall time; drop it before outputs of
    two runs are compared byte for byte."""
    return _ELAPSED.sub("", out)


# -- sample -------------------------------------------------------------------


def sample_inputs(seed: int) -> np.ndarray:
    return _rng(seed, 1).integers(0, 2**31, (SCHEDULE["sample"], len(GRID)))


def check_sample_csv(out: str) -> int:
    rows = list(csv.reader(io.StringIO(out)))
    _require(rows and rows[0] == ["seed_index", "case_tag", "quartic",
                                  "area_sq", "sectional"], "bad CSV header")
    body = [r for r in rows[1:] if r]
    expected = [tag for tag in SAMPLE_CASES for _ in range(SAMPLE_TRIALS)]
    _require(len(body) == len(expected),
             f"{len(body)} rows, expected {len(expected)}")
    for i, (row, tag) in enumerate(zip(body, expected)):
        _require(row[0] == str(i) and row[1] == tag,
                 f"row {i}: index/tag {row[:2]}, expected {i}/{tag}")
        q, area, sect = (float(x) for x in row[2:])
        _require(all(map(math.isfinite, (q, area, sect))) and area > 0,
                 f"row {i}: non-finite value or non-positive area")
        tol = SIGN_RTOL * (area + abs(q))
        if tag == "p_p":
            _require(q <= tol, f"row {i}: p_p quartic {q!r} > 0")
        elif tag in ("k_k", "p_k"):
            _require(q >= -tol, f"row {i}: {tag} quartic {q!r} < 0")
        _require(abs(sect * area - q) <= SIGN_RTOL * abs(q) + 1e-300,
                 f"row {i}: sectional * area_sq != quartic")
    return len(body)


# -- section ------------------------------------------------------------------


@dataclass(frozen=True)
class PoolPair:
    """A base pair for the section stream, with what the CLI must report."""

    selector: str
    kind: str
    u: np.ndarray
    v: np.ndarray
    expect_exit: int
    quartic: float      # quartic_from_definition(u, v); nan when dependent
    area_sq: float
    scale: float        # ||u||^2 ||v||^2


def _pure_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The theta = -1 (Hermitian) and +1 (skew-Hermitian) parts of a."""
    return (a + _adjoint(a)) / 2.0, (a - _adjoint(a)) / 2.0


def _commuting(rng, field, n) -> tuple[np.ndarray, np.ndarray]:
    m = _random(rng, field, n)
    m = m / np.linalg.norm(m)
    powers = [np.eye(n), m, m @ m]
    a, b = rng.uniform(-1.0, 1.0, (2, 3))
    return sum(c * x for c, x in zip(a, powers)), sum(c * x for c, x in zip(b, powers))


def _draw_pair(rng, selector: str, kind: str):
    field, n = _structure(selector)
    while True:
        if kind == "commuting":
            u, v = _commuting(rng, field, n)
        elif kind == "dependent":
            u = _random(rng, field, n)
            v = float(rng.choice([-2.0, 0.5, 2.0, 4.0])) * u
        else:
            pu, ku = _pure_parts(_random(rng, field, n))
            pv, kv = _pure_parts(_random(rng, field, n))
            u, v = {"general": (pu + ku, pv + kv), "p_p": (pu, pv),
                    "k_k": (ku, kv), "p_k": (pu, kv)}[kind]
        uu, vv, uv = _inner(u, u), _inner(v, v), _inner(u, v)
        area = uu * vv - uv * uv
        if area <= DEPENDENT_RTOL * uu * vv:
            return u, v, 3, area, uu * vv
        if area >= CLEAR_RTOL * uu * vv:
            return u, v, 0, area, uu * vv


def section_pool(seed: int, per_kind: int = 4) -> list[PoolPair]:
    """Base pairs for every structure and kind, with oracle quartics.

    k_k pairs on gl:real:2 span a line (k is one-dimensional there), so
    they come out dependent and expect exit 3 like the dependent kind.
    """
    from liecurv.algebra import MatrixElement
    from liecurv.cartan import from_selector
    from liecurv.oracles import quartic_from_definition, standard_basis

    rng = _rng(seed, 2)
    pool = []
    for selector in GRID:
        s = from_selector(selector)
        basis = standard_basis(s)
        for kind in SECTION_KINDS:
            for _ in range(per_kind):
                u, v, code, area, scale = _draw_pair(rng, selector, kind)
                q = math.nan
                if code == 0:
                    q = quartic_from_definition(s, MatrixElement(u),
                                                MatrixElement(v), basis)
                pool.append(PoolPair(selector, kind, u, v, code, q, area,
                                     scale))
    return pool


def section_schedule(seed: int, pool_size: int) -> np.ndarray:
    """Per request: a pool index chosen with SECTION_WEIGHTS over kinds, and
    power-of-two exponents for u and v, so requests rarely repeat an input
    while the expected quartic stays exact (it scales by 4^(a+b))."""
    rng = _rng(seed, 3)
    count = SCHEDULE["section"]
    # section_pool orders the pool by structure, then kind, then slot
    per_kind = pool_size // (len(GRID) * len(SECTION_KINDS))
    structure = rng.integers(0, len(GRID), count)
    kind = rng.choice(len(SECTION_KINDS), count, p=SECTION_WEIGHTS)
    slot = rng.integers(0, per_kind, count)
    index = (structure * len(SECTION_KINDS) + kind) * per_kind + slot
    exps = rng.integers(-3, 4, (count, 2))
    return np.column_stack([index, exps])


def check_section(out: str, pair: PoolPair, eu: int, ev: int) -> int:
    d = json.loads(out)
    f = 4.0 ** (eu + ev)
    scale, q_expect, area_expect = pair.scale * f, pair.quartic * f, pair.area_sq * f
    q = d["quartic"]
    _require(d["structure"] == pair.selector, f"structure {d['structure']}")
    _require(abs(q - q_expect) <= ORACLE_RTOL * scale,
             f"quartic {q!r} vs oracle {q_expect!r}")
    terms = d["term_pp"] + d["term_mixed"] + d["term_cross"]
    _require(abs(terms - q) <= SIGN_RTOL * scale,
             f"terms add to {terms!r}, quartic is {q!r}")
    _require(abs(d["area_sq"] - area_expect) <= ORACLE_RTOL * scale,
             f"area_sq {d['area_sq']!r} vs {area_expect!r}")
    _require(abs(d["sectional"] * d["area_sq"] - q) <= SIGN_RTOL * scale,
             "sectional * area_sq != quartic")
    _require(d["case"] == pair.kind,
             f"case {d['case']!r}, expected {pair.kind!r}")
    if d["special_value"] is not None:
        _require(abs(d["special_value"] - q) <= ORACLE_RTOL * scale,
                 "special-case value disagrees with the quartic")
    return 1


def check_silent(out: str) -> int:
    """A dependent pair exits 3 and writes nothing to stdout."""
    _require(out == "", "dependent pair produced output")
    return 1


# -- geodesic -----------------------------------------------------------------


def _subgroup_tangent(rng, selector: str) -> tuple[np.ndarray, bool]:
    """A tangent in the subgroup's algebra, projected here with numpy, and
    whether the sweep must pass (transpose-invariant groups do; UT does
    not)."""
    key, arg = selector.split(":")
    if key == "opq":
        p, q = (int(x) for x in arg.split(","))
        n = p + q
    else:
        n = int(arg)
    a = rng.uniform(-1.0, 1.0, (n, n))
    if key == "so":
        u = (a - a.T) / 2.0
    elif key == "sl":
        u = a - (np.trace(a) / n) * np.eye(n)
    elif key == "opq":
        eta = np.diag([1.0] * p + [-1.0] * q)
        u = (a - eta @ a.T @ eta) / 2.0
    else:
        u = np.triu(a)
        u[0, 1] = math.copysign(0.5 + abs(u[0, 1]), u[0, 1])
    u = u * (rng.uniform(0.5, 1.5) / np.linalg.norm(u))
    return u, key != "ut"


def geodesic_inputs(seed: int) -> list[tuple[list[np.ndarray], list[np.ndarray], list[bool]]]:
    """Per round: one tangent per grid structure with norm in [0.5, 2], and
    one tangent per subgroup with its expected verdict."""
    rng = _rng(seed, 4)
    rounds = []
    for _ in range(SCHEDULE["geodesic"]):
        traces = []
        for selector in GRID:
            field, n = _structure(selector)
            a = _random(rng, field, n)
            traces.append(a * (rng.uniform(0.5, 2.0) / np.linalg.norm(a)))
        sweeps = [_subgroup_tangent(rng, g) for g in SUBGROUPS]
        rounds.append((traces, [u for u, _ in sweeps], [ok for _, ok in sweeps]))
    return rounds


def check_trace(out: str, selector: str) -> int:
    d = json.loads(out)
    _require(d["structure"] == selector, f"structure {d['structure']}")
    samples = d["samples"]
    _require(d["steps"] == STEPS and len(samples) == STEPS,
             f"{len(samples)} samples, expected {STEPS}")
    worst = max(s["residual"] for s in samples)
    _require(d["max_residual"] == worst, "max_residual is not the sample max")
    _require(worst <= RESIDUAL_BOUND,
             f"residual {worst!r} above {RESIDUAL_BOUND:g}")
    first = samples[0]
    gamma0 = _from_wire(first["gamma"])
    _require(first["t"] == 0.0 and np.allclose(gamma0, np.eye(len(gamma0)),
                                                rtol=0, atol=1e-12),
             "gamma(0) is not the identity")
    return len(samples)


def check_sweep(out: str, expect_pass: bool) -> int:
    d = json.loads(out)
    _require(d["steps"] == STEPS, f"steps {d['steps']}")
    _require(d["passed"] is expect_pass,
             f"{d['subgroup']}: passed={d['passed']}, expected {expect_pass}")
    _require((d["max_defect"] <= d["threshold"]) == expect_pass,
             f"{d['subgroup']}: defect {d['max_defect']!r} vs threshold "
             f"{d['threshold']!r}")
    if not expect_pass:
        _require(d["max_defect"] >= CONTROL_FLOOR,
                 f"control defect {d['max_defect']!r} below {CONTROL_FLOOR:g}")
    return STEPS


# -- workloads ----------------------------------------------------------------


class Workload:
    """Inputs for one workload and seed, turned into requests on demand."""

    # An untimed command of the same family, run once per worker in set-up.
    warmup: list[str] = []
    normalize: Callable[[str], str] = staticmethod(lambda out: out)

    def request(self, k: int) -> list[Op]:
        raise NotImplementedError


class Certify(Workload):
    warmup = ["verify", "--structure", "gl:real:2", "--trials", "1"]
    normalize = staticmethod(strip_timing)

    def __init__(self, seed: int):
        self.inputs = certify_inputs(seed)

    def request(self, k: int) -> list[Op]:
        s = self.inputs[k % len(self.inputs)]
        return [Op("certificate", ["verify", "--seed", str(s)], 0,
                   check_certificate)]


class Sample(Workload):
    warmup = ["sample", "--structure", "gl:real:3", "--trials", "1"]

    def __init__(self, seed: int):
        self.inputs = sample_inputs(seed)

    def request(self, k: int) -> list[Op]:
        seeds = self.inputs[k % len(self.inputs)]
        # Every structure is expected to exit 0 as documented. gl:real:2
        # exits 3 on every seed (k is one-dimensional, so each k_k draw is
        # degenerate); it stays in the grid and counts as a failed op.
        return [Op("sample", ["sample", "--structure", sel, "--seed", str(s),
                              "--format", "csv"], 0, check_sample_csv)
                for sel, s in zip(GRID, seeds)]


class Section(Workload):
    warmup = ["section", "--u", "[[1,2],[3,4]]", "--v", "[[0,1],[1,0]]"]

    def __init__(self, seed: int):
        self.pool = section_pool(seed)
        self.inputs = section_schedule(seed, len(self.pool))

    def request(self, k: int) -> list[Op]:
        i, eu, ev = (int(x) for x in self.inputs[k % len(self.inputs)])
        pair = self.pool[i]
        argv = ["section", "--u", wire(pair.u * 2.0 ** eu),
                "--v", wire(pair.v * 2.0 ** ev)]
        if pair.expect_exit:
            return [Op("section", argv, pair.expect_exit, check_silent)]
        return [Op("section", argv, 0,
                   lambda out: check_section(out, pair, eu, ev))]


class Geodesic(Workload):
    warmup = ["geodesic", "--u", "[[0,1],[-1,0.5]]", "--steps", "2"]

    def __init__(self, seed: int):
        self.inputs = geodesic_inputs(seed)

    def request(self, k: int) -> list[Op]:
        traces, sweeps, verdicts = self.inputs[k % len(self.inputs)]
        ops = [Op("trace", ["geodesic", "--u", wire(u), "--steps", str(STEPS)],
                  0, lambda out, sel=sel: check_trace(out, sel))
               for sel, u in zip(GRID, traces)]
        ops += [Op("sweep", ["subgroup", "--group", g, "--u", wire(u),
                             "--steps", str(STEPS)], 0 if ok else 1,
                   lambda out, ok=ok: check_sweep(out, ok))
                for g, u, ok in zip(SUBGROUPS, sweeps, verdicts)]
        return ops


CLASSES = {"certify": Certify, "sample": Sample, "section": Section,
           "geodesic": Geodesic}

