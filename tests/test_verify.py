"""The sampled suites of run_verify against their pair-by-pair form.

The reference suites below draw and evaluate one pair at a time, with
random_part and the one-pair quartic; run_verify draws stacks and evaluates
them with sections. Both must give the same certificate bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from liecurv import curvature, from_selector, verify
from liecurv.algebra import bracket, random_matrix
from liecurv.cartan import gl_complex, gl_real, random_part, standard_basis
from liecurv.curvature import (bracket_norm_identity_gap, quartic,
                               quartic_commuting, quartic_special)
from liecurv.geodesics import (geodesic_body_velocity, geodesic_point,
                               geodesic_residual, subgroup_from_selector,
                               totally_geodesic_check)
from liecurv.oracles import (commuting_pair, quartic_from_definition,
                             riemann_from_metric)
from liecurv.verify import (BRACKET_CLAIM_BOUND, CONTROL_FLOOR, DEFAULT_PLAN,
                            FD_STEP, GEODESIC_BOUND, GEODESIC_GRID,
                            GEODESIC_SAMPLES, IFF_COMMUTING_PAIRS,
                            IFF_RANDOM_PAIRS, LINK_TANGENTS,
                            MIXED_MATCH_BOUND, ORACLE_BOUND, RIEMANN_MAX_DIM,
                            RIEMANN_SECTIONS, SIGN_BOUND, SUBGROUP_BOUND,
                            SUBGROUP_TANGENTS, _suite, rel_gap, run_verify)


def _oracle_suite(plan, rng, trials):
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


def _sign_suites(s, rng, trials):
    worst_pp = worst_kk = worst_pk = worst_gk = -np.inf
    worst_gp = 0.0
    for _ in range(trials):
        p1, p2 = random_part(s, rng, "p"), random_part(s, rng, "p")
        k1, k2 = random_part(s, rng, "k"), random_part(s, rng, "k")
        g1, g2 = random_part(s, rng, "g"), random_part(s, rng, "g")
        worst_pp = max(worst_pp, quartic(s, p1, p2))
        worst_kk = max(worst_kk, -quartic(s, k1, k2))
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


def _bracket_claim_suite(s, rng, trials):
    worst = 0.0
    for _ in range(trials):
        u, v = random_part(s, rng, "g"), random_part(s, rng, "g")
        scale = s.b_theta(u, u) * s.b_theta(v, v) + 1.0
        worst = max(worst, abs(bracket_norm_identity_gap(s, u, v)) / scale)
    return _suite("bracket_norm_claim", worst, BRACKET_CLAIM_BOUND,
                  detail={"samples": trials})


def _commuting_suite(s, seed, trials):
    target = s if s.n >= 2 else replace(s, n=2)
    worst = 0.0
    for i in range(trials):
        u, v = commuting_pair(seed + i, target.n, field=target.field)
        worst = max(worst, rel_gap(quartic(target, u, v),
                                   quartic_commuting(target, u, v)))
    return _suite("commuting_theorem", worst, SIGN_BOUND,
                  detail={"pairs": trials, "n": target.n})


def _flat_2x2_suite(seed, trials):
    s = gl_real(2)
    worst = 0.0
    for i in range(trials):
        u, v = commuting_pair(seed + 10_000 + i, 2)
        worst = max(worst, abs(quartic(s, u, v)))
    return _suite("commuting_2x2_flat", worst, SIGN_BOUND,
                  detail={"pairs": trials})


def _symmetric_iff_suite(rng, seed):
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


def _tangent(s, rng):
    u = random_part(s, rng, "g")
    u_norm = np.linalg.norm(u)
    return (2.0 / u_norm) * u if u_norm > 2.0 else u


def _geodesic_suite(s, rng):
    worst = 0.0
    for _ in range(GEODESIC_SAMPLES):
        u = _tangent(s, rng)
        worst = max(worst, float(geodesic_residual(s, u, GEODESIC_GRID).max()))
    return _suite("geodesic_residual", worst, GEODESIC_BOUND,
                  detail={"samples": GEODESIC_SAMPLES,
                          "t_grid": GEODESIC_GRID.tolist(), "h": FD_STEP})


def _subgroup_suites(rng):
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


def _riemann_suite(plan, rng):
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
        P = {spec: np.einsum(spec + "->ijkl", R)
             for spec in ("ijlk", "klij", "jkil", "kijl")}

        def gap(term):
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


def _velocity_link_suite(rng):
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


REFERENCE_SUITES = {f.__name__: f for f in (
    _oracle_suite, _sign_suites, _bracket_claim_suite, _commuting_suite,
    _flat_2x2_suite, _symmetric_iff_suite, _geodesic_suite, _subgroup_suites,
    _riemann_suite, _velocity_link_suite)}


def _certificate(**kwargs):
    """run_verify(**kwargs).as_dict() with every elapsed_seconds set to 0."""
    out = run_verify(**kwargs).as_dict()
    out["elapsed_seconds"] = 0
    for suite in out["suites"]:
        suite["elapsed_seconds"] = 0
    return out


@pytest.mark.parametrize("structure, seed, trials, chunk", [
    (None, 0, 3, None),
    (None, 42, 4, None),
    ("gl:real:2", 42, 5, None),
    ("gl:complex:1", 42, 5, None),
    # chunk boundaries fall inside every sampled suite
    ("gl:real:3", 7, 20, 7),
    (None, 42, 15, 7),
])
def test_sampled_suites_match_the_pair_by_pair_loop(monkeypatch, structure,
                                                     seed, trials, chunk):
    if chunk is not None:
        monkeypatch.setattr(curvature, "_CHUNK_ROWS", chunk)
    kwargs = dict(structure=from_selector(structure) if structure else None,
                  seed=seed, trials=trials)
    stacked = _certificate(**kwargs)
    for name, reference in REFERENCE_SUITES.items():
        monkeypatch.setattr(verify, name, reference)
    assert stacked == _certificate(**kwargs)


def test_sampled_suites_pass_quartic_at_most_the_chunk_bound(monkeypatch):
    monkeypatch.setattr(curvature, "_CHUNK_ROWS", 7)
    real_timed, real_quartic = verify._timed, verify.quartic
    suites, calls = [], []

    def timed(make, *args):
        suites.append(make.__name__)
        return real_timed(make, *args)

    def recording_quartic(s, u, v):
        calls.append((suites[-1], np.shape(u)[:-2]))
        return real_quartic(s, u, v)

    monkeypatch.setattr(verify, "_timed", timed)
    monkeypatch.setattr(verify, "quartic", recording_quartic)
    run_verify(trials=20)
    # the worked examples take one pair each, the sampled suites stacks
    assert calls[:2] == [("_example_2x2_suite", ()), ("_example_3x3_suite", ())]
    assert max(shape[0] for _, shape in calls[2:]) == 7
    rows = {}
    for suite, (n,) in calls[2:]:
        rows[suite] = rows.get(suite, 0) + n
    assert rows == {"_oracle_suite": len(DEFAULT_PLAN) * 20,
                    "_sign_suites": 5 * 20,
                    "_commuting_suite": 20,
                    "_flat_2x2_suite": 20,
                    "_symmetric_iff_suite": IFF_RANDOM_PAIRS + IFF_COMMUTING_PAIRS}


def test_the_commuting_and_special_references_take_one_call_per_chunk(
        monkeypatch):
    monkeypatch.setattr(curvature, "_CHUNK_ROWS", 7)
    real_timed = verify._timed
    real_pair, real_special = verify.commuting_pair, verify.quartic_special
    suites, calls = [], []

    def timed(make, *args):
        suites.append(make.__name__)
        return real_timed(make, *args)

    def recording_pair(seeds, n, **kwargs):
        calls.append(("commuting_pair", suites[-1], len(seeds)))
        return real_pair(seeds, n, **kwargs)

    def recording_special(s, u, v):
        calls.append(("quartic_special", suites[-1], len(u)))
        return real_special(s, u, v)

    monkeypatch.setattr(verify, "_timed", timed)
    monkeypatch.setattr(verify, "commuting_pair", recording_pair)
    monkeypatch.setattr(verify, "quartic_special", recording_special)
    run_verify(trials=20)
    assert calls == (
        [("quartic_special", "_sign_suites", n) for n in (7, 7, 6)]
        + [("commuting_pair", "_commuting_suite", n) for n in (7, 7, 6)]
        + [("commuting_pair", "_flat_2x2_suite", n) for n in (7, 7, 6)]
        + [("commuting_pair", "_symmetric_iff_suite", n)
           for n in (7,) * (IFF_COMMUTING_PAIRS // 7) + (1,)])
