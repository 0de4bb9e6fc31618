"""Command-line interface.

Five subcommands: section (curvature of one 2-plane), verify (the full
certificate battery), sample (stratified random sections as CSV), geodesic
(trace one geodesic with residuals), subgroup (totally-geodesic sweep).
Matrices are passed inline as JSON or as paths to JSON files. Exit codes:
0 success, 1 verification/numeric failure, 2 usage or parse error,
3 degenerate section, 4 tangent outside the subgroup algebra.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .algebra import (REAL, MatrixElement, matrix_from_json, matrix_to_json,
                      random_matrix)
from .cartan import CartanStructure, from_selector, gl_complex, gl_real, theta_split
from .curvature import quartic_commuting, quartic_special, sectional
from .errors import (DegenerateSection, DimensionMismatch, IncompleteBasis,
                     LieCurvError, NotCommuting, NotPureType,
                     TangentNotInAlgebra, UnknownGroup)
from .geodesics import geodesic_trace, subgroup_from_selector, totally_geodesic_check
from .verify import run_verify

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_TANGENCY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecurv",
        description="Left-invariant curvature and geodesics on matrix groups")
    sub = parser.add_subparsers(dest="command", required=True)

    section = sub.add_parser("section", help="curvature report for span{u, v}")
    _matrix_args(section, need_v=True)
    _out_arg(section)
    section.set_defaults(func=cmd_section)

    verify = sub.add_parser("verify", help="run the verification battery")
    verify.add_argument("--structure", default=None,
                        help="run the generic suites on this structure")
    _seed_trials_args(verify)
    verify.add_argument("--tol", type=float, default=None,
                        help="replace the bound of every error suite")
    _out_arg(verify)
    verify.set_defaults(func=cmd_verify)

    sample = sub.add_parser("sample", help="stratified random curvature samples")
    sample.add_argument("--structure", default=None,
                        help="gl:real:<n> or gl:complex:<n> (default gl:real:3)")
    _seed_trials_args(sample)
    _out_arg(sample, default_format="csv")
    sample.set_defaults(func=cmd_sample)

    geodesic = sub.add_parser("geodesic", help="trace the geodesic from tangent u")
    _matrix_args(geodesic, need_v=False)
    geodesic.add_argument("--t-max", type=float, default=2.0)
    geodesic.add_argument("--steps", type=int, default=64)
    _out_arg(geodesic, default_format="json")
    geodesic.set_defaults(func=cmd_geodesic)

    subgroup = sub.add_parser("subgroup", help="totally-geodesic subgroup sweep")
    subgroup.add_argument("--group", required=True,
                          help="so:<n>, sl:<n>, opq:<p>,<q> or ut:<n>")
    subgroup.add_argument("--u", required=True,
                          help="tangent as inline JSON or a file path")
    subgroup.add_argument("--t-max", type=float, default=2.0)
    subgroup.add_argument("--steps", type=int, default=64)
    _out_arg(subgroup)
    subgroup.set_defaults(func=cmd_subgroup)

    return parser


def _matrix_args(p: argparse.ArgumentParser, need_v: bool) -> None:
    p.add_argument("--u", required=True, help="matrix as inline JSON or a file path")
    if need_v:
        p.add_argument("--v", required=True, help="matrix as inline JSON or a file path")
    p.add_argument("--structure", default=None,
                   help="gl:real:<n> or gl:complex:<n> (default: inferred from --u)")


def _seed_trials_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=None)


def _out_arg(p: argparse.ArgumentParser, default_format: Optional[str] = None) -> None:
    """--out, plus --format json|csv for the commands that can write both."""
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    if default_format is not None:
        p.add_argument("--format", choices=("json", "csv"), default=default_format)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except DegenerateSection as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except TangentNotInAlgebra as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TANGENCY
    except (ValueError, OSError, json.JSONDecodeError, UnknownGroup,
            DimensionMismatch, NotPureType, IncompleteBasis) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except LieCurvError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


def _load_matrix(text: str) -> MatrixElement:
    t = text.strip()
    if t.startswith("{") or t.startswith("["):
        obj = json.loads(t)
    else:
        obj = json.loads(Path(text).read_text())
    return matrix_from_json(obj)


def _pick_structure(selector: Optional[str], u: MatrixElement) -> CartanStructure:
    if selector is not None:
        return from_selector(selector)
    return gl_real(u.n) if u.field == REAL else gl_complex(u.n)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _emit_json(obj: dict, out: Optional[str]) -> None:
    _emit(json.dumps(obj, indent=2), out)


def cmd_section(args) -> int:
    u = _load_matrix(args.u)
    v = _load_matrix(args.v)
    s = _pick_structure(args.structure, u)
    report = sectional(s, u, v)
    case = "general"
    special = None
    try:
        special = quartic_commuting(s, u, v)
        case = "commuting"
    except NotCommuting:
        try:
            special, case = quartic_special(s, u, v)
        except NotPureType:
            pass
    payload = {"structure": s.name, **report.as_dict(),
               "case": case, "special_value": special}
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    structure = from_selector(args.structure) if args.structure else None
    trials = args.trials if args.trials is not None else 500
    report = run_verify(structure=structure, seed=args.seed, trials=trials,
                        tol_override=args.tol)
    _emit_json(report.as_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_sample(args) -> int:
    s = from_selector(args.structure) if args.structure else gl_real(3)
    trials = args.trials if args.trials is not None else 100
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    rng = np.random.default_rng(args.seed)
    rows = []
    seed_index = 0
    for tag in ("p_p", "k_k", "p_k", "general"):
        for _ in range(trials):
            rep = _draw_section(s, rng, tag)
            rows.append((seed_index, tag, rep.quartic, rep.area_sq, rep.sectional))
            seed_index += 1
    header = ("seed_index", "case_tag", "quartic", "area_sq", "sectional")
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    else:
        _emit_json({"structure": s.name, "seed": args.seed,
                    "rows_per_case": trials,
                    "rows": [dict(zip(header, r)) for r in rows]}, args.out)
    return EXIT_OK


def _draw_section(s: CartanStructure, rng: np.random.Generator, tag: str):
    for _ in range(100):
        a = random_matrix(rng, s.n, s.field)
        b = random_matrix(rng, s.n, s.field)
        if tag == "p_p":
            u, v = theta_split(s, a).p_part, theta_split(s, b).p_part
        elif tag == "k_k":
            u, v = theta_split(s, a).k_part, theta_split(s, b).k_part
        elif tag == "p_k":
            u, v = theta_split(s, a).p_part, theta_split(s, b).k_part
        else:
            u, v = a, b
        try:
            return sectional(s, u, v)
        except DegenerateSection:
            continue
    raise DegenerateSection("100 consecutive degenerate draws; check the structure")


def cmd_geodesic(args) -> int:
    u = _load_matrix(args.u)
    s = _pick_structure(args.structure, u)
    samples = geodesic_trace(s, u, t_max=args.t_max, steps=args.steps)
    max_residual = max(x.residual for x in samples)
    if args.format == "json":
        payload = {"structure": s.name, "t_max": args.t_max, "steps": args.steps,
                   "max_residual": max_residual,
                   "samples": [{"t": x.t, "residual": x.residual,
                                "gamma": matrix_to_json(x.gamma),
                                "omega": matrix_to_json(x.omega)}
                               for x in samples]}
        _emit_json(payload, args.out)
    else:
        if u.field != REAL:
            raise ValueError("csv output supports real matrices only")
        n = u.n
        header = (["t", "residual"]
                  + [f"gamma_{i}{j}" for i in range(n) for j in range(n)]
                  + [f"omega_{i}{j}" for i in range(n) for j in range(n)])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for x in samples:
            writer.writerow([x.t, x.residual,
                             *x.gamma.ravel().tolist(),
                             *x.omega.ravel().tolist()])
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_subgroup(args) -> int:
    spec = subgroup_from_selector(args.group)
    u = _load_matrix(args.u)
    report = totally_geodesic_check(spec, u, t_max=args.t_max, steps=args.steps)
    _emit_json(report.as_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
