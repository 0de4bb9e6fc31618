"""Command-line interface.

Five subcommands: section (curvature of one 2-plane), verify (the full
certificate battery), sample (stratified random sections as CSV), geodesic
(trace one geodesic with residuals), subgroup (totally-geodesic sweep).
Matrices are passed inline as JSON or as paths to JSON files. Exit codes:
0 success, 1 verification/numeric failure, 2 usage or parse error,
3 degenerate section, 4 tangent outside the subgroup algebra.

main(argv) can be called many times in one process: it builds its parser on
the first call and reuses it, and looks up the handler cmd_<command> by name
on each call. A process that runs one command sees no change.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from . import curvature
from .algebra import (REAL, MatrixElement, matrix_from_json, matrix_to_json,
                      random_matrix)
from .cartan import CartanStructure, from_selector, gl_real, theta_part
from .curvature import quartic_commuting, quartic_special, sectional, sections
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
# the exit code of an error, by the first of these types it is an instance of
EXIT_CODES = {DegenerateSection: EXIT_DEGENERATE, TangentNotInAlgebra: EXIT_TANGENCY,
              **dict.fromkeys((ValueError, OSError, UnknownGroup, DimensionMismatch,
                               NotPureType, IncompleteBasis), EXIT_USAGE),
              LieCurvError: EXIT_VERIFY_FAIL}

# the sample strata, in output order, and the theta-parts of their two vectors
STRATA = {"p_p": ("p", "p"), "k_k": ("k", "k"), "p_k": ("p", "k"),
          "general": ("g", "g")}
# sample gives a stratum up after this many degenerate draws in a row
MAX_DEGENERATE_DRAWS = 100


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecurv",
        description="Left-invariant curvature and geodesics on matrix groups")
    sub = parser.add_subparsers(dest="command", required=True)

    section = sub.add_parser("section", help="curvature report for span{u, v}")
    _matrix_args(section, need_v=True)
    _out_arg(section)

    verify = sub.add_parser("verify", help="run the verification battery")
    verify.add_argument("--structure", default=None,
                        help="run the generic suites on this structure")
    _seed_trials_args(verify)
    verify.add_argument("--tol", type=float, default=None,
                        help="replace the bound of every error suite")
    _out_arg(verify)

    sample = sub.add_parser("sample", help="stratified random curvature samples")
    sample.add_argument("--structure", default=None,
                        help="gl:real:<n> or gl:complex:<n> (default gl:real:3)")
    _seed_trials_args(sample)
    _out_arg(sample, default_format="csv")

    geodesic = sub.add_parser("geodesic", help="trace the geodesic from tangent u")
    _matrix_args(geodesic, need_v=False)
    geodesic.add_argument("--t-max", type=float, default=2.0)
    geodesic.add_argument("--steps", type=int, default=64)
    _out_arg(geodesic, default_format="json")

    subgroup = sub.add_parser("subgroup", help="totally-geodesic subgroup sweep")
    subgroup.add_argument("--group", required=True,
                          help="so:<n>, sl:<n>, opq:<p>,<q> or ut:<n>")
    subgroup.add_argument("--u", required=True,
                          help="tangent as inline JSON or a file path")
    subgroup.add_argument("--t-max", type=float, default=2.0)
    subgroup.add_argument("--steps", type=int, default=64)
    _out_arg(subgroup)

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
        return globals()[f"cmd_{args.command}"](args)
    except tuple(EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES.items()
                    if isinstance(e, error))


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
    return CartanStructure(u.n, u.field)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _emit_json(obj: dict, out: Optional[str]) -> None:
    _emit(_json_text(obj), out)


def _emit_csv(header, rows, out: Optional[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out)


# json's C encoder; json.dumps with an indent runs its pure-Python encoder
_encode = json.JSONEncoder().encode
_SCALARS = frozenset((int, float, bool, type(None)))
_ARRAYS = frozenset((list, tuple))


def _json_text(obj, pad: str = "") -> str:
    """The text of json.dumps(obj, indent=2), byte for byte, for an object
    nested at the indentation pad.

    A non-empty list of scalars (no strings), or of non-empty lists of
    scalars such as complex entries, is encoded in one call of the C encoder
    and then laid out: its ", " and "], [" separators cannot occur inside a
    number or a literal. Keys are coerced as json coerces them.
    """
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = set(map(type, obj))
        if types <= _SCALARS:
            body = _encode(obj)[1:-1].replace(", ", ",\n" + inner)
        elif (types <= _ARRAYS and all(obj)
              and set(map(type, chain.from_iterable(obj))) <= _SCALARS):
            deeper = inner + "  "
            body = ("[\n" + deeper + _encode(obj)[2:-2]
                    .replace("], [", f"\n{inner}],\n{inner}[\n{deeper}")
                    .replace(", ", ",\n" + deeper) + "\n" + inner + "]")
        else:
            body = (",\n" + inner).join(_json_text(x, inner) for x in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = (",\n" + inner).join(
            encode_basestring_ascii(_json_key(k)) + ": " + _json_text(v, inner)
            for k, v in obj.items())
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is float and math.isfinite(obj):
        return float.__repr__(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    # literals, NaN and infinities, subclasses, and the TypeError of a value
    # that is not JSON, as the encoder has them
    return _encode(obj)


def _json_key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return _json_text(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")


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
    payload = {"structure": s.name, **asdict(report),
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
    _check_strata(s)
    rng = np.random.default_rng(args.seed)
    rows = []
    for tag in STRATA:
        for values in _sample_stratum(s, rng, tag, trials):
            rows.append((len(rows), tag, *values))
    header = ("seed_index", "case_tag", "quartic", "area_sq", "sectional")
    if args.format == "csv":
        _emit_csv(header, rows, args.out)
    else:
        _emit_json({"structure": s.name, "seed": args.seed,
                    "rows_per_case": trials,
                    "rows": [dict(zip(header, r)) for r in rows]}, args.out)
    return EXIT_OK


def _check_strata(s: CartanStructure) -> None:
    """DegenerateSection unless every sampled stratum can hold a plane: p_p
    and k_k need real dimension >= 2 of their eigenspace, p_k >= 1 of both."""
    dim_k = s.n * (s.n - 1) // 2 if s.field == REAL else s.n * s.n
    dim_p = s.real_dim - dim_k
    for tag, ok in (("p_p", dim_p >= 2), ("k_k", dim_k >= 2),
                    ("p_k", min(dim_p, dim_k) >= 1)):
        if not ok:
            raise DegenerateSection(
                f"stratum {tag} of {s.name} cannot hold a plane: p has real "
                f"dimension {dim_p} and k has {dim_k}")


def _sample_stratum(s: CartanStructure, rng: np.random.Generator, tag: str,
                    trials: int) -> list[list[float]]:
    """(quartic, area_sq, sectional) of the first `trials` planes of the
    stratum that are not degenerate.

    The planes are drawn pair by pair, u then v, each one random_part draw.
    A degenerate plane is dropped and the next pair takes its place;
    DegenerateSection after MAX_DEGENERATE_DRAWS of them in a row. The pairs
    are drawn and evaluated by sections in chunks, each of no more pairs
    than rows are still missing, so every pair drawn is one that the
    pair-by-pair loop draws too, and the generator ends where it ends.
    """
    parts = STRATA[tag]
    kept, run = [], 0
    while trials:
        rows = min(trials, curvature._CHUNK_ROWS)
        pairs = random_matrix(rng, s.n, s.field, (rows, 2))
        report, degenerate = sections(
            s, *(theta_part(s, pairs[:, i], part) for i, part in enumerate(parts)))
        for bad in degenerate.tolist():
            run = run + 1 if bad else 0
            if run == MAX_DEGENERATE_DRAWS:
                raise DegenerateSection(
                    f"stratum {tag} of {s.name}: {run} consecutive "
                    f"degenerate draws")
        keep = ~degenerate
        kept += np.stack([report.quartic[keep], report.area_sq[keep],
                          report.sectional[keep]], axis=1).tolist()
        trials -= int(keep.sum())
    return kept


def cmd_geodesic(args) -> int:
    u = _load_matrix(args.u)
    s = _pick_structure(args.structure, u)
    if args.format == "csv" and u.field != REAL:
        raise ValueError("csv output supports real matrices only")
    trace = geodesic_trace(s, u, t_max=args.t_max, steps=args.steps)
    if args.format == "json":
        payload = {"structure": s.name, "t_max": args.t_max, "steps": args.steps,
                   "max_residual": float(trace.residual.max()),
                   "samples": [{"t": t, "residual": r, "gamma": gamma,
                                "omega": omega}
                               for t, r, gamma, omega in zip(
                                   trace.t.tolist(), trace.residual.tolist(),
                                   matrix_to_json(trace.gamma),
                                   matrix_to_json(trace.omega))]}
        _emit_json(payload, args.out)
    else:
        n = u.n
        header = (["t", "residual"]
                  + [f"gamma_{i}{j}" for i in range(n) for j in range(n)]
                  + [f"omega_{i}{j}" for i in range(n) for j in range(n)])
        _emit_csv(header, np.column_stack(
            [trace.t, trace.residual, trace.gamma.reshape(args.steps, -1),
             trace.omega.reshape(args.steps, -1)]).tolist(), args.out)
    return EXIT_OK


def cmd_subgroup(args) -> int:
    spec = subgroup_from_selector(args.group)
    u = _load_matrix(args.u)
    report = totally_geodesic_check(spec, u, t_max=args.t_max, steps=args.steps)
    _emit_json(asdict(report), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
