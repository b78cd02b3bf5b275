"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 surface-description/parse error,
3 any other library error or a failed verification (numeric failure,
quadrature trouble, point off the singular set).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import gallery as gallery_mod
from .errors import (ExpressionSyntaxError, InvalidCurveData,
                     InvalidWeierstrassData, MinfaceError, ModeUnsupported,
                     MultipleVariables, NonIntegerExponent, SpecFileError)
from .mesh import export_fields_csv, export_obj, sample_grid
from .singular import (SingularClassification, classify_singular,
                       trace_singular_set, write_singular_csv)
from .surface import conjugate_data, load_spec, save_spec
from .verify import format_results, run_battery

_PARSE_ERRORS = (SpecFileError, ExpressionSyntaxError, NonIntegerExponent,
                 MultipleVariables, InvalidWeierstrassData, InvalidCurveData,
                 ModeUnsupported)

_TAG_WORDS = {
    SingularClassification.CUSPIDAL_EDGE: "cuspidal edge",
    SingularClassification.SWALLOWTAIL: "swallowtail",
    SingularClassification.CUSPIDAL_CROSS_CAP: "cuspidal cross cap",
    SingularClassification.DEGENERATE: "degenerate singular point",
    SingularClassification.UNRESOLVED: "unresolved",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {n}")
        return n

    return parse


def build_parser() -> _Parser:
    p = _Parser(prog="minface",
                description="Timelike minimal surfaces in Lorentz-Minkowski "
                            "3-space: sampling, curvature, singularities.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_spec(sp):
        sp.add_argument("--spec", required=True,
                        help="JSON surface description file")

    sp = sub.add_parser("sample", help="triangulate a surface to OBJ")
    add_spec(sp)
    sp.add_argument("--nu", type=_int_at_least(2), default=64)
    sp.add_argument("--nv", type=_int_at_least(2), default=64)
    sp.add_argument("--out", required=True, help="output OBJ path")
    sp.add_argument("--fields", help="also write per-vertex scalars (CSV)")

    sp = sub.add_parser("singular", help="trace and classify the singular set")
    add_spec(sp)
    sp.add_argument("--grid", type=_int_at_least(16), default=256)
    sp.add_argument("--out", required=True, help="output CSV path")

    sp = sub.add_parser("classify", help="classify one singular point")
    add_spec(sp)
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--v", type=float, required=True)

    sp = sub.add_parser("curvature", help="Gaussian curvature at a point")
    add_spec(sp)
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--method", default="closed",
                    choices=["closed", "extrinsic", "intrinsic"])

    sp = sub.add_parser("conjugate", help="write the conjugate surface")
    add_spec(sp)
    sp.add_argument("--out", required=True, help="output JSON path")

    sp = sub.add_parser("verify", help="run the numerical property battery")
    add_spec(sp)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("gallery", help="write a bundled example surface")
    sp.add_argument("--name", required=True, choices=gallery_mod.names())
    sp.add_argument("--out", required=True, help="output directory")
    return p


def _cmd_sample(args) -> int:
    surface = load_spec(args.spec)
    mesh = sample_grid(surface, args.nu, args.nv)
    export_obj(mesh, args.out)
    if args.fields:
        export_fields_csv(mesh, args.fields)
    return 0


def _cmd_singular(args) -> int:
    surface = load_spec(args.spec)
    curves = trace_singular_set(surface, args.grid)
    write_singular_csv(curves, args.out)
    n = sum(len(c.points) for c in curves)
    print(f"{len(curves)} curve(s), {n} point(s) -> {args.out}")
    return 0


def _cmd_classify(args) -> int:
    surface = load_spec(args.spec)
    report = classify_singular(surface, args.u, args.v)
    print(_TAG_WORDS[report.tag])
    return 0


def _cmd_curvature(args) -> int:
    surface = load_spec(args.spec)
    from .curvature import gaussian_curvature

    k = gaussian_curvature(surface, args.u, args.v, method=args.method)
    print(repr(k))
    return 0


def _cmd_conjugate(args) -> int:
    surface = load_spec(args.spec)
    save_spec(conjugate_data(surface), args.out)
    return 0


def _cmd_verify(args) -> int:
    surface = load_spec(args.spec)
    results = run_battery(surface, seed=args.seed)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 3


def _cmd_gallery(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    name = args.name
    surface = gallery_mod.get(name)
    spec_path = os.path.join(args.out, f"{name}.json")
    import json

    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(gallery_mod.spec_dict(name), fh, indent=2)
        fh.write("\n")
    mesh = sample_grid(surface, 64, 64)
    export_obj(mesh, os.path.join(args.out, f"{name}.obj"))
    try:
        curves = trace_singular_set(surface, 256)
        write_singular_csv(curves,
                           os.path.join(args.out, f"{name}-singular.csv"))
    except ModeUnsupported as err:
        print(f"note: no singular CSV ({err})", file=sys.stderr)
    print(f"wrote {name} files to {args.out}")
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "singular": _cmd_singular,
    "classify": _cmd_classify,
    "curvature": _cmd_curvature,
    "conjugate": _cmd_conjugate,
    "verify": _cmd_verify,
    "gallery": _cmd_gallery,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _PARSE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MinfaceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())
