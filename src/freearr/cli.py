"""Command-line front end: analysis reports, searches, scans, SVG rendering.

Input is either a JSON arrangement file or ``catalog:name`` /
``catalog:name?lambda=VALUE``.  Reports are JSON by default (``--md`` for
human-readable markdown) and are pure functions of the input and flags.

Exit codes: 0 success, 1 output pipe closed early, 2 parse/usage error,
3 field mismatch, 4 self-check failure, 5 not drawable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .arrio import (
    ArrIOError,
    decode_arrangement,
    encode_arrangement,
    encode_field,
    encode_line,
    encode_scalar,
    parse_param,
)
from .catalog import (
    CatalogError,
    CatalogMismatchError,
    catalog_family,
    catalog_get,
    catalog_names,
    catalog_selfcheck,
)
from .freeness import is_free, s_membership
from .geometry import Arrangement
from .lattice import (
    char_poly,
    compute_lattice,
    exponents_from_charpoly,
    lattice_automorphisms,
)
from .moduli import classify_profiles, scan_family
from .scalar import FieldMismatchError
from .search import (
    Chain,
    SearchCache,
    free_additions,
    free_deletions,
    is_inductively_free,
    recursive_freeness_bounded,
)
from .svg import NotDrawableError, render_svg

__all__ = ["main"]

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_FIELD = 3
EXIT_SELFCHECK = 4
EXIT_NOT_DRAWABLE = 5

MAX_CLASSIFY_LINES = 20
MAX_INPUT_CHARS = 100_000  # characters in one JSON input file
MAX_SIZE_GROWTH = 6  # recursive --max-size: at most the input size plus this

# The most specific class in an exception's MRO picks its exit code.
_EXIT_CODES = {
    CatalogMismatchError: EXIT_SELFCHECK,
    FieldMismatchError: EXIT_FIELD,
    NotDrawableError: EXIT_NOT_DRAWABLE,
    CatalogError: EXIT_PARSE,
    ValueError: EXIT_PARSE,
}


def _load_input(spec: str) -> Arrangement:
    if spec.startswith("catalog:"):
        rest = spec[len("catalog:") :]
        param = None
        if "?" in rest:
            rest, query = rest.split("?", 1)
            if not query.startswith("lambda="):
                raise ArrIOError(f"bad catalog query {query!r} (use lambda=VALUE)")
            param = parse_param(query[len("lambda=") :])
        return catalog_get(rest, param)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_INPUT_CHARS + 1)
    except (OSError, UnicodeDecodeError) as e:
        raise ArrIOError(f"cannot read {spec}: {e}") from e
    if len(text) > MAX_INPUT_CHARS:
        raise ArrIOError(f"{spec} is longer than {MAX_INPUT_CHARS} characters")
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ArrIOError(f"malformed JSON in {spec}: {e}") from e
    return decode_arrangement(obj)


def _chain_json(chain: Optional[Chain]) -> Optional[dict]:
    if chain is None:
        return None
    return {
        "start_size": len(chain.start),
        "moves": [
            {"kind": mv.kind, "line": encode_line(mv.line)} for mv in chain.moves
        ],
        "stages": [list(e) if e is not None else None for e in chain.stages],
    }


def _freeness_json(A: Arrangement, lat) -> dict:
    r = is_free(A, lat=lat)
    out: dict = {
        "verdict": r.verdict,
        "route": r.route,
        "exponents": list(r.exponents) if r.exponents else None,
        "witness": dict(r.witness),
        "anomaly": r.anomaly,
    }
    pair = r.restriction_pair
    if pair is not None and pair.witness is not None:
        out["witness"]["derivation_e1"] = {
            "f_u": [encode_scalar(c) for c in pair.witness.f_u],
            "f_v": [encode_scalar(c) for c in pair.witness.f_v],
        }
    if r.is_free:
        out["s_membership"] = s_membership(A, lat, r)
    return out


def _cmd_analyze(args) -> dict:
    A = _load_input(args.input)
    lat = compute_lattice(A)
    c = char_poly(A, lat)
    return {
        "size": len(A),
        "field": encode_field(A.ctx),
        "profile": list(lat.profile),
        "points": [
            {
                "coords": [encode_scalar(v) for v in fp.point.coords],
                "incident": list(fp.incident),
                "mu": fp.mu,
            }
            for fp in lat.points
        ],
        "charpoly": list(c.coefficients),
        "exponents": list(e) if (e := exponents_from_charpoly(c)) else None,
        "freeness": _freeness_json(A, lat),
        "aut_order": lattice_automorphisms(lat).order,
    }


def _cmd_charpoly(args) -> dict:
    A = _load_input(args.input)
    c = char_poly(A)
    e = exponents_from_charpoly(c)
    return {
        "coefficients": list(c.coefficients),
        "quad_sum": c.quad_sum,
        "quad_prod": c.quad_prod,
        "exponents": list(e) if e else None,
    }


def _cmd_freeness(args) -> dict:
    A = _load_input(args.input)
    return _freeness_json(A, compute_lattice(A))


def _cmd_inductive(args) -> dict:
    A = _load_input(args.input)
    chain = is_inductively_free(A)
    return {"inductively_free": chain is not None, "chain": _chain_json(chain)}


def _cmd_recursive(args) -> dict:
    A = _load_input(args.input)
    if args.max_size is not None and args.max_size > len(A) + MAX_SIZE_GROWTH:
        # the search adds lines up to this size; its cost grows steeply with it
        raise ArrIOError(f"--max-size must be at most the input size plus {MAX_SIZE_GROWTH}")
    v = recursive_freeness_bounded(A, max_size=args.max_size)
    return {"verdict": v.kind, "chain": _chain_json(v.chain), "certificate": v.certificate}


def _cmd_additions(args) -> dict:
    A = _load_input(args.input)
    cache = SearchCache()
    entries = []
    for line in free_additions(A, compute_lattice(A), cache):
        r = cache.is_free(A.add(line))
        entries.append({"line": encode_line(line), "exponents": list(r.exponents)})
    return {"count": len(entries), "additions": entries}


def _cmd_deletions(args) -> dict:
    A = _load_input(args.input)
    dels = free_deletions(A)
    return {
        "count": len(dels),
        "deletions": [{"index": h, "exponents": list(e)} for h, e in dels],
    }


def _cmd_aut(args) -> dict:
    A = _load_input(args.input)
    g = lattice_automorphisms(compute_lattice(A))
    return {"order": g.order, "generators": [list(p) for p in g.generators]}


def _cmd_scan_family(args) -> dict:
    fam = catalog_family(args.name)
    samples = []
    if args.samples:
        samples = [parse_param(tok) for tok in args.samples.split(",") if tok]
    table = scan_family(fam, samples, symbolic=args.symbolic)
    rep = table.report
    return {
        "family": table.family,
        "exceptional": {
            "conditions": [
                {
                    "description": c.description,
                    "poly": [encode_scalar(q) for q in c.poly.coeffs],
                }
                for c in rep.conditions
            ],
            "values": [
                {"value": str(v.value), "kind": v.kind} for v in rep.values
            ],
            "unresolved": [
                [encode_scalar(q) for q in p.coeffs] for p in rep.unresolved
            ],
        },
        "rows": [
            {
                "label": r.label,
                "size": r.size,
                "profile": list(r.profile),
                "verdict": r.verdict,
                "route": r.route,
                "exponents": list(r.exponents) if r.exponents else None,
                "inductively_free": r.inductively_free,
                "recursive": r.recursive,
            }
            for r in table.rows
        ],
    }


def _cmd_classify(args) -> dict:
    if args.max > MAX_CLASSIFY_LINES:
        # the enumeration grows about 2x per line: 0.2 s at 20 lines, 1.6 s at 23
        raise ArrIOError(f"--max must be at most {MAX_CLASSIFY_LINES}")
    triples = classify_profiles(args.max)
    return {
        "profiles": [
            {"ell": p.ell, "a": p.a, "profile": list(p.profile)} for p in triples
        ]
    }


def _cmd_catalog(args):
    if args.action == "list":
        return {"names": catalog_names()}
    if args.name is None:
        raise ArrIOError("catalog get/check needs a name")
    param = parse_param(args.param) if args.param is not None else None
    if args.action == "check":
        return catalog_selfcheck(args.name, param)
    A = catalog_get(args.name, param)
    if args.svg:
        return render_svg(A)
    return encode_arrangement(A)


def _cmd_render(args) -> str:
    A = _load_input(args.input)
    viewport = (-4, 4, -4, 4)
    if args.viewport:
        parts = args.viewport.split(",")
        if len(parts) != 4:
            raise ArrIOError("viewport needs four comma-separated numbers")
        viewport = tuple(Fraction(p) for p in parts)
    doc = render_svg(A, viewport=viewport)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
        return f"wrote {args.output}\n"
    return doc


def _to_markdown(obj, indent: int = 0) -> str:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}- **{k}**:")
                lines.append(_to_markdown(v, indent + 1))
            else:
                lines.append(f"{pad}- **{k}**: {json.dumps(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_to_markdown(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freearr",
        description="Exact freeness workbench for line arrangements in the projective plane.",
    )
    ap.add_argument("--md", action="store_true", help="human-readable markdown output")
    ap.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--md", action="store_true", default=argparse.SUPPRESS)
    fmt.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    def with_input(name: str, help_: str):
        p = sub.add_parser(name, help=help_, parents=[fmt])
        p.add_argument("input", help="JSON file path or catalog:name[?lambda=VALUE]")
        return p

    with_input("analyze", "lattice, characteristic polynomial, freeness, automorphisms")
    with_input("charpoly", "characteristic polynomial and exponents")
    with_input("freeness", "freeness verdict with certificate")
    with_input("inductive", "inductive-freeness decision with deletion chain")
    p = with_input("recursive", "bounded recursive-freeness search")
    p.add_argument("--max-size", type=int, default=None)
    with_input("additions", "all free one-line additions (stratified)")
    with_input("deletions", "all free one-line deletions")
    with_input("aut", "lattice automorphism group")
    p = sub.add_parser("scan-family", help="classify a one-parameter family", parents=[fmt])
    p.add_argument("name")
    p.add_argument("--samples", default="")
    p.add_argument("--symbolic", action="store_true")
    p = sub.add_parser("classify-profiles", help="profiles with no free deletion", parents=[fmt])
    p.add_argument("--max", type=int, required=True)
    p = sub.add_parser("catalog", help="named arrangements", parents=[fmt])
    p.add_argument("action", choices=["list", "get", "check"])
    p.add_argument("name", nargs="?")
    p.add_argument("--param", default=None)
    p.add_argument("--svg", action="store_true")
    p = with_input("render", "render the affine chart as SVG")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--viewport", default=None)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return _build_parser()


_HANDLERS = {
    "analyze": _cmd_analyze,
    "charpoly": _cmd_charpoly,
    "freeness": _cmd_freeness,
    "inductive": _cmd_inductive,
    "recursive": _cmd_recursive,
    "additions": _cmd_additions,
    "deletions": _cmd_deletions,
    "aut": _cmd_aut,
    "scan-family": _cmd_scan_family,
    "classify-profiles": _cmd_classify,
    "catalog": _cmd_catalog,
    "render": _cmd_render,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        result = _HANDLERS[args.command](args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(e).__mro__ if c in _EXIT_CODES)
    if isinstance(result, str):
        text = result
    elif getattr(args, "md", False):
        text = _to_markdown(result) + "\n"
    else:
        text = json.dumps(result, indent=2) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``freearr ... | head``): point stdout at
        # devnull so the flush at exit does not fail again, as the Python
        # ``signal`` docs advise, and exit 1 without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
