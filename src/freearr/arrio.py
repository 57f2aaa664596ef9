"""Text/JSON encodings for scalars, arrangements, and parameter values.

Scalars encode as: rational -> "p/q" string; quadratic a + b*sqrt(d) ->
{"a": "p/q", "b": "p/q"}; rational function -> {"num": [...], "den": [...]}
with ascending-degree coefficient lists of scalar encodings.

An arrangement file is a JSON object::

    {"field": {"sqrt": d, "param": false},
     "lines": [[s, s, s], ...],
     "affine": false}

``sqrt`` may be omitted or null for plain Q.  With ``"affine": true`` each
triple is an affine form a*x + b*y + c and the whole input is coned (an
infinity line z = 0 is appended).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .geometry import Arrangement, Line, cone
from .scalar import FieldCtx, Poly, QuadElem, RatFn, Scalar, squarefree_decompose

__all__ = [
    "ArrIOError",
    "encode_scalar",
    "decode_scalar",
    "encode_field",
    "encode_arrangement",
    "decode_arrangement",
    "encode_line",
    "parse_param",
]


MAX_PARAM_CHARS = 200
MAX_LINES = 64  # lines in one arrangement file
MAX_RADICAND = 10**12  # squarefree_decompose trial-divides up to its square root
_PARAM_TEXT = re.compile(r"(?:[0-9.+\-*/()\s]|sqrt|I)*")


class ArrIOError(ValueError):
    """Malformed arrangement or scalar encoding."""


def encode_scalar(x: Scalar) -> Union[str, dict]:
    """JSON-ready encoding of a QuadElem or RatFn."""
    if isinstance(x, QuadElem):
        if x.ctx.disc is None or x.b == 0:
            return str(x.a)
        return {"a": str(x.a), "b": str(x.b)}
    if isinstance(x, RatFn):
        return {
            "num": [encode_scalar(c) for c in x.num.coeffs],
            "den": [encode_scalar(c) for c in x.den.coeffs],
        }
    raise ArrIOError(f"cannot encode {type(x).__name__}")


def _decode_fraction(s: object) -> Fraction:
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise ArrIOError(f"bad rational {s!r}") from e
    if isinstance(s, int):
        return Fraction(s)
    raise ArrIOError(f"bad rational {s!r}")


def _decode_quad(ctx: FieldCtx, obj: object) -> QuadElem:
    base = ctx.base()
    if isinstance(obj, (str, int)):
        return QuadElem.of(base, _decode_fraction(obj))
    if isinstance(obj, dict) and set(obj) <= {"a", "b"}:
        if base.disc is None and obj.get("b"):
            raise ArrIOError("sqrt part given but field has no sqrt")
        return QuadElem(
            base,
            _decode_fraction(obj.get("a", "0")),
            _decode_fraction(obj.get("b", "0")),
        )
    raise ArrIOError(f"bad scalar encoding {obj!r}")


def decode_scalar(ctx: FieldCtx, obj: object) -> Scalar:
    """Parse a scalar encoding in the given field context."""
    if isinstance(obj, dict) and ("num" in obj or "den" in obj):
        if not ctx.parametric:
            raise ArrIOError("rational-function scalar in a non-parametric field")
        num = Poly(ctx, [_decode_quad(ctx, c) for c in obj.get("num", [])])
        den = Poly(ctx, [_decode_quad(ctx, c) for c in obj.get("den", ["1"])])
        if den.is_zero():
            raise ArrIOError("zero denominator")
        return RatFn(ctx, num, den)
    return ctx.scalar(_decode_quad(ctx, obj))


def decode_arrangement(obj: dict) -> Arrangement:
    """Build an Arrangement from its JSON object form."""
    if not isinstance(obj, dict) or "lines" not in obj:
        raise ArrIOError("arrangement object needs a 'lines' list")
    fld = obj.get("field", {})
    if not isinstance(fld, dict):
        raise ArrIOError("'field' must be an object")
    disc = fld.get("sqrt")
    if disc is not None and not isinstance(disc, int):
        raise ArrIOError("'sqrt' must be an integer")
    if disc is not None and abs(disc) > MAX_RADICAND:
        raise ArrIOError(f"'sqrt' must be at most {MAX_RADICAND} in absolute value")
    if not isinstance(obj["lines"], (list, tuple)):
        raise ArrIOError("'lines' must be a list")
    if len(obj["lines"]) > MAX_LINES:
        raise ArrIOError(f"an arrangement file holds at most {MAX_LINES} lines")
    ctx = FieldCtx(disc, bool(fld.get("param", False)))
    triples = []
    for raw in obj["lines"]:
        if not isinstance(raw, (list, tuple)) or len(raw) != 3:
            raise ArrIOError(f"line {raw!r} is not a coefficient triple")
        triples.append(tuple(decode_scalar(ctx, s) for s in raw))
    try:
        if obj.get("affine", False):
            return cone(triples, ctx)
        return Arrangement(ctx, triples)
    except (ValueError, ArithmeticError) as e:
        raise ArrIOError(str(e)) from e


def encode_line(line: Line) -> list:
    return [encode_scalar(c) for c in line.coeffs]


def encode_field(ctx: FieldCtx) -> dict:
    """The ``field`` object of the arrangement format."""
    fld: dict = {"param": ctx.parametric}
    if ctx.disc is not None:
        fld["sqrt"] = ctx.disc
    return fld


def encode_arrangement(A: Arrangement) -> dict:
    """JSON object form of an arrangement (always homogeneous)."""
    return {"field": encode_field(A.ctx), "lines": [encode_line(l) for l in A.lines]}


def parse_param(text: str) -> QuadElem:
    """Parse a parameter value like "3", "-1/2", "sqrt(-1)", "(1+sqrt(5))/2".

    The value must lie in Q or a quadratic extension Q(sqrt(d)).  The text
    may hold only digits, ``.``, ``+ - * / ( )``, whitespace, ``sqrt`` and
    ``I``, with no power operator, no ``sqrt`` inside another ``sqrt``
    argument and at most ``MAX_PARAM_CHARS`` characters; anything else is
    rejected before sympy sees it.
    """
    if len(text) > MAX_PARAM_CHARS:
        raise ArrIOError(f"parameter text longer than {MAX_PARAM_CHARS} characters")
    if not _PARAM_TEXT.fullmatch(text) or re.search(r"\*\s*\*", text):
        raise ArrIOError(
            f"cannot parse parameter {text!r}: use digits, . + - * / ( ), sqrt(...) and I"
        )
    # sympy.nsimplify turns a deeply nested root such as 2^(1/2^25) into a
    # rational approximation, so nested roots must not reach it
    in_sqrt: list[bool] = []  # per open parenthesis: whether it lies in a sqrt argument
    for tok in re.findall(r"sqrt\s*\(|[()]", text):
        if tok == ")":
            in_sqrt = in_sqrt[:-1]
            continue
        nested = bool(in_sqrt) and in_sqrt[-1]
        if nested and tok != "(":
            raise ArrIOError(f"parameter {text!r} nests sqrt inside sqrt")
        in_sqrt.append(nested or tok != "(")
    import sympy

    try:
        expr = sympy.nsimplify(sympy.sympify(text, rational=True))
        expr = sympy.expand(expr)
    except (sympy.SympifyError, SyntaxError, TypeError) as e:
        raise ArrIOError(f"cannot parse parameter {text!r}") from e

    a, b, rad = Fraction(0), Fraction(0), None
    terms = expr.as_ordered_terms() if expr.is_Add else [expr]
    for term in terms:
        coeff, radicand, has_i = sympy.Rational(1), Fraction(1), False
        for fac in term.as_ordered_factors():
            if fac.is_Rational:
                coeff *= fac
            elif fac is sympy.I:
                has_i = not has_i
            elif (
                fac.is_Pow
                and fac.exp == sympy.Rational(1, 2)
                and fac.base.is_Rational
                and fac.base > 0
            ):
                radicand *= Fraction(fac.base.p, fac.base.q)
            else:
                raise ArrIOError(f"parameter {text!r} is not in a quadratic field")
        # sqrt(p/q) = sqrt(p*q)/q; i*sqrt(p) = sqrt(-p)
        c = Fraction(coeff.p, coeff.q) / radicand.denominator
        n = radicand.numerator * radicand.denominator
        if n > MAX_RADICAND:
            raise ArrIOError(f"parameter {text!r} has a square root larger than {MAX_RADICAND}")
        if has_i:
            n = -n
        s, d = squarefree_decompose(n)
        c *= s
        if d == 1:
            a += c
            continue
        if rad is None:
            rad = d
        elif rad != d:
            raise ArrIOError(f"parameter {text!r} mixes two square roots")
        b += c
    if rad is None or b == 0:
        return QuadElem.of(FieldCtx(), a)
    return QuadElem(FieldCtx(rad), a, b)
