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

import ast
import math
import re
from fractions import Fraction
from typing import Union

from .geometry import Arrangement, Line, cone
from .scalar import RATIONAL, FieldCtx, Poly, QuadElem, RatFn, Scalar, sqrt_rational

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
MAX_RADICAND = 10**12  # squarefree_decompose trial-divides up to its cube root
_PARAM_TEXT = re.compile(r"(?:[0-9.+\-*/()\s]|sqrt|I)*")
_NUMBER = re.compile(r"\d+\.?\d*|\.\d+")
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


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
    # Fraction("1e999999999") builds the whole integer; the encoder writes no exponent
    if isinstance(s, str) and "e" not in s.lower():
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

    ``ast.parse`` only parses the text; its tree is evaluated exactly.  The
    grammar: decimal numbers, unary ``+ -``, binary ``+ - * /``, parentheses,
    ``I`` and ``sqrt(x)`` of a rational x with no ``sqrt`` inside x.  The value
    must lie in Q or one Q(sqrt(d)): a sum over two quadratic fields is
    rejected, a product or quotient of two pure roots is a pure root.
    """
    if len(text) > MAX_PARAM_CHARS:
        raise ArrIOError(f"parameter text longer than {MAX_PARAM_CHARS} characters")
    src = text.strip()  # ast.parse rejects leading blanks as an indent
    bad = f"cannot parse parameter {text!r}: use digits, . + - * / ( ), sqrt(...) and I"
    if not _PARAM_TEXT.fullmatch(src):
        raise ArrIOError(bad)
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise ArrIOError(bad) from e
    return _evaluate(tree.body, src, False)


def _evaluate(node: ast.AST, src: str, in_sqrt: bool) -> QuadElem:
    """Value of a node of the parameter grammar, over RATIONAL when rational."""
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(ast.get_source_segment(src, node)):
        return QuadElem.of(RATIONAL, Fraction(ast.get_source_segment(src, node)))
    if isinstance(node, ast.Name) and node.id == "I":
        return QuadElem(FieldCtx(-1), 0, 1)
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        x = _evaluate(node.operand, src, in_sqrt)
        return -x if isinstance(node.op, ast.USub) else x
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        x, y = _evaluate(node.left, src, in_sqrt), _evaluate(node.right, src, in_sqrt)
        return _apply(_OPS[type(node.op)], x, y, src)
    call = isinstance(node, ast.Call) and getattr(node.func, "id", "") == "sqrt"
    if not call or len(node.args) != 1 or node.keywords:
        raise ArrIOError(f"cannot parse parameter {src!r}")
    if in_sqrt:
        raise ArrIOError(f"parameter {src!r} nests sqrt inside sqrt")
    r = _evaluate(node.args[0], src, True)
    p, q, n = r.as_ints()
    if q:
        raise ArrIOError(f"parameter {src!r} is not in a quadratic field")
    if abs(p * n) > MAX_RADICAND:  # sqrt(p/n) = sqrt(p*n)/n
        raise ArrIOError(f"parameter {src!r} has a square root larger than {MAX_RADICAND}")
    return sqrt_rational(1, r.a)  # disc 1: Q(sqrt(d)) for the radicand's d, or Q


def _apply(op: str, x: QuadElem, y: QuadElem, src: str) -> QuadElem:
    """x op y, with a rational operand taken into the other's field."""
    if op == "/":
        if y.is_zero():
            raise ArrIOError(f"parameter {src!r} divides by zero")
        y, op = y.inverse(), "*"
    if x.is_rational():
        x = QuadElem.of(y.ctx, x.a)
    elif y.is_rational():
        y = QuadElem.of(x.ctx, y.a)
    elif x.ctx != y.ctx:
        if op != "*" or x.a or y.a:
            raise ArrIOError(f"parameter {src!r} mixes two square roots")
        # sqrt(d1)*sqrt(d2) = g*sqrt(d1*d2/g^2) for squarefree d1, d2 and
        # g = gcd(d1, d2), negated when both roots are imaginary
        d1, d2 = x.ctx.disc, y.ctx.disc
        g = math.gcd(d1, d2)
        d = d1 * d2 // (g * g)
        if abs(d) > MAX_RADICAND:  # FieldCtx(d) trial-divides up to sqrt(|d|)
            raise ArrIOError(f"parameter {src!r} has a square root larger than {MAX_RADICAND}")
        return QuadElem(FieldCtx(d), 0, x.b * y.b * (-g if d1 < 0 and d2 < 0 else g))
    z = x + y if op == "+" else x - y if op == "-" else x * y
    return QuadElem.of(RATIONAL, z.a) if z.is_rational() else z
