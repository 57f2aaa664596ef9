"""Tests for JSON scalar/arrangement encodings and parameter parsing."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from freearr.arrio import (
    ArrIOError,
    decode_arrangement,
    decode_scalar,
    encode_arrangement,
    encode_scalar,
    parse_param,
)
from freearr.cli import main
from freearr.geometry import Arrangement
from freearr.scalar import RATIONAL, FieldCtx, QuadElem


class TestScalarEncoding:
    def test_rational_roundtrip(self):
        for v in (0, 3, Fraction(-7, 2)):
            s = RATIONAL.scalar(v)
            assert decode_scalar(RATIONAL, encode_scalar(s)) == s

    def test_rational_text_form(self):
        assert encode_scalar(RATIONAL.scalar(Fraction(-7, 2))) == "-7/2"
        assert encode_scalar(RATIONAL.scalar(4)) == "4"

    def test_quadratic_roundtrip(self):
        ctx = FieldCtx(5)
        x = QuadElem(ctx, Fraction(1, 2), Fraction(-3, 4))
        enc = encode_scalar(x)
        assert enc == {"a": "1/2", "b": "-3/4"}
        assert decode_scalar(ctx, enc) == x

    def test_quadratic_with_zero_sqrt_part_is_plain(self):
        ctx = FieldCtx(5)
        assert encode_scalar(QuadElem(ctx, Fraction(2), Fraction(0))) == "2"

    def test_ratfn_roundtrip(self):
        ctx = FieldCtx(None, parametric=True)
        t = ctx.t()
        x = (t * t - ctx.scalar(1)) / (t + ctx.scalar(2))
        enc = encode_scalar(x)
        assert decode_scalar(ctx, enc) == x

    def test_errors(self):
        with pytest.raises(ArrIOError):
            decode_scalar(RATIONAL, "not-a-number")
        with pytest.raises(ArrIOError):
            decode_scalar(RATIONAL, {"a": "1", "b": "1"})  # no sqrt in field
        with pytest.raises(ArrIOError):
            decode_scalar(RATIONAL, {"num": ["1"], "den": ["1"]})  # not parametric

    @pytest.mark.parametrize("text", ["1e10000000", "1E10000000", "-2.5e3"])
    def test_exponent_rejected_fast(self, text):
        # Fraction("1e10000000") takes seconds and builds a 4 MB integer
        start = time.perf_counter()
        with pytest.raises(ArrIOError, match="bad rational"):
            decode_scalar(RATIONAL, text)
        with pytest.raises(ArrIOError, match="bad rational"):
            decode_arrangement({"lines": [[text, "1", "0"], ["0", "1", "0"]]})
        assert time.perf_counter() - start < 1.0


class TestArrangementEncoding:
    def test_roundtrip_rational(self):
        A = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (1, 1, 1)])
        assert decode_arrangement(encode_arrangement(A)) == A

    def test_roundtrip_quadratic(self):
        from freearr.catalog import pentagonal

        A = pentagonal()
        obj = encode_arrangement(A)
        assert obj["field"]["sqrt"] == 5
        assert decode_arrangement(obj) == A

    def test_affine_input_is_coned(self):
        obj = {"field": {}, "affine": True, "lines": [["1", "0", "0"], ["1", "0", "-1"]]}
        A = decode_arrangement(obj)
        assert len(A) == 3  # x, x - z, z
        assert A[2].coeffs[2] == 1 and A[2].coeffs[0].is_zero()

    def test_errors(self):
        with pytest.raises(ArrIOError):
            decode_arrangement({"field": {}})
        with pytest.raises(ArrIOError):
            decode_arrangement({"lines": [["1", "0"]]})
        with pytest.raises(ArrIOError):
            decode_arrangement({"field": {"sqrt": "five"}, "lines": []})
        with pytest.raises(ArrIOError):  # would trial-divide for hours
            decode_arrangement({"field": {"sqrt": 1000000000000000000000000000057}, "lines": []})
        with pytest.raises(ArrIOError):  # duplicate lines
            decode_arrangement({"lines": [["1", "0", "0"], ["2", "0", "0"]]})


UNSAFE_TEXTS = [
    "__import__('os').getpid()*0+2",
    "2**(2**40)",
    "2* *(2* *40)",
    "2^(2^40)",
    "9" * 300,
    "lambda: 0",
]
NESTED_LEVELS = [2, 15, 25, 30]
# the parameter examples of README "Command line"
README_PARAMS = [
    "3",
    "-1/2",
    "0.5",
    "sqrt(-1)",
    "I",
    "(1+sqrt(5))/2",
    "1/2+(-3/2)*sqrt(5)",
    "8/(5/4-sqrt(8))",
]


def _nested_sqrt(levels: int) -> str:
    return "sqrt(" * levels + "2" + ")" * levels


class TestParseParam:
    def test_rationals(self):
        assert parse_param("3").as_fraction() == 3
        assert parse_param("-1/2").as_fraction() == Fraction(-1, 2)

    def test_quadratics(self):
        golden = parse_param("(1+sqrt(5))/2")
        assert golden.ctx.disc == 5
        assert (golden * golden - golden - 1).is_zero()
        i = parse_param("sqrt(-1)")
        assert i.ctx.disc == -1 and (i * i + 1).is_zero()

    def test_square_factor_extraction(self):
        x = parse_param("2-sqrt(8)")
        assert x.ctx.disc == 2 and x.a == 2 and x.b == -2
        assert parse_param("sqrt(4)").as_fraction() == 2

    def test_errors(self):
        with pytest.raises(ArrIOError):
            parse_param("sqrt(2)+sqrt(3)")
        with pytest.raises(ArrIOError):
            parse_param("x+1")
        with pytest.raises(ArrIOError):
            parse_param("2^^")

    def test_documented_forms(self):
        assert parse_param("1/2").as_fraction() == Fraction(1, 2)
        assert parse_param(" 1.5 ").as_fraction() == Fraction(3, 2)
        x = parse_param("1/2+(-3/2)*sqrt(5)")  # the a+(b)*sqrt(d) form
        assert (x.ctx.disc, x.a, x.b) == (5, Fraction(1, 2), Fraction(-3, 2))
        i = parse_param("I")
        assert i.ctx.disc == -1 and i.b == 1
        y = parse_param("(-1+sqrt(-3))/2")
        assert y.ctx.disc == -3 and (y * y + y + 1).is_zero()

    @pytest.mark.parametrize("text", UNSAFE_TEXTS)
    def test_unsafe_text_never_reaches_sympy(self, text):
        start = time.perf_counter()
        with pytest.raises(ArrIOError):
            parse_param(text)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("levels", NESTED_LEVELS)
    def test_nested_sqrt_never_reaches_sympy(self, levels):
        # sympy's nsimplify once turned 25 and 30 nested roots of 2 into 1
        start = time.perf_counter()
        with pytest.raises(ArrIOError, match="nests sqrt"):
            parse_param(_nested_sqrt(levels))
        assert time.perf_counter() - start < 1.0

    def test_parser_imports_no_sympy(self):
        # a fresh interpreter parses every text above, rejected and accepted,
        # and then must hold no sympy module: this bites on any sympy use
        script = (
            "import json, sys\n"
            "from freearr.arrio import ArrIOError, parse_param\n"
            "cases = json.load(sys.stdin)\n"
            "for text in cases['accepted']:\n"
            "    parse_param(text)\n"
            "for text in cases['rejected']:\n"
            "    try:\n"
            "        parse_param(text)\n"
            "    except ArrIOError:\n"
            "        continue\n"
            "    sys.exit(f'accepted {text!r}')\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')))\n"
        )
        rejected = UNSAFE_TEXTS + [_nested_sqrt(n) for n in NESTED_LEVELS]
        cases = json.dumps({"accepted": README_PARAMS, "rejected": rejected})
        src = Path(__file__).resolve().parents[1] / "src"
        path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=cases,
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_nested_sqrt_found_through_parentheses(self):
        for text in ("1+sqrt(3*(1+sqrt(2)))", "sqrt (sqrt(4))", "(sqrt((sqrt(9))))"):
            with pytest.raises(ArrIOError, match="nests sqrt"):
                parse_param(text)
        x = parse_param("sqrt((2))*(1+sqrt(2))")  # side by side, not nested
        assert (x.ctx.disc, x.a, x.b) == (2, 2, 1)

    def test_large_radicand_rejected_fast(self):
        # trial division would run for hours on this 31-digit prime
        start = time.perf_counter()
        with pytest.raises(ArrIOError):
            parse_param("sqrt(1000000000000000000000000000057)")
        assert time.perf_counter() - start < 1.0


def _corpus(seed, count):
    """Seeded grammar strings over one radicand, with no zero divisor.

    Each string comes with its value built in sympy from the same tree (not
    by reading the text), so sympy is an independent oracle.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice([2, 3, 5, 6, -1, -3, -7])

        def atom():
            kind = rng.randrange(5)
            if kind == 0:
                n = rng.randint(0, 30)
                return str(n), sympy.Integer(n)
            if kind == 1:
                n, m = rng.randint(0, 9), rng.randint(1, 99)
                return f"{n}.{m:02d}", sympy.Rational(100 * n + m, 100)
            if kind == 2 and d == -1 and rng.random() < 0.5:
                return "I", sympy.I
            # sqrt(d*s^2/r^2) = (s/r)*sqrt(d); the radicand may be a quotient
            s, r = rng.randint(1, 4), rng.choice([1, 1, 2, 3])
            arg = f"{d * s * s}" if r == 1 else f"{d * s * s}/{r * r}"
            return f"sqrt({arg})", sympy.sqrt(sympy.Rational(d * s * s, r * r))

        def expr(depth):
            if depth == 0 or rng.random() < 0.3:
                return atom()
            if rng.random() < 0.15:
                text, val = expr(depth - 1)
                return f"-({text})", -val
            op = rng.choice("+-*/")
            lt, lv = expr(depth - 1)
            rt, rv = expr(depth - 1)
            if op == "/":
                if sympy.expand(sympy.radsimp(rv)) == 0:
                    rt, rv = "7", sympy.Integer(7)
                return f"({lt})/({rt})", lv / rv
            return f"({lt}){op}({rt})", {"+": lv + rv, "-": lv - rv, "*": lv * rv}[op]

        text, val = expr(3)
        if len(text) <= 200:
            out.append((text, val))
    return out


class TestParserCorpus:
    """parse_param against sympy on seeded strings of the grammar."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sympy(self, seed):
        for text, expected in _corpus(seed, 30):
            x = parse_param(text)
            got = sympy.Rational(x.a.numerator, x.a.denominator)
            if x.ctx.disc is not None:
                got += sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(x.ctx.disc)
            assert sympy.expand(sympy.radsimp(expected - got)) == 0, text


class TestParserRegressions:
    def test_zero_divisor_exits_2(self, capsys):
        with pytest.raises(ArrIOError, match="divides by zero"):
            parse_param("2+1/(1/0)")
        assert main(["charpoly", "catalog:family13?lambda=2+1/(1/0)"]) == 2

    def test_quotient_over_root(self):
        x = parse_param("8/(5/4-sqrt(8))")
        assert (x.ctx.disc, x.a, x.b) == (2, Fraction(-160, 103), Fraction(-256, 103))

    @pytest.mark.parametrize("text", ["1 # c", "1e5", "0x10", "1_0", "1j", "...", "sqrt(2, 3)"])
    def test_outside_grammar_exits_2(self, capsys, text):
        with pytest.raises(ArrIOError):
            parse_param(text)
        assert main(["catalog", "get", "family13", "--param", text]) == 2

    def test_products_of_pure_roots(self):
        x = parse_param("I*sqrt(2)")
        assert (x.ctx.disc, x.a, x.b) == (-2, 0, 1)
        y = parse_param("sqrt(2)*sqrt(3)")
        assert (y.ctx.disc, y.a, y.b) == (6, 0, 1)
        z = parse_param("sqrt(-2)*sqrt(-3)")
        assert (z.ctx.disc, z.a, z.b) == (6, 0, -1)

    def test_sum_cancelling_only_after_a_product_is_rejected(self):
        with pytest.raises(ArrIOError, match="mixes two square roots"):
            parse_param("(sqrt(2)+sqrt(3))*(sqrt(2)-sqrt(3))")

    def test_many_large_roots_parse_fast(self):
        # each sqrt of a 12-digit prime factors its radicand and builds its field
        start = time.perf_counter()
        x = parse_param("+".join(["sqrt(999999999989)"] * 10))
        assert (x.ctx.disc, x.a, x.b) == (999999999989, 0, 10)
        assert time.perf_counter() - start < 1.0

    def test_product_radicand_bounded(self):
        # each radicand is within the bound, their product is not
        with pytest.raises(ArrIOError, match="larger than"):
            parse_param("sqrt(1000003)*sqrt(1000033)")
