"""Tests for JSON scalar/arrangement encodings and parameter parsing."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from freearr.arrio import (
    ArrIOError,
    decode_arrangement,
    decode_scalar,
    encode_arrangement,
    encode_scalar,
    parse_param,
)
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

    @pytest.mark.parametrize(
        "text",
        [
            "__import__('os').getpid()*0+2",
            "2**(2**40)",
            "2* *(2* *40)",
            "2^(2^40)",
            "9" * 300,
            "lambda: 0",
        ],
    )
    def test_unsafe_text_never_reaches_sympy(self, text, monkeypatch):
        import sympy

        def sympify(*args, **kwargs):
            raise AssertionError("rejected text reached sympy")

        monkeypatch.setattr(sympy, "sympify", sympify)
        start = time.perf_counter()
        with pytest.raises(ArrIOError):
            parse_param(text)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("levels", [2, 15, 25, 30])
    def test_nested_sqrt_never_reaches_sympy(self, levels, monkeypatch):
        # nsimplify turned 25 and 30 nested roots of 2 into exactly 1
        import sympy

        def sympify(*args, **kwargs):
            raise AssertionError("rejected text reached sympy")

        monkeypatch.setattr(sympy, "sympify", sympify)
        start = time.perf_counter()
        with pytest.raises(ArrIOError, match="nests sqrt"):
            parse_param("sqrt(" * levels + "2" + ")" * levels)
        assert time.perf_counter() - start < 1.0

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
