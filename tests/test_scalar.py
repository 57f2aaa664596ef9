"""Tests for the exact arithmetic tower."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from freearr.scalar import (
    RATIONAL,
    FieldCtx,
    FieldMismatchError,
    Poly,
    QuadElem,
    RatFn,
    roots_low_degree,
    sqrt_rational,
    squarefree_decompose,
)


def frac(a, b=1):
    return Fraction(a, b)


class TestFieldCtx:
    def test_rational_context(self):
        assert RATIONAL.disc is None
        assert not RATIONAL.parametric

    def test_disc_must_be_squarefree(self):
        with pytest.raises(ValueError):
            FieldCtx(12)
        with pytest.raises(ValueError):
            FieldCtx(1)
        with pytest.raises(ValueError):
            FieldCtx(0)
        FieldCtx(-3)
        FieldCtx(5)

    def test_sqrt_normalization(self):
        # sqrt(12) = 2*sqrt(3)
        v = sqrt_rational(FieldCtx(3), 12)
        assert v == QuadElem(FieldCtx(3), frac(0), frac(2))
        assert sqrt_rational(FieldCtx(2), Fraction(1, 2)) == QuadElem(
            FieldCtx(2), frac(0), frac(1, 2)
        )
        assert sqrt_rational(RATIONAL, 4) == QuadElem.of(RATIONAL, 2)

    def test_context_mismatch(self):
        x = FieldCtx(5).one()
        y = FieldCtx(-3).one()
        with pytest.raises(FieldMismatchError):
            x + y


class TestQuadElem:
    def test_golden_ratio_satisfies_quadratic(self):
        ctx = FieldCtx(5)
        zeta = (ctx.one() + ctx.sqrt_gen()) / 2
        assert (zeta * zeta - zeta - 1).is_zero()

    def test_identities(self):
        ctx = FieldCtx(-3)
        x = QuadElem(ctx, frac(2, 3), frac(-1, 7))
        assert x + 0 == x
        assert x * 1 == x

    def test_conjugate_of_omega(self):
        # -omega^2 = (1+sqrt(-3))/2 -> (1-sqrt(-3))/2 = -omega
        ctx = FieldCtx(-3)
        minus_omega_sq = QuadElem(ctx, frac(1, 2), frac(1, 2))
        minus_omega = QuadElem(ctx, frac(1, 2), frac(-1, 2))
        assert minus_omega_sq.conjugate() == minus_omega
        assert minus_omega_sq.conjugate().conjugate() == minus_omega_sq

    def test_conjugate_fixes_rationals(self):
        ctx = FieldCtx(5)
        x = QuadElem.of(ctx, frac(7, 3))
        assert x.conjugate() == x

    def test_field_axioms_random(self):
        rng = random.Random(7)
        ctx = FieldCtx(-1)

        def rand():
            return QuadElem(
                ctx,
                frac(rng.randint(-9, 9), rng.randint(1, 9)),
                frac(rng.randint(-9, 9), rng.randint(1, 9)),
            )

        for _ in range(200):
            x, y, z = rand(), rand(), rand()
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
            if not x.is_zero():
                assert x * x.inverse() == ctx.one()

    def test_division_by_zero(self):
        ctx = FieldCtx(5)
        with pytest.raises(ZeroDivisionError):
            ctx.one() / ctx.zero()

    def test_real_value_uses_math_sqrt(self):
        # 2921 ** 0.5 and math.sqrt(2921) differ in the last bit
        x = QuadElem(FieldCtx(2921), frac(1, 3), frac(2))
        assert x.real_value() == float(frac(1, 3)) + 2.0 * math.sqrt(2921)

    def test_real_sign(self):
        ctx = FieldCtx(2)
        # 3 - 2*sqrt(2) > 0, 1 - sqrt(2) < 0
        assert QuadElem(ctx, frac(3), frac(-2)).real_sign() == 1
        assert QuadElem(ctx, frac(1), frac(-1)).real_sign() == -1
        assert QuadElem(ctx, frac(0), frac(1)).real_sign() == 1


class TestPolyRatFn:
    def setup_method(self):
        self.ctx = FieldCtx(None, True)

    def test_cancellation(self):
        # (t^2 - 1)/(t - 1) reduces to t + 1
        t = self.ctx.t()
        r = (t * t - 1) / (t - 1)
        assert r == t + 1
        assert r.den.degree == 0

    def test_monic_denominator(self):
        t = self.ctx.t()
        r = 1 / (2 * t - 1)
        assert r.den.leading() == 1

    def test_gcd_reduced(self):
        t = self.ctx.t()
        r = (t * t + t) / (t * t)
        assert r.num == Poly.from_rationals(self.ctx, [1, 1])
        assert r.den == Poly.from_rationals(self.ctx, [0, 1])

    def test_eval(self):
        t = self.ctx.t()
        r = (t * t - 1) / (t + 2)
        assert r.eval(QuadElem.of(RATIONAL, 2)) == Fraction(3, 4)
        with pytest.raises(ZeroDivisionError):
            r.eval(QuadElem.of(RATIONAL, -2))

    def test_poly_divmod_roundtrip(self):
        rng = random.Random(11)
        for _ in range(50):
            a = Poly.from_rationals(self.ctx, [rng.randint(-5, 5) for _ in range(6)])
            b = Poly.from_rationals(self.ctx, [rng.randint(-5, 5) for _ in range(3)])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_parametric_over_quadratic_base(self):
        ctx = FieldCtx(-1, True)
        i = ctx.scalar(FieldCtx(-1).sqrt_gen())
        t = ctx.t()
        assert ((t + i) * (t - i)) == t * t + 1


class TestSquarefreeDecompose:
    def test_basic(self):
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(-4) == (2, -1)
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(0) == (1, 0)
        assert squarefree_decompose(45) == (3, 5)


class TestRootsLowDegree:
    def test_quadratic_lambda2_minus_lambda_plus_1(self):
        p = Poly.from_rationals(RATIONAL, [1, -1, 1])
        rep = roots_low_degree(p)
        assert rep.rational_roots == ()
        assert len(rep.quadratic_factors) == 1
        pair = rep.quadratic_factors[0][0]
        assert pair.disc == -3
        assert pair.center == Fraction(1, 2)
        assert pair.coef == Fraction(1, 2)
        # roots are (1 ± sqrt(-3))/2; each satisfies the quadratic
        for r in pair.elements():
            assert (r * r - r + 1).is_zero()

    def test_three_halves_pm_sqrt2(self):
        # the monic quadratic with roots 3/2 ± sqrt(2) is t^2 - 3t + 1/4
        p = Poly.from_rationals(RATIONAL, [Fraction(1, 4), -3, 1])
        rep = roots_low_degree(p)
        pair = rep.quadratic_factors[0][0]
        assert pair.disc == 2
        assert pair.center == Fraction(3, 2)
        assert pair.coef == 1

    def test_rational_roots(self):
        p = Poly.from_rationals(RATIONAL, [0, -1, 1])  # t(t-1) = t^2 - t
        rep = roots_low_degree(p)
        assert rep.rational_roots == ((Fraction(0), 1), (Fraction(1), 1))
        assert rep.quadratic_factors == ()
        assert rep.residual is None

    def test_factor_product_reconstructs(self):
        rng = random.Random(3)
        ctx = RATIONAL
        for _ in range(25):
            coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(2, 6))]
            p = Poly.from_rationals(ctx, coeffs)
            if p.is_zero() or p.degree < 1:
                continue
            rep = roots_low_degree(p)
            prod = Poly.from_rationals(ctx, [rep.leading])
            for root, mult in rep.rational_roots:
                lin = Poly.from_rationals(ctx, [-root, 1])
                for _ in range(mult):
                    prod = prod * lin
            for pair, mult in rep.quadratic_factors:
                quad = Poly.from_rationals(
                    ctx,
                    [
                        pair.center**2 - pair.coef**2 * pair.disc,
                        -2 * pair.center,
                        1,
                    ],
                )
                for _ in range(mult):
                    prod = prod * quad
            if rep.residual is not None:
                prod = prod * rep.residual
            assert prod == p
