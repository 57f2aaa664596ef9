"""Tests for the exact arithmetic tower."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional, Union

import pytest
import sympy

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
from freearr.scalar import _HASH_MODULUS, _fraction_hash


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

    def test_base_is_one_kept_instance(self):
        for ctx in (FieldCtx(None, True), FieldCtx(5, True), FieldCtx(-1, True)):
            base = ctx.base()
            assert ctx.base() is base
            assert base == FieldCtx(ctx.disc) and hash(base) == hash(FieldCtx(ctx.disc))
            assert repr(base) == f"FieldCtx(disc={ctx.disc}, parametric=False)"
            assert not base.parametric and base.base() is base
        ctx = FieldCtx(-3, True)
        assert ctx == FieldCtx(-3, True) and hash(ctx) == hash(FieldCtx(-3, True))
        assert repr(ctx) == "FieldCtx(disc=-3, parametric=True)"
        assert RATIONAL.base() is RATIONAL

    def test_fraction_hash_from_ints(self):
        """The int-only hash equals hash(Fraction(p, n)), reduced or not."""
        rng = random.Random(11)
        M = _HASH_MODULUS
        cases = [(p, n) for p in range(-30, 31) for n in range(1, 25)]
        cases += [(rng.randint(-(10**40), 10**40), rng.randint(1, 10**30)) for _ in range(2000)]
        # denominators the hash prime divides, with and without a common factor
        cases += [(M * k + r, M * j) for k in (-2, 0, 1) for r in (-1, 0, 1, 5) for j in (1, 3)]
        cases += [(M - 1, 1), (-(M - 1), 2), (-1, 1), (-M - 1, M + 1)]
        for p, n in cases:
            assert _fraction_hash(p, n) == hash(Fraction(p, n)), (p, n)

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


# ---------------------------------------------------------------------------
# RatFn arithmetic against the full reduce-then-monic construction


def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den reduced by the full gcd, then scaled to a monic denominator."""
    g = num.gcd(den)
    if g.degree > 0:
        num, den = num // g, den // g
    lead = den.leading()
    if lead != 1:
        inv = lead.inverse()
        num, den = num.scale(inv), den.scale(inv)
    return num, den


def _oracle(num: Poly, den: Poly) -> tuple[tuple, tuple]:
    num, den = _reduce(num, den)
    return num.coeffs, den.coeffs


def _parts(r: RatFn) -> tuple[tuple, tuple]:
    return r.num.coeffs, r.den.coeffs


def _oracle_ops(x: RatFn, y: RatFn) -> dict:
    a, b, c, d = x.num, x.den, y.num, y.den
    ops = {
        "add": _oracle(a * d + c * b, b * d),
        "sub": _oracle(a * d - c * b, b * d),
        "mul": _oracle(a * c, b * d),
    }
    if not y.is_zero():
        ops["div"] = _oracle(a * d, b * c)
    return ops


class TestRatFnDifferential:
    """Every RatFn operation gives the coefficient tuples of the oracle."""

    CTXS = (FieldCtx(None, True), FieldCtx(5, True))
    DEN_KINDS = ("equal", "constant", "coprime", "shared")

    @staticmethod
    def _factors(ctx: FieldCtx) -> list[Poly]:
        base = ctx.base()

        def p(*cs):
            return Poly(ctx, [c if isinstance(c, QuadElem) else QuadElem.of(base, c) for c in cs])

        out = [p(0, 1), p(-1, 1), p(2, 1), p(1, 0, 1), p(1, -1, 1), p(Fraction(1, 3), 2)]
        if ctx.disc is not None:
            out.append(p(QuadElem(base, Fraction(0), Fraction(-1)), 1))  # t - sqrt(5)
            out.append(p(QuadElem(base, Fraction(1), Fraction(1, 2)), 0, 1))
        return out

    def _poly(self, rng, ctx, pool) -> Poly:
        base = ctx.base()
        b = Fraction(rng.randint(-2, 2), 3) if ctx.disc is not None else Fraction(0)
        lead = QuadElem(base, Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)), b)
        if lead.is_zero():
            lead = QuadElem.of(base, 1)
        out = Poly(ctx, (lead,))
        for f in rng.sample(pool, rng.randint(0, 3)):
            out = out * f
        return out

    def _pair(self, rng, ctx, kind):
        pool = self._factors(ctx)
        x = RatFn(ctx, self._poly(rng, ctx, pool), self._poly(rng, ctx, pool))
        if kind == "equal":
            prime = [f for f in pool if x.den.gcd(f).degree <= 0]
            y = RatFn(ctx, self._poly(rng, ctx, prime), x.den)
        elif kind == "constant":
            y = RatFn(ctx, self._poly(rng, ctx, pool), Poly.one(ctx))
        elif kind == "coprime":
            prime = [f for f in pool if x.den.gcd(f).degree <= 0]
            den = Poly.one(ctx)
            for f in rng.sample(prime, min(len(prime), rng.randint(1, 2))):
                den = den * f
            y = RatFn(ctx, self._poly(rng, ctx, pool), den)
        else:
            shared = x.den if x.den.degree > 0 else pool[0]
            y = RatFn(ctx, self._poly(rng, ctx, pool), shared * self._poly(rng, ctx, pool))
        return x, y

    @pytest.mark.parametrize("disc", [None, 5])
    @pytest.mark.parametrize("kind", DEN_KINDS)
    def test_binary_ops_match_oracle(self, disc, kind):
        ctx = FieldCtx(disc, True)
        rng = random.Random(f"{disc}-{kind}")
        for _ in range(40):
            x, y = self._pair(rng, ctx, kind)
            if kind == "equal":
                assert x.den == y.den
            want = _oracle_ops(x, y)
            assert _parts(x + y) == want["add"]
            assert _parts(x - y) == want["sub"]
            assert _parts(x * y) == want["mul"]
            assert _parts(y + x) == want["add"]
            assert _parts(y * x) == want["mul"]
            if "div" in want:
                assert _parts(x / y) == want["div"]

    @pytest.mark.parametrize("disc", [None, 5])
    def test_results_that_cancel_to_zero(self, disc):
        ctx = FieldCtx(disc, True)
        rng = random.Random(f"zero-{disc}")
        zero = _oracle(Poly.zero(ctx), Poly.one(ctx))
        assert zero == ((), Poly.one(ctx).coeffs)
        for kind in self.DEN_KINDS:
            for _ in range(10):
                x, y = self._pair(rng, ctx, kind)
                assert _parts(x - x) == zero
                assert _parts(x + (-x)) == zero
                assert _parts(x * (y - y)) == zero
                assert _parts((y - y) * x) == zero
                assert _parts(x * y - y * x) == zero
                # (x + y) - y cancels back to x through a shared denominator
                assert _parts((x + y) - y) == _parts(x)

    @pytest.mark.parametrize("disc", [None, 5])
    def test_unary_ops_and_constructor_match_oracle(self, disc):
        ctx = FieldCtx(disc, True)
        rng = random.Random(f"unary-{disc}")
        pool = self._factors(ctx)
        for _ in range(60):
            num, den = self._poly(rng, ctx, pool), self._poly(rng, ctx, pool)
            if rng.random() < 0.2:
                num = Poly.zero(ctx)
            x = RatFn(ctx, num, den)
            assert _parts(x) == _oracle(num, den)
            assert _parts(-x) == _oracle(-num, den)
            assert _parts(x.conjugate()) == _oracle(num.conjugate(), den.conjugate())
            if not x.is_zero():
                assert _parts(x.inverse()) == _oracle(den, num)
                assert _parts(1 / x) == _oracle(den, num)
            c = QuadElem.of(ctx.base(), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            assert _parts(RatFn(ctx, num, Poly(ctx, (c,)))) == _oracle(num, Poly(ctx, (c,)))
            assert _parts(x * c) == _oracle(x.num.scale(c), x.den)
            assert _parts(x + 1) == _oracle(x.num + x.den, x.den)


def _oracle_point(l1, l2) -> tuple:
    """Cross product of the RatFn coefficients, then divide by the pivot, in oracle arithmetic."""

    def mul(x, y):
        return _reduce(x[0] * y[0], x[1] * y[1])

    def sub(x, y):
        return _reduce(x[0] * y[1] - y[0] * x[1], x[1] * y[1])

    a = [(c.num, c.den) for c in l1.coeffs]
    b = [(c.num, c.den) for c in l2.coeffs]
    cross = [
        sub(mul(a[1], b[2]), mul(a[2], b[1])),
        sub(mul(a[2], b[0]), mul(a[0], b[2])),
        sub(mul(a[0], b[1]), mul(a[1], b[0])),
    ]
    pn, pd = next(x for x in cross if not x[0].is_zero())
    return tuple(_oracle(n * pd, d * pn) for n, d in cross)


@pytest.mark.parametrize("name", ["family13", "family13_sqrt3", "family15"])
def test_meet_matches_ratfn_cross_product(name):
    from freearr import catalog
    from freearr.geometry import meet

    fam = {
        "family13": catalog.family13_family,
        "family13_sqrt3": lambda: catalog.family13_family(sqrt3=True),
        "family15": catalog.family15_family,
    }[name]()
    A = fam.arrangement()
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            got = tuple(_parts(c) for c in meet(A[i], A[j]).coords)
            assert got == _oracle_point(A[i], A[j]), (i, j)


# ---------------------------------------------------------------------------
# QuadElem against the Fraction-pair representation it replaced


class FractionQuad:
    """The former QuadElem: a + b*sqrt(d) held as two Fractions, kept as the oracle."""

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx: FieldCtx, a: Fraction, b: Fraction = Fraction(0)) -> None:
        if ctx.parametric:
            raise FieldMismatchError("QuadElem requires a non-parametric context")
        if ctx.disc is None and b != 0:
            raise FieldMismatchError("nonzero sqrt part in a rational context")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        object.__setattr__(self, "b", b if isinstance(b, Fraction) else Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadElem is immutable")

    @staticmethod
    def of(ctx: FieldCtx, x: Union[int, Fraction]) -> "FractionQuad":
        return FractionQuad(ctx, Fraction(x))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other: object) -> Optional["FractionQuad"]:
        if isinstance(other, FractionQuad):
            if other.ctx != self.ctx:
                raise FieldMismatchError(
                    f"context mismatch: {self.ctx} vs {other.ctx}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return FractionQuad.of(self.ctx, other)
        return None

    def __add__(self, other: object) -> "FractionQuad":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionQuad(self.ctx, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "FractionQuad":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionQuad(self.ctx, self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> "FractionQuad":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FractionQuad(self.ctx, o.a - self.a, o.b - self.b)

    def __neg__(self) -> "FractionQuad":
        return FractionQuad(self.ctx, -self.a, -self.b)

    def __mul__(self, other: object) -> "FractionQuad":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.b == 0:
            if o.b == 0:
                return FractionQuad(self.ctx, self.a * o.a)
            return FractionQuad(self.ctx, self.a * o.a, self.a * o.b)
        if o.b == 0:
            return FractionQuad(self.ctx, self.a * o.a, self.b * o.a)
        d = self.ctx.disc
        return FractionQuad(
            self.ctx,
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FractionQuad":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.b == 0:
            return FractionQuad(self.ctx, 1 / self.a)
        d = self.ctx.disc
        norm = self.a * self.a - self.b * self.b * d
        return FractionQuad(self.ctx, self.a / norm, -self.b / norm)

    def __truediv__(self, other: object) -> "FractionQuad":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "FractionQuad":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "FractionQuad":
        return FractionQuad(self.ctx, self.a, -self.b)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, FractionQuad):
            return NotImplemented
        return self.ctx == other.ctx and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.ctx, self.a, self.b))

    def sort_key(self) -> tuple:
        return (0, self.a, self.b)

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("not a rational value")
        return self.a

    def real_value(self) -> float:
        """Embed into R using the positive square root (requires disc > 0)."""
        if self.b == 0:
            return float(self.a)
        d = self.ctx.disc
        if d is None or d < 0:
            raise ValueError("no real embedding for this context")
        return float(self.a) + float(self.b) * math.sqrt(d)

    def real_sign(self) -> int:
        """Exact sign under the positive-root real embedding."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        d = self.ctx.disc
        if d is None or d < 0:
            raise ValueError("no real embedding for this context")
        if self.a == 0:
            return 1 if self.b > 0 else -1
        # sign(a + b*sqrt(d)): compare a^2 and b^2 d with the signs of a, b.
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        lhs = self.a * self.a
        rhs = self.b * self.b * d
        if lhs == rhs:
            return 0
        if self.a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def __repr__(self) -> str:
        if self.b == 0:
            return str(self.a)
        d = self.ctx.disc
        return f"({self.a}+{self.b}*sqrt({d}))"

    __str__ = __repr__


class TestQuadElemDifferential:
    """Seeded random expressions: the integer QuadElem matches the Fraction pair."""

    CTXS = (RATIONAL, FieldCtx(5), FieldCtx(-3), FieldCtx(-1))

    @staticmethod
    def _rational(rng) -> Fraction:
        kind = rng.random()
        if kind < 0.15:
            return Fraction(0)
        if kind < 0.3:
            # large numerators and denominators
            return Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**25))
        if kind < 0.5:
            return Fraction(rng.randint(-9, 9))
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def _value(self, rng, ctx) -> tuple[QuadElem, FractionQuad]:
        a = self._rational(rng)
        b = Fraction(0) if ctx.disc is None or rng.random() < 0.25 else self._rational(rng)
        return QuadElem(ctx, a, b), FractionQuad(ctx, a, b)

    @staticmethod
    def _same(x: QuadElem, y: FractionQuad) -> None:
        assert type(x.a) is Fraction and type(x.b) is Fraction
        assert (x.a, x.b) == (y.a, y.b)
        assert hash(x) == hash(y)
        assert x.sort_key() == y.sort_key()
        assert repr(x) == repr(y) and str(x) == str(y)
        assert (x.is_zero(), x.is_rational(), bool(x)) == (y.is_zero(), y.is_rational(), bool(y))
        if y.is_rational() or y.ctx.disc > 0:
            assert x.real_sign() == y.real_sign()
            assert x.real_value() == y.real_value()
        else:
            with pytest.raises(ValueError):
                x.real_sign()
        if y.is_rational():
            assert x.as_fraction() == y.as_fraction()
        # equal to its rational part, or that part's numerator, only when rational
        for c in (y.a, y.a.numerator):
            assert (x == c) == (y == c)

    @staticmethod
    def _plain(rng):
        return rng.choice([0, 1, -1, 7, -(10**30), Fraction(3, 4), Fraction(-5, 12)])

    @pytest.mark.parametrize("ctx", CTXS, ids=str)
    def test_random_expressions(self, ctx):
        rng = random.Random(f"quad-{ctx.disc}")
        pool = [self._value(rng, ctx) for _ in range(12)]
        for _ in range(1500):
            (x, xo), (y, yo) = rng.choice(pool), rng.choice(pool)
            op = rng.choice(["+", "-", "*", "/", "inv", "neg", "conj", "plain"])
            if op == "+":
                r = (x + y, xo + yo)
            elif op == "-":
                r = (x - y, xo - yo)
            elif op == "*":
                r = (x * y, xo * yo)
            elif op == "/":
                if yo.is_zero():
                    with pytest.raises(ZeroDivisionError):
                        x / y
                    continue
                r = (x / y, xo / yo)
            elif op == "inv":
                if xo.is_zero():
                    with pytest.raises(ZeroDivisionError):
                        x.inverse()
                    continue
                r = (x.inverse(), xo.inverse())
            elif op == "neg":
                r = (-x, -xo)
            elif op == "conj":
                r = (x.conjugate(), xo.conjugate())
            else:
                c = self._plain(rng)
                assert (x == c) == (xo == c)
                assert (c == x) == (c == xo)
                r = rng.choice(
                    [
                        lambda: (x + c, xo + c),
                        lambda: (c + x, c + xo),
                        lambda: (x - c, xo - c),
                        lambda: (c - x, c - xo),
                        lambda: (x * c, xo * c),
                        lambda: (c * x, c * xo),
                    ]
                )()
                if c != 0:
                    self._same(x / c, xo / c)
                if not xo.is_zero():
                    self._same(c / x, c / xo)
            self._same(*r)
            assert (r[0] == x) == (r[1] == xo)
            # keep the pool's values from growing without bound
            if len(str(r[1])) < 400:
                pool[rng.randrange(len(pool))] = r

    @pytest.mark.parametrize("ctx", CTXS, ids=str)
    def test_constructor_and_of(self, ctx):
        rng = random.Random(f"ctor-{ctx.disc}")
        for _ in range(200):
            x, xo = self._value(rng, ctx)
            self._same(x, xo)
            # the constructor's form is the canonical one that arithmetic gives
            assert x == QuadElem(ctx, xo.a) + QuadElem(ctx, 0, xo.b)
            c = self._rational(rng)
            self._same(QuadElem.of(ctx, c), FractionQuad.of(ctx, c))
        self._same(QuadElem.of(ctx, 3), FractionQuad.of(ctx, 3))
        self._same(QuadElem(ctx, True), FractionQuad(ctx, True))
        self._same(QuadElem(ctx, "-2/6"), FractionQuad(ctx, "-2/6"))

    @pytest.mark.parametrize("ctx", CTXS, ids=str)
    def test_zero_and_equality_with_numbers(self, ctx):
        zero, zo = QuadElem(ctx, 0), FractionQuad(ctx, Fraction(0))
        self._same(zero, zo)
        self._same(zero - zero, zo - zo)
        for c in (0, 1, Fraction(0), Fraction(1, 2), 2.5, None):
            assert (zero == c) == (zo == c)
            assert (zero != c) == (zo != c)
        half = QuadElem(ctx, Fraction(1, 2))
        assert half == Fraction(1, 2) and half != 1 and half != Fraction(1, 3)

    @pytest.mark.parametrize("disc", [2, 5, 7])
    def test_inverse_of_negative_norm(self, disc):
        ctx = FieldCtx(disc)
        rng = random.Random(f"norm-{disc}")
        for _ in range(100):
            b = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**6)) * rng.choice([-1, 1])
            # |a| < |b| sqrt(d), so a^2 - b^2 d < 0
            a = Fraction(rng.randint(0, abs(b.numerator)), b.denominator) * rng.choice([-1, 1])
            x, xo = QuadElem(ctx, a, b), FractionQuad(ctx, a, b)
            assert (xo.a**2 - xo.b**2 * disc) < 0
            self._same(x.inverse(), xo.inverse())
            self._same(1 / x, 1 / xo)
            assert x * x.inverse() == 1

    def test_validation_is_unchanged(self):
        for cls in (QuadElem, FractionQuad):
            with pytest.raises(FieldMismatchError):
                cls(FieldCtx(5, True), Fraction(1))
            with pytest.raises(FieldMismatchError):
                cls(RATIONAL, Fraction(1), Fraction(1))
            with pytest.raises(FieldMismatchError):
                cls(FieldCtx(5), 1) + cls(FieldCtx(-3), 1)
            with pytest.raises(FieldMismatchError):
                cls.of(FieldCtx(None, True), 1)
            with pytest.raises(AttributeError):
                cls(FieldCtx(5), 1).a = Fraction(2)


class TestSquarefreeDecompose:
    def test_basic(self):
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(-4) == (2, -1)
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(0) == (1, 0)
        assert squarefree_decompose(45) == (3, 5)

    def test_against_factorint(self):
        # trial division stops at the cube root; the cofactor left is a prime,
        # a product of two primes or a prime square
        rng = random.Random(7)
        primes = [2, 3, 101, 9973, 10007, 999983, 1000003]
        cases = [p * q for p in primes for q in primes] + [p**3 for p in primes[:5]]
        cases += [999999999989 * k for k in (1, 2, 4, 9)]
        cases += [rng.randint(-(10**12), 10**12) for _ in range(200)]
        for n in cases:
            if n == 0:
                continue
            s, d = 1, -1 if n < 0 else 1
            for p, e in sympy.factorint(abs(n)).items():
                s *= p ** (e // 2)
                d *= p ** (e % 2)
            assert squarefree_decompose(n) == (s, d), n


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
