"""Exact arithmetic tower: rationals, quadratic extensions Q(sqrt(d)), and
univariate rational functions Q(sqrt(d))(t).

All values are immutable and kept in a canonical form, so structural equality
coincides with mathematical equality and every value can serve as a dict key.
A :class:`FieldCtx` pins down the coefficient field; mixing values from
different contexts is a :class:`FieldMismatchError`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "FieldMismatchError",
    "FieldCtx",
    "RATIONAL",
    "QuadElem",
    "Poly",
    "RatFn",
    "Scalar",
    "sqrt_rational",
    "squarefree_decompose",
    "QuadraticRootPair",
    "RootReport",
    "roots_low_degree",
]


class FieldMismatchError(ValueError):
    """Raised when two scalars from incompatible field contexts are combined."""


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s*s*d`` with ``d`` squarefree and ``s > 0``; return ``(s, d)``.

    Trial division stops once p**3 > m: then m, free of primes below p, has
    at most two prime factors, so it is a square or squarefree.
    """
    if n == 0:
        return 1, 0
    sign = -1 if n < 0 else 1
    m = abs(n)
    s = 1
    d = 1
    p = 2
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    return (s * r, sign * d) if r * r == m else (s, sign * d * m)


@dataclass(frozen=True)
class FieldCtx:
    """Coefficient field: Q, Q(sqrt(disc)), or the same with indeterminate t.

    Attributes:
        disc: squarefree integer d for Q(sqrt(d)), or None for plain Q.
        parametric: whether scalars are rational functions in t.
    """

    disc: Optional[int] = None
    parametric: bool = False

    def __post_init__(self) -> None:
        if self.disc is not None:
            if self.disc in (0, 1):
                raise ValueError(f"invalid quadratic discriminant {self.disc}")
            s, d = squarefree_decompose(self.disc)
            if s != 1:
                raise ValueError(f"discriminant {self.disc} is not squarefree")
        # kept outside the dataclass fields, so ==, hash and repr ignore it
        base = FieldCtx(self.disc, False) if self.parametric else self
        object.__setattr__(self, "_base", base)

    def base(self) -> "FieldCtx":
        """The non-parametric field underlying this context (one kept instance)."""
        return self._base

    # -- scalar constructors ------------------------------------------------

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def sqrt_gen(self) -> "Scalar":
        """The generator sqrt(disc) of the quadratic extension."""
        if self.disc is None:
            raise FieldMismatchError("context has no quadratic discriminant")
        g = QuadElem(self.base(), Fraction(0), Fraction(1))
        return self.scalar(g)

    def t(self) -> "RatFn":
        """The indeterminate t (parametric contexts only)."""
        if not self.parametric:
            raise FieldMismatchError("context is not parametric")
        base = self.base()
        tp = Poly(self, (QuadElem.of(base, 0), QuadElem.of(base, 1)))
        return RatFn(self, tp, Poly.one(self))

    def scalar(self, x: object) -> "Scalar":
        """Coerce ``x`` (int/Fraction/QuadElem/Poly/RatFn) into this context."""
        base = self.base()
        if isinstance(x, RatFn):
            if x.ctx != self:
                raise FieldMismatchError(f"cannot coerce {x.ctx} into {self}")
            return x
        if isinstance(x, Poly):
            if not self.parametric or x.ctx.base() != base:
                raise FieldMismatchError("polynomial does not fit this context")
            return RatFn(self, Poly(self, x.coeffs), Poly.one(self))
        if isinstance(x, QuadElem):
            if x.ctx is not base and x.ctx != base:
                if x.b != 0 or (x.ctx.disc is not None and base.disc is not None):
                    raise FieldMismatchError(
                        f"cannot coerce element of {x.ctx} into {self}"
                    )
                x = QuadElem(base, x.a)
            q = x
        elif isinstance(x, (int, Fraction)):
            q = QuadElem.of(base, x)
        else:
            raise TypeError(f"cannot build a scalar from {type(x).__name__}")
        if not self.parametric:
            return q
        return RatFn(self, Poly(self, (q,)), Poly.one(self))


RATIONAL = FieldCtx()

_HASH_MODULUS = sys.hash_info.modulus


def _fraction_hash(p: int, n: int) -> int:
    """hash(Fraction(p, n)) for n > 0, computed as ``Fraction.__hash__`` does.

    The hash of a rational is |p| * n^-1 modulo the hash prime, signed, so a
    common factor of p and n drops out unless the prime divides n.  An int
    in (-prime, prime) other than -1 hashes to itself, so the result can
    stand for the Fraction inside a tuple.
    """
    if n % _HASH_MODULUS == 0:
        return hash(Fraction(p, n))
    h = hash(hash(abs(p)) * pow(n, -1, _HASH_MODULUS))
    h = h if p >= 0 else -h
    return -2 if h == -1 else h


class QuadElem:
    """Element (p + q*sqrt(d))/n of Q(sqrt(d)), held as three integers.

    The form is canonical: n > 0, gcd(p, q, n) = 1, and q = 0 when the
    context is plain Q.  So structural equality is equality of values, and
    the arithmetic needs only integer operations and ``math.gcd``: a result
    that may need reducing goes through the one reducing constructor
    ``_quad``.  ``a`` and ``b`` give the parts p/n and q/n as Fractions.
    """

    __slots__ = ("ctx", "_p", "_q", "_n")

    def __init__(
        self, ctx: FieldCtx, a: Union[int, Fraction], b: Union[int, Fraction] = 0
    ) -> None:
        if ctx.parametric:
            raise FieldMismatchError("QuadElem requires a non-parametric context")
        if ctx.disc is None and b != 0:
            raise FieldMismatchError("nonzero sqrt part in a rational context")
        an, ad = _ratio(a)
        bn, bd = _ratio(b)
        # a = an/ad and b = bn/bd are reduced, so over n = lcm(ad, bd) the
        # numerators an*(n/ad) and bn*(n/bd) have no common factor with n
        n = ad if ad == bd else ad // math.gcd(ad, bd) * bd
        _set_ctx(self, ctx)
        _set_p(self, an * (n // ad))
        _set_q(self, bn * (n // bd))
        _set_n(self, n)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadElem is immutable")

    @staticmethod
    def of(ctx: FieldCtx, x: Union[int, Fraction]) -> "QuadElem":
        if ctx.parametric:
            raise FieldMismatchError("QuadElem requires a non-parametric context")
        p, n = _ratio(x)
        return _wrap(ctx, p, 0, n)

    def as_ints(self) -> tuple[int, int, int]:
        """The canonical integers (p, q, n) of (p + q*sqrt(d))/n."""
        return self._p, self._q, self._n

    @property
    def a(self) -> Fraction:
        """Rational part p/n."""
        return Fraction(self._p, self._n)

    @property
    def b(self) -> Fraction:
        """Coefficient q/n of sqrt(d)."""
        return Fraction(self._q, self._n)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._p and not self._q

    def is_rational(self) -> bool:
        return not self._q

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def _parts(self, other: object) -> Optional[tuple[int, int, int]]:
        """(p, q, n) of ``other`` in this context; None for a foreign type."""
        if isinstance(other, QuadElem):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise FieldMismatchError(
                    f"context mismatch: {self.ctx} vs {other.ctx}"
                )
            return other._p, other._q, other._n
        if isinstance(other, int):
            return int(other), 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def _sum(self, p: int, q: int, n: int) -> "QuadElem":
        """self + (p + q*sqrt(d))/n."""
        if n == self._n:
            return _quad(self.ctx, self._p + p, self._q + q, n)
        return _quad(
            self.ctx, self._p * n + p * self._n, self._q * n + q * self._n, self._n * n
        )

    def __add__(self, other: object) -> "QuadElem":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self._sum(*o)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadElem":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n = o
        return self._sum(-p, -q, n)

    def __rsub__(self, other: object) -> "QuadElem":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return (-self)._sum(*o)

    def __neg__(self) -> "QuadElem":
        return _wrap(self.ctx, -self._p, -self._q, self._n)

    def __mul__(self, other: object) -> "QuadElem":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p2, q2, n2 = o
        p1, q1 = self._p, self._q
        if not q2:
            if not q1:
                return _quad(self.ctx, p1 * p2, 0, self._n * n2)
            return _quad(self.ctx, p1 * p2, q1 * p2, self._n * n2)
        if not q1:
            return _quad(self.ctx, p1 * p2, p1 * q2, self._n * n2)
        return _quad(
            self.ctx,
            p1 * p2 + q1 * q2 * self.ctx.disc,
            p1 * q2 + q1 * p2,
            self._n * n2,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        p, q, n = self._p, self._q, self._n
        if not q:
            if not p:
                raise ZeroDivisionError("inverse of zero")
            # gcd(p, n) = 1 already
            return _wrap(self.ctx, -n, 0, -p) if p < 0 else _wrap(self.ctx, n, 0, p)
        # n/(p + q sqrt d) = n(p - q sqrt d)/(p^2 - q^2 d); the norm is nonzero
        # because d is not a square
        norm = p * p - q * q * self.ctx.disc
        if norm < 0:
            return _quad(self.ctx, -n * p, n * q, -norm)
        return _quad(self.ctx, n * p, -n * q, norm)

    def __truediv__(self, other: object) -> "QuadElem":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self * _wrap(self.ctx, *o).inverse()

    def __rtruediv__(self, other: object) -> "QuadElem":
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _wrap(self.ctx, *o) * self.inverse()

    def conjugate(self) -> "QuadElem":
        return _wrap(self.ctx, self._p, -self._q, self._n)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadElem):
            return (
                self._p == other._p
                and self._q == other._q
                and self._n == other._n
                and (self.ctx is other.ctx or self.ctx == other.ctx)
            )
        if isinstance(other, int):
            return not self._q and self._n == 1 and self._p == other
        if isinstance(other, Fraction):
            return not self._q and self._p == other.numerator and self._n == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # equal to hash((ctx, a, b)) with a, b Fractions, which hash as ints when n = 1
        if self._n == 1:
            return hash((self.ctx, self._p, self._q))
        return hash((self.ctx, _fraction_hash(self._p, self._n), _fraction_hash(self._q, self._n)))

    def sort_key(self) -> tuple:
        if self._n == 1:
            return (0, self._p, self._q)
        return (0, self.a, self.b)

    def as_fraction(self) -> Fraction:
        if self._q:
            raise ValueError("not a rational value")
        return self.a

    def real_value(self) -> float:
        """Embed into R using the positive square root (requires disc > 0)."""
        if not self._q:
            return float(self.a)
        d = self.ctx.disc
        if d is None or d < 0:
            raise ValueError("no real embedding for this context")
        return float(self.a) + float(self.b) * math.sqrt(d)

    def real_sign(self) -> int:
        """Exact sign under the positive-root real embedding."""
        p, q = self._p, self._q
        if not q:
            return (p > 0) - (p < 0)
        d = self.ctx.disc
        if d is None or d < 0:
            raise ValueError("no real embedding for this context")
        if p == 0:
            return 1 if q > 0 else -1
        # sign(p + q*sqrt(d)) for n > 0: compare p^2 and q^2 d with the signs of p, q.
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        lhs = p * p
        rhs = q * q * d
        if lhs == rhs:
            return 0
        if p > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def __repr__(self) -> str:
        if not self._q:
            return str(self.a)
        d = self.ctx.disc
        return f"({self.a}+{self.b}*sqrt({d}))"

    __str__ = __repr__


_set_ctx = QuadElem.ctx.__set__  # type: ignore[attr-defined]
_set_p = QuadElem._p.__set__  # type: ignore[attr-defined]
_set_q = QuadElem._q.__set__  # type: ignore[attr-defined]
_set_n = QuadElem._n.__set__  # type: ignore[attr-defined]
_new = object.__new__


def _ratio(x: object) -> tuple[int, int]:
    """Numerator and denominator of ``x`` read as a Fraction."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _wrap(ctx: FieldCtx, p: int, q: int, n: int) -> QuadElem:
    """The QuadElem (p + q*sqrt(d))/n for a triple already in canonical form."""
    r = _new(QuadElem)
    _set_ctx(r, ctx)
    _set_p(r, p)
    _set_q(r, q)
    _set_n(r, n)
    return r


def _quad(ctx: FieldCtx, p: int, q: int, n: int) -> QuadElem:
    """The QuadElem (p + q*sqrt(d))/n for n > 0, reduced by gcd(p, q, n)."""
    if n != 1:
        g = math.gcd(p, q, n)
        if g != 1:
            p //= g
            q //= g
            n //= g
    return _wrap(ctx, p, q, n)


class Poly:
    """Univariate polynomial in t with QuadElem coefficients, ascending degree.

    The zero polynomial has an empty coefficient tuple.  ``ctx`` is the
    parametric context the polynomial lives under; coefficients live in
    ``ctx.base()``.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Sequence[QuadElem]) -> None:
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero(ctx: FieldCtx) -> "Poly":
        return Poly(ctx, ())

    @staticmethod
    def one(ctx: FieldCtx) -> "Poly":
        return Poly(ctx, (QuadElem.of(ctx.base(), 1),))

    @staticmethod
    def from_rationals(ctx: FieldCtx, coeffs: Iterable[Union[int, Fraction]]) -> "Poly":
        base = ctx.base()
        return Poly(ctx, [QuadElem.of(base, c) for c in coeffs])

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> QuadElem:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.ctx != other.ctx:
            raise FieldMismatchError("polynomial context mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.ctx, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.ctx)
        zero = QuadElem.of(self.ctx.base(), 0)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                if cj.is_zero():
                    continue
                out[i + j] = out[i + j] + ci * cj
        return Poly(self.ctx, out)

    def scale(self, c: QuadElem) -> "Poly":
        return Poly(self.ctx, [k * c for k in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = other.leading().inverse()
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.ctx), self
        zero = QuadElem.of(self.ctx.base(), 0)
        quot = [zero] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top.is_zero():
                continue
            c = top * lead_inv
            quot[k] = c
            for j, oc in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * oc
        return Poly(self.ctx, quot), Poly(self.ctx, rem[: other.degree])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return self.scale(lead.inverse())

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd via the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Poly":
        return Poly(
            self.ctx,
            [c * i for i, c in enumerate(self.coeffs)][1:],
        )

    def squarefree_part(self) -> "Poly":
        if self.degree <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self.monic()
        return (self // g).monic()

    def eval(self, x: QuadElem) -> QuadElem:
        acc = QuadElem.of(x.ctx, 0)
        for c in reversed(self.coeffs):
            cc = c if c.ctx == x.ctx else QuadElem(x.ctx, c.a, c.b)
            acc = acc * x + cc
        return acc

    def conjugate(self) -> "Poly":
        return Poly(self.ctx, [c.conjugate() for c in self.coeffs])

    # -- structure ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def sort_key(self) -> tuple:
        return (len(self.coeffs), tuple(c.sort_key() for c in self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return " + ".join(parts)

    __str__ = __repr__


class RatFn:
    """Rational function num/den over Q(sqrt(d)), gcd-reduced, monic denominator.

    Every instance keeps three invariants: gcd(num, den) = 1, ``den`` is
    monic, and zero is 0/1.  A reduced fraction with a monic denominator is
    unique, so these make structural equality mathematical equality.  The
    arithmetic relies on its operands satisfying them and skips every gcd
    that they settle (Henrici's reduced-fraction arithmetic; Knuth, TAOCP
    vol. 2, 4.5.1): ``*`` cancels only gcd(a, d) and gcd(c, b) crosswise,
    ``+`` and ``-`` reduce only by the common factor of the denominators, and
    ``neg``, ``inverse`` and ``conjugate`` need no gcd at all.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: FieldCtx, num: Poly, den: Poly) -> None:
        if not ctx.parametric:
            raise FieldMismatchError("RatFn requires a parametric context")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num = num // g
                den = den // g
        lead = den.leading()
        if lead != 1:
            inv = lead.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _reduced(cls, ctx: FieldCtx, num: Poly, den: Poly) -> "RatFn":
        """Wrap a pair already known to be coprime with ``den`` monic; 0 becomes 0/1."""
        r = object.__new__(cls)
        object.__setattr__(r, "ctx", ctx)
        if num.is_zero():
            den = Poly.one(ctx)
        object.__setattr__(r, "num", num)
        object.__setattr__(r, "den", den)
        return r

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RatFn is immutable")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other: object) -> Optional["RatFn"]:
        if isinstance(other, RatFn):
            if other.ctx != self.ctx:
                raise FieldMismatchError("context mismatch")
            return other
        if isinstance(other, (int, Fraction, QuadElem, Poly)):
            return self.ctx.scalar(other)  # type: ignore[return-value]
        return None

    def _sum(self, c: Poly, d: Poly) -> "RatFn":
        """self + c/d for a reduced c/d with monic d."""
        a, b = self.num, self.den
        if b.degree == 0:
            if d.degree == 0:
                return RatFn._reduced(self.ctx, a + c, b)
            # b = 1: gcd(a*d + c, d) = gcd(c, d) = 1
            return RatFn._reduced(self.ctx, a * d + c, d)
        if d.degree == 0:
            return RatFn._reduced(self.ctx, a + c * b, b)
        g = b.gcd(d)
        if g.degree == 0:
            return RatFn._reduced(self.ctx, a * d + c * b, b * d)
        # b = g*b1, d = g*d1: a/b + c/d = (a*d1 + c*b1)/(g*b1*d1), and the
        # numerator is prime to b1*d1, so only its gcd with g can cancel
        b1 = b // g
        s = a * (d // g) + c * b1
        g2 = s.gcd(g)
        if g2.degree > 0:
            s = s // g2
            d = d // g2
        return RatFn._reduced(self.ctx, s, b1 * d)

    def __add__(self, other: object) -> "RatFn":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._sum(o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other: object) -> "RatFn":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._sum(-o.num, o.den)

    def __rsub__(self, other: object) -> "RatFn":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "RatFn":
        return RatFn._reduced(self.ctx, -self.num, self.den)

    def __mul__(self, other: object) -> "RatFn":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if a.is_zero():
            return self
        if c.is_zero():
            return o
        # gcd(a, b) = gcd(c, d) = 1, so only a with d and c with b can cancel
        if a.degree > 0 and d.degree > 0:
            g = a.gcd(d)
            if g.degree > 0:
                a, d = a // g, d // g
        if c.degree > 0 and b.degree > 0:
            g = c.gcd(b)
            if g.degree > 0:
                c, b = c // g, b // g
        return RatFn._reduced(self.ctx, a * c, b * d)

    __rmul__ = __mul__

    def inverse(self) -> "RatFn":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        num, den = self.den, self.num
        lead = den.leading()
        if lead != 1:
            inv = lead.inverse()
            num, den = num.scale(inv), den.scale(inv)
        return RatFn._reduced(self.ctx, num, den)

    def __truediv__(self, other: object) -> "RatFn":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "RatFn":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def conjugate(self) -> "RatFn":
        # a field automorphism keeps num and den coprime and den monic
        return RatFn._reduced(self.ctx, self.num.conjugate(), self.den.conjugate())

    def eval(self, x: QuadElem) -> QuadElem:
        """Specialize t = x; raises ZeroDivisionError at a pole."""
        dv = self.den.eval(x)
        if dv.is_zero():
            raise ZeroDivisionError("pole of rational function")
        return self.num.eval(x) / dv

    # -- structure ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return (
                self.den.degree == 0
                and self.num.degree <= 0
                and (self.num.coeffs[0] == other if self.num.coeffs else other == 0)
            )
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.ctx == other.ctx and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.ctx, self.num, self.den))

    def sort_key(self) -> tuple:
        return (1, self.num.sort_key(), self.den.sort_key())

    def __repr__(self) -> str:
        if self.den.degree == 0:
            return f"{self.num}"
        return f"({self.num})/({self.den})"

    __str__ = __repr__


Scalar = Union[QuadElem, RatFn]


def sqrt_rational(ctx_or_disc: Union[FieldCtx, int], n: Union[int, Fraction]) -> QuadElem:
    """sqrt of a rational number as a QuadElem, normalizing the radicand.

    ``sqrt(12) -> 2*sqrt(3)``; the returned element lives in Q(sqrt(d)) for
    the squarefree part d, which must match ``ctx_or_disc`` when that is a
    FieldCtx.
    """
    n = Fraction(n)
    # sqrt(p/q) = sqrt(p*q)/q = (s/q)*sqrt(d) for p*q = s*s*d
    s, d = squarefree_decompose(n.numerator * n.denominator)
    coef = Fraction(s, n.denominator)
    if isinstance(ctx_or_disc, FieldCtx):
        ctx = ctx_or_disc.base()
    elif d not in (0, 1):
        ctx = FieldCtx(d)
    else:
        ctx = FieldCtx(ctx_or_disc) if ctx_or_disc not in (0, 1) else RATIONAL
    if d == 0:
        return QuadElem.of(ctx, 0)
    if d == 1:
        return QuadElem.of(ctx, coef)
    if ctx.disc != d:
        raise FieldMismatchError(f"sqrt({n}) needs disc {d}, context has {ctx.disc}")
    return QuadElem(ctx, Fraction(0), coef)


# ---------------------------------------------------------------------------
# Root extraction for rational polynomials


@dataclass(frozen=True)
class QuadraticRootPair:
    """Roots (center ± coef*sqrt(disc)) of an irreducible rational quadratic."""

    disc: int
    center: Fraction
    coef: Fraction

    def elements(self) -> tuple[QuadElem, QuadElem]:
        ctx = FieldCtx(self.disc)
        return (
            QuadElem(ctx, self.center, self.coef),
            QuadElem(ctx, self.center, -self.coef),
        )

    def __repr__(self) -> str:
        return f"{self.center} ± {self.coef}*sqrt({self.disc})"


@dataclass(frozen=True)
class RootReport:
    """Factorization of a rational polynomial into linear/quadratic parts."""

    leading: Fraction
    rational_roots: tuple[tuple[Fraction, int], ...]
    quadratic_factors: tuple[tuple[QuadraticRootPair, int], ...]
    residual: Optional[Poly]


def roots_low_degree(p: Poly) -> RootReport:
    """Complete factorization of a rational polynomial over Q.

    Linear factors become rational roots with multiplicity; irreducible
    quadratics are reported with their roots (center ± coef*sqrt(d)); any
    irreducible factor of degree >= 3 is returned as an unfactored residual.
    """
    import sympy

    if p.is_zero():
        raise ValueError("zero polynomial")
    coeffs = []
    for c in p.coeffs:
        if not c.is_rational():
            raise FieldMismatchError("roots_low_degree needs rational coefficients")
        coeffs.append(c.as_fraction())
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(coeffs))
    lead, factors = sympy.Poly(expr, t).factor_list()
    leading = Fraction(int(lead.p), int(lead.q)) if lead.is_Rational else Fraction(1)
    rational_roots: list[tuple[Fraction, int]] = []
    quadratics: list[tuple[QuadraticRootPair, int]] = []
    residual = Poly.one(p.ctx)
    base = p.ctx.base()
    for fac, mult in factors:
        fc = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        deg = len(fc) - 1
        if deg == 1:
            # fc[1]*t + fc[0]; sympy factors have integer content but keep it exact
            root = -fc[0] / fc[1]
            rational_roots.append((root, mult))
            leading *= fc[1] ** mult
        elif deg == 2:
            a, b, c2 = fc[2], fc[1], fc[0]
            # the discriminant of an irreducible quadratic is not a square
            root = sqrt_rational(1, b * b - 4 * a * c2)
            pair = QuadraticRootPair(root.ctx.disc, -b / (2 * a), root.b / (2 * a))
            quadratics.append((pair, mult))
            leading *= a**mult
        else:
            ppart = Poly(p.ctx, [QuadElem.of(base, c) for c in fc])
            for _ in range(mult):
                residual = residual * ppart
            leading *= fc[-1] ** mult
    res = None if residual.degree <= 0 else residual.monic()
    return RootReport(
        leading=leading,
        rational_roots=tuple(sorted(rational_roots)),
        quadratic_factors=tuple(
            sorted(quadratics, key=lambda q: (q[0].disc, q[0].center, q[0].coef))
        ),
        residual=res,
    )
