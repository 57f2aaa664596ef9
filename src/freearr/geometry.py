"""Projective lines and points in P^2 over an exact scalar field.

Over Q and Q(sqrt(d)), a line or point is held as six integers
(p0, q0, p1, q1, p2, q2), entry k meaning p_k + q_k*sqrt(d) (the q_k are 0
over Q).  The form is canonical: denominators are cleared, the triple is
multiplied by the conjugate of its first nonzero entry so that entry becomes
a rational integer P, and all six are divided by their gcd with the sign that
makes P > 0.  Two triples are projectively equal exactly when their forms
are, so ``==`` and hashing compare ints, and ``meet``, ``join`` and
``incident`` are integer cross and dot products in Z[sqrt(d)].  ``coeffs``,
the triple scaled so its first nonzero entry is 1, is built on first read;
``key_order`` sorts in the order of the sort key read off it without
building it.

Over Q(sqrt(d))(t) the form is the coefficient triple itself, normalized so
the first nonzero entry is 1.  Arrangements are ordered, duplicate-free line
sets; ``cone`` homogenizes an affine line arrangement and appends the
infinity line z = 0 last.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional, Sequence

from .scalar import FieldCtx, FieldMismatchError, Poly, QuadElem, RatFn, Scalar, _quad

__all__ = [
    "GeometryError",
    "Line",
    "Point",
    "Arrangement",
    "meet",
    "join",
    "incident",
    "orthogonal_pair",
    "pencil",
    "cone",
    "key_order",
]


class GeometryError(ValueError):
    """Degenerate geometric operation (equal lines/points, zero triple)."""


Form = tuple  # six ints over Q(sqrt(d)), three RatFn over Q(sqrt(d))(t)


def _normalize_parametric(ctx: FieldCtx, raw: Sequence[object]) -> tuple[RatFn, ...]:
    """A triple over Q(sqrt(d))(t) scaled so its first nonzero entry is 1."""
    vals = [
        v if isinstance(v, RatFn) and (v.ctx is ctx or v.ctx == ctx) else ctx.scalar(v)
        for v in raw
    ]
    pivot = next((v for v in vals if not v.is_zero()), None)
    if pivot is None:
        raise GeometryError("zero triple is not projective")
    inv = pivot.inverse()
    return tuple(ctx.one() if v is pivot else v * inv for v in vals)


def _canonical(d: Optional[int], v: Sequence[int]) -> Form:
    """The canonical six-int form of the triple v over Q(sqrt(d))."""
    p0, q0, p1, q1, p2, q2 = v
    if p0 or q0:
        P, Q = p0, q0
    elif p1 or q1:
        P, Q = p1, q1
    elif p2 or q2:
        P, Q = p2, q2
    else:
        raise GeometryError("zero triple is not projective")
    if Q:
        # (p + q√d)(P - Q√d) = pP - qQd + (qP - pQ)√d; the first nonzero entry
        # becomes the norm P² - Q²d, nonzero because d is not a square
        v = (
            p0 * P - q0 * Q * d, q0 * P - p0 * Q,
            p1 * P - q1 * Q * d, q1 * P - p1 * Q,
            p2 * P - q2 * Q * d, q2 * P - p2 * Q,
        )
        P = P * P - Q * Q * d
    g = math.gcd(*v)
    if P < 0:
        g = -g
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _raw_form(ctx: FieldCtx, raw: Sequence[object]) -> list[int]:
    """Six ints proportional to the scalar triple ``raw`` (denominators cleared)."""
    parts = []
    den = 1
    for v in raw:
        if type(v) is int:
            parts.append((v, 0, 1))
            continue
        if not isinstance(v, QuadElem) or (v.ctx is not ctx and v.ctx != ctx):
            v = ctx.scalar(v)
        p, q, n = v.as_ints()
        if den % n:
            den = den // math.gcd(den, n) * n
        parts.append((p, q, n))
    out = []
    for p, q, n in parts:
        m = den // n
        out.append(p * m)
        out.append(q * m)
    return out


def _leading(form: Form) -> int:
    """The positive rational integer P that leads a six-int form."""
    P = form[0] or form[2] or form[4]
    if P <= 0:
        raise GeometryError(f"form {form} does not lead with a positive integer")
    return P


_new = object.__new__


class _ProjTriple:
    """Shared implementation of canonical homogeneous triples.

    ``form`` is the canonical six-int form over Q(sqrt(d)), or the
    normalized RatFn triple over Q(sqrt(d))(t).  The coefficients, the hash
    and the sort key are computed on first use and kept.
    """

    __slots__ = ("ctx", "form", "_coeffs", "_hash", "_key")

    def __init__(self, ctx: FieldCtx, coeffs: Sequence[object]) -> None:
        if len(coeffs) != 3:
            raise GeometryError("expected a coefficient triple")
        if ctx.parametric:
            form = _normalize_parametric(ctx, coeffs)
            _init(self, ctx, form, form)
        else:
            _init(self, ctx, _canonical(ctx.disc, _raw_form(ctx, coeffs)), None)

    @classmethod
    def _of_ints(cls, ctx: FieldCtx, v: Sequence[int]) -> "_ProjTriple":
        """The triple over Q(sqrt(d)) with entries v[2k] + v[2k+1]*sqrt(d)."""
        t = _new(cls)
        _init(t, ctx, _canonical(ctx.disc, v), None)
        return t

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The triple scaled so its first nonzero entry is 1."""
        c = self._coeffs
        if c is None:
            f = self.form
            P = _leading(f)
            ctx = self.ctx
            c = (_quad(ctx, f[0], f[1], P), _quad(ctx, f[2], f[3], P), _quad(ctx, f[4], f[5], P))
            _set_coeffs(self, c)
        return c

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.form == other.form and (self.ctx is other.ctx or self.ctx == other.ctx)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ctx, self.form))
            _set_hash(self, h)
        return h

    def sort_key(self) -> tuple:
        """The entries' ``sort_key``s of ``coeffs``; ``key_order`` sorts by it."""
        k = self._key
        if k is None:
            k = tuple(c.sort_key() for c in self.coeffs)
            _set_key(self, k)
        return k

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"{type(self).__name__}({inner})"


_set_ctx = _ProjTriple.ctx.__set__  # type: ignore[attr-defined]
_set_form = _ProjTriple.form.__set__  # type: ignore[attr-defined]
_set_coeffs = _ProjTriple._coeffs.__set__  # type: ignore[attr-defined]
_set_hash = _ProjTriple._hash.__set__  # type: ignore[attr-defined]
_set_key = _ProjTriple._key.__set__  # type: ignore[attr-defined]


def _init(t: _ProjTriple, ctx: FieldCtx, form: Form, coeffs: Optional[tuple]) -> None:
    _set_ctx(t, ctx)
    _set_form(t, form)
    _set_coeffs(t, coeffs)
    _set_hash(t, None)
    _set_key(t, None)


class Line(_ProjTriple):
    """Projective line c0*x + c1*y + c2*z = 0."""

    __slots__ = ("_polys",)

    def polys(self) -> tuple[Poly, ...]:
        """Over Q(sqrt(d))(t), the coefficients times the lcm of their denominators.

        The three polynomials have no common factor (each coefficient is a
        reduced fraction), so they are the line's denominator-free triple.
        Computed on first use and kept.
        """
        try:
            return self._polys
        except AttributeError:
            pass
        lcm = self.coeffs[0].den
        for c in self.coeffs[1:]:
            if c.den.degree > 0:
                lcm = c.den if lcm.degree <= 0 else lcm * (c.den // lcm.gcd(c.den))
        polys = tuple(c.num if c.den == lcm else c.num * (lcm // c.den) for c in self.coeffs)
        object.__setattr__(self, "_polys", polys)
        return polys

    def eval_at(self, p: "Point") -> Scalar:
        c = self.coeffs
        q = p.coords
        return c[0] * q[0] + c[1] * q[1] + c[2] * q[2]


class Point(_ProjTriple):
    """Projective point (x : y : z)."""

    __slots__ = ()

    @property
    def coords(self) -> tuple[Scalar, ...]:
        return self.coeffs


def key_order(ts: Sequence[_ProjTriple]) -> list[int]:
    """Indices of ``ts``, distinct triples over one field, in ``sort_key`` order.

    Over Q(sqrt(d)) the sort key reads each entry of a form as p/P, with P
    the form's leading integer; scaling every form by L/P, where L is the
    lcm of the leading integers, gives int tuples in the same order.
    """
    if not ts:
        return []
    if ts[0].ctx.parametric:
        keys = [t.sort_key() for t in ts]
    else:
        leads = [_leading(t.form) for t in ts]
        L = math.lcm(*leads)
        keys = [tuple(x * (L // P) for x in t.form) for t, P in zip(ts, leads)]
    return sorted(range(len(ts)), key=keys.__getitem__)


def _check_ctx(a: _ProjTriple, b: _ProjTriple) -> None:
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise FieldMismatchError(
            f"{type(a).__name__} and {type(b).__name__} live in different fields"
        )


def _cross(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


def _cross_ints(d: Optional[int], a: Form, b: Form) -> tuple[int, ...]:
    """The cross product of two six-int triples, in Z[sqrt(d)]."""
    ap0, aq0, ap1, aq1, ap2, aq2 = a
    bp0, bq0, bp1, bq1, bp2, bq2 = b
    if d is None:
        return (ap1 * bp2 - ap2 * bp1, 0, ap2 * bp0 - ap0 * bp2, 0, ap0 * bp1 - ap1 * bp0, 0)
    return (
        ap1 * bp2 - ap2 * bp1 + d * (aq1 * bq2 - aq2 * bq1),
        ap1 * bq2 + aq1 * bp2 - ap2 * bq1 - aq2 * bp1,
        ap2 * bp0 - ap0 * bp2 + d * (aq2 * bq0 - aq0 * bq2),
        ap2 * bq0 + aq2 * bp0 - ap0 * bq2 - aq0 * bp2,
        ap0 * bp1 - ap1 * bp0 + d * (aq0 * bq1 - aq1 * bq0),
        ap0 * bq1 + aq0 * bp1 - ap1 * bq0 - aq1 * bp0,
    )


def orthogonal_pair(t: _ProjTriple) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """Two independent raw triples orthogonal to ``t``.

    For a line they are two points spanning it; for a point, two lines
    spanning its pencil.  Over Q(sqrt(d)) the entries are elements of
    Z[sqrt(d)] read off the form.
    """
    ctx = t.ctx
    if ctx.parametric:
        c0, c1, c2 = t.coeffs
    else:
        f = t.form
        c0, c1, c2 = (_quad(ctx, f[i], f[i + 1], 1) for i in (0, 2, 4))
    zero, one = ctx.zero(), ctx.one()
    if not c0.is_zero():
        return (-c1, c0, zero), (-c2, zero, c0)
    if not c1.is_zero():
        return (one, zero, zero), (zero, -c2, c1)
    return (one, zero, zero), (zero, one, zero)


def pencil(P: Point) -> Iterator[Line]:
    """The lines l1 + k*l2 through P over Q(sqrt(d)), for k = 0, 1, 2, ...

    l1 and l2 are the lines of ``orthogonal_pair(P)`` scaled so their first
    nonzero coefficient is 1.  With forms f1 = P1*l1 and f2 = P2*l2, line k
    has the form of P2*f1 + k*P1*f2, never zero since l1 and l2 are
    independent.
    """
    ctx = P.ctx
    if ctx.parametric:
        raise GeometryError("pencils are enumerated over Q(sqrt(d)) only")
    f1, f2 = (Line(ctx, t).form for t in orthogonal_pair(P))
    a = [_leading(f2) * x for x in f1]
    b = [_leading(f1) * x for x in f2]
    for k in itertools.count():
        yield Line._of_ints(ctx, [x + k * y for x, y in zip(a, b)])


def meet(l1: Line, l2: Line) -> Point:
    """The unique projective point on both lines.

    Over Q(sqrt(d)) it is the cross product of the two six-int forms; over
    Q(sqrt(d))(t), of the lines' polynomial triples, so the only gcds are
    those of normalising the result.
    """
    _check_ctx(l1, l2)
    ctx = l1.ctx
    if ctx.parametric:
        if l1 == l2:
            raise GeometryError("equal lines have no unique meet")
        return Point(ctx, _cross(l1.polys(), l2.polys()))
    v = _cross_ints(ctx.disc, l1.form, l2.form)
    if not any(v):
        raise GeometryError("equal lines have no unique meet")
    return Point._of_ints(ctx, v)


def join(p1: Point, p2: Point) -> Line:
    """The line through both points."""
    _check_ctx(p1, p2)
    ctx = p1.ctx
    if ctx.parametric:
        if p1 == p2:
            raise GeometryError("equal points have no unique join")
        return Line(ctx, _cross(p1.coords, p2.coords))
    v = _cross_ints(ctx.disc, p1.form, p2.form)
    if not any(v):
        raise GeometryError("equal points have no unique join")
    return Line._of_ints(ctx, v)


def incident(p: Point, l: Line) -> bool:
    """Exact incidence test."""
    if l.ctx.parametric:
        return l.eval_at(p).is_zero()
    _check_ctx(p, l)
    a, b = l.form, p.form
    d = l.ctx.disc or 0
    # the dot product in Z[sqrt(d)]: rational part, then the sqrt(d) part
    return (
        a[0] * b[0] + a[2] * b[2] + a[4] * b[4] + d * (a[1] * b[1] + a[3] * b[3] + a[5] * b[5]) == 0
        and a[0] * b[1] + a[1] * b[0] + a[2] * b[3] + a[3] * b[2] + a[4] * b[5] + a[5] * b[4] == 0
    )


def _as_line(ctx: FieldCtx, l: object) -> Line:
    """``l`` as a Line over ``ctx``: a raw triple, or a Line from any context."""
    if isinstance(l, Line):
        return l if l.ctx is ctx or l.ctx == ctx else Line(ctx, l.coeffs)
    return Line(ctx, l)


class Arrangement:
    """Ordered, duplicate-free set of projective lines over one field context."""

    __slots__ = ("ctx", "lines")

    def __init__(self, ctx: FieldCtx, lines: Iterable[object]) -> None:
        built: list[Line] = []
        seen: set[Line] = set()
        for l in lines:
            line = _as_line(ctx, l)
            if line in seen:
                raise GeometryError(f"duplicate line {line!r}")
            seen.add(line)
            built.append(line)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "lines", tuple(built))

    @classmethod
    def _of(cls, ctx: FieldCtx, lines: tuple[Line, ...]) -> "Arrangement":
        """Wrap lines already known to be distinct Lines over ``ctx``."""
        A = object.__new__(cls)
        object.__setattr__(A, "ctx", ctx)
        object.__setattr__(A, "lines", lines)
        return A

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Arrangement is immutable")

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)

    def __getitem__(self, i: int) -> Line:
        return self.lines[i]

    def __contains__(self, line: Line) -> bool:
        return line in self.lines

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Arrangement):
            return NotImplemented
        return self.ctx == other.ctx and self.lines == other.lines

    def __hash__(self) -> int:
        return hash((self.ctx, self.lines))

    def add(self, line: Line) -> "Arrangement":
        """New arrangement with ``line`` appended."""
        line = _as_line(self.ctx, line)
        if line in self.lines:
            raise GeometryError(f"duplicate line {line!r}")
        return Arrangement._of(self.ctx, self.lines + (line,))

    def delete(self, index: int) -> "Arrangement":
        """New arrangement with the line at ``index`` removed."""
        return Arrangement._of(self.ctx, self.lines[:index] + self.lines[index + 1 :])

    def canonical_key(self) -> tuple:
        """Order-independent identity, used as memoization key.

        Lines are canonical, so equal line sets are equal arrangements up to
        order; the frozenset keeps its hash, built from the Lines' kept
        hashes.
        """
        return (self.ctx, frozenset(self.lines))

    def __repr__(self) -> str:
        return f"Arrangement({len(self.lines)} lines over {self.ctx})"


def cone(affine: Sequence[Sequence[object]], ctx: FieldCtx) -> Arrangement:
    """Homogenize affine lines a*x + b*y + c = 0 with z and append z = 0 last."""
    lines = [Line(ctx, triple) for triple in affine]
    infinity = Line(ctx, (0, 0, 1))
    if infinity in lines:
        raise GeometryError("affine input already contains the infinity line")
    return Arrangement(ctx, lines + [infinity])
