"""Projective lines and points in P^2 over an exact scalar field.

Lines and points are homogeneous coefficient triples normalized so the first
nonzero entry is 1, which makes structural equality projective equality and
gives a canonical sort order.  Arrangements are ordered, duplicate-free line
sets; ``cone`` homogenizes an affine line arrangement and appends the
infinity line z = 0 last.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalar import FieldCtx, FieldMismatchError, Poly, QuadElem, RatFn, Scalar

__all__ = [
    "GeometryError",
    "Line",
    "Point",
    "Arrangement",
    "meet",
    "join",
    "incident",
    "orthogonal_pair",
    "cone",
]


class GeometryError(ValueError):
    """Degenerate geometric operation (equal lines/points, zero triple)."""


def _normalize_triple(ctx: FieldCtx, raw: Sequence[object]) -> tuple[Scalar, ...]:
    if len(raw) != 3:
        raise GeometryError("expected a coefficient triple")
    vals = [
        v if isinstance(v, (QuadElem, RatFn)) and (v.ctx is ctx or v.ctx == ctx) else ctx.scalar(v)
        for v in raw
    ]
    pivot = None
    for v in vals:
        if not v.is_zero():
            pivot = v
            break
    if pivot is None:
        raise GeometryError("zero triple is not projective")
    inv = pivot.inverse()
    return tuple(ctx.one() if v is pivot else v * inv for v in vals)


class _ProjTriple:
    """Shared implementation of normalized homogeneous triples.

    The hash and the sort key are computed on first use and kept.
    """

    __slots__ = ("ctx", "coeffs", "_hash", "_key")

    def __init__(self, ctx: FieldCtx, coeffs: Sequence[object]) -> None:
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", _normalize_triple(ctx, coeffs))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.ctx is other.ctx or self.ctx == other.ctx) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((type(self).__name__, self.ctx, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self) -> tuple:
        k = self._key
        if k is None:
            k = tuple(c.sort_key() for c in self.coeffs)
            object.__setattr__(self, "_key", k)
        return k

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"{type(self).__name__}({inner})"


class Line(_ProjTriple):
    """Projective line c0*x + c1*y + c2*z = 0, first nonzero coefficient = 1."""

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
    """Projective point (x : y : z), first nonzero coordinate = 1."""

    __slots__ = ()

    @property
    def coords(self) -> tuple[Scalar, ...]:
        return self.coeffs

    def at_infinity(self) -> bool:
        return self.coeffs[2].is_zero()


def _cross(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


def orthogonal_pair(t: _ProjTriple) -> tuple[tuple[Scalar, ...], tuple[Scalar, ...]]:
    """Two independent raw triples orthogonal to ``t``.

    For a line they are two points spanning it; for a point, two lines
    spanning its pencil.
    """
    ctx = t.ctx
    zero, one = ctx.zero(), ctx.one()
    c0, c1, c2 = t.coeffs
    if not c0.is_zero():
        return (-c1, c0, zero), (-c2, zero, c0)
    if not c1.is_zero():
        return (one, zero, zero), (zero, -c2, c1)
    return (one, zero, zero), (zero, one, zero)


def meet(l1: Line, l2: Line) -> Point:
    """The unique projective point on both lines.

    Over Q(sqrt(d))(t) the cross product is taken of the lines' polynomial
    triples, so the only gcds are those of normalising the result.
    """
    if l1.ctx != l2.ctx:
        raise FieldMismatchError("lines live in different fields")
    if l1 == l2:
        raise GeometryError("equal lines have no unique meet")
    if l1.ctx.parametric:
        return Point(l1.ctx, _cross(l1.polys(), l2.polys()))
    return Point(l1.ctx, _cross(l1.coeffs, l2.coeffs))


def join(p1: Point, p2: Point) -> Line:
    """The line through both points."""
    if p1.ctx != p2.ctx:
        raise FieldMismatchError("points live in different fields")
    if p1 == p2:
        raise GeometryError("equal points have no unique join")
    return Line(p1.ctx, _cross(p1.coords, p2.coords))


def incident(p: Point, l: Line) -> bool:
    """Exact incidence test."""
    return l.eval_at(p).is_zero()


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

        Lines are normalised, so equal line sets are equal arrangements up
        to order; the frozenset keeps its hash, built from the Lines' kept
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
