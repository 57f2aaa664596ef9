"""Tests for projective lines, points, arrangements, and the cone."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from freearr.geometry import (
    Arrangement,
    GeometryError,
    Line,
    Point,
    cone,
    incident,
    join,
    meet,
    orthogonal_pair,
)
from freearr.scalar import RATIONAL, FieldCtx, FieldMismatchError, Poly, QuadElem


class TestNormalization:
    def test_first_nonzero_is_one(self):
        l = Line(RATIONAL, (2, 4, -6))
        assert l.coeffs[0] == RATIONAL.one()
        assert l == Line(RATIONAL, (1, 2, -3))

    def test_leading_zero(self):
        l = Line(RATIONAL, (0, 3, 6))
        assert l == Line(RATIONAL, (0, 1, 2))

    def test_zero_triple_rejected(self):
        with pytest.raises(GeometryError):
            Line(RATIONAL, (0, 0, 0))

    def test_normalization_idempotent(self):
        l = Line(RATIONAL, (5, 1, 7))
        assert Line(RATIONAL, l.coeffs) == l

    def test_polynomial_entries(self):
        # a Poly carries the parametric ctx and used to slip past the lift
        ctx = FieldCtx(None, True)
        t = Poly.from_rationals(ctx, [0, 1])
        l = Line(ctx, (t, 1, t))
        assert l == Line(ctx, (ctx.t(), 1, ctx.t()))
        assert l.coeffs == (ctx.one(), 1 / ctx.t(), ctx.one())
        assert Point(ctx, (0, t, 2)) == Point(ctx, (0, 1, 2 / ctx.t()))

    def test_hash_and_sort_key_are_kept(self):
        for ctx, raw in ((RATIONAL, (2, 4, -6)), (FieldCtx(None, True), (3, 0, 1))):
            for cls in (Line, Point):
                x = cls(ctx, raw)
                assert hash(x) == hash((cls.__name__, ctx, x.coeffs))
                assert x.sort_key() == tuple(c.sort_key() for c in x.coeffs)
                assert hash(x) == hash(x) and x.sort_key() is x.sort_key()

    def test_polys_are_denominator_free_and_coprime(self):
        ctx = FieldCtx(5, True)
        t = ctx.t()
        l = Line(ctx, (t - 1, 1 / (t * t + 1), (t + 2) / (t - 1)))
        p = l.polys()
        assert l.polys() is p
        # the triple is proportional to the coefficients
        ratio = l.coeffs[0] / ctx.scalar(p[0])
        assert all(c == ratio * ctx.scalar(q) for c, q in zip(l.coeffs, p))
        assert p[0].gcd(p[1]).gcd(p[2]).degree == 0


class TestMeetJoin:
    def test_axes(self):
        x = Line(RATIONAL, (1, 0, 0))
        y = Line(RATIONAL, (0, 1, 0))
        assert meet(x, y) == Point(RATIONAL, (0, 0, 1))

    def test_parallel_lines_meet_at_infinity(self):
        x = Line(RATIONAL, (1, 0, 0))
        x1 = Line(RATIONAL, (1, 0, -1))
        assert meet(x, x1) == Point(RATIONAL, (0, 1, 0))

    def test_equal_lines_error(self):
        x = Line(RATIONAL, (1, 0, 0))
        with pytest.raises(GeometryError):
            meet(x, Line(RATIONAL, (2, 0, 0)))

    def test_join_origin_and_ones(self):
        p = Point(RATIONAL, (0, 0, 1))
        q = Point(RATIONAL, (1, 1, 1))
        assert join(p, q) == Line(RATIONAL, (1, -1, 0))

    def test_join_contains_both(self):
        p = Point(RATIONAL, (2, 3, 1))
        q = Point(RATIONAL, (-1, 5, 1))
        l = join(p, q)
        assert incident(p, l) and incident(q, l)

    def test_equal_points_error(self):
        p = Point(RATIONAL, (1, 2, 3))
        with pytest.raises(GeometryError):
            join(p, Point(RATIONAL, (2, 4, 6)))

    def test_meet_incident_to_both(self):
        l1 = Line(RATIONAL, (1, 2, 3))
        l2 = Line(RATIONAL, (4, -1, 2))
        p = meet(l1, l2)
        assert incident(p, l1) and incident(p, l2)

    def test_dual_hesse_meet(self):
        # H1 = (x) meets H6 = (y + w*x + w^2) at (0, -w^2, 1), on H8 too
        ctx = FieldCtx(-3)
        half = Fraction(1, 2)
        omega = QuadElem(ctx, -half, half)
        omega2 = omega * omega
        h1 = Line(ctx, (1, 0, 0))
        h6 = Line(ctx, (omega, 1, omega2))
        h8 = Line(ctx, (-omega2, 1, omega2))
        p = meet(h1, h6)
        assert p == Point(ctx, (ctx.zero(), -omega2, ctx.one()))
        assert incident(p, h8)


class TestIncident:
    def test_point_not_on_z(self):
        assert not incident(Point(RATIONAL, (0, 0, 1)), Line(RATIONAL, (0, 0, 1)))

    def test_point_on_x(self):
        assert incident(Point(RATIONAL, (0, 0, 1)), Line(RATIONAL, (1, 0, 0)))


class TestArrangement:
    def test_duplicates_rejected(self):
        with pytest.raises(GeometryError):
            Arrangement(RATIONAL, [(1, 0, 0), (2, 0, 0)])

    def test_order_preserved(self):
        a = Arrangement(RATIONAL, [(0, 1, 0), (1, 0, 0)])
        assert a[0] == Line(RATIONAL, (0, 1, 0))

    def test_canonical_key_order_independent(self):
        a = Arrangement(RATIONAL, [(0, 1, 0), (1, 0, 0), (0, 0, 1)])
        b = Arrangement(RATIONAL, [(1, 0, 0), (0, 0, 1), (0, 1, 0)])
        assert a.canonical_key() == b.canonical_key()
        assert a.canonical_key() != a.delete(0).canonical_key()

    def test_add_delete(self):
        a = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0)])
        b = a.add(Line(RATIONAL, (0, 0, 1)))
        assert len(b) == 3
        assert b.delete(2) == a

    def test_add_coerces_and_rejects_duplicates(self):
        ctx = FieldCtx(5)
        a = Arrangement(ctx, [(1, 0, 0), (0, 1, 0)])
        # a rational Line is coerced into the arrangement's field, as in __init__
        b = a.add(Line(RATIONAL, (1, 1, 2)))
        assert b.lines[-1] == Line(ctx, (1, 1, 2)) and b.lines[-1].ctx == ctx
        assert b == Arrangement(ctx, [(1, 0, 0), (0, 1, 0), (1, 1, 2)])
        with pytest.raises(GeometryError, match="duplicate line"):
            a.add(Line(ctx, (2, 0, 0)))
        with pytest.raises(GeometryError, match="duplicate line"):
            a.add(Line(RATIONAL, (0, 3, 0)))
        with pytest.raises(FieldMismatchError):
            a.add(Line(FieldCtx(-3), (1, FieldCtx(-3).sqrt_gen(), 0)))

    def test_delete_keeps_the_other_lines(self):
        a = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        for h in range(len(a)):
            sub = a.delete(h)
            assert sub.lines == a.lines[:h] + a.lines[h + 1 :]
            assert sub == Arrangement(RATIONAL, [l.coeffs for l in sub.lines])
            assert sub.ctx is a.ctx


class TestCone:
    def test_two_affine_lines(self):
        # cone of {x, x-1} -> {x, x-z, z}
        a = cone([(1, 0, 0), (1, 0, -1)], RATIONAL)
        assert len(a) == 3
        assert a[2] == Line(RATIONAL, (0, 0, 1))
        assert a[1] == Line(RATIONAL, (1, 0, -1))

    def test_empty(self):
        a = cone([], RATIONAL)
        assert len(a) == 1
        assert a[0] == Line(RATIONAL, (0, 0, 1))

    def test_roundtrip(self):
        affine = [(1, 2, 3), (4, 5, 6), (0, 1, -2)]
        a = cone(affine, RATIONAL)
        assert len(a) == len(affine) + 1
        trimmed = a.delete(len(affine))
        assert trimmed == Arrangement(RATIONAL, affine)

    def test_duplicate_after_homogenization(self):
        with pytest.raises(GeometryError):
            cone([(1, 0, 0), (3, 0, 0)], RATIONAL)

    def test_infinity_line_rejected(self):
        with pytest.raises(GeometryError):
            cone([(1, 0, 0), (0, 0, 2)], RATIONAL)


class TestOrthogonalPair:
    def test_spans_the_orthogonal_plane(self):
        ctx = FieldCtx(5)
        r5 = ctx.sqrt_gen()
        triples = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 1), (0, 4, r5), (r5, 1, -7)]
        for raw in triples:
            for t in (Line(ctx, raw), Point(ctx, raw)):
                u, v = orthogonal_pair(t)
                for w in (u, v):
                    assert sum((a * b for a, b in zip(w, t.coeffs)), ctx.zero()).is_zero()
                # independent: their cross product is t up to scale
                assert type(t)(ctx, meet(Line(ctx, u), Line(ctx, v)).coords) == t


def _sorted_sort_key(A: Arrangement) -> tuple:
    """The former canonical key: the sorted sort keys of the lines."""
    return (A.ctx, tuple(sorted(l.sort_key() for l in A.lines)))


def test_canonical_key_matches_sorted_sort_keys():
    """Two frozenset keys are equal exactly when the sorted sort keys are."""
    from freearr import catalog

    rng = random.Random(20)
    bases = [
        catalog.dual_hesse(),
        catalog.pentagonal(),
        catalog.g443(),
        catalog.eleven_if(),
        catalog.family13(3),
        catalog.family15(2),
        catalog.family13(Fraction(1, 2), sqrt3=True),
    ]
    arrs = []
    for A in bases:
        for _ in range(20):
            lines = list(A.lines)
            rng.shuffle(lines)
            B = Arrangement(A.ctx, lines)
            arrs.append(B)
            arrs.extend(B.delete(h) for h in range(len(B)))
    by_new: dict = {}
    by_old: dict = {}
    for B in arrs:
        by_new.setdefault(B.canonical_key(), set()).add(_sorted_sort_key(B))
        by_old.setdefault(_sorted_sort_key(B), set()).add(B.canonical_key())
    assert all(len(v) == 1 for v in by_new.values())
    assert all(len(v) == 1 for v in by_old.values())
    # each base, and each of its one-line deletions, is one class
    assert len(by_new) == len(by_old) == sum(len(A) + 1 for A in bases)
