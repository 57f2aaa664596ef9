"""Tests for projective lines, points, arrangements, and the cone."""

from __future__ import annotations

import itertools
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
    key_order,
    meet,
    orthogonal_pair,
    pencil,
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
                assert hash(x) == hash((ctx, x.form))
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


def test_pencil_lines_pass_through_the_point():
    ctx = FieldCtx(5)
    P = Point(ctx, (1, ctx.sqrt_gen(), 2))
    lines = list(itertools.islice(pencil(P), 5))
    assert all(incident(P, l) for l in lines) and len(set(lines)) == 5
    with pytest.raises(GeometryError):
        next(pencil(Point(FieldCtx(None, True), (1, 0, 0))))


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


# ---------------------------------------------------------------------------
# The six-int form against the QuadElem normalisation it replaced


def _oracle_normalize(ctx, raw):
    """The former normalisation over Q(sqrt(d)): QuadElem entries, first nonzero 1."""
    vals = [
        v if isinstance(v, QuadElem) and (v.ctx is ctx or v.ctx == ctx) else ctx.scalar(v)
        for v in raw
    ]
    pivot = next((v for v in vals if not v.is_zero()), None)
    if pivot is None:
        raise GeometryError("zero triple is not projective")
    inv = pivot.inverse()
    return tuple(ctx.one() if v is pivot else v * inv for v in vals)


def _oracle_cross(a, b):
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


def _oracle_meet(ctx, a, b):
    """meet or join of two normalised triples, as the QuadElem code computed it."""
    return _oracle_normalize(ctx, _oracle_cross(a, b))


def _oracle_incident(p, l):
    return sum((a * b for a, b in zip(p, l)), p[0].ctx.zero()).is_zero()


def _oracle_sort_key(coeffs):
    return tuple(c.sort_key() for c in coeffs)


def _oracle_lattice(ctx, lines):
    """(coords, incident) of every flat point, grouped and sorted on QuadElem triples."""
    by_point: dict = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            p = _oracle_meet(ctx, lines[i], lines[j])
            by_point.setdefault(p, set()).update((i, j))
    return [
        (p, tuple(sorted(s)))
        for p, s in sorted(by_point.items(), key=lambda e: _oracle_sort_key(e[0]))
    ]


FIELDS = (None, 5, -3, -1)


def _random_scalar(rng, ctx, digits):
    def rat():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-(10**digits), 10**digits), rng.randint(1, 10**min(digits, 3)))

    return QuadElem(ctx, rat(), rat() if ctx.disc is not None else 0)


def _random_raw(rng, ctx, digits):
    while True:
        raw = tuple(_random_scalar(rng, ctx, digits) for _ in range(3))
        if any(not c.is_zero() for c in raw):
            return raw


def _oracle_inputs():
    """(name, ctx, raw triples): the catalog, family fibres and seeded random lines."""
    from freearr import catalog

    golden = QuadElem(FieldCtx(5), Fraction(1, 2), Fraction(1, 2))
    arrangements = {
        "dual_hesse": catalog.dual_hesse(),
        "pentagonal": catalog.pentagonal(),
        "g443": catalog.g443(),
        "eleven_if": catalog.eleven_if(),
        "family13(3)": catalog.family13(3),
        "family13(1/2)": catalog.family13(Fraction(1, 2)),
        "family13(golden)": catalog.family13(golden),
        "family13(1/2, sqrt3)": catalog.family13(Fraction(1, 2), sqrt3=True),
        "family15(2)": catalog.family15(2),
        "family15(golden)": catalog.family15(golden),
        "family15(i)": catalog.family15(QuadElem(FieldCtx(-1), 0, 1)),
    }
    out = [(name, A.ctx, [l.coeffs for l in A.lines]) for name, A in arrangements.items()]
    rng = random.Random(11)
    for disc in FIELDS:
        ctx = FieldCtx(disc)
        for digits in (1, 30):
            raws = [_random_raw(rng, ctx, digits) for _ in range(9)]
            # a scaled copy of a line, and a line through two meets of the
            # others, so that the lattice has a triple point
            lam = _random_raw(rng, ctx, digits)[0] or ctx.one()
            raws.append(tuple(lam * c for c in raws[0]))
            n = [_oracle_normalize(ctx, r) for r in raws[:4]]
            p, q = _oracle_meet(ctx, n[0], n[1]), _oracle_meet(ctx, n[2], n[3])
            raws.append(_oracle_meet(ctx, p, q))
            out.append((f"random d={disc} digits={digits}", ctx, raws))
    return out


ORACLE_CASES = _oracle_inputs()


@pytest.mark.parametrize("name,ctx,raws", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_forms_match_quadelem_oracle(name, ctx, raws):
    """Equality, hashes, coeffs, sort keys, meets, joins and incidence agree."""
    twin = FieldCtx(ctx.disc)  # equal to ctx, not the same object
    assert twin == ctx and twin is not ctx
    lines = [Line(ctx, r) for r in raws]
    twins = [Line(twin, r) for r in raws]
    normal = [_oracle_normalize(ctx, r) for r in raws]
    for l, t, n in zip(lines, twins, normal):
        assert l.coeffs == n and t.coeffs == n
        assert l.sort_key() == _oracle_sort_key(n)
        assert l == t and hash(l) == hash(t)
        assert Line(ctx, n) == l and Point(ctx, n).coords == n
    for a, na in zip(lines, normal):
        for b, nb in zip(lines, normal):
            assert (a == b) == (na == nb)
            if a == b:
                assert hash(a) == hash(b)
    points = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if normal[i] == normal[j]:
                with pytest.raises(GeometryError):
                    meet(lines[i], lines[j])
                continue
            p = meet(lines[i], twins[j])
            assert p.coords == _oracle_meet(ctx, normal[i], normal[j])
            assert p.sort_key() == _oracle_sort_key(p.coords)
            points.append(p)
    for p in points[:12]:
        for l, n in zip(lines, normal):
            assert incident(p, l) == _oracle_incident(p.coords, n)
            assert l.eval_at(p) == sum((a * b for a, b in zip(n, p.coords)), ctx.zero())
    distinct = list(dict.fromkeys(points))
    for p, q in zip(distinct[:12], distinct[1:13]):
        assert join(p, q).coeffs == _oracle_meet(ctx, p.coords, q.coords)
    keys = [p.sort_key() for p in distinct]
    assert [distinct[i] for i in key_order(distinct)] == [
        distinct[i] for i in sorted(range(len(distinct)), key=keys.__getitem__)
    ]


@pytest.mark.parametrize("name,ctx,raws", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_lattice_matches_quadelem_oracle(name, ctx, raws):
    """compute_lattice gives the oracle's incident sets in the oracle's point order."""
    from freearr.lattice import compute_lattice

    lines = list(dict.fromkeys(Line(ctx, r) for r in raws))
    lat = compute_lattice(Arrangement(ctx, lines))
    expected = _oracle_lattice(ctx, [l.coeffs for l in lines])
    assert [(fp.point.coords, fp.incident) for fp in lat.points] == expected


def test_form_invariants_raise_geometry_errors():
    with pytest.raises(GeometryError):
        Point._of_ints(FieldCtx(5), (0, 0, 0, 0, 0, 0))
    l = Line(FieldCtx(5), (0, 2, 4))
    assert l.form == (0, 0, 1, 0, 2, 0)
    # the first nonzero entry is made a positive rational integer
    r5 = FieldCtx(5).sqrt_gen()
    assert Line(FieldCtx(5), (r5, 1, 0)).form == (5, 0, 0, 1, 0, 0)
    assert Line(FieldCtx(5), (-r5, -1, 0)) == Line(FieldCtx(5), (r5, 1, 0))
    bad = Line(RATIONAL, (1, 2, 3))
    object.__setattr__(bad, "form", (-1, 0, -2, 0, -3, 0))
    with pytest.raises(GeometryError):
        bad.coeffs
    with pytest.raises(GeometryError):
        bad.sort_key()
