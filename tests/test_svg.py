"""Tests for the exact-incidence SVG renderer."""

from __future__ import annotations

from fractions import Fraction

import pytest

from freearr.catalog import dual_hesse, eleven_if, family13, family15, pentagonal
from freearr.geometry import Arrangement
from freearr.lattice import compute_lattice
from freearr.scalar import RATIONAL, FieldCtx, QuadElem
from freearr.svg import NotDrawableError, render_svg


def affine_triangle() -> Arrangement:
    return Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (1, 1, -1)])


class TestRealSign:
    def test_rational(self):
        ctx = FieldCtx(None)
        assert QuadElem.of(ctx, Fraction(3, 7)).real_sign() == 1
        assert QuadElem.of(ctx, Fraction(0)).real_sign() == 0
        assert QuadElem.of(ctx, Fraction(-2)).real_sign() == -1

    def test_mixed_signs_exact(self):
        ctx = FieldCtx(2)
        # 3/2 - sqrt(2) > 0, 7/5 - sqrt(2) < 0, both within 0.09 of zero
        assert QuadElem(ctx, Fraction(3, 2), Fraction(-1)).real_sign() == 1
        assert QuadElem(ctx, Fraction(7, 5), Fraction(-1)).real_sign() == -1
        assert QuadElem(ctx, Fraction(-3, 2), Fraction(1)).real_sign() == -1


class TestRenderSvg:
    def test_triangle_counts(self):
        doc = render_svg(affine_triangle())
        assert doc.count("<line ") == 3
        assert doc.count("<circle ") == 3
        assert doc.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in doc

    def test_deterministic(self):
        A = family13(Fraction(2, 3))
        assert render_svg(A) == render_svg(A)

    def test_family13_figure(self):
        doc = render_svg(family13(Fraction(2, 3)))
        assert doc.count("<line ") == 12
        assert "H13 at infinity" in doc

    def test_family15_figure(self):
        # this realization has no z = 0 member: all fifteen lines are affine
        doc = render_svg(family15(Fraction(1, 5)))
        assert doc.count("<line ") == 15
        assert "at infinity" not in doc

    def test_markers_equal_exact_chart_points(self):
        A = eleven_if()
        lat = compute_lattice(A)
        lo, hi = Fraction(-4), Fraction(4)
        expected = 0
        for fp in lat.points:
            x, y, z = fp.point.coords
            if z.is_zero():
                continue
            zi = z.inverse()
            xa, ya = (x * zi).as_fraction(), (y * zi).as_fraction()
            if lo <= xa <= hi and lo <= ya <= hi:
                expected += 1
        assert render_svg(A).count("<circle ") == expected

    def test_quadratic_field_drawable(self):
        doc = render_svg(pentagonal())
        assert doc.count("<line ") == 10  # infinity line annotated, not drawn

    def test_not_drawable(self):
        with pytest.raises(NotDrawableError):
            render_svg(dual_hesse())  # Q(sqrt(-3))
        from freearr.catalog import family13_family

        with pytest.raises(NotDrawableError):
            render_svg(family13_family().arrangement())

    def test_bad_viewport(self):
        with pytest.raises(NotDrawableError):
            render_svg(affine_triangle(), viewport=(1, 1, -1, 1))

    def test_viewport_filters_markers(self):
        A = affine_triangle()
        full = render_svg(A)
        # corner viewport that excludes (1,0) and (0,1) but keeps (0,0)
        tight = render_svg(A, viewport=(Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)))
        assert full.count("<circle ") == 3
        assert tight.count("<circle ") == 1
