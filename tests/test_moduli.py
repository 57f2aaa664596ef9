"""Tests for family degeneration analysis and the profile classifier."""

from __future__ import annotations

import gc
import math
import random
from fractions import Fraction

import pytest

from freearr.catalog import family13, family13_family, family15, family15_family
from freearr.lattice import compute_lattice, lattice_isomorphic
from freearr.moduli import (
    Family,
    ProfileTriple,
    classify_profiles,
    exceptional_values,
    generic_lattice,
    scan_family,
)
from freearr.scalar import FieldCtx, Poly, QuadElem, FieldMismatchError


def _const_family() -> Family:
    ctx = FieldCtx(None, parametric=True)
    c = lambda *vals: Poly.from_rationals(ctx, vals)
    trips = (
        (c(1), c(0), c(0)),
        (c(0), c(1), c(0)),
        (c(0), c(0), c(1)),
        (c(1), c(1), c(1)),
    )
    return Family("const", ctx, trips)


def _proj_key(v: tuple) -> tuple:
    """A projective point or line scaled so its first nonzero entry is 1."""
    piv = next(c for c in v if not c.is_zero())
    return tuple(c / piv for c in v)


def _cross(a: tuple, b: tuple) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _family15_lines(lam: QuadElem) -> list[tuple]:
    """The 15 coefficient triples of family15 evaluated at t = lam."""
    return [tuple(p.eval(lam) for p in tri) for tri in family15_family().triples]


def _oracle_profile(lines: list[tuple]) -> tuple[int, tuple[int, ...]]:
    """Point count and multiplicity profile by brute force over all pairs.

    Uses only scalar arithmetic: every pair of lines is met by a cross
    product, points are grouped by their normalised coordinates, and a
    point's multiplicity is the number of lines met there.  Independent of
    ``lattice.py`` and ``moduli.py``.
    """
    incident: dict[tuple, set[int]] = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = _proj_key(_cross(lines[i], lines[j]))
            incident.setdefault(pt, set()).update((i, j))
    mults = [len(s) for s in incident.values()]
    profile = [0] * (max(mults) - 1)
    for m in mults:
        profile[m - 2] += 1
    return len(incident), tuple(profile)


class TestGenericLattice:
    def test_constant_family_no_conditions(self):
        gl = generic_lattice(_const_family())
        assert gl.conditions == ()
        assert gl.lattice.nlines == 4

    def test_family13_has_omega_condition(self):
        gl = generic_lattice(family13_family())
        polys = {tuple(c.a for c in cond.poly.coeffs) for cond in gl.conditions}
        assert (1, -1, 1) in polys  # t^2 - t + 1
        assert gl.lattice.profile == (21, 3, 3, 3)

    def test_family15_generic_profile(self):
        gl = generic_lattice(family15_family())
        assert gl.lattice.nlines == 15
        assert gl.lattice.profile == (27, 6, 0, 6)

    def test_identically_proportional_pair_rejected(self):
        ctx = FieldCtx(None, parametric=True)
        c = lambda *vals: Poly.from_rationals(ctx, vals)
        trips = (
            (c(1), c(0), c(0)),
            (c(0, 2), c(0), c(0)),  # 2t * x, proportional to x for all t
            (c(0), c(1), c(0)),
        )
        with pytest.raises(FieldMismatchError):
            generic_lattice(Family("bad", ctx, trips))


class TestExceptionalValues:
    def test_family13_set(self):
        rep = exceptional_values(family13_family())
        assert rep.rational_values() == {
            Fraction(0),
            Fraction(1),
            Fraction(-1),
            Fraction(2),
            Fraction(1, 2),
        }
        ctx = FieldCtx(-3)
        omega_roots = {
            QuadElem(ctx, Fraction(1, 2), Fraction(1, 2)),
            QuadElem(ctx, Fraction(1, 2), Fraction(-1, 2)),
        }
        assert rep.irrational_values() == omega_roots
        assert rep.unresolved == ()

    def test_family13_kinds(self):
        rep = exceptional_values(family13_family())
        kinds = {str(v.value): v.kind for v in rep.values}
        assert kinds["0"] == "size_drop"
        assert kinds["1"] == "size_drop"
        assert kinds["2"] == "lattice_change"
        assert kinds["-1"] == "lattice_change"
        assert kinds["1/2"] == "lattice_change"

    def test_family15_set(self):
        rep = exceptional_values(family15_family())
        assert rep.rational_values() == {Fraction(0), Fraction(1), Fraction(1, 2)}
        ctx = FieldCtx(5)
        expected = {
            QuadElem(ctx, Fraction(-1, 2), Fraction(1, 2)),
            QuadElem(ctx, Fraction(-1, 2), Fraction(-1, 2)),
            QuadElem(ctx, Fraction(3, 2), Fraction(1, 2)),
            QuadElem(ctx, Fraction(3, 2), Fraction(-1, 2)),
        }
        assert rep.irrational_values() == expected
        kinds = {v.kind for v in rep.values if not v.value.is_rational()}
        assert kinds == {"lattice_change"}

    @pytest.mark.parametrize("sign", [1, -1])
    def test_family15_oracle_keeps_generic_at_3_2_sqrt2(self, sign):
        # Certificate that 3/2 +- sqrt(2) (roots of 4t^2 - 12t + 1) is not
        # exceptional: the specialised lines stay distinct and meet in the
        # generic 39 points.  Specialisation can only merge points, so an
        # unchanged point count and profile means an unchanged lattice.
        lam = QuadElem(FieldCtx(2), Fraction(3, 2), Fraction(sign))
        lines = _family15_lines(lam)
        assert all(any(not c.is_zero() for c in line) for line in lines)
        assert len({_proj_key(line) for line in lines}) == 15
        generic = _oracle_profile(_family15_lines(QuadElem.of(FieldCtx(), 7)))
        assert _oracle_profile(lines) == generic == (39, (27, 6, 0, 6))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_family15_oracle_degenerates_at_3_sqrt5_over_2(self, sign):
        # Line 11 is (1-3t)x + (1-3t+t^2)y - tz; lines 0 (x = 0) and
        # 2 (x + z = 0) meet at (0:1:0).  Line 11 passes through that point
        # exactly when t^2 - 3t + 1 = 0, i.e. at t = (3 +- sqrt(5))/2.
        lam = QuadElem(FieldCtx(5), Fraction(3, 2), Fraction(sign, 2))
        lines = _family15_lines(lam)
        assert _proj_key(_cross(lines[0], lines[2])) == (0, 1, 0)
        assert lines[11][1].is_zero()
        assert len({_proj_key(line) for line in lines}) == 15
        assert _oracle_profile(lines) == (31, (15, 10, 0, 6))

    def test_family15_conditions_exclude_3_2_sqrt2(self):
        fam = family15_family()
        quad = Poly.from_rationals(fam.ctx, [1, -12, 4])  # 4t^2 - 12t + 1
        conds = generic_lattice(fam).conditions
        assert len(conds) == 11
        assert all(not (c.poly % quad).is_zero() for c in conds)
        descs = {c.description: c.poly for c in conds}
        line11 = descs["line 11 passes through the meet of lines (0, 2)"]
        assert line11 == Poly.from_rationals(fam.ctx, [1, -3, 1])

    def test_constant_family_empty(self):
        rep = exceptional_values(_const_family())
        assert rep.values == ()
        assert rep.conditions == ()

    def test_non_listed_samples_keep_generic_lattice(self):
        fam = family13_family()
        gl = generic_lattice(fam)
        rep = exceptional_values(fam)
        excluded = rep.rational_values()
        rng = random.Random(5)
        checked = 0
        while checked < 20:
            lam = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            if lam in excluded:
                continue
            lat = compute_lattice(fam.specialize(lam))
            assert lattice_isomorphic(gl.lattice, lat)
            checked += 1


class TestScanFamily:
    def test_family13_rows(self):
        table = scan_family(family13_family(), [-1, 2, Fraction(1, 2), 3])
        assert table.family == "family13"
        sym = table.rows[0]
        assert sym.label == "t"
        assert sym.verdict == "free"
        assert sym.exponents == (1, 6, 6)
        assert sym.inductively_free is None
        by_label = {r.label: r for r in table.rows[1:]}
        for lab in ("-1", "2", "1/2"):
            row = by_label[lab]
            assert row.profile == (18, 4, 3, 3)
            assert row.exponents == (1, 5, 7)
            assert row.inductively_free is True
            assert row.recursive == "yes"
        generic = by_label["3"]
        assert generic.exponents == (1, 6, 6)
        assert generic.inductively_free is False
        assert generic.recursive == "no"

    def test_family15_symbolic_row(self):
        table = scan_family(family15_family(), [], symbolic=True)
        (sym,) = table.rows
        assert sym.verdict == "free" and sym.exponents == (1, 7, 7)

    def test_family15_recursively_free_samples(self):
        table = scan_family(
            family15_family(),
            [-1, Fraction(1, 3), 2, Fraction(2, 3)],
            symbolic=False,
        )
        for row in table.rows:
            assert row.verdict == "free"
            assert row.inductively_free is False
            assert row.recursive == "yes"

    def test_symbolic_agrees_with_samples(self):
        fam = family13_family()
        rep = exceptional_values(fam)
        excluded = rep.rational_values()
        rng = random.Random(11)
        checked = 0
        while checked < 5:
            lam = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
            if lam in excluded:
                continue
            table = scan_family(fam, [lam])
            sym, row = table.rows
            assert sym.verdict == row.verdict == "free"
            assert sym.exponents == row.exponents
            checked += 1


def oracle_classify_profiles(ell_max):
    """The unpruned enumeration that ``classify_profiles`` replaced."""
    out = []
    for ell in range(7, ell_max + 1):
        for a in range(3, (ell - 1) // 2 + 1):
            s1 = (ell - 1) * (a + 1) - a * a
            if s1 < 0:
                continue

            def rec(i, rem1, rem2, rem3, acc):
                if i == 0:
                    if rem1 == 0 and rem2 == 0:
                        out.append((ell, a, acc))
                    return
                w2 = math.comb(i + 1, 2)
                top = min(rem1 // i, rem2 // w2, rem3 // (i + 1))
                for f in range(top + 1):
                    rec(i - 1, rem1 - i * f, rem2 - w2 * f, rem3 - (i + 1) * f, (f,) + acc)

            rec(a - 2, s1, math.comb(ell, 2), a * ell, ())
    return sorted(out)


class TestClassifyProfiles:
    @pytest.mark.parametrize("ell_max", [16, 19])
    def test_pruned_matches_oracle(self, ell_max):
        got = [(p.ell, p.a, p.profile) for p in classify_profiles(ell_max)]
        assert got == oracle_classify_profiles(ell_max)
        if ell_max == 19:
            assert len(got) == 2835

    def test_leaves_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            classify_profiles(16)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_twelve(self):
        got = [(p.ell, p.a, p.profile) for p in classify_profiles(12)]
        assert got == [
            (9, 4, (0, 12)),
            (11, 5, (1, 14, 2)),
            (11, 5, (4, 11, 3)),
            (11, 5, (7, 8, 4)),
            (11, 5, (10, 5, 5)),
            (12, 5, (0, 16, 3)),
        ]

    def test_small_empty(self):
        assert classify_profiles(8) == []
        assert all(p.ell != 10 for p in classify_profiles(10))

    def test_identities_hold(self):
        for p in classify_profiles(14):
            f = p.profile
            assert len(f) == p.a - 2
            assert sum((i + 1) * fi for i, fi in enumerate(f)) == (p.ell - 1) * (
                p.a + 1
            ) - p.a * p.a
            assert sum(
                math.comb(i + 2, 2) * fi for i, fi in enumerate(f)
            ) == math.comb(p.ell, 2)
            assert sum((i + 2) * fi for i, fi in enumerate(f)) <= p.a * p.ell

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            classify_profiles(1)

    def test_known_arrangements_appear(self):
        triples = {(p.ell, p.a, p.profile) for p in classify_profiles(12)}
        from freearr.catalog import dual_hesse, g443, pentagonal

        assert (9, 4, compute_lattice(dual_hesse()).profile) in triples
        assert (11, 5, compute_lattice(pentagonal()).profile) in triples
        assert (12, 5, compute_lattice(g443()).profile) in triples
