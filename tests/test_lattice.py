"""Tests for intersection lattices, profiles, characteristic polynomials,
and lattice automorphisms/isomorphism."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from freearr.catalog import dual_hesse, eleven_if, family13, family15, g443, pentagonal
from freearr import lattice
from freearr.geometry import Arrangement, Line, cone
from freearr.lattice import (
    CharPoly,
    char_poly,
    compute_lattice,
    exponents_from_charpoly,
    extend_lattice,
    lattice_automorphisms,
    lattice_isomorphic,
    restrict_lattice,
)
from freearr.scalar import RATIONAL, FieldCtx


def random_arrangement(rng: random.Random, max_lines: int = 10) -> Arrangement:
    n = rng.randint(2, max_lines)
    lines = []
    seen = set()
    while len(lines) < n:
        raw = tuple(rng.randint(-3, 3) for _ in range(3))
        if raw == (0, 0, 0):
            continue
        try:
            line = Line(RATIONAL, raw)
        except Exception:
            continue
        if line not in seen:
            seen.add(line)
            lines.append(line)
    return Arrangement(RATIONAL, lines)


class TestProfiles:
    def test_triangle(self):
        A = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        lat = compute_lattice(A)
        assert lat.profile == (3,)
        assert lat.mu_total == 3
        assert lat.n_by_line == (2, 2, 2)

    def test_pencil(self):
        # four concurrent lines: one point of multiplicity 4
        A = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)])
        lat = compute_lattice(A)
        assert lat.profile == (0, 0, 1)
        assert lat.mu_total == 3

    def test_dual_hesse(self):
        lat = compute_lattice(dual_hesse())
        assert lat.profile == (0, 12)
        assert lat.mu_total == 24
        assert lat.n_by_line == (4,) * 9
        assert all(f == (0, 4) for f in lat.f_by_line)

    def test_family13_generic_flats(self):
        A = family13(3)
        lat = compute_lattice(A)
        assert lat.profile == (21, 3, 3, 3)
        quints = {fs for fs in lat.big_flats() if len(fs) == 5}
        # line indices are 0-based
        assert quints == {
            frozenset({0, 3, 6, 9, 10}),
            frozenset({1, 4, 7, 10, 11}),
            frozenset({2, 5, 8, 9, 11}),
        }
        quads = {fs for fs in lat.big_flats() if len(fs) == 4}
        assert quads == {
            frozenset({0, 4, 8, 12}),
            frozenset({1, 5, 6, 12}),
            frozenset({2, 3, 7, 12}),
        }
        triples = {fs for fs in lat.big_flats() if len(fs) == 3}
        assert triples == {
            frozenset({0, 5, 7}),
            frozenset({1, 3, 8}),
            frozenset({2, 4, 6}),
        }

    def test_profile_identities_random(self):
        rng = random.Random(7)
        for _ in range(40):
            A = random_arrangement(rng)
            lat = compute_lattice(A)
            ell = len(A)
            F = lat.profile
            assert sum((i + 1) * f for i, f in enumerate(F)) == lat.mu_total
            assert sum((i + 2) * f for i, f in enumerate(F)) == sum(lat.n_by_line)
            assert sum(math.comb(i + 2, 2) * f for i, f in enumerate(F)) == math.comb(
                ell, 2
            )
            for h in range(ell):
                FH = lat.f_by_line[h]
                assert sum(FH) == lat.n_by_line[h]
                assert sum((i + 1) * f for i, f in enumerate(FH)) == ell - 1
            for i in range(len(F)):
                total = sum(
                    lat.f_by_line[h][i] if i < len(lat.f_by_line[h]) else 0
                    for h in range(ell)
                )
                assert total == (i + 2) * F[i]


class TestIncremental:
    def test_extend_matches_fresh(self):
        rng = random.Random(11)
        for _ in range(20):
            A = random_arrangement(rng, 8)
            lat = compute_lattice(A)
            while True:
                raw = tuple(rng.randint(-4, 4) for _ in range(3))
                if raw == (0, 0, 0):
                    continue
                line = Line(RATIONAL, raw)
                if line not in A:
                    break
            B = A.add(line)
            inc = extend_lattice(lat, A, line)
            fresh = compute_lattice(B)
            assert inc.profile == fresh.profile
            assert inc.mu_total == fresh.mu_total
            assert inc.n_by_line == fresh.n_by_line
            assert [fp.incident for fp in inc.points] == [
                fp.incident for fp in fresh.points
            ]

    def test_restrict_matches_fresh(self):
        rng = random.Random(13)
        for _ in range(20):
            A = random_arrangement(rng, 9)
            lat = compute_lattice(A)
            k = rng.randrange(len(A))
            B = A.delete(k)
            dec = restrict_lattice(lat, k)
            fresh = compute_lattice(B)
            assert dec.profile == fresh.profile
            assert dec.mu_total == fresh.mu_total
            assert dec.n_by_line == fresh.n_by_line


class TestCharPoly:
    def test_dual_hesse(self):
        cp = char_poly(dual_hesse())
        assert (cp.quad_sum, cp.quad_prod) == (8, 16)
        assert exponents_from_charpoly(cp) == (1, 4, 4)
        assert cp.coefficients == (1, -9, 24, -16)

    def test_dual_hesse_minus_line(self):
        A = dual_hesse().delete(0)
        lat = compute_lattice(A)
        assert lat.mu_total == 20
        cp = char_poly(A, lat)
        # chi = (t-1)(t^2 - 7t + 13), irreducible over Z
        assert (cp.quad_sum, cp.quad_prod) == (7, 13)
        assert exponents_from_charpoly(cp) is None

    def test_single_line(self):
        A = Arrangement(RATIONAL, [(1, 0, 0)])
        cp = char_poly(A)
        assert cp.coefficients == (1, -1, 0, 0)
        assert exponents_from_charpoly(cp) == (1, 0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            char_poly(Arrangement(RATIONAL, []))

    def test_eval_and_from_mu(self):
        cp = CharPoly(13, 47)
        assert exponents_from_charpoly(cp) == (1, 5, 7)
        for t in (-2, 0, 1, 5, 7, 10):
            assert cp.eval(t) == (t - 1) * (t - 5) * (t - 7)

    def test_nonsplit_parity(self):
        # t^2 - 4t + 3 splits; t^2 - 4t + 5 has negative discriminant
        assert exponents_from_charpoly(CharPoly(5, 7)) == (1, 1, 3)
        assert exponents_from_charpoly(CharPoly(5, 9)) is None


class TestAutomorphisms:
    def test_family13_order(self):
        lat = compute_lattice(family13(3))
        g = lattice_automorphisms(lat)
        assert g.order == 18

    def test_family15_order(self):
        lat = compute_lattice(family15(7))
        g = lattice_automorphisms(lat)
        assert g.order == 48

    def test_triangle_order(self):
        A = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        g = lattice_automorphisms(compute_lattice(A))
        assert g.order == 6

    def test_generators_generate(self):
        lat = compute_lattice(family13(3))
        g = lattice_automorphisms(lat)
        n = lat.nlines
        group = {tuple(range(n))}
        frontier = list(group)
        while frontier:
            nxt = []
            for p in frontier:
                for h in g.generators:
                    q = tuple(p[h[i]] for i in range(n))
                    if q not in group:
                        group.add(q)
                        nxt.append(q)
            frontier = nxt
        assert len(group) == g.order

    def test_corrupted_generator_raises(self, monkeypatch):
        # flats {x, y, x+y} at (0:0:1) and {y, z, y+z} at (1:0:0)
        A = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1)])
        lat = compute_lattice(A)
        swap_x_y = {0: 1, 1: 0, 2: 2, 3: 3, 4: 4}  # sends {y, z, y+z} to no flat
        monkeypatch.setattr(lattice, "_support_maps", lambda *args: [swap_x_y])
        with pytest.raises(RuntimeError, match="does not preserve the flats"):
            lattice_automorphisms(lat)


class TestIsomorphism:
    def test_self_isomorphic(self):
        lat = compute_lattice(g443())
        assert lattice_isomorphic(lat, lat)

    def test_galois_conjugate(self):
        A = dual_hesse()
        B = Arrangement(A.ctx, [tuple(c.conjugate() for c in l.coeffs) for l in A])
        assert lattice_isomorphic(compute_lattice(A), compute_lattice(B))

    def test_different_profiles(self):
        assert not lattice_isomorphic(
            compute_lattice(family13(3)), compute_lattice(family13(2))
        )

    def test_same_profile_different_lattice(self):
        # pentagonal and eleven_if share F = [10,5,5] but are not isomorphic
        assert not lattice_isomorphic(
            compute_lattice(pentagonal()), compute_lattice(eleven_if())
        )

    def test_reordering_is_isomorphic(self):
        A = eleven_if()
        shuffled = list(A.lines)
        random.Random(5).shuffle(shuffled)
        B = Arrangement(A.ctx, shuffled)
        assert lattice_isomorphic(compute_lattice(A), compute_lattice(B))
