"""Tests for intersection lattices, profiles, characteristic polynomials,
and lattice automorphisms/isomorphism."""

from __future__ import annotations

import gc
import math
import random
import time
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


# ---------------------------------------------------------------------------
# Oracle: the pair-size-only backtracking search that the flat-image search in
# freearr.lattice replaced, with the automorphism and isomorphism wrappers of
# that time.  It checks every flat only at the leaves, so it is slow (1-5 s on
# dual_hesse and g443) but independent of sigma, anchors and twin classes.


def oracle_pair_flat_size(flats):
    out = {}
    for f in flats:
        fl = sorted(f)
        for ai in range(len(fl)):
            for bi in range(ai + 1, len(fl)):
                out[(fl[ai], fl[bi])] = len(f)
    return out


def oracle_invariants(flats, n_by_line):
    sizes = [[] for _ in n_by_line]
    for f in flats:
        for i in f:
            sizes[i].append(len(f))
    return [(n, tuple(sorted(s))) for n, s in zip(n_by_line, sizes)]


def oracle_support_maps(src_flats, dst_flats, src_support, dst_support, src_inv, dst_inv, first_only):
    src_pair = oracle_pair_flat_size(src_flats)
    dst_pair = oracle_pair_flat_size(dst_flats)
    dst_flat_set = set(dst_flats)
    results = []
    assigned = {}
    used = set()
    order = list(src_support)

    def consistent(i, img):
        for j, jm in assigned.items():
            a, b = (j, i) if j < i else (i, j)
            c, d = (jm, img) if jm < img else (img, jm)
            if src_pair.get((a, b), 2) != dst_pair.get((c, d), 2):
                return False
        return True

    def rec(k):
        if k == len(order):
            for f in src_flats:
                if frozenset(assigned[i] for i in f) not in dst_flat_set:
                    return False
            results.append(dict(assigned))
            return first_only
        i = order[k]
        for img in dst_support:
            if img in used or dst_inv[img] != src_inv[i]:
                continue
            if not consistent(i, img):
                continue
            assigned[i] = img
            used.add(img)
            if rec(k + 1):
                return True
            del assigned[i]
            used.discard(img)
        return False

    rec(0)
    return results


def oracle_automorphisms(L):
    n = L.nlines
    flats = L.big_flats()
    support = sorted({i for f in flats for i in f})
    free = [i for i in range(n) if i not in set(support)]
    inv = oracle_invariants(flats, L.n_by_line)
    maps = oracle_support_maps(flats, flats, support, support, inv, inv, False)
    identity = tuple(range(n))

    def close(gens):
        group = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for g in frontier:
                for h in gens:
                    comp = tuple(g[h[i]] for i in range(n))
                    if comp not in group:
                        group.add(comp)
                        nxt.append(comp)
            frontier = nxt
        return group

    def full_perm(m):
        perm = list(range(n))
        for i, img in m.items():
            perm[i] = img
        return tuple(perm)

    generators = []
    closure = set()
    for perm in sorted(full_perm(m) for m in maps):
        if perm == identity or perm in closure:
            continue
        generators.append(perm)
        closure = close(generators)
        if len(closure) == len(maps):
            break
    if len(free) >= 2:
        swap = list(range(n))
        swap[free[0]], swap[free[1]] = swap[free[1]], swap[free[0]]
        generators.append(tuple(swap))
        if len(free) > 2:
            cyc = list(range(n))
            for a, b in zip(free, free[1:] + free[:1]):
                cyc[a] = b
            generators.append(tuple(cyc))
    return len(maps) * math.factorial(len(free)), tuple(generators)


def oracle_isomorphic(L1, L2):
    if L1.nlines != L2.nlines or L1.profile != L2.profile:
        return False
    f1, f2 = L1.big_flats(), L2.big_flats()
    s1 = sorted({i for f in f1 for i in f})
    s2 = sorted({i for f in f2 for i in f})
    inv1 = oracle_invariants(f1, L1.n_by_line)
    inv2 = oracle_invariants(f2, L2.n_by_line)
    if len(s1) != len(s2) or sorted(inv1) != sorted(inv2):
        return False
    return bool(oracle_support_maps(f1, f2, s1, s2, inv1, inv2, True))


def group_of(generators, n):
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for h in generators:
                q = tuple(p[h[i]] for i in range(n))
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


def relabelled(A, seed):
    lines = list(A.lines)
    random.Random(seed).shuffle(lines)
    return Arrangement(A.ctx, lines)


def near_pencil(k):
    """k lines through (0:0:1) and the line z = 0."""
    return Arrangement(
        RATIONAL, [(1, j, 0) for j in range(k - 1)] + [(0, 1, 0), (0, 0, 1)]
    )


GOLDEN = FieldCtx(5).scalar(Fraction(1, 2)) + FieldCtx(5).sqrt_gen() / 2
SMALL_CASES = {
    "pentagonal": pentagonal,
    "eleven_if": eleven_if,
    "family13(-1)": lambda: family13(-1),
    "family13(3)": lambda: family13(3),
    "family13(2/3)": lambda: family13(Fraction(2, 3)),
    "family13(golden)": lambda: family13(GOLDEN),
    "family13(sqrt-3)": lambda: family13(FieldCtx(-3).sqrt_gen()),
    "family15(2)": lambda: family15(2),
    "family15(5)": lambda: family15(5),
    "family15(1/5)": lambda: family15(Fraction(1, 5)),
}
CATALOG = {"dual_hesse": dual_hesse, "g443": g443, **SMALL_CASES}


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
            assert [(fp.point, fp.incident) for fp in dec.points] == [
                (fp.point, fp.incident) for fp in fresh.points
            ]


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


    def test_search_leaves_no_reference_cycle(self):
        lat = compute_lattice(dual_hesse())
        gc.collect()
        gc.disable()
        try:
            lattice_automorphisms(lat)
            lattice_isomorphic(lat, lat)
            assert gc.collect() == 0
        finally:
            gc.enable()


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


class TestSymmetryOracle:
    """The flat-image search against the pair-size-only oracle above."""

    @pytest.mark.parametrize("name", list(SMALL_CASES))
    def test_automorphisms_match_oracle(self, name):
        lat = compute_lattice(SMALL_CASES[name]())
        g = lattice_automorphisms(lat)
        assert (g.order, g.generators) == oracle_automorphisms(lat)

    @pytest.mark.parametrize("name", ["dual_hesse", "g443"])
    def test_large_groups_match_oracle(self, name):
        # the oracle takes 1-5 s on each of these
        lat = compute_lattice(CATALOG[name]())
        g = lattice_automorphisms(lat)
        assert (g.order, g.generators) == oracle_automorphisms(lat)

    def test_isomorphism_verdicts_match_oracle(self):
        lats = {name: compute_lattice(build()) for name, build in SMALL_CASES.items()}
        lats["pentagonal'"] = compute_lattice(relabelled(pentagonal(), 1))
        lats["family15(2)'"] = compute_lattice(relabelled(family15(2), 2))
        verdicts = []
        for a in lats:
            for b in lats:
                got = lattice_isomorphic(lats[a], lats[b])
                assert got == oracle_isomorphic(lats[a], lats[b]), (a, b)
                verdicts.append(got)
        assert True in verdicts and False in verdicts
        assert not lattice_isomorphic(lats["pentagonal"], lats["eleven_if"])

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_order_invariant_under_relabelling(self, name):
        A = CATALOG[name]()
        lat = compute_lattice(A)
        order = lattice_automorphisms(lat).order
        for seed in range(5):
            other = compute_lattice(relabelled(A, seed))
            assert lattice_automorphisms(other).order == order
            assert lattice_isomorphic(lat, other)

    def test_random_arrangements_match_oracle(self):
        # small random arrangements often have twin classes: lines on the same
        # big flats, which the search collapses to one representative
        rng = random.Random(17)
        arrs = [random_arrangement(rng, 9) for _ in range(40)]
        lats = [compute_lattice(A) for A in arrs]
        for A, lat in zip(arrs, lats):
            g = lattice_automorphisms(lat)
            order, gens = oracle_automorphisms(lat)
            assert g.order == order
            assert group_of(g.generators, lat.nlines) == group_of(gens, lat.nlines)
            assert lattice_isomorphic(lat, compute_lattice(relabelled(A, 3)))
        for L1, L2 in zip(lats, lats[1:] + lats[:1]):
            assert lattice_isomorphic(L1, L2) == oracle_isomorphic(L1, L2)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_near_pencil_matches_oracle(self, k):
        lat = compute_lattice(near_pencil(k))
        g = lattice_automorphisms(lat)
        order, gens = oracle_automorphisms(lat)
        assert g.order == order == math.factorial(k)
        assert group_of(g.generators, lat.nlines) == group_of(gens, lat.nlines)

    def test_near_pencil_13_lines_is_fast(self):
        lat = compute_lattice(near_pencil(12))
        start = time.perf_counter()
        g = lattice_automorphisms(lat)
        assert time.perf_counter() - start < 1.0
        assert g.order == math.factorial(12)
        reversed_lat = compute_lattice(Arrangement(RATIONAL, near_pencil(12).lines[::-1]))
        assert lattice_isomorphic(lat, reversed_lat)
        assert time.perf_counter() - start < 1.0
