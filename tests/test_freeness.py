"""Tests for the freeness pipeline: pivot test, Ziegler restriction,
rank-2 multiarrangement exponents, the restriction criterion, and Saito
verification."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from freearr.catalog import (
    dual_hesse,
    eleven_if,
    family13,
    family13_family,
    family15,
    family15_family,
    g443,
    pentagonal,
)
from freearr.freeness import (
    Derivation2,
    ExponentPair,
    FreenessError,
    MultiArr2,
    abt_test,
    is_free,
    multi_exponents,
    s_membership,
    saito_verify_rank2,
    yoshinaga_test,
    ziegler_restriction,
)
from freearr.geometry import Arrangement, Line
from freearr.lattice import char_poly, compute_lattice
from freearr.scalar import RATIONAL, FieldCtx


def scalars(ctx, values):
    return tuple(ctx.scalar(v) for v in values)


TRIANGLE = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

# seven rational lines whose pivot line (n = 6) refutes freeness
NONFREE_PIVOT = Arrangement(
    RATIONAL,
    [
        (2, -2, 1),
        (2, 1, -1),
        (2, -1, 1),
        (0, 1, -1),
        (1, 1, 1),
        (1, 1, -1),
        (1, 2, -2),
    ],
)


class TestMultiExponents:
    def test_three_triple_points(self):
        M = MultiArr2(RATIONAL, [(1, 0), (0, 1), (1, 1)], [3, 3, 3])
        pair = multi_exponents(M)
        assert (pair.e1, pair.e2) == (4, 5)
        assert pair.witness is not None and pair.witness.degree == 4

    def test_two_points(self):
        M = MultiArr2(RATIONAL, [(1, 0), (0, 1)], [2, 3])
        assert tuple(multi_exponents(M)) == (2, 3)

    def test_single_point(self):
        M = MultiArr2(RATIONAL, [(1, 0)], [5])
        assert tuple(multi_exponents(M)) == (0, 5)

    def test_simple_points(self):
        # reduced rank-2 arrangement of k points: exponents (1, k-1)
        M = MultiArr2(RATIONAL, [(1, 0), (0, 1), (1, 1), (1, -1)], [1, 1, 1, 1])
        assert tuple(multi_exponents(M)) == (1, 3)

    def test_sum_invariant(self):
        M = MultiArr2(RATIONAL, [(1, 0), (0, 1), (1, 2), (1, -3)], [4, 2, 1, 1])
        pair = multi_exponents(M)
        assert pair.e1 + pair.e2 == M.total == 8
        assert pair.e1 <= pair.e2

    def test_proportional_forms_rejected(self):
        with pytest.raises(FreenessError):
            MultiArr2(RATIONAL, [(1, 2), (2, 4)], [1, 1])


class TestZiegler:
    def test_triangle(self):
        M = ziegler_restriction(TRIANGLE, 0)
        assert sorted(M.mult) == [1, 1]
        assert M.total == 2

    def test_dual_hesse(self):
        A = dual_hesse()
        for h in range(9):
            M = ziegler_restriction(A, h)
            assert sorted(M.mult) == [2, 2, 2, 2]

    def test_family13_multiplicities(self):
        A = family13(3)
        M = ziegler_restriction(A, 12)
        assert sorted(M.mult) == [1, 1, 1, 3, 3, 3]
        assert M.total == 12
        assert tuple(multi_exponents(M)) == (6, 6)

    def test_family13_chart_equivalence(self):
        # the restriction onto the infinity line must be projectively
        # equivalent to u^3 v^3 (u+v)^3 (u+l v)(u+v-l u)(l u+l v-v) at l=3:
        # points (as u:v roots) with multiplicity 3 at 0, inf, -1 and
        # multiplicity 1 at -3, 1/2 (from (1-l)u+v), and -3/2 (from l u+(l-1)v)
        lam = Fraction(3)
        M = ziegler_restriction(family13(3), 12)

        def roots(forms, mult):
            # root of p*u + q*v as the ratio u:v = (-q : p), None for infinity
            out = []
            for (p, q), m in zip(forms, mult):
                out.append((None if p.is_zero() else -q / p, m))
            return out

        mine = roots(M.forms, M.mult)
        ctx = RATIONAL
        reference = [
            (ctx.scalar(0), 3),
            (None, 3),
            (ctx.scalar(-1), 3),
            (ctx.scalar(-lam), 1),
            (ctx.scalar(-1 / (1 - lam)), 1),
            (ctx.scalar(Fraction(-(lam - 1), lam)), 1),
        ]

        def cross_ratio(a, b, c, d):
            # on P^1 with None = infinity
            def diff(x, y):
                if x is None or y is None:
                    return None
                return x - y

            num1, num2 = diff(a, c), diff(b, d)
            den1, den2 = diff(b, c), diff(a, d)
            parts = [num1, num2, den1, den2]
            # infinity cancels pairwise
            val = ctx.one()
            for p_ in (num1, num2):
                if p_ is not None:
                    val = val * p_
            for p_ in (den1, den2):
                if p_ is not None:
                    val = val / p_
            return val

        def signature(pts):
            trips = [p for p, m in pts if m == 3]
            singles = [p for p, m in pts if m == 1]
            sigs = set()
            for perm in itertools.permutations(trips):
                sig = frozenset(
                    cross_ratio(perm[0], perm[1], perm[2], s) for s in singles
                )
                sigs.add(sig)
            return sigs

        assert signature(mine) & signature(reference)

    def test_total_is_size_minus_one(self):
        for A in (pentagonal(), g443(), eleven_if()):
            for h in (0, len(A) - 1):
                assert ziegler_restriction(A, h).total == len(A) - 1

    def test_bad_index(self):
        with pytest.raises(FreenessError):
            ziegler_restriction(TRIANGLE, 3)


class TestAbt:
    def test_dual_hesse_plus_line(self):
        A = dual_hesse().add(Line(FieldCtx(-3), (1, -1, 0)))
        lat = compute_lattice(A)
        r = abt_test(A, lat, char_poly(A, lat))
        assert r is not None and r.verdict == "free"
        assert r.exponents == (1, 4, 5)
        assert r.witness["n"] == 5

    def test_inapplicable_when_all_n_small(self):
        A = family13(3)
        lat = compute_lattice(A)
        assert set(lat.n_by_line) == {6}
        assert abt_test(A, lat, char_poly(A, lat)) is None

    def test_nonfree_pivot(self):
        lat = compute_lattice(NONFREE_PIVOT)
        r = abt_test(NONFREE_PIVOT, lat, char_poly(NONFREE_PIVOT, lat))
        assert r is not None and r.verdict == "nonfree"
        assert r.witness["n"] == 6


class TestYoshinaga:
    def test_triangle(self):
        r = yoshinaga_test(TRIANGLE, char_poly(TRIANGLE), 0)
        assert r.verdict == "free" and r.exponents == (1, 1, 1)
        assert r.witness["d1"] * r.witness["d2"] == 1

    def test_family13_lambda3(self):
        A = family13(3)
        r = yoshinaga_test(A, char_poly(A), 12)
        assert r.verdict == "free"
        assert (r.witness["d1"], r.witness["d2"]) == (6, 6)
        assert r.exponents == (1, 6, 6)

    def test_line_independence(self):
        for A in (dual_hesse(), g443(), family13(3)):
            c = char_poly(A)
            verdicts = {yoshinaga_test(A, c, h).verdict for h in range(len(A))}
            assert len(verdicts) == 1

    def test_line_independence_nonfree(self):
        c = char_poly(NONFREE_PIVOT)
        verdicts = {
            yoshinaga_test(NONFREE_PIVOT, c, h).verdict
            for h in range(len(NONFREE_PIVOT))
        }
        assert verdicts == {"nonfree"}


class TestRestrictionCertificate:
    """The Yoshinaga route keeps the restriction exponents it computed.

    A fresh ``multi_exponents(ziegler_restriction(A, h))`` is the oracle.
    """

    def test_stored_pair_equals_fresh_restriction(self):
        golden = FieldCtx(5).scalar(Fraction(1, 2)) + FieldCtx(5).sqrt_gen() / 2
        sqrt_m3 = FieldCtx(-3).sqrt_gen()
        cases = [dual_hesse(), pentagonal(), g443(), eleven_if()]
        cases += [family13(v) for v in (-1, 2, 3, 5, Fraction(2, 3), golden, sqrt_m3)]
        cases += [family15(v) for v in (2, 5, Fraction(1, 5))]
        yoshinaga = 0
        for A in cases:
            r = is_free(A)
            if r.route != "yoshinaga":
                assert r.restriction_pair is None
                continue
            yoshinaga += 1
            fresh = multi_exponents(ziegler_restriction(A, r.witness["restriction"]))
            assert r.restriction_pair == fresh
            assert (r.witness["d1"], r.witness["d2"]) == (fresh.e1, fresh.e2)
        assert yoshinaga == 11

    def test_nonfree_keeps_pair(self):
        c = char_poly(NONFREE_PIVOT)
        r = yoshinaga_test(NONFREE_PIVOT, c, 0)
        assert r.verdict == "nonfree"
        assert r.restriction_pair == multi_exponents(ziegler_restriction(NONFREE_PIVOT, 0))


class TestPipeline:
    def test_catalog_verdicts(self):
        expectations = {
            "dual_hesse": (dual_hesse(), (1, 4, 4)),
            "pentagonal": (pentagonal(), (1, 5, 5)),
            "g443": (g443(), (1, 5, 6)),
            "eleven_if": (eleven_if(), (1, 5, 5)),
            "family13@3": (family13(3), (1, 6, 6)),
            "family13@2": (family13(2), (1, 5, 7)),
            "family15@5": (family15(5), (1, 7, 7)),
        }
        for name, (A, exps) in expectations.items():
            r = is_free(A)
            assert r.verdict == "free", name
            assert r.exponents == exps, name
            assert 1 + exps[1] + exps[2] == len(A), name

    def test_chi_gate(self):
        r = is_free(dual_hesse().delete(0))
        assert r.verdict == "nonfree" and r.route == "chi_gate"

    def test_tiny(self):
        assert is_free(Arrangement(RATIONAL, [])).verdict == "free"
        assert is_free(Arrangement(RATIONAL, [(1, 0, 0)])).exponents == (1, 0, 0)
        two = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0)])
        assert is_free(two).verdict == "free"

    def test_symbolic_families(self):
        r13 = is_free(family13_family().arrangement())
        assert (r13.verdict, r13.exponents) == ("free", (1, 6, 6))
        r15 = is_free(family15_family().arrangement())
        assert (r15.verdict, r15.exponents) == ("free", (1, 7, 7))

    def test_quadratic_parameter(self):
        golden = FieldCtx(5).scalar(Fraction(1, 2)) + FieldCtx(5).sqrt_gen() / 2
        r = is_free(family13(golden))
        assert r.verdict == "free" and r.exponents == (1, 6, 6)


class TestSMembership:
    def test_catalog(self):
        for A, expected in [
            (dual_hesse(), True),
            (pentagonal(), True),
            (g443(), True),
            (eleven_if(), False),
            (family13(3), True),
            (family13(2), False),
        ]:
            lat = compute_lattice(A)
            r = is_free(A, lat=lat)
            assert s_membership(A, lat, r) is expected

    def test_rejects_nonfree(self):
        lat = compute_lattice(NONFREE_PIVOT)
        r = is_free(NONFREE_PIVOT, lat=lat)
        with pytest.raises(FreenessError):
            s_membership(NONFREE_PIVOT, lat, r)


class TestSaito:
    def test_published_basis(self):
        M = MultiArr2(RATIONAL, [(1, 0), (0, 1), (1, 1)], [3, 3, 3])
        d1 = Derivation2(
            scalars(RATIONAL, [0, 0, 0, 2, 1]),
            scalars(RATIONAL, [-1, -2, 0, 0, 0]),
        )
        d2 = Derivation2(
            scalars(RATIONAL, [0, 0, 0, 3, 1, 0]),
            scalars(RATIONAL, [0, 1, 3, 0, 0, 0]),
        )
        assert saito_verify_rank2(M, d1, d2)

    def test_euler_pair_on_uv(self):
        M = MultiArr2(RATIONAL, [(1, 0), (0, 1)], [1, 1])
        du = Derivation2(scalars(RATIONAL, [0, 1]), scalars(RATIONAL, [0, 0]))
        dv = Derivation2(scalars(RATIONAL, [0, 0]), scalars(RATIONAL, [1, 0]))
        assert saito_verify_rank2(M, du, dv)

    def test_dependent_pair(self):
        M = MultiArr2(RATIONAL, [(1, 0), (0, 1)], [1, 1])
        du = Derivation2(scalars(RATIONAL, [0, 1]), scalars(RATIONAL, [0, 0]))
        assert not saito_verify_rank2(M, du, du)

    def test_degree_mismatch(self):
        M = MultiArr2(RATIONAL, [(1, 0), (0, 1)], [2, 2])
        du = Derivation2(scalars(RATIONAL, [0, 1]), scalars(RATIONAL, [0, 0]))
        dv = Derivation2(scalars(RATIONAL, [0, 0]), scalars(RATIONAL, [1, 0]))
        assert not saito_verify_rank2(M, du, dv)

    def test_multi_exponents_witnesses_verify(self):
        # witnesses from both exponent degrees assemble into a Saito basis here
        M = MultiArr2(RATIONAL, [(1, 0), (0, 1)], [2, 3])
        w2 = multi_exponents(M).witness
        # degree-3 complement: v^3 d/dv
        w3 = Derivation2(
            scalars(RATIONAL, [0, 0, 0, 0]), scalars(RATIONAL, [1, 0, 0, 0])
        )
        assert saito_verify_rank2(M, w2, w3)

    def test_component_length_mismatch(self):
        with pytest.raises(FreenessError):
            Derivation2(scalars(RATIONAL, [1]), scalars(RATIONAL, [1, 0]))
