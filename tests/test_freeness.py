"""Tests for the freeness pipeline: pivot test, Ziegler restriction,
rank-2 multiarrangement exponents, the restriction criterion, and Saito
verification."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

import pytest
import sympy

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
from freearr import freeness
from freearr.freeness import (
    Derivation2,
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
from freearr.scalar import RATIONAL, FieldCtx, Poly, QuadElem, Scalar


def scalars(ctx, values):
    return tuple(ctx.scalar(v) for v in values)


# Oracles: the two eliminators freeness used before its single forward
# elimination, kept unchanged, Gauss-Jordan over Q(sqrt d) and Bareiss over
# Q(sqrt d)(t).  No oracle in this file calls freeness._kernel_vector.


def oracle_kernel_vector(ctx: FieldCtx, rows: list[list[Scalar]], ncols: int) -> Optional[list[Scalar]]:
    """One nonzero kernel vector of the row system, or None if full rank."""
    mat = [list(r) for r in rows]
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if not mat[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append((r, col))
        r += 1
        if r == len(mat):
            break
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    if not free_cols:
        return None
    fc = free_cols[0]
    vec = [ctx.zero()] * ncols
    vec[fc] = ctx.one()
    for rr, cc in pivots:
        vec[cc] = -mat[rr][fc]
    return vec


def oracle_kernel_vector_parametric(
    ctx: FieldCtx, rows: list[list[Scalar]], ncols: int
) -> Optional[list[Scalar]]:
    """Kernel vector over Q(sqrt(d))(t) via fraction-free (Bareiss) elimination.

    Avoids the gcd-normalization cost of naive elimination on rational
    functions by clearing denominators and keeping all intermediate entries
    polynomial, with exact divisions only.
    """
    pmat: list[list[Poly]] = []
    for row in rows:
        den = Poly.one(ctx)
        for e in row:
            if e.den.degree > 0:
                den = den * (e.den // e.den.gcd(den))
        pmat.append([(e * ctx.scalar(den)).num for e in row])
    pivots: list[tuple[int, int]] = []
    prev = Poly.one(ctx)
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(pmat)):
            if not pmat[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        pmat[r], pmat[piv] = pmat[piv], pmat[r]
        pk = pmat[r][col]
        trivial_prev = prev.degree == 0 and prev.coeffs[0] == 1
        for i in range(r + 1, len(pmat)):
            ric = pmat[i][col]
            new_row = []
            for x, y in zip(pmat[i], pmat[r]):
                val = pk * x - ric * y
                if not trivial_prev:
                    val = val // prev
                new_row.append(val)
            pmat[i] = new_row
        pivots.append((r, col))
        prev = pk
        r += 1
        if r == len(pmat):
            break
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in set(pivot_cols)]
    if not free_cols:
        return None
    fc = free_cols[0]
    # back-substitute on the echelon rows over the rational-function field
    vec: list[Scalar] = [ctx.zero()] * ncols
    vec[fc] = ctx.one()
    for j in range(len(pivots) - 1, -1, -1):
        rr, cc = pivots[j]
        acc = ctx.zero()
        for col in range(cc + 1, ncols):
            entry = pmat[rr][col]
            if entry.is_zero() or vec[col].is_zero():
                continue
            acc = acc + ctx.scalar(entry) * vec[col]
        vec[cc] = -acc / ctx.scalar(pmat[rr][cc])
    return vec


def _full_rank_at_specialization(
    ctx: FieldCtx, rows: list[list[Scalar]], ncols: int
) -> Optional[QuadElem]:
    """A parameter value c at which the system has full column rank, or None.

    Full rank at t = c certifies full rank over the function field: a nonzero
    specialised maximal minor is a nonzero generic minor.  None (a rank drop
    at the first value where every entry is defined) is inconclusive.
    """
    if len(rows) < ncols:
        return None
    base = ctx.base()
    for cand in (17, 23, 101, 1009):
        x = QuadElem.of(base, cand)
        try:
            spec = [[entry.eval(x) for entry in row] for row in rows]
        except ZeroDivisionError:
            continue
        return x if oracle_kernel_vector(base, spec, ncols) is None else None
    return None


def oracle_multi_exponents(M):
    """The degree loop that searched up to total // 2 inclusive.

    Over a function field it falls back to symbolic elimination at every
    degree where one specialisation is inconclusive, so it always solves at
    the top degree.  Returns (e1, e2, witness).
    """
    ctx = M.ctx
    total = M.total
    for d in range(total // 2 + 1):
        rows = []
        for (p, q), m in zip(M.forms, M.mult):
            for arow, brow in freeness._divisibility_rows(ctx, p, q, m, d):
                rows.append(arow + brow)
        if ctx.parametric and _full_rank_at_specialization(ctx, rows, 2 * (d + 1)):
            continue
        if ctx.parametric:
            vec = oracle_kernel_vector_parametric(ctx, rows, 2 * (d + 1))
        else:
            vec = oracle_kernel_vector(ctx, rows, 2 * (d + 1))
        if vec is not None:
            theta = Derivation2(tuple(vec[: d + 1]), tuple(vec[d + 1 :]))
            for (p, q), m in zip(M.forms, M.mult):
                assert freeness._form_divisible(ctx, theta.applied_to(p, q), p, q, m)
            return d, total - d, theta
    raise AssertionError("no derivation found up to total/2")


GOLDEN = FieldCtx(5).scalar(Fraction(1, 2)) + FieldCtx(5).sqrt_gen() / 2


FIBRES = {
    "family13": (-1, 2, 3, 5, Fraction(2, 3), GOLDEN, FieldCtx(-3).sqrt_gen()),
    "family15": (2, 5, Fraction(1, 5)),
}
CASE_IDS = ["dual_hesse", "pentagonal", "g443", "eleven_if"] + [
    f"{name}({v})" for name, values in FIBRES.items() for v in values
]


def catalog_and_fibres():
    """The 4 catalog arrangements and 10 family fibres, 11 of them on the restriction route."""
    cases = [dual_hesse(), pentagonal(), g443(), eleven_if()]
    cases += [family13(v) for v in FIBRES["family13"]]
    cases += [family15(v) for v in FIBRES["family15"]]
    return cases


@pytest.fixture(scope="module")
def symbolic_restrictions():
    """The restriction onto the line ``is_free`` picks, for each symbolic family."""
    out = {}
    for fam in (family13_family(), family13_family(sqrt3=True), family15_family()):
        A = fam.arrangement()
        out[fam.name] = ziegler_restriction(A, is_free(A).witness["restriction"])
    return out


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
        yoshinaga = 0
        for A in catalog_and_fibres():
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


class TestDegreeLoopOracle:
    """multi_exponents against the old degree loop kept above as the oracle."""

    @pytest.mark.parametrize("A", catalog_and_fibres(), ids=CASE_IDS)
    def test_every_restriction_of_catalog_and_fibres(self, A):
        for h in range(len(A)):
            M = ziegler_restriction(A, h)
            e1, e2, theta = oracle_multi_exponents(M)
            pair = multi_exponents(M)
            assert (pair.e1, pair.e2) == (e1, e2), h
            assert pair.witness == theta, h
            assert pair.certificate == ()

    def test_symbolic_restrictions(self, symbolic_restrictions):
        for name, M in symbolic_restrictions.items():
            e1, e2, theta = oracle_multi_exponents(M)
            pair = multi_exponents(M)
            assert (pair.e1, pair.e2) == (e1, e2) == (M.total // 2, M.total // 2), name
            assert pair.witness == theta, name

    def test_lazy_witness_matches_oracle_over_function_field(self, symbolic_restrictions):
        M = symbolic_restrictions["family13"]
        pair = multi_exponents(M)
        assert pair._witness is None  # nothing solved until the witness is read
        assert pair.witness == oracle_multi_exponents(M)[2]
        assert pair.witness.degree == pair.e1

    def test_rank_drop_falls_back_to_symbolic_elimination(
        self, symbolic_restrictions, monkeypatch
    ):
        expected = {"family13": (6, 6), "family13_sqrt3": (6, 6), "family15": (7, 7)}
        monkeypatch.setattr(freeness, "_specialisation", lambda *a: None)
        for name, M in symbolic_restrictions.items():
            pair = multi_exponents(M)
            assert tuple(pair) == expected[name], name
            assert pair.certificate == ()

    def test_rank_drop_at_specialisation_finds_kernel(self):
        # four simple points over Q(t): the Euler derivation gives e1 = 1 <
        # total // 2, a square system whose rank drops at every t = c
        ctx = FieldCtx(None, True)
        t = ctx.scalar(Poly.from_rationals(ctx, [0, 1]))
        M = MultiArr2(ctx, [(1, 0), (0, 1), (1, 1), (1, t)], [1, 1, 1, 1])
        pair = multi_exponents(M)
        assert (pair.e1, pair.e2) == (1, 3) == oracle_multi_exponents(M)[:2]
        assert [d for d, _ in pair.certificate] == [0]
        assert pair._witness is not None and pair.witness.degree == 1


def random_system(rng, ctx, nrows, ncols):
    """Small seeded entries with many zeros; each of a zero row, a zero
    column, a row that is a combination of two others and a column that is
    a combination of two others is forced with probability 1/2."""

    def entry():
        if rng.random() < 0.4:
            return ctx.zero()
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if ctx.disc else 0
        return QuadElem(ctx, a, b)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3 and rng.random() < 0.5:
        i, j, k = rng.sample(range(nrows), 3)
        x, y = entry(), entry()
        rows[k] = [x * a + y * b for a, b in zip(rows[i], rows[j])]
    if ncols >= 3 and rng.random() < 0.5:
        i, j, k = rng.sample(range(ncols), 3)
        x, y = entry(), entry()
        for row in rows:
            row[k] = x * row[i] + y * row[j]
    if nrows and rng.random() < 0.5:
        rows[rng.randrange(nrows)] = [ctx.zero()] * ncols
    if rng.random() < 0.5:
        k = rng.randrange(ncols)
        for row in rows:
            row[k] = ctx.zero()
    return rows


class TestEliminatorAgainstOracles:
    """freeness._kernel_vector (forward elimination, back substitution)
    against the Gauss-Jordan and Bareiss oracles kept above: with the same
    pivot rule and normalisation the kernel vector is unique, so the vectors
    must be equal, not merely proportional."""

    @pytest.mark.parametrize("A", catalog_and_fibres(), ids=CASE_IDS)
    def test_every_restriction_system(self, A):
        ctx = A.ctx
        for h in range(len(A)):
            M = ziegler_restriction(A, h)
            for d in range(M.total // 2 + 1):
                rows = freeness._system(ctx, M.forms, M.mult, d)
                n = 2 * (d + 1)
                assert freeness._kernel_vector(ctx, rows, n) == oracle_kernel_vector(
                    ctx, rows, n
                ), (h, d)

    @pytest.mark.parametrize("disc", [None, 5, -3, -1], ids=["Q", "sqrt5", "sqrt-3", "i"])
    def test_seeded_random_systems(self, disc):
        ctx = FieldCtx(disc)
        rng = random.Random(1300 + (disc or 0))
        outcomes = set()
        for _ in range(150):
            ncols = rng.randint(1, 7)
            rows = random_system(rng, ctx, rng.randint(0, ncols + 3), ncols)
            vec = freeness._kernel_vector(ctx, rows, ncols)
            assert vec == oracle_kernel_vector(ctx, rows, ncols), rows
            if vec is not None:
                assert not all(x.is_zero() for x in vec)
                for row in rows:
                    assert sum((a * x for a, x in zip(row, vec)), ctx.zero()).is_zero()
            outcomes.add((vec is None, len(rows) < ncols))
        # full rank and a kernel each occur on square or tall systems
        assert {(True, False), (False, False), (False, True)} <= outcomes

    def test_symbolic_restrictions_against_bareiss(self, symbolic_restrictions):
        for name, M in symbolic_restrictions.items():
            ctx = M.ctx
            for d in range(M.total // 2 + 1):
                rows = freeness._system(ctx, M.forms, M.mult, d)
                vec = oracle_kernel_vector_parametric(ctx, rows, 2 * (d + 1))
                expected = (
                    None if vec is None else Derivation2(tuple(vec[: d + 1]), tuple(vec[d + 1 :]))
                )
                assert freeness._derivation_at(M, d) == expected, (name, d)
            assert expected is not None, name


class TestSpecialisationCertificate:
    """Each (d, c) of the certificate is re-checked with sympy as the oracle.

    The degree-d system is rebuilt from the forms specialised at t = c,
    without freearr's row code: (p*u + q*v)^m divides g = p*f_u + q*f_v iff
    the u-derivatives of g below order m vanish at (u, v) = (-q, p) (for
    p = 0, the v-derivatives at (1, 0)).  Entries a + b*sqrt(D) become the
    rational blocks [[a, D*b], [b, a]], so the rank over Q(sqrt(D)) is half
    the rank of a rational matrix, and ``sympy.Matrix.rank`` is exact.
    """

    @staticmethod
    def specialised_rank(M, d, c):
        u, v = sympy.symbols("u v")
        s = sympy.Symbol("s")  # sqrt(D)
        D = M.ctx.disc
        a = sympy.symbols(f"a0:{d + 1}")
        b = sympy.symbols(f"b0:{d + 1}")

        def to_sympy(x):
            x = x.eval(c)
            return sympy.Rational(x.a.numerator, x.a.denominator) + s * sympy.Rational(
                x.b.numerator, x.b.denominator
            )

        f_u = sum(a[k] * u**k * v ** (d - k) for k in range(d + 1))
        f_v = sum(b[k] * u**k * v ** (d - k) for k in range(d + 1))
        rows = []
        for (p, q), m in zip(M.forms, M.mult):
            p, q = to_sympy(p), to_sympy(q)
            g = p * f_u + q * f_v
            var, at = (u, {u: -q, v: p}) if p != 0 else (v, {u: 1, v: 0})
            for j in range(m):
                cond = sympy.expand(sympy.diff(g, var, j).subs(at))
                rows.append([sympy.expand(cond.coeff(x)) for x in a + b])
        if D is None:
            return sympy.Matrix([[e.subs(s, 0) for e in row] for row in rows]).rank()

        def block(e):
            e = sympy.Poly(sympy.rem(e, s**2 - D, s), s)
            lo, hi = e.coeff_monomial(1), e.coeff_monomial(s)
            return [[lo, D * hi], [hi, lo]]

        big = []
        for row in rows:
            blocks = [block(e) for e in row]
            for i in range(2):
                big.append([x for blk in blocks for x in blk[i]])
        rank = sympy.Matrix(big).rank()
        assert rank % 2 == 0
        return rank // 2

    def test_certificate_rechecks(self, symbolic_restrictions):
        for name, M in symbolic_restrictions.items():
            pair = multi_exponents(M)
            assert [d for d, _ in pair.certificate] == list(range(M.total // 2)), name
            for d, c in pair.certificate:
                assert self.specialised_rank(M, d, c) == 2 * (d + 1), (name, d)

    def test_oracle_sees_the_kernel_at_half_total(self, symbolic_restrictions):
        # at e1 the same oracle reports the rank drop the witness implies
        M = symbolic_restrictions["family13"]
        c = multi_exponents(M).certificate[0][1]
        d = M.total // 2
        assert self.specialised_rank(M, d, c) < 2 * (d + 1)


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
