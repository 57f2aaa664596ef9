"""Tests for free-move searches: deletions, additions, inductive, recursive."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from freearr.catalog import (
    dual_hesse,
    eleven_if,
    family13,
    family15,
    g443,
    pentagonal,
)
from freearr.freeness import is_free
from freearr.geometry import Arrangement, Line, cone, join, orthogonal_pair
from freearr.lattice import addition_counts, compute_lattice, extend_lattice, restrict_lattice
from freearr.moduli import Family
from freearr.scalar import RATIONAL, FieldCtx, Poly, QuadElem
from freearr.search import (
    Chain,
    Move,
    SearchCache,
    SearchError,
    _addition_candidates,
    _generic_representative,
    _pencil_representative,
    free_additions,
    free_deletions,
    is_inductively_free,
    recursive_freeness_bounded,
    verify_chain,
)


@pytest.fixture(scope="module")
def cache():
    return SearchCache()


def triangle() -> Arrangement:
    ctx = RATIONAL
    return Arrangement(ctx, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


class TestFreeDeletions:
    def test_triangle_all_deletable(self, cache):
        dels = free_deletions(triangle(), cache=cache)
        assert [h for h, _ in dels] == [0, 1, 2]
        assert all(e == (1, 0, 1) for _, e in dels)

    def test_dual_hesse_none(self, cache):
        assert free_deletions(dual_hesse(), cache=cache) == []

    def test_pentagonal_none(self, cache):
        assert free_deletions(pentagonal(), cache=cache) == []

    def test_eleven_if_some(self, cache):
        dels = free_deletions(eleven_if(), cache=cache)
        assert dels, "an inductively free arrangement has a free deletion"

    def test_nonfree_input_rejected(self, cache):
        bad = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, -1, 2)])
        assert not is_free(bad).is_free
        with pytest.raises(SearchError):
            free_deletions(bad, cache=cache)


class TestFreeAdditions:
    def test_dual_hesse_exactly_twelve(self, cache):
        A = dual_hesse()
        adds = free_additions(A, cache=cache)
        assert len(adds) == 12
        lat = compute_lattice(A)
        for line in adds:
            ext = extend_lattice(lat, A, line)
            r = is_free(A.add(line), lat=ext)
            assert r.exponents == (1, 4, 5)
            # each free addition passes through exactly four triple points
            assert ext.n_by_line[9] == 9 - 4

    def test_pentagonal_diagonal(self, cache):
        A = pentagonal()
        ctx = A.ctx
        diag = Line(ctx, (1, -1, 0))
        adds = free_additions(A, cache=cache)
        assert diag in adds
        r = is_free(A.add(diag))
        assert r.exponents == (1, 5, 6)

    def test_g443_infinity_line(self, cache):
        A = g443()
        infty = Line(A.ctx, (0, 0, 1))
        adds = free_additions(A, cache=cache)
        assert infty in adds
        lat = compute_lattice(A)
        ext = extend_lattice(lat, A, infty)
        r = is_free(A.add(infty), lat=ext)
        assert r.exponents == (1, 5, 7)
        assert ext.n_by_line[12] == 6

    def test_family15_at_2_completion(self, cache):
        A = family15(2)
        new = Line(A.ctx, (2, 0, 1))
        adds = free_additions(A, cache=cache)
        assert new in adds
        r = is_free(A.add(new))
        assert r.exponents == (1, 7, 8)

    def test_candidate_n_matches_fresh_lattice(self, cache):
        A = eleven_if()
        lat = compute_lattice(A)
        for line in free_additions(A, lat, cache):
            ext = extend_lattice(lat, A, line)
            fresh = compute_lattice(A.add(line))
            assert ext.n_by_line == fresh.n_by_line
            on_new = [fp for fp in fresh.points if len(A) in fp.incident]
            assert fresh.n_by_line[len(A)] == len(on_new)
            assert sum(len(fp.incident) - 1 for fp in on_new) == len(A)

    def test_nonfree_input_rejected(self, cache):
        bad = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, -1, 2)])
        with pytest.raises(SearchError):
            free_additions(bad, cache=cache)


def _oracle_pencil_representative(A, lat, P):
    """The pencil-representative loop that tests every k against every flat point."""
    ctx = A.ctx
    l1, l2 = (Line(ctx, t) for t in orthogonal_pair(P))
    others = [fp.point for fp in lat.points if fp.point != P]
    for k in itertools.count():
        kk = ctx.scalar(k)
        coeffs = tuple(a + kk * b for a, b in zip(l1.coeffs, l2.coeffs))
        if all(c.is_zero() for c in coeffs):
            continue
        cand = Line(ctx, coeffs)
        if cand in A:
            continue
        if any(cand.eval_at(q).is_zero() for q in others):
            continue
        return cand
    return None


def _reference_candidate_verdicts(A, lat):
    """The candidate loop of free_additions as a slow oracle.

    Enumerates the strata with a seen-set and decides each candidate by
    building the full lattice of A + L with extend_lattice, then is_free.
    """
    seen = set(A.lines)
    candidates = []
    pts = [fp.point for fp in lat.points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            cand = join(pts[i], pts[j])
            if cand not in seen:
                seen.add(cand)
                candidates.append(cand)
    if not A.ctx.parametric:
        for fp in lat.points:
            rep = _oracle_pencil_representative(A, lat, fp.point)
            if rep is not None and rep not in seen:
                seen.add(rep)
                candidates.append(rep)
        if len(A) >= 1 and pts:
            rep = _generic_representative(A, lat)
            if rep not in seen:
                seen.add(rep)
                candidates.append(rep)
    return [
        (cand, is_free(A.add(cand), extend_lattice(lat, A, cand)))
        for cand in candidates
    ]


def braid_with_moving_line() -> Arrangement:
    """A free 7-line arrangement over Q(t): x, y, z, x - y, x - tz, y - tz and
    x + y - 2tz, the last three meeting x - y in (t : t : 1)."""
    ctx = FieldCtx(None, True)
    triples = [
        ([1], [0], [0]),
        ([0], [1], [0]),
        ([0], [0], [1]),
        ([1], [-1], [0]),
        ([1], [0], [0, -1]),
        ([0], [1], [0, -1]),
        ([1], [1], [0, -2]),
    ]
    fam = Family(
        name="braid_t",
        ctx=ctx,
        triples=tuple(
            tuple(Poly.from_rationals(ctx, cs) for cs in tri) for tri in triples
        ),
    )
    return fam.arrangement()


ORACLE_INPUTS = {
    "dual_hesse": dual_hesse,
    "pentagonal": pentagonal,
    "g443": g443,
    "eleven_if": eleven_if,
    "family13(3)": lambda: family13(3),
    "family15(2)": lambda: family15(2),
    "braid_with_moving_line": braid_with_moving_line,
}


PENCIL_INPUTS = {
    **{name: build for name, build in ORACLE_INPUTS.items() if name != "braid_with_moving_line"},
    "family13(1/2, sqrt3)": lambda: family13(Fraction(1, 2), sqrt3=True),
    "family13(golden)": lambda: family13(QuadElem(FieldCtx(5), Fraction(1, 2), Fraction(1, 2))),
    "family15(i)": lambda: family15(QuadElem(FieldCtx(-1), 0, 1)),
    "dual_hesse+line": lambda: dual_hesse().add(Line(FieldCtx(-3), (1, -1, 0))),
    # one flat point, and lines of A with no other flat point on them
    "pencil": lambda: Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)]),
}


def _oracle_addition_candidates(A, lat):
    """The former candidate scan: every pair of flat points joined, A's lines popped."""
    candidates = {}
    pts = [fp.point for fp in lat.points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            on = candidates.setdefault(join(pts[i], pts[j]), set())
            on.add(i)
            on.add(j)
    for line in A:
        candidates.pop(line, None)
    if not A.ctx.parametric:
        taken = set(candidates).union(A.lines)
        for k, P in enumerate(pts):
            candidates.setdefault(_pencil_representative(P, taken), {k})
        if len(A) >= 1 and pts:
            candidates.setdefault(_generic_representative(A, lat), set())
    return candidates


def _moves(build, limit=3):
    """The first free additions to ``build()`` and its first free deletions."""
    A = build()
    adds = [lambda L=L: A.add(L) for L in free_additions(A)[:limit]]
    dels = [lambda h=h: A.delete(h) for h, _ in free_deletions(A)[:limit]]
    return adds + dels


MOVE_INPUTS = dict(PENCIL_INPUTS)
MOVE_INPUTS["braid_with_moving_line"] = braid_with_moving_line
for _name in ("dual_hesse", "pentagonal", "g443", "eleven_if"):
    for _k, _build in enumerate(_moves(PENCIL_INPUTS[_name])):
        MOVE_INPUTS[f"{_name} move {_k}"] = _build


class TestCountBasedAdditions:
    """free_additions decides candidates from counts; check it against lattices."""

    @pytest.mark.parametrize("name", list(ORACLE_INPUTS))
    def test_matches_lattice_oracles(self, name):
        A = ORACLE_INPUTS[name]()
        lat = compute_lattice(A)
        reference = _reference_candidate_verdicts(A, lat)
        candidates = _addition_candidates(A, lat)
        assert list(candidates) == [cand for cand, _ in reference]
        for (cand, expected), on in zip(reference, candidates.values()):
            # the flat points on the candidate, found by direct incidence
            assert on == {
                k for k, fp in enumerate(lat.points) if cand.eval_at(fp.point).is_zero()
            }
            B = A.add(cand)
            counts = addition_counts(lat, on)
            fresh = compute_lattice(B)
            assert counts == (fresh.nlines, fresh.mu_total, fresh.n_by_line)
            assert is_free(B, counts) == expected
        assert free_additions(A, lat) == [cand for cand, r in reference if r.is_free]

    @pytest.mark.parametrize("name", PENCIL_INPUTS)
    def test_pencil_representatives_match_oracle(self, name):
        """On every flat point, the representative is the one the per-point loop picks."""
        A = PENCIL_INPUTS[name]()
        lat = compute_lattice(A)
        # the candidates flagged with one flat point are the pencil representatives
        reps = {min(on): cand for cand, on in _addition_candidates(A, lat).items() if len(on) == 1}
        assert len(reps) == len(lat.points)
        for k, fp in enumerate(lat.points):
            assert reps[k] == _oracle_pencil_representative(A, lat, fp.point), k

    @pytest.mark.parametrize("name", MOVE_INPUTS)
    def test_disjoint_pairs_match_all_pairs_oracle(self, name):
        """Joining only flat points on no common line gives the same dict, in order."""
        A = MOVE_INPUTS[name]()
        lat = compute_lattice(A)
        fast = _addition_candidates(A, lat)
        assert list(fast.items()) == list(_oracle_addition_candidates(A, lat).items())
        assert not any(line in fast for line in A)

    def test_parametric_scans_joins_only(self):
        A = braid_with_moving_line()
        lat = compute_lattice(A)
        assert is_free(A, lat).exponents == (1, 3, 3)
        candidates = _addition_candidates(A, lat)
        assert all(len(on) >= 2 for on in candidates.values())
        assert 0 < len(free_additions(A, lat)) < len(candidates)


class TestInductivelyFree:
    def test_triangle(self, cache):
        ch = is_inductively_free(triangle(), cache=cache)
        assert ch is not None
        assert len(ch.moves) == 3
        assert verify_chain(ch)

    def test_eleven_if(self, cache):
        ch = is_inductively_free(eleven_if(), cache=cache)
        assert ch is not None
        assert ch.stages[0] == (1, 5, 5)
        assert ch.stages[-1] == (0, 0, 0)
        assert len(ch.moves) == 11
        assert all(m.kind == "delete" for m in ch.moves)
        assert verify_chain(ch)

    def test_dual_hesse_not_if(self, cache):
        assert is_inductively_free(dual_hesse(), cache=cache) is None

    def test_pentagonal_not_if(self, cache):
        assert is_inductively_free(pentagonal(), cache=cache) is None

    def test_dual_hesse_additions_are_if(self, cache):
        A = dual_hesse()
        for line in free_additions(A, cache=cache):
            ch = is_inductively_free(A.add(line), cache=cache)
            assert ch is not None and ch.stages[0] == (1, 4, 5)

    def test_family13_special_value_if(self, cache):
        A = family13(2)
        ch = is_inductively_free(A, cache=cache)
        assert ch is not None
        assert ch.stages[0] == (1, 5, 7)

    def test_family15_at_2_plus_line_if(self, cache):
        A = family15(2)
        B = A.add(Line(A.ctx, (2, 0, 1)))
        ch = is_inductively_free(B, cache=cache)
        assert ch is not None
        assert ch.stages[0] == (1, 7, 8)
        assert verify_chain(ch)

    def test_nonfree_is_none(self, cache):
        bad = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, -1, 2)])
        assert is_inductively_free(bad, cache=cache) is None


# ---------------------------------------------------------------------------
# The deletion search that decides every stage with is_free, kept as the oracle
# of the integer search


def _oracle_deletion_order(A, lat, cache, memo):
    """Deletion order emptying A through free stages, or None."""
    key = A.canonical_key()
    if key in memo:
        return memo[key]
    result = None
    if len(A) == 0:
        result = ()
    elif cache.is_free(A, lat).is_free:
        for h in range(len(A)):
            sub = A.delete(h)
            sublat = restrict_lattice(lat, h)
            if not cache.is_free(sub, sublat).is_free:
                continue
            tail = _oracle_deletion_order(sub, sublat, cache, memo)
            if tail is not None:
                result = (A[h],) + tail
                break
    memo[key] = result
    return result


def _oracle_chain_from_moves(A, moves, cache):
    """The chain of ``moves`` from A with each stage's exponents from is_free."""
    stages = [cache.is_free(A).exponents]
    cur = A
    for mv in moves:
        if mv.kind == "add":
            cur = cur.add(mv.line)
        else:
            cur = cur.delete(cur.lines.index(mv.line))
        stages.append(cache.is_free(cur).exponents)
    return Chain(start=A, moves=tuple(moves), stages=tuple(stages))


def _oracle_inductive_chain(A):
    cache = SearchCache()
    order = _oracle_deletion_order(A, compute_lattice(A), cache, {})
    if order is None:
        return None
    return _oracle_chain_from_moves(A, [Move("delete", l) for l in order], cache)


GOLDEN_RATIO = QuadElem(FieldCtx(5), Fraction(1, 2), Fraction(1, 2))
GAUSS_I = QuadElem(FieldCtx(-1), 0, 1)

# the catalog, and family fibres over Q, Q(sqrt 5) and Q(i)
IF_ORACLE_INPUTS = {
    **ORACLE_INPUTS,
    "family13(2)": lambda: family13(2),
    "family13(-5/2)": lambda: family13(Fraction(-5, 2)),
    "family15(5)": lambda: family15(5),
    "family13(golden)": lambda: family13(GOLDEN_RATIO),
    "family15(golden)": lambda: family15(GOLDEN_RATIO),
    "family13(i)": lambda: family13(GAUSS_I),
    "family15(i)": lambda: family15(GAUSS_I),
}


@pytest.fixture(scope="module")
def oracle_pool():
    """The numeric oracle inputs and each of their free one-line additions."""
    pool = []
    for name, build in IF_ORACLE_INPUTS.items():
        A = build()
        if A.ctx.parametric:
            continue
        pool.append(A)
        pool.extend(A.add(line) for line in free_additions(A))
    return pool


class TestInductiveOracle:
    """The integer search returns the chain of the per-stage is_free search."""

    @pytest.mark.parametrize("name", IF_ORACLE_INPUTS)
    def test_catalog_and_fibres(self, name):
        A = IF_ORACLE_INPUTS[name]()
        assert is_inductively_free(A) == _oracle_inductive_chain(A)

    def test_free_additions(self, oracle_pool):
        verdicts = set()
        for A in oracle_pool:
            chain = is_inductively_free(A)
            assert chain == _oracle_inductive_chain(A), A
            verdicts.add(chain is not None)
        assert verdicts == {True, False}
        assert len(oracle_pool) > 60

    def test_seeded_free_subarrangements(self, oracle_pool):
        rng = random.Random(2024)
        counts = {True: 0, False: 0}
        while sum(counts.values()) < 300:
            B = rng.choice(oracle_pool)
            A = Arrangement(B.ctx, rng.sample(B.lines, len(B) - rng.randint(1, 4)))
            if not is_free(A).is_free:
                continue
            chain = is_inductively_free(A)
            assert chain == _oracle_inductive_chain(A), A
            if chain is not None:
                assert verify_chain(chain)
            counts[chain is not None] += 1
        assert counts[True] > 0 and counts[False] > 0, counts

    def test_answers_memoised_by_line_set(self):
        """Whole-arrangement answers are memoised by line set, whatever the order."""
        cache = SearchCache()
        A = eleven_if()
        first = is_inductively_free(A, cache=cache)
        B = Arrangement(A.ctx, reversed(A.lines))
        again = is_inductively_free(B, cache=cache)
        assert len(cache.inductive) == 1
        assert again.start == B and again.moves == first.moves and again.stages == first.stages

    @pytest.mark.parametrize("name", ["dual_hesse", "pentagonal", "family13(golden)"])
    def test_recursive_stages_match_oracle(self, name):
        A = IF_ORACLE_INPUTS[name]()
        v = recursive_freeness_bounded(A, max_size=len(A) + 2)
        assert v.kind == "yes"
        assert v.chain == _oracle_chain_from_moves(A, v.chain.moves, SearchCache())


class TestRecursive:
    def test_dual_hesse_yes_within_ten(self, cache):
        v = recursive_freeness_bounded(dual_hesse(), max_size=10, cache=cache)
        assert v.kind == "yes"
        assert v.chain is not None
        assert v.chain.moves[0].kind == "add"
        assert verify_chain(v.chain)
        assert len(v.chain.end()) == 0

    def test_pentagonal_yes(self, cache):
        v = recursive_freeness_bounded(pentagonal(), max_size=12, cache=cache)
        assert v.kind == "yes"
        assert verify_chain(v.chain)

    def test_g443_yes(self, cache):
        v = recursive_freeness_bounded(g443(), max_size=13, cache=cache)
        assert v.kind == "yes"
        assert verify_chain(v.chain)

    def test_family13_generic_no(self, cache):
        v = recursive_freeness_bounded(family13(3), cache=cache)
        assert v.kind == "no"
        assert v.certificate["free_deletions"] == []
        assert v.certificate["free_additions"] == []

    def test_family15_generic_no(self, cache):
        v = recursive_freeness_bounded(family15(5), cache=cache)
        assert v.kind == "no"
        assert v.certificate["free_additions"] == []

    def test_family13_gauss_yes(self, cache):
        lam = FieldCtx(-1).sqrt_gen()
        v = recursive_freeness_bounded(family13(lam), max_size=14, cache=cache)
        assert v.kind == "yes"
        assert verify_chain(v.chain)

    def test_family13_golden_yes(self, cache):
        lam = QuadElem(FieldCtx(5), Fraction(1, 2), Fraction(1, 2))
        v = recursive_freeness_bounded(family13(lam), max_size=14, cache=cache)
        assert v.kind == "yes"
        assert verify_chain(v.chain)

    def test_empty_is_yes(self, cache):
        v = recursive_freeness_bounded(Arrangement(RATIONAL, []), cache=cache)
        assert v.kind == "yes"

    def test_bound_too_small(self, cache):
        with pytest.raises(SearchError):
            recursive_freeness_bounded(triangle(), max_size=2, cache=cache)


class TestVerifyChain:
    def test_tampered_stage_fails(self, cache):
        ch = is_inductively_free(triangle(), cache=cache)
        bad = Chain(ch.start, ch.moves, ch.stages[:-1] + ((9, 9, 9),))
        assert not verify_chain(bad)

    def test_tampered_start_fails(self, cache):
        ch = is_inductively_free(triangle(), cache=cache)
        assert not verify_chain(Chain(ch.start, ch.moves, ((9, 9, 9),) + ch.stages[1:]))
        bad = Arrangement(RATIONAL, [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, -1, 2)])
        assert not verify_chain(Chain(bad, (), ((1, 1, 2),)))

    def test_tampered_move_fails(self, cache):
        ch = is_inductively_free(triangle(), cache=cache)
        alien = Line(RATIONAL, (1, 7, 7))
        bad = Chain(ch.start, (Move("delete", alien),) + ch.moves[1:], ch.stages)
        assert not verify_chain(bad)

    def test_mixed_chain_roundtrip(self, cache):
        A = dual_hesse()
        line = free_additions(A, cache=cache)[0]
        sub = is_inductively_free(A.add(line), cache=cache)
        moves = (Move("add", line),) + sub.moves
        stages = (is_free(A).exponents,) + sub.stages
        ch = Chain(A, moves, stages)
        assert verify_chain(ch)


class TestRandomProperties:
    def test_deletion_chain_stages_shrink(self, cache):
        rng = random.Random(7)
        ctx = RATIONAL
        for _ in range(10):
            lines = set()
            while len(lines) < rng.randint(3, 7):
                lines.add(
                    tuple(rng.randint(-2, 2) for _ in range(3))
                )
            lines = [t for t in lines if any(t)]
            A = Arrangement(ctx, dict.fromkeys(Line(ctx, t) for t in lines))
            if not is_free(A).is_free:
                continue
            ch = is_inductively_free(A, cache=cache)
            if ch is None:
                continue
            assert verify_chain(ch)
            sizes = [len(A) - i for i in range(len(ch.moves) + 1)]
            assert sizes[-1] == 0
            for exps, size in zip(ch.stages, sizes):
                assert sum(exps) == size
