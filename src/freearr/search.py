"""Inductive- and recursive-freeness searches over the free-move graph.

A move adds or deletes one line; a chain is a move sequence through free
arrangements only.  Inductive freeness (deletions only) is decided by a
memoized depth-first search on the intersection lattice, with integers only;
recursive freeness is probed by a bounded best-first search over the move
graph that prefers deletions and smaller states, with a sound and complete
negative certificate when the free neighborhood of the input is empty.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .freeness import FreenessResult, is_free
from .geometry import Arrangement, Line, Point, incident, join, pencil
from .lattice import (
    CharPoly,
    Counts,
    LatticeData,
    addition_counts,
    compute_lattice,
    exponents_from_charpoly,
    extend_lattice,
    restrict_lattice,
)

__all__ = [
    "SearchError",
    "SearchCache",
    "Move",
    "Chain",
    "RecursiveVerdict",
    "free_deletions",
    "free_additions",
    "is_inductively_free",
    "recursive_freeness_bounded",
    "verify_chain",
]


class SearchError(ValueError):
    """Invalid use of a search operation (e.g. non-free input)."""


@dataclass(frozen=True)
class Move:
    """One elementary step: add a line or delete the line at an index."""

    kind: str  # "add" | "delete"
    line: Line

    def __post_init__(self) -> None:
        if self.kind not in ("add", "delete"):
            raise SearchError(f"unknown move kind {self.kind!r}")


@dataclass(frozen=True)
class Chain:
    """A path of free arrangements from ``start`` by one-line moves.

    ``stages`` holds the exponent triple of the start arrangement followed by
    the exponents after each move.  The searches read them off chi (or
    take them from the freeness results they already hold); ``verify_chain``
    re-derives each one with a fresh freeness test.
    """

    start: Arrangement
    moves: tuple[Move, ...]
    stages: tuple[Optional[tuple[int, int, int]], ...]

    def __post_init__(self) -> None:
        if len(self.stages) != len(self.moves) + 1:
            raise SearchError("one exponent entry per stage is required")

    def end(self) -> Arrangement:
        A = self.start
        for mv in self.moves:
            if mv.kind == "add":
                A = A.add(mv.line)
            else:
                A = A.delete(A.lines.index(mv.line))
        return A


@dataclass(frozen=True)
class RecursiveVerdict:
    """Outcome of the bounded recursive-freeness search."""

    kind: str  # "yes" | "no" | "unknown"
    chain: Optional[Chain] = None
    certificate: dict = field(default_factory=dict)


class SearchCache:
    """Shared memo tables keyed by order-independent arrangement identity.

    ``freeness`` holds ``is_free`` results; ``inductive`` holds the answer of
    ``is_inductively_free`` for a whole arrangement (its deletion order and
    stages, or None).
    """

    __slots__ = ("freeness", "inductive")

    def __init__(self) -> None:
        self.freeness: dict = {}
        self.inductive: dict = {}

    def is_free(self, A: Arrangement, lat: Optional[Counts] = None) -> FreenessResult:
        key = A.canonical_key()
        hit = self.freeness.get(key)
        if hit is None:
            hit = is_free(A, lat=lat)
            self.freeness[key] = hit
        return hit


def _require_free(A: Arrangement, cache: SearchCache, lat: Optional[LatticeData]) -> FreenessResult:
    r = cache.is_free(A, lat)
    if not r.is_free:
        raise SearchError("operation requires a free arrangement")
    return r


def free_deletions(
    A: Arrangement,
    lat: Optional[LatticeData] = None,
    cache: Optional[SearchCache] = None,
) -> list[tuple[int, tuple[int, int, int]]]:
    """Indices h with A minus line h free, with the deletion's exponents."""
    cache = cache or SearchCache()
    if lat is None:
        lat = compute_lattice(A)
    _require_free(A, cache, lat)
    out: list[tuple[int, tuple[int, int, int]]] = []
    for h in range(len(A)):
        sub = A.delete(h)
        r = cache.is_free(sub, restrict_lattice(lat, h))
        if r.is_free:
            out.append((h, r.exponents))
    return out


# ---------------------------------------------------------------------------
# Free additions via stratification


def _pencil_representative(P: Point, taken: set[Line]) -> Line:
    """The first line of ``pencil(P)`` that is not in ``taken``.

    With ``taken`` the lines of A and the joins of pairs of flat points, the
    result is a line through P, through no other flat point, and not in A: a
    line through P meets another flat point q exactly when it is the join of
    P and q.  So no flat point is evaluated, and the k chosen is the one the
    per-point incidence test would choose.
    """
    return next(line for line in pencil(P) if line not in taken)


def _generic_representative(A: Arrangement, lat: LatticeData) -> Line:
    """A line through no flat point of A and not in A."""
    ctx = A.ctx
    pts = [fp.point for fp in lat.points]
    for k in itertools.count(1):
        cand = Line(ctx, (1, k, k * k))
        if cand in A:
            continue
        if any(incident(q, cand) for q in pts):
            continue
        return cand
    raise SearchError("unreachable")


def _addition_candidates(A: Arrangement, lat: LatticeData) -> dict[Line, set[int]]:
    """Candidate lines not in A, in scan order, each with the flat points on it.

    Two flat points on a common line of A join to that line, so only pairs
    whose incident sets are disjoint are joined, and no line of A comes up.
    """
    candidates: dict[Line, set[int]] = {}
    pts = [fp.point for fp in lat.points]
    masks = [sum(1 << h for h in fp.incident) for fp in lat.points]
    for i in range(len(pts)):
        p, m = pts[i], masks[i]
        for j in range(i + 1, len(pts)):
            if m & masks[j]:
                continue
            on = candidates.setdefault(join(p, pts[j]), set())
            on.add(i)
            on.add(j)
    if not A.ctx.parametric:
        taken = set(candidates).union(A.lines)
        for k, P in enumerate(pts):
            candidates.setdefault(_pencil_representative(P, taken), {k})
        if len(A) >= 1 and pts:
            candidates.setdefault(_generic_representative(A, lat), set())
    return candidates


def free_additions(
    A: Arrangement,
    lat: Optional[LatticeData] = None,
    cache: Optional[SearchCache] = None,
) -> list[Line]:
    """All lines L (up to strata) with A plus L free.

    Candidates are stratified by incidence with the flat points of A:
    (i) every line through at least two flat points (a finite set, enumerated
    as joins of point pairs); (ii) for each flat point, one generic pencil
    representative — its verdict holds for the whole pencil stratum since the
    stratum has constant intersection data; (iii) one fully generic line.
    Over a parametric field only stratum (i) is scanned.

    Each candidate is decided from counts, without a lattice for A + L.  The
    flat points on a stratum-(i) line are exactly the union of the pairs that
    join to it, since any two flat points on it join to it; a pencil
    representative passes through its own point only, and the generic line
    through none.  With ``on`` that set, n_{A+L,L} = |on| + |A| - sum of m_q
    over q in on, and mu(A + L) = mu(A) + n_{A+L,L} (``addition_counts``).
    """
    cache = cache or SearchCache()
    if lat is None:
        lat = compute_lattice(A)
    _require_free(A, cache, lat)
    out: list[Line] = []
    for cand, on in _addition_candidates(A, lat).items():
        # a candidate is never a line of A, so no duplicate scan
        B = Arrangement._of(A.ctx, A.lines + (cand,))
        r = cache.is_free(B, addition_counts(lat, on))
        if r.is_free:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# Inductive freeness (deletions only), decided on the lattice


def _stage_exponents(size: int, mu: int) -> Optional[tuple[int, int, int]]:
    """Exponents read off chi for ``size`` lines with total mu, if it splits."""
    if size == 0:
        return (0, 0, 0)
    return exponents_from_charpoly(CharPoly(size, mu))


def _if_search(lat: LatticeData) -> Optional[tuple[tuple[int, tuple[int, int, int]], ...]]:
    """Deletion order emptying the arrangement of ``lat``, or None.

    Each entry is a deleted line index with the exponents after its deletion.
    The search runs over labelled subsets S of the lines, held as bit masks,
    and uses integers only.  By the addition-deletion theorem (Orlik-Terao
    1992, Thm 4.51; in rank 3 the restriction to H has exponents
    (1, n_{S,H} - 1)), S is inductively free iff it has at most one line or
    some H in S has S minus H inductively free with n_{S,H} - 1 in
    exp(S minus H).  The exponents of an inductively free S minus H are the
    roots of its chi, and mu(S minus H) = mu(S) - n_{S,H}.  Only flats of
    three or more lines of A can keep three or more lines of S, so n_{S,H}
    is |S| - 1 less the excess k - 2 of each such flat of S through H.
    Lines are tried in index order.
    """
    flats = [(sum(1 << i for i in f), f) for f in lat.big_flats()]
    memo: dict[int, Optional[tuple[tuple[int, tuple[int, int, int]], ...]]] = {}

    def search(S: int, size: int, mu: int):
        if S in memo:
            return memo[S]
        members = [i for i in range(lat.nlines) if S >> i & 1]
        result = None
        if size <= 1:
            result = tuple((h, (0, 0, 0)) for h in members)
        else:
            excess = dict.fromkeys(members, 0)
            for mask, incident in flats:
                k = (mask & S).bit_count()
                if k >= 3:
                    for i in incident:
                        if S >> i & 1:
                            excess[i] += k - 2
            for h in members:
                n = size - 1 - excess[h]
                exps = _stage_exponents(size - 1, mu - n)
                if exps is None or n - 1 not in exps[1:]:
                    continue
                tail = search(S & ~(1 << h), size - 1, mu - n)
                if tail is not None:
                    result = ((h, exps),) + tail
                    break
        memo[S] = result
        return result

    return search((1 << lat.nlines) - 1, lat.nlines, lat.mu_total)


def is_inductively_free(
    A: Arrangement,
    lat: Optional[LatticeData] = None,
    cache: Optional[SearchCache] = None,
) -> Optional[Chain]:
    """A deletion chain from A to the empty arrangement, or None.

    The chain's stages are the exponents read off chi at each stage; no
    freeness test runs.  ``verify_chain`` re-checks them independently.
    """
    cache = cache or SearchCache()
    key = A.canonical_key()
    if key not in cache.inductive:
        if lat is None:
            lat = compute_lattice(A)
        start = _stage_exponents(len(A), lat.mu_total)
        # an inductively free arrangement is free, so its chi splits
        found = None if start is None else _if_search(lat)
        if found is not None:
            found = (tuple(A[h] for h, _ in found), (start,) + tuple(e for _, e in found))
        cache.inductive[key] = found
    found = cache.inductive[key]
    if found is None:
        return None
    order, stages = found
    return Chain(A, tuple(Move("delete", l) for l in order), stages)


def verify_chain(chain: Chain) -> bool:
    """Independently re-verify every stage of a chain with fresh freeness runs."""
    cur = chain.start
    r = is_free(cur)
    if not r.is_free or r.exponents != chain.stages[0]:
        return False
    for mv, expected in zip(chain.moves, chain.stages[1:]):
        if mv.kind == "add":
            if mv.line in cur:
                return False
            cur = cur.add(mv.line)
        else:
            if mv.line not in cur:
                return False
            cur = cur.delete(cur.lines.index(mv.line))
        r = is_free(cur)
        if not r.is_free or r.exponents != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# Bounded recursive freeness


def recursive_freeness_bounded(
    A: Arrangement,
    max_size: Optional[int] = None,
    cache: Optional[SearchCache] = None,
) -> RecursiveVerdict:
    """Search the free-move graph for a chain from A down to the empty set.

    Yes carries a verified chain.  No is issued — soundly and completely,
    independent of the bound — when A has no free neighbor at all, so no
    chain can even start.  Otherwise the bounded search may return Unknown.
    """
    cache = cache or SearchCache()
    if max_size is None:
        max_size = len(A) + 3
    if max_size < len(A):
        raise SearchError("max_size must be at least the arrangement size")
    lat = compute_lattice(A)
    start = _require_free(A, cache, lat).exponents
    if len(A) == 0:
        return RecursiveVerdict("yes", Chain(A, (), (start,)))

    dels = free_deletions(A, lat, cache)
    adds = free_additions(A, lat, cache)
    if not dels and not adds:
        return RecursiveVerdict(
            "no",
            certificate={
                "free_deletions": [],
                "free_additions": [],
                "size": len(A),
            },
        )

    # a heap entry carries the moves from A and the exponents of each stage
    counter = itertools.count()
    heap: list[tuple[int, int, Arrangement, LatticeData, tuple[Move, ...], tuple]] = []
    heapq.heappush(heap, (len(A), next(counter), A, lat, (), (start,)))
    visited = {A.canonical_key()}
    while heap:
        size, _, cur, curlat, path, stages = heapq.heappop(heap)
        probe = is_inductively_free(cur, curlat, cache)
        if probe is not None:
            chain = Chain(A, path + probe.moves, stages + probe.stages[1:])
            if not verify_chain(chain):
                raise SearchError("internal error: found chain fails re-verification")
            return RecursiveVerdict("yes", chain)
        for h, exps in free_deletions(cur, curlat, cache):
            sub = cur.delete(h)
            key = sub.canonical_key()
            if key in visited:
                continue
            visited.add(key)
            heapq.heappush(
                heap,
                (
                    len(sub),
                    next(counter),
                    sub,
                    restrict_lattice(curlat, h),
                    path + (Move("delete", cur[h]),),
                    stages + (exps,),
                ),
            )
        if size < max_size:
            # free_additions returns lines not in cur, so no duplicate scan
            for line in free_additions(cur, curlat, cache):
                sup = Arrangement._of(cur.ctx, cur.lines + (line,))
                key = sup.canonical_key()
                if key in visited:
                    continue
                visited.add(key)
                heapq.heappush(
                    heap,
                    (
                        len(sup),
                        next(counter),
                        sup,
                        extend_lattice(curlat, cur, line),
                        path + (Move("add", line),),
                        stages + (cache.is_free(sup).exponents,),
                    ),
                )
    return RecursiveVerdict("unknown", certificate={"size_bound": max_size})
