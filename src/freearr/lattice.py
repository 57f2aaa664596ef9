"""Rank-2 intersection lattice of a line arrangement.

Computes all intersection points with their incident line sets, multiplicity
profiles F(A) and F_H(A), the characteristic polynomial, candidate exponents,
and lattice automorphisms.  Only the rank-2 flats are materialized; in rank 3
they carry the entire combinatorial content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from .geometry import Arrangement, Line, Point, meet

__all__ = [
    "FlatPoint",
    "LatticeData",
    "IncidenceCounts",
    "CharPoly",
    "compute_lattice",
    "extend_lattice",
    "addition_counts",
    "restrict_lattice",
    "char_poly",
    "exponents_from_charpoly",
    "AutomorphismGroup",
    "lattice_automorphisms",
    "lattice_isomorphic",
]


@dataclass(frozen=True)
class FlatPoint:
    """An intersection point together with the (sorted) incident line indices."""

    point: Point
    incident: tuple[int, ...]

    @property
    def mu(self) -> int:
        return len(self.incident) - 1


def _trim(profile: list[int]) -> tuple[int, ...]:
    while profile and profile[-1] == 0:
        profile.pop()
    return tuple(profile)


class LatticeData:
    """All rank-2 flats of an arrangement plus derived statistics.

    Attributes:
        nlines: number of lines.
        points: FlatPoints in canonical point order.
        mu_total: sum of mu over all points.
        profile: F(A) = [F1, F2, ...] trimmed to the last nonzero entry.
        n_by_line: n_{A,H} for each line index.
        f_by_line: F_H(A) profile for each line index.
    """

    __slots__ = (
        "nlines",
        "points",
        "mu_total",
        "profile",
        "n_by_line",
        "f_by_line",
    )

    def __init__(self, nlines: int, points: Sequence[FlatPoint]) -> None:
        pts = sorted(points, key=lambda fp: fp.point.sort_key())
        self.nlines = nlines
        self.points = tuple(pts)
        self.mu_total = sum(fp.mu for fp in pts)
        prof: list[int] = []
        per_line_counts: list[dict[int, int]] = [dict() for _ in range(nlines)]
        n_by_line = [0] * nlines
        for fp in pts:
            m = fp.mu
            while len(prof) < m:
                prof.append(0)
            prof[m - 1] += 1
            for i in fp.incident:
                n_by_line[i] += 1
                per_line_counts[i][m] = per_line_counts[i].get(m, 0) + 1
        self.profile = _trim(prof)
        self.n_by_line = tuple(n_by_line)
        f_by_line = []
        for counts in per_line_counts:
            top = max(counts) if counts else 0
            f_by_line.append(_trim([counts.get(i, 0) for i in range(1, top + 1)]))
        self.f_by_line = tuple(f_by_line)

    def big_flats(self) -> tuple[frozenset[int], ...]:
        """Incident sets of size >= 3 (the informative part of the lattice)."""
        return tuple(
            frozenset(fp.incident) for fp in self.points if len(fp.incident) >= 3
        )

    def __repr__(self) -> str:
        return (
            f"LatticeData(lines={self.nlines}, points={len(self.points)}, "
            f"mu={self.mu_total}, F={list(self.profile)})"
        )


class IncidenceCounts(NamedTuple):
    """The integers the freeness pipeline reads from a lattice.

    ``LatticeData`` carries the same three attributes, so either one can be
    handed to ``is_free``.
    """

    nlines: int
    mu_total: int
    n_by_line: tuple[int, ...]


Counts = Union[LatticeData, IncidenceCounts]


def compute_lattice(A: Arrangement) -> LatticeData:
    """Group all pairwise meets of A into flats."""
    n = len(A)
    if n < 1:
        return LatticeData(0, [])
    by_point: dict[Point, set[int]] = {}
    for i in range(n):
        li = A[i]
        for j in range(i + 1, n):
            p = meet(li, A[j])
            s = by_point.get(p)
            if s is None:
                by_point[p] = {i, j}
            else:
                s.add(i)
                s.add(j)
    return LatticeData(
        n, [FlatPoint(p, tuple(sorted(s))) for p, s in by_point.items()]
    )


def extend_lattice(lat: LatticeData, A: Arrangement, line: Line) -> LatticeData:
    """Lattice of ``A.add(line)`` from the lattice of ``A`` (index = len(A))."""
    n = lat.nlines
    by_point: dict[Point, set[int]] = {
        fp.point: set(fp.incident) for fp in lat.points
    }
    for i in range(n):
        p = meet(A[i], line)
        s = by_point.get(p)
        if s is None:
            by_point[p] = {i, n}
        else:
            s.add(i)
            s.add(n)
    return LatticeData(
        n + 1, [FlatPoint(p, tuple(sorted(s))) for p, s in by_point.items()]
    )


def addition_counts(lat: LatticeData, on: Sequence[int]) -> IncidenceCounts:
    """Counts of A + L from the lattice of A, for a line L not in A.

    ``on`` indexes the flat points of A that lie on L.  A line of A passes
    through at most one of them, and L meets each line of A through none of
    them in a new double point, so n_{A+L,L} = |on| + |A| - sum of m_q over
    q in on, where m_q is the number of lines through q.  An old line gains
    one point exactly when it passes through no point of ``on``, and by
    deletion-restriction mu(A + L) = mu(A) + n_{A+L,L} (Orlik-Terao 1992,
    section 2.3).
    """
    covered: set[int] = set()
    for k in on:
        covered.update(lat.points[k].incident)
    n_new = len(on) + lat.nlines - len(covered)
    n_by_line = tuple(
        n if h in covered else n + 1 for h, n in enumerate(lat.n_by_line)
    )
    return IncidenceCounts(lat.nlines + 1, lat.mu_total + n_new, n_by_line + (n_new,))


def restrict_lattice(lat: LatticeData, index: int) -> LatticeData:
    """Lattice after deleting the line at ``index`` (purely combinatorial)."""
    pts = []
    for fp in lat.points:
        inc = [i if i < index else i - 1 for i in fp.incident if i != index]
        if len(inc) >= 2:
            pts.append(FlatPoint(fp.point, tuple(inc)))
    return LatticeData(lat.nlines - 1, pts)


@dataclass(frozen=True)
class CharPoly:
    """chi(A, t) = (t-1) * (t^2 - quad_sum*t + quad_prod) as exact integers."""

    nlines: int
    mu: int

    @property
    def quad_sum(self) -> int:
        return self.nlines - 1

    @property
    def quad_prod(self) -> int:
        return self.mu - self.nlines + 1

    @property
    def coefficients(self) -> tuple[int, int, int, int]:
        """Descending coefficients of the cubic chi(A, t)."""
        s, p = self.quad_sum, self.quad_prod
        # (t - 1)(t^2 - s t + p) = t^3 - (s+1)t^2 + (p+s)t - p
        return (1, -(s + 1), p + s, -p)

    @property
    def factored(self) -> Optional[tuple[int, int, int]]:
        return exponents_from_charpoly(self)

    def eval(self, t: int):
        c = self.coefficients
        return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

    def __repr__(self) -> str:
        f = self.factored
        if f is not None:
            return f"(t-1)(t-{f[1]})(t-{f[2]})"
        return f"(t-1)(t^2-{self.quad_sum}t+{self.quad_prod})"


def char_poly(A: Arrangement, lat: Optional[Counts] = None) -> CharPoly:
    """chi(A,t) = (t-1){t^2 - (|A|-1)(t+1) + mu_A}."""
    if len(A) == 0:
        raise ValueError("empty arrangement has no characteristic polynomial here")
    if len(A) == 1:
        return CharPoly(1, 0)
    if lat is None:
        lat = compute_lattice(A)
    return CharPoly(len(A), lat.mu_total)


def exponents_from_charpoly(c: CharPoly) -> Optional[tuple[int, int, int]]:
    """(1, a, b) with integer a <= b when chi splits over Z, else None."""
    s, p = c.quad_sum, c.quad_prod
    disc = s * s - 4 * p
    if disc < 0:
        return None
    r = math.isqrt(disc)
    if r * r != disc or (s - r) % 2 != 0:
        return None
    a = (s - r) // 2
    b = (s + r) // 2
    if a < 0:
        return None
    return (1, a, b)


# ---------------------------------------------------------------------------
# Lattice automorphisms and isomorphism


@dataclass(frozen=True)
class AutomorphismGroup:
    order: int
    generators: tuple[tuple[int, ...], ...]


def _line_invariants(flats: Sequence[frozenset[int]], n_by_line) -> list[tuple]:
    sizes: list[list[int]] = [[] for _ in n_by_line]
    for f in flats:
        for i in f:
            sizes[i].append(len(f))
    return [(n, tuple(sorted(s))) for n, s in zip(n_by_line, sizes)]


def _pair_flat_size(flats: Sequence[frozenset[int]]) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for f in flats:
        fl = sorted(f)
        for ai in range(len(fl)):
            for bi in range(ai + 1, len(fl)):
                out[(fl[ai], fl[bi])] = len(f)
    return out


def _support_maps(
    src_flats: Sequence[frozenset[int]],
    dst_flats: Sequence[frozenset[int]],
    src_support: Sequence[int],
    dst_support: Sequence[int],
    src_inv: Sequence[tuple],
    dst_inv: Sequence[tuple],
    first_only: bool,
):
    """Backtracking search for support-line bijections mapping flats onto flats."""
    src_pair = _pair_flat_size(src_flats)
    dst_pair = _pair_flat_size(dst_flats)
    dst_flat_set = {f for f in dst_flats}
    results: list[dict[int, int]] = []
    assigned: dict[int, int] = {}
    used: set[int] = set()
    order = list(src_support)

    def consistent(i: int, img: int) -> bool:
        for j, jm in assigned.items():
            a, b = (j, i) if j < i else (i, j)
            c, d = (jm, img) if jm < img else (img, jm)
            if src_pair.get((a, b), 2) != dst_pair.get((c, d), 2):
                return False
        return True

    def rec(k: int) -> bool:
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


def lattice_automorphisms(L: LatticeData) -> AutomorphismGroup:
    """Full group of line permutations preserving the incident-set system.

    Lines that lie on no flat of multiplicity >= 3 are freely permutable among
    themselves; the backtracking runs on the remaining support lines only, so
    the order is exact even when the free part is large.
    """
    n = L.nlines
    flats = L.big_flats()
    support = sorted({i for f in flats for i in f})
    free = [i for i in range(n) if i not in set(support)]
    inv = _line_invariants(flats, L.n_by_line)
    support_maps = _support_maps(flats, flats, support, support, inv, inv, False)
    order = len(support_maps) * math.factorial(len(free))
    generators: list[tuple[int, ...]] = []
    # reduce the support automorphisms to a generating set by closure
    closure: set[tuple[int, ...]] = set()
    identity = tuple(range(n))

    def full_perm(m: dict[int, int]) -> tuple[int, ...]:
        perm = list(range(n))
        for i, img in m.items():
            perm[i] = img
        return tuple(perm)

    def close(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
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

    support_perms = sorted(full_perm(m) for m in support_maps)
    for perm in support_perms:
        if perm == identity:
            continue
        if perm in closure:
            continue
        generators.append(perm)
        closure = close(generators)
        if len(closure) == len(support_maps):
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
    # verify every generator preserves the flat family
    flat_set = set(flats)
    for g in generators:
        if {frozenset(g[i] for i in f) for f in flats} != flat_set:
            raise RuntimeError(
                f"internal check failed: generator {g} does not preserve the flats"
            )
    return AutomorphismGroup(order=order, generators=tuple(generators))


def lattice_isomorphic(L1: LatticeData, L2: LatticeData) -> bool:
    """True iff a line bijection maps the incident-set system of L1 onto L2's."""
    if L1.nlines != L2.nlines:
        return False
    if L1.profile != L2.profile:
        return False
    f1, f2 = L1.big_flats(), L2.big_flats()
    if sorted(len(f) for f in f1) != sorted(len(f) for f in f2):
        return False
    s1 = sorted({i for f in f1 for i in f})
    s2 = sorted({i for f in f2 for i in f})
    if len(s1) != len(s2):
        return False
    inv1 = _line_invariants(f1, L1.n_by_line)
    inv2 = _line_invariants(f2, L2.n_by_line)
    if sorted(inv1) != sorted(inv2):
        return False
    maps = _support_maps(f1, f2, s1, s2, inv1, inv2, True)
    return bool(maps)
