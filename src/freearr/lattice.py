"""Rank-2 intersection lattice of a line arrangement.

Computes all intersection points with their incident line sets, multiplicity
profiles F(A) and F_H(A), the characteristic polynomial, candidate exponents,
and lattice automorphisms.  Only the rank-2 flats are materialized; in rank 3
they carry the entire combinatorial content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional, Sequence, Union

from .geometry import Arrangement, Line, Point, key_order, meet

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
        points: FlatPoints in canonical point order (the builders order them).
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
        self.nlines = nlines
        self.points = pts = tuple(points)
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
    """Group all pairwise meets of A into flats, keyed by the points' forms.

    All points share A's field, so the form alone identifies a point.
    """
    n = len(A)
    if n < 1:
        return LatticeData(0, [])
    by_form: dict[tuple, tuple[Point, set[int]]] = {}
    for i in range(n):
        li = A[i]
        for j in range(i + 1, n):
            p = meet(li, A[j])
            e = by_form.get(p.form)
            if e is None:
                by_form[p.form] = (p, {i, j})
            else:
                e[1].add(i)
                e[1].add(j)
    return _from_meets(n, by_form)


def _from_meets(nlines: int, by_form: dict[tuple, tuple[Point, set[int]]]) -> LatticeData:
    """LatticeData of the meets grouped by form, with the points in canonical order."""
    found = list(by_form.values())
    order = key_order([p for p, _ in found])
    return LatticeData(nlines, [FlatPoint(found[k][0], tuple(sorted(found[k][1]))) for k in order])


def extend_lattice(lat: LatticeData, A: Arrangement, line: Line) -> LatticeData:
    """Lattice of ``A.add(line)`` from the lattice of ``A`` (index = len(A))."""
    n = lat.nlines
    by_form: dict[tuple, tuple[Point, set[int]]] = {
        fp.point.form: (fp.point, set(fp.incident)) for fp in lat.points
    }
    for i in range(n):
        p = meet(A[i], line)
        e = by_form.get(p.form)
        if e is None:
            by_form[p.form] = (p, {i, n})
        else:
            e[1].add(i)
            e[1].add(n)
    return _from_meets(n + 1, by_form)


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
    """Lattice after deleting the line at ``index`` (combinatorial; keeps the point order)."""
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


def _twin_classes(flats: Sequence[frozenset[int]], nlines: int) -> dict[int, tuple[int, ...]]:
    """Lines grouped by the set of big flats they lie on, keyed by first line.

    Every big flat is a union of classes, and a permutation inside one class
    fixes every flat, so the symmetry search needs one line per class.  The
    lines on no big flat form one class.
    """
    through: list[list[int]] = [[] for _ in range(nlines)]
    for k, f in enumerate(flats):
        for i in f:
            through[i].append(k)
    by_flats: dict[tuple[int, ...], list[int]] = {}
    for i in range(nlines):
        by_flats.setdefault(tuple(through[i]), []).append(i)
    return {c[0]: tuple(c) for c in by_flats.values()}


def _line_invariants(
    flats: Sequence[frozenset[int]], n_by_line, twins: dict[int, tuple[int, ...]]
) -> list[tuple]:
    sizes: list[list[int]] = [[] for _ in n_by_line]
    for f in flats:
        for i in f:
            sizes[i].append(len(f))
    class_size = [0] * len(n_by_line)
    for c in twins.values():
        for i in c:
            class_size[i] = len(c)
    return [(n, tuple(sorted(s)), t) for n, s, t in zip(n_by_line, sizes, class_size)]


def _symmetry_data(L: LatticeData):
    """Big flats, twin classes and per-line invariants of a lattice."""
    flats = L.big_flats()
    twins = _twin_classes(flats, L.nlines)
    return flats, twins, _line_invariants(flats, L.n_by_line, twins)


def _pair_flat(flats: Sequence[frozenset[int]], nlines: int) -> list[list[int]]:
    """pair[i][j]: index of the big flat through lines i and j, or -1."""
    pair = [[-1] * nlines for _ in range(nlines)]
    for k, f in enumerate(flats):
        for i in f:
            row = pair[i]
            for j in f:
                row[j] = k
    return pair


def _support_maps(
    src_flats: Sequence[frozenset[int]],
    dst_flats: Sequence[frozenset[int]],
    src_support: Sequence[int],
    dst_support: Sequence[int],
    src_inv: Sequence[tuple],
    dst_inv: Sequence[tuple],
    first_only: bool,
):
    """Backtracking search for support-line bijections mapping flats onto flats.

    The partial map carries ``sigma``, the image of each source flat two of
    whose lines are placed.  Placing line i at img walks the placed lines j
    once: the pairs {j, i} and {map(j), img} must both lie on no big flat, or
    on big flats of equal size; then sigma of the source flat must be unset
    (it is set here, and unset on backtracking) or equal to the target flat,
    and no other flat may already map there.  Once a flat through i has an
    image, i's candidates are that image's lines.

    A complete map sends each flat with two placed lines into its image, of
    equal size, hence onto it.  When the support holds one line per twin
    class (``_twin_classes``), a flat with one placed line is a single class;
    the invariants (one flat, of the class's size) then force its image.  So
    every complete map maps the flats bijectively and needs no final check.
    """
    nlines = 1 + max(chain(src_support, dst_support, *src_flats, *dst_flats), default=-1)
    src_pair = _pair_flat(src_flats, nlines)
    dst_pair = _pair_flat(dst_flats, nlines)
    src_size = [len(f) for f in src_flats]
    dst_size = [len(f) for f in dst_flats]
    dst_lines = [[i for i in dst_support if i in f] for f in dst_flats]
    # Place next the line with the most flats that already hold two placed
    # lines, then the most placed lines met on a flat: its image is the most
    # constrained, whatever the labelling.  anchor[k] is a flat through
    # order[k] with two earlier lines, whose image is fixed by then, or -1.
    through = {i: [k for k, f in enumerate(src_flats) if i in f] for i in src_support}
    placed = [0] * len(src_flats)
    rest = list(src_support)
    order: list[int] = []
    anchor: list[int] = []
    while rest:
        i = max(
            rest,
            key=lambda j: (
                sum(placed[k] >= 2 for k in through[j]),
                sum(placed[k] for k in through[j]),
                len(through[j]),
            ),
        )
        rest.remove(i)
        order.append(i)
        anchor.append(next((k for k in through[i] if placed[k] >= 2), -1))
        for k in through[i]:
            placed[k] += 1
    sigma = [-1] * len(src_flats)
    taken = [False] * len(dst_flats)
    used = [False] * nlines
    images: list[int] = []
    results: list[dict[int, int]] = []

    def rec(k: int) -> bool:
        if k == len(order):
            results.append(dict(zip(order, images)))
            return first_only
        i = order[k]
        inv = src_inv[i]
        srow = src_pair[i]
        a = anchor[k]
        for img in dst_lines[sigma[a]] if a >= 0 else dst_support:
            if used[img] or dst_inv[img] != inv:
                continue
            drow = dst_pair[img]
            fixed = []
            for j, jm in zip(order, images):
                fs, fd = srow[j], drow[jm]
                if fs < 0:
                    if fd >= 0:
                        break
                elif fd < 0:
                    break
                elif sigma[fs] != fd:
                    if sigma[fs] >= 0 or taken[fd] or src_size[fs] != dst_size[fd]:
                        break
                    sigma[fs] = fd
                    taken[fd] = True
                    fixed.append(fs)
            else:
                used[img] = True
                images.append(img)
                if rec(k + 1):
                    return True
                images.pop()
                used[img] = False
            for fs in fixed:
                taken[sigma[fs]] = False
                sigma[fs] = -1
        return False

    rec(0)
    del rec  # rec refers to itself: break the cycle so its state is freed now
    return results


def _full_map(
    m: dict[int, int],
    src: dict[int, tuple[int, ...]],
    dst: dict[int, tuple[int, ...]],
    nlines: int,
) -> tuple[int, ...]:
    """Line permutation extending a map of class representatives.

    ``src`` and ``dst`` send each representative to its twin class.  The k-th
    line of a class goes to the k-th line of its image class; a line that
    represents no class maps only itself.
    """
    perm = list(range(nlines))
    for i, img in m.items():
        for a, b in zip(src.get(i, (i,)), dst.get(img, (img,))):
            perm[a] = b
    return tuple(perm)


def _maps_flats(
    perm: Sequence[int], src_flats: Sequence[frozenset[int]], dst_flats: Sequence[frozenset[int]]
) -> bool:
    return {frozenset(perm[i] for i in f) for f in src_flats} == set(dst_flats)


def lattice_automorphisms(L: LatticeData) -> AutomorphismGroup:
    """Full group of line permutations preserving the incident-set system.

    Lines that lie on the same big flats (a twin class, such as the lines on
    no flat of multiplicity >= 3) are freely permutable among themselves.  The
    backtracking runs on one line per class, so the order, |reduced group|
    times the product of s_c! over the class sizes s_c, is exact even when a
    class is large.
    """
    n = L.nlines
    flats, twins, inv = _symmetry_data(L)
    support_maps = _support_maps(flats, flats, list(twins), list(twins), inv, inv, False)
    order = len(support_maps) * math.prod(math.factorial(len(c)) for c in twins.values())
    generators: list[tuple[int, ...]] = []
    # reduce the support automorphisms to a generating set by closure
    closure: set[tuple[int, ...]] = set()
    identity = tuple(range(n))

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

    support_perms = sorted(_full_map(m, twins, twins, n) for m in support_maps)
    for perm in support_perms:
        if perm == identity:
            continue
        if perm in closure:
            continue
        generators.append(perm)
        closure = close(generators)
        if len(closure) == len(support_maps):
            break
    for c in twins.values():
        if len(c) >= 2:
            swap = list(range(n))
            swap[c[0]], swap[c[1]] = swap[c[1]], swap[c[0]]
            generators.append(tuple(swap))
        if len(c) > 2:
            cyc = list(range(n))
            for a, b in zip(c, c[1:] + c[:1]):
                cyc[a] = b
            generators.append(tuple(cyc))
    # verify every generator preserves the flat family
    for g in generators:
        if not _maps_flats(g, flats, flats):
            raise RuntimeError(
                f"internal check failed: generator {g} does not preserve the flats"
            )
    return AutomorphismGroup(order=order, generators=tuple(generators))


def lattice_isomorphic(L1: LatticeData, L2: LatticeData) -> bool:
    """True iff a line bijection maps the incident-set system of L1 onto L2's."""
    # equal profiles give equal multisets of big-flat sizes
    if L1.nlines != L2.nlines or L1.profile != L2.profile:
        return False
    f1, twins1, inv1 = _symmetry_data(L1)
    f2, twins2, inv2 = _symmetry_data(L2)
    if sorted(inv1) != sorted(inv2):
        return False
    maps = _support_maps(f1, f2, list(twins1), list(twins2), inv1, inv2, True)
    if maps and not _maps_flats(_full_map(maps[0], twins1, twins2, L1.nlines), f1, f2):
        raise RuntimeError("internal check failed: the line bijection does not map the flats")
    return bool(maps)
