"""Checkers that re-derive the benchmark's answers without the code they check.

* ``incidence_points`` counts intersection points by brute force: the meet of
  every pair of lines is their cross product, and a line passes through it
  when the dot product vanishes.  Nothing from ``lattice.py`` is used; only
  the field arithmetic of the scalars.
* ``replay_chain`` walks a chain of one-line moves on plain coefficient
  triples and recomputes the exponents of every stage from its own count.
* ``group_closure`` builds the group generated by line permutations.
* ``enumerate_profiles`` lists the (ell, a, F) triples of the profile
  classification by eliminating F_1 from the first identity, a different
  search from the one in ``moduli.classify_profiles``.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence


def cross(a: Sequence, b: Sequence) -> tuple:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _is_zero(x) -> bool:
    return x == 0 if isinstance(x, int) else x.is_zero()


def same_line(a: Sequence, b: Sequence) -> bool:
    """Projective equality of two coefficient triples."""
    return all(_is_zero(c) for c in cross(a, b))


def incidence_points(lines: Sequence[Sequence]) -> list[frozenset[int]]:
    """The set of lines through each intersection point, by brute force.

    Raises ValueError when two lines coincide or a triple is zero.
    """
    n = len(lines)
    for i, l in enumerate(lines):
        if all(_is_zero(c) for c in l):
            raise ValueError(f"line {i} is the zero triple")
    covered: set[tuple[int, int]] = set()
    points: list[frozenset[int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in covered:
                continue
            p = cross(lines[i], lines[j])
            if all(_is_zero(c) for c in p):
                raise ValueError(f"lines {i} and {j} coincide")
            through = frozenset(
                k for k in range(n)
                if _is_zero(lines[k][0] * p[0] + lines[k][1] * p[1] + lines[k][2] * p[2])
            )
            for a in through:
                for b in through:
                    if a < b:
                        covered.add((a, b))
            points.append(through)
    return points


def check_pair_count(n: int, points: Iterable[frozenset[int]]) -> bool:
    """Every pair of lines meets in exactly one point: sum C(m_p, 2) = C(n, 2)."""
    return sum(math.comb(len(p), 2) for p in points) == math.comb(n, 2)


def profile(points: Iterable[frozenset[int]]) -> tuple[int, ...]:
    """Entry k counts the points on exactly k + 2 lines, trailing zeros cut."""
    counts: dict[int, int] = {}
    for p in points:
        counts[len(p)] = counts.get(len(p), 0) + 1
    top = max(counts, default=1)
    return tuple(counts.get(m, 0) for m in range(2, top + 1))


def mu_total(points: Iterable[frozenset[int]]) -> int:
    return sum(len(p) - 1 for p in points)


def chi_exponents(n: int, mu: int) -> Optional[tuple[int, int, int]]:
    """(1, a, b) when t^2 - (n-1)t + (mu - n + 1) has integer roots a <= b >= 0."""
    if n == 0:
        return (0, 0, 0)
    s, p = n - 1, mu - n + 1
    roots = [a for a in range(0, s + 1) if a * a - s * a + p == 0]
    if not roots:
        return None
    a = min(roots)
    return (1, a, s - a)


def exponents_match(n: int, mu: int, exps: Sequence[int]) -> bool:
    """Exponents (1, a, b) with a + b = n - 1 and ab = mu - n + 1."""
    if n == 0:
        return tuple(exps) == (0, 0, 0)
    if len(exps) != 3 or exps[0] != 1:
        return False
    a, b = exps[1], exps[2]
    return a + b == n - 1 and a * b == mu - n + 1


def line_exponents(lines: Sequence[Sequence]) -> Optional[tuple[int, int, int]]:
    """Exponents from the brute-force characteristic polynomial."""
    pts = incidence_points(lines)
    return chi_exponents(len(lines), mu_total(pts))


def replay_chain(
    start: Sequence[Sequence],
    moves: Sequence[tuple[str, Sequence]],
    stages: Sequence[Optional[Sequence[int]]],
) -> Optional[str]:
    """Replay a chain of one-line moves; return None if sound, else the fault.

    Each move adds a line that is absent or deletes one that is present, so
    every stage differs from the last by one line.  The chain must end at the
    empty arrangement, and each stage's exponents must match its own
    brute-force characteristic polynomial.
    """
    if len(stages) != len(moves) + 1:
        return "one exponent entry per stage is required"
    cur = [tuple(l) for l in start]
    for k in range(len(stages)):
        if k > 0:
            kind, line = moves[k - 1]
            at = [i for i, l in enumerate(cur) if same_line(l, line)]
            if kind == "add":
                if at:
                    return f"stage {k}: added line already present"
                cur.append(tuple(line))
            elif kind == "delete":
                if len(at) != 1:
                    return f"stage {k}: deleted line not present"
                del cur[at[0]]
            else:
                return f"stage {k}: unknown move {kind!r}"
        exps = stages[k]
        if exps is None:
            return f"stage {k}: no exponents"
        pts = incidence_points(cur) if len(cur) >= 2 else []
        if not exponents_match(len(cur), mu_total(pts), exps):
            return f"stage {k}: exponents {tuple(exps)} do not match the count"
    if cur:
        return f"chain ends with {len(cur)} lines, not empty"
    return None


def compose(g: Sequence[int], h: Sequence[int]) -> tuple[int, ...]:
    """The permutation i -> g[h[i]]."""
    return tuple(g[i] for i in h)


def group_closure(generators: Sequence[Sequence[int]], n: int, limit: int = 10**6) -> set:
    """All products of the generators (the identity included)."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in group:
                    group.add(y)
                    nxt.append(y)
                    if len(group) > limit:
                        raise ValueError("group larger than the closure limit")
        frontier = nxt
    return group


def maps_flats_onto(g: Sequence[int], flats: Iterable[frozenset[int]]) -> bool:
    fl = set(flats)
    return {frozenset(g[i] for i in f) for f in fl} == fl


def find_isomorphism(
    flats_a: Iterable[frozenset[int]], flats_b: Iterable[frozenset[int]], n: int
) -> Optional[list[int]]:
    """A bijection of n lines mapping the big flats of A onto those of B, or None.

    Lines are assigned in order; an assignment survives only if, for every
    flat of A through the new line, the images of its assigned lines lie in
    one flat of B of the same size.
    """
    fa = [frozenset(f) for f in flats_a]
    fb = [frozenset(f) for f in flats_b]
    if sorted(map(len, fa)) != sorted(map(len, fb)):
        return None

    def pair_flat(flats):
        out = {}
        for idx, f in enumerate(flats):
            for i in f:
                for j in f:
                    if i != j:
                        out[(i, j)] = idx
        return out

    pa, pb = pair_flat(fa), pair_flat(fb)
    sig_a = [tuple(sorted(len(f) for f in fa if i in f)) for i in range(n)]
    sig_b = [tuple(sorted(len(f) for f in fb if i in f)) for i in range(n)]
    if sorted(sig_a) != sorted(sig_b):
        return None
    target = set(fb)
    image = [-1] * n
    used = [False] * n

    def fits(i: int, j: int) -> bool:
        for k in range(i):
            fa_idx = pa.get((k, i))
            fb_idx = pb.get((image[k], j))
            if (fa_idx is None) != (fb_idx is None):
                return False
            if fa_idx is None:
                continue
            if len(fa[fa_idx]) != len(fb[fb_idx]):
                return False
            if any(image[m] >= 0 and image[m] not in fb[fb_idx] for m in fa[fa_idx] if m < i):
                return False
        return True

    def extend(i: int) -> bool:
        if i == n:
            return {frozenset(image[k] for k in f) for f in fa} == target
        for j in range(n):
            if used[j] or sig_b[j] != sig_a[i] or not fits(i, j):
                continue
            image[i], used[j] = j, True
            if extend(i + 1):
                return True
            image[i], used[j] = -1, False
        return False

    return list(image) if extend(0) else None


def enumerate_profiles(ell_max: int) -> set[tuple[int, int, tuple[int, ...]]]:
    """All (ell, a, F) with a <= b = ell - 1 - a, a >= 3 and F = (F_1..F_{a-2}) >= 0:

        sum i*F_i = (ell-1)(a+1) - a^2
        sum C(i+1, 2)*F_i = C(ell, 2)
        sum (i+1)*F_i <= a*ell

    The second identity minus the first is sum_{i>=2} C(i, 2)*F_i = C(ell, 2) -
    s1, a partition of a known total, so F_2..F_{a-2} are enumerated against
    it and F_1 is solved from the first identity.
    """
    out: set[tuple[int, int, tuple[int, ...]]] = set()
    for ell in range(3, ell_max + 1):
        for a in range(3, ell):
            if a > ell - 1 - a:
                break
            s1 = (ell - 1) * (a + 1) - a * a
            target = math.comb(ell, 2) - s1
            if s1 < 0 or target < 0:
                continue
            width = a - 2
            tail: list[int] = [0] * (width + 1)  # tail[i] = F_i for i >= 2

            def place(i: int, rem: int) -> None:
                if i < 2:
                    if rem:
                        return
                    f1 = s1 - sum(k * tail[k] for k in range(2, width + 1))
                    used = 2 * f1 + sum((k + 1) * tail[k] for k in range(2, width + 1))
                    if f1 >= 0 and used <= a * ell:
                        out.add((ell, a, (f1,) + tuple(tail[2:])))
                    return
                w = math.comb(i, 2)
                for f in range(rem // w + 1):
                    tail[i] = f
                    place(i - 1, rem - w * f)
                tail[i] = 0

            place(width, target)
    return out
