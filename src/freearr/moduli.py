"""One-parameter family analysis and the S_ell profile classifier.

A :class:`Family` is a line arrangement whose coefficients are polynomials in
a parameter t.  The module computes the generic intersection lattice together
with the polynomial conditions under which it degenerates, extracts the
exceptional parameter values, classifies specializations, and enumerates the
combinatorially possible (ell, a, F) profiles for arrangements without free
deletions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .freeness import is_free
from .geometry import Arrangement, Line, _cross
from .lattice import LatticeData, compute_lattice, lattice_isomorphic
from .scalar import (
    FieldCtx,
    FieldMismatchError,
    Poly,
    QuadElem,
    QuadraticRootPair,
    roots_low_degree,
)
from .search import SearchCache, is_inductively_free, recursive_freeness_bounded

__all__ = [
    "Family",
    "FamilyCondition",
    "ExceptionalValue",
    "ExceptionalReport",
    "GenericLattice",
    "generic_lattice",
    "exceptional_values",
    "ScanRow",
    "ScanTable",
    "scan_family",
    "ProfileTriple",
    "classify_profiles",
]


@dataclass(frozen=True)
class Family:
    """One-parameter family of lines with polynomial coefficient triples."""

    name: str
    ctx: FieldCtx  # parametric context Q(sqrt(d))(t)
    triples: tuple[tuple[Poly, Poly, Poly], ...]

    def __post_init__(self) -> None:
        if not self.ctx.parametric:
            raise FieldMismatchError("a family needs a parametric context")

    def arrangement(self) -> Arrangement:
        """The arrangement over Q(sqrt(d))(t) with t symbolic."""
        return Arrangement(
            self.ctx,
            [tuple(self.ctx.scalar(p) for p in tri) for tri in self.triples],
        )

    def specialize(self, lam: Union[int, Fraction, QuadElem]) -> Arrangement:
        """Specialize t = lam, dropping coincident (and vanished) lines."""
        if isinstance(lam, (int, Fraction)):
            lam = QuadElem.of(self.ctx.base(), lam)
        if (
            self.ctx.disc is not None
            and lam.ctx.disc is not None
            and lam.ctx.disc != self.ctx.disc
        ):
            raise FieldMismatchError(
                f"parameter field Q(sqrt({lam.ctx.disc})) does not match family"
            )
        target = lam.ctx if lam.ctx.disc is not None else FieldCtx(self.ctx.disc)
        lam = QuadElem(target, lam.a, lam.b)
        triples = []
        for tri in self.triples:
            vals = tuple(p.eval(lam) for p in tri)
            if all(v.is_zero() for v in vals):
                continue
            triples.append(vals)
        return Arrangement(target, dict.fromkeys(Line(target, v) for v in triples))

    def generic_size(self) -> int:
        return len(self.triples)

@dataclass(frozen=True)
class FamilyCondition:
    """A polynomial in t whose vanishing degenerates one incidence."""

    description: str
    poly: Poly  # monic squarefree part of the degenerating expression


@dataclass(frozen=True)
class GenericLattice:
    """The lattice at symbolic t with its complete degeneration conditions."""

    lattice: LatticeData
    conditions: tuple[FamilyCondition, ...]


@dataclass(frozen=True)
class ExceptionalValue:
    """A parameter value at which the family leaves its generic lattice.

    ``kind`` is "size_drop" when lines vanish or coincide, "lattice_change"
    when the size is generic but the intersection lattice is not, and
    "outside_field" for an algebraic root the family's coefficient field
    cannot host (reported unverified).
    """

    value: QuadElem
    kind: str


@dataclass(frozen=True)
class ExceptionalReport:
    """Degeneration conditions, their classified roots, residual factors."""

    conditions: tuple[FamilyCondition, ...]
    values: tuple[ExceptionalValue, ...]
    unresolved: tuple[Poly, ...]

    def rational_values(self) -> set[Fraction]:
        return {
            v.value.as_fraction() for v in self.values if v.value.is_rational()
        }

    def irrational_values(self) -> set[QuadElem]:
        return {v.value for v in self.values if not v.value.is_rational()}


def _add_condition(
    out: list[FamilyCondition], seen: set, description: str, poly: Poly
) -> None:
    sf = poly.squarefree_part()
    if sf.degree <= 0:
        return
    key = sf.coeffs
    if key in seen:
        return
    seen.add(key)
    out.append(FamilyCondition(description, sf))


def generic_lattice(fam: Family) -> GenericLattice:
    """Lattice of the family at symbolic t plus every degeneration condition.

    A condition polynomial is recorded for each zero test that fails at
    generic t but can succeed at special values: a coefficient triple
    vanishing, two lines becoming proportional, or a line passing through an
    intersection point it generically avoids.  For a one-parameter family
    these three cases exhaust all lattice degenerations.
    """
    conditions: list[FamilyCondition] = []
    seen: set = set()
    trips = fam.triples
    for idx, tri in enumerate(trips):
        g = tri[0].gcd(tri[1]).gcd(tri[2])
        _add_condition(conditions, seen, f"line {idx} vanishes", g)
    for i in range(len(trips)):
        for j in range(i + 1, len(trips)):
            nonzero = [m for m in _cross(trips[i], trips[j]) if not m.is_zero()]
            if not nonzero:
                raise FieldMismatchError(
                    f"lines {i} and {j} are proportional identically in t"
                )
            g = nonzero[0]
            for m in nonzero[1:]:
                g = g.gcd(m)
            _add_condition(
                conditions, seen, f"lines {i} and {j} coincide", g
            )
    A = fam.arrangement()
    lat = compute_lattice(A)
    # a determinant met before gives the same squarefree part, already seen
    dets: set = set()
    for fp in lat.points:
        inc = set(fp.incident)
        i, j = fp.incident[0], fp.incident[1]
        # raw polynomial point: cross product before content-stripping
        # normalization, so degeneration factors survive
        pt = _cross(trips[i], trips[j])
        for k in range(len(trips)):
            if k in inc:
                continue
            c = trips[k]
            det = c[0] * pt[0] + c[1] * pt[1] + c[2] * pt[2]
            if det.coeffs in dets:
                continue
            dets.add(det.coeffs)
            _add_condition(
                conditions,
                seen,
                f"line {k} passes through the meet of lines {fp.incident}",
                det,
            )
    return GenericLattice(lat, tuple(conditions))


def _classify_value(fam: Family, gl: GenericLattice, lam: QuadElem) -> Optional[str]:
    A = fam.specialize(lam)
    if len(A) < fam.generic_size():
        return "size_drop"
    if lattice_isomorphic(gl.lattice, compute_lattice(A)):
        return None
    return "lattice_change"


def exceptional_values(fam: Family) -> ExceptionalReport:
    """All parameter values where the family leaves its generic lattice.

    Roots of the degeneration conditions are extracted exactly and each is
    confirmed by specialization; roots that turn out not to change the
    lattice are discarded.  Irreducible factors of degree > 2, and quadratic
    roots whose field clashes with the family's, are reported unresolved.
    """
    gl = generic_lattice(fam)
    unresolved: list[Poly] = []
    rationals: set[Fraction] = set()
    pairs: set[QuadraticRootPair] = set()
    for cond in gl.conditions:
        try:
            rep = roots_low_degree(cond.poly)
        except FieldMismatchError:
            unresolved.append(cond.poly)
            continue
        rationals.update(r for r, _ in rep.rational_roots)
        pairs.update(q for q, _ in rep.quadratic_factors)
        if rep.residual is not None:
            unresolved.append(rep.residual)
    base = fam.ctx.base()
    values: list[ExceptionalValue] = []
    for r in sorted(rationals):
        kind = _classify_value(fam, gl, QuadElem.of(base, r))
        if kind is not None:
            values.append(ExceptionalValue(QuadElem.of(base, r), kind))
    for pair in sorted(pairs, key=lambda q: (q.disc, q.center, q.coef)):
        roots = pair.elements()
        if fam.ctx.disc is not None and fam.ctx.disc != pair.disc:
            values.extend(ExceptionalValue(r, "outside_field") for r in roots)
            continue
        for root in roots:
            kind = _classify_value(fam, gl, root)
            if kind is not None:
                values.append(ExceptionalValue(root, kind))
    return ExceptionalReport(gl.conditions, tuple(values), tuple(unresolved))


@dataclass(frozen=True)
class ScanRow:
    """Classification of one specialization (or the symbolic generic fiber)."""

    label: str
    size: int
    profile: tuple[int, ...]
    verdict: str
    route: str
    exponents: Optional[tuple[int, int, int]]
    inductively_free: Optional[bool]
    recursive: Optional[str]


@dataclass(frozen=True)
class ScanTable:
    """Family scan: exceptional report plus one row per requested fiber."""

    family: str
    report: ExceptionalReport
    rows: tuple[ScanRow, ...]


def scan_family(
    fam: Family,
    samples: Sequence[Union[int, Fraction, QuadElem]],
    symbolic: bool = True,
) -> ScanTable:
    """Classify the family at each sample and (optionally) at symbolic t.

    Specialized fibers get the full treatment — freeness route, inductive
    freeness, bounded recursive-freeness verdict.  The symbolic row decides
    freeness over the rational function field only.
    """
    report = exceptional_values(fam)
    rows: list[ScanRow] = []
    if symbolic:
        A = fam.arrangement()
        lat = compute_lattice(A)
        r = is_free(A, lat=lat)
        rows.append(
            ScanRow("t", len(A), lat.profile, r.verdict, r.route, r.exponents, None, None)
        )
    for lam in samples:
        if isinstance(lam, (int, Fraction)):
            label = str(Fraction(lam))
        else:
            label = str(lam)
        A = fam.specialize(lam)
        lat = compute_lattice(A)
        r = is_free(A, lat=lat)
        if r.is_free:
            cache = SearchCache()
            indf = is_inductively_free(A, lat, cache) is not None
            rec = recursive_freeness_bounded(A, cache=cache).kind
        else:
            indf = False
            rec = None
        rows.append(
            ScanRow(label, len(A), lat.profile, r.verdict, r.route, r.exponents, indf, rec)
        )
    return ScanTable(fam.name, report, tuple(rows))


@dataclass(frozen=True)
class ProfileTriple:
    """A size, minimal exponent, and profile passing all three constraints."""

    ell: int
    a: int
    profile: tuple[int, ...]


def classify_profiles(ell_max: int) -> list[ProfileTriple]:
    """All (ell, a, F) profiles an arrangement without free deletions can have.

    F = (F_1, ..., F_{a-2}) counts lines by number of intersection points
    beyond the minimum; entries for indices >= a-1 are forced to zero.  The
    constraints are two exact identities and one inequality:

        sum i*F_i = (ell-1)(a+1) - a**2
        sum C(i+1, 2)*F_i = C(ell, 2)
        sum (i+1)*F_i <= a*ell
    """
    if ell_max < 2:
        raise ValueError("ell_max must be at least 2")
    out: list[ProfileTriple] = []
    for ell in range(7, ell_max + 1):
        for a in range(3, (ell - 1) // 2 + 1):
            s1 = (ell - 1) * (a + 1) - a * a
            if s1 >= 0:
                _profiles_below(out, ell, a, a - 2, s1, math.comb(ell, 2), a * ell, ())
    out.sort(key=lambda p: (p.ell, p.a, p.profile))
    return out


def _profiles_below(
    out: list[ProfileTriple],
    ell: int,
    a: int,
    i: int,
    rem1: int,
    rem2: int,
    rem3: int,
    acc: tuple[int, ...],
) -> None:
    """Append the profiles that complete ``acc`` with entries F_1..F_i.

    The remaining entries must give sum j*F_j = rem1 and sum C(j+1, 2)*F_j =
    rem2.  Since C(j+1, 2)/j = (j+1)/2 lies in [1, (i+1)/2] for 1 <= j <= i,
    that needs rem1 <= rem2 <= rem1*(i+1)/2; at i = 0 it reads rem1 = rem2 = 0.
    """
    if rem2 < rem1 or 2 * rem2 > rem1 * (i + 1):
        return
    if i == 0:
        out.append(ProfileTriple(ell, a, acc))
        return
    w2 = math.comb(i + 1, 2)
    top = min(rem1 // i, rem2 // w2, rem3 // (i + 1))
    for f in range(top + 1):
        _profiles_below(
            out, ell, a, i - 1, rem1 - i * f, rem2 - w2 * f, rem3 - (i + 1) * f, (f,) + acc
        )
