"""Named arrangements and families, with documented invariants as self-checks.

Entries:
  * ``dual_hesse``    — 9 lines over Q(sqrt(-3)), twelve triple points.
  * ``pentagonal``    — 11 lines over Q(sqrt(5)): sides and diagonals of a
                        regular pentagon plus the infinity line.
  * ``g443``          — 12 lines over Q(sqrt(-1)), the monomial arrangement of
                        the reflection group G(4,4,3).
  * ``eleven_if``     — 11 rational lines with the pentagonal profile
                        [10,5,5] that nevertheless is inductively free.
  * ``family13``      — 12 affine lines plus infinity, one parameter.
  * ``family15``      — 15 lines with polynomial coefficients, one parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .freeness import is_free
from .geometry import Arrangement, cone
from .lattice import compute_lattice, lattice_isomorphic
from .moduli import Family
from .scalar import FieldCtx, Poly, QuadElem
from .search import is_inductively_free

__all__ = [
    "CatalogError",
    "CatalogMismatchError",
    "CatalogEntry",
    "catalog_names",
    "catalog_get",
    "catalog_family",
    "catalog_selfcheck",
    "dual_hesse",
    "pentagonal",
    "g443",
    "eleven_if",
    "family13",
    "family15",
    "family13_family",
    "family15_family",
]


class CatalogError(KeyError):
    """Unknown catalog entry or invalid parameter."""


class CatalogMismatchError(AssertionError):
    """A self-check found a value disagreeing with the documented expectation."""


Param = Union[int, Fraction, QuadElem]


def dual_hesse() -> Arrangement:
    """Nine lines over Q(sqrt(-3)) whose twelve intersection points are all triple."""
    ctx = FieldCtx(-3)
    half = Fraction(1, 2)
    omega = QuadElem(ctx, -half, half)  # primitive third root of unity
    omega2 = omega * omega
    affine = [
        (1, 0, 0),  # x
        (1, 0, -1),  # x - 1
        (0, 1, 0),  # y
        (0, 1, -1),  # y - 1
        (omega, 1, 0),  # y + w x
        (omega, 1, omega2),  # y + w x + w^2
        (-omega2, 1, -1),  # y - w^2 x - 1
        (-omega2, 1, omega2),  # y - w^2 x + w^2
    ]
    return cone(affine, ctx)


def pentagonal() -> Arrangement:
    """Sides and diagonals of a regular pentagon (plus infinity) over Q(sqrt(5))."""
    ctx = FieldCtx(5)
    zeta = QuadElem(ctx, Fraction(1, 2), Fraction(1, 2))  # zeta^2 = zeta + 1
    affine = [
        (1, 0, 0),  # x
        (1, 1, -1),  # x + y - 1
        (0, 1, -1),  # y - 1
        (1, -zeta, zeta),  # x - zeta y + zeta
        (0, 1, 0),  # y
        (1, -zeta, 0),  # x - zeta y
        (zeta, -1, 0),  # zeta x - y
        (zeta, -1, -zeta),  # zeta x - y - zeta
        (1, 0, -1),  # x - 1
        (1, 1, -zeta - 1),  # x + y - zeta - 1
    ]
    return cone(affine, ctx)


def g443() -> Arrangement:
    """Monomial arrangement of G(4,4,3) over Q(sqrt(-1)); no infinity line."""
    ctx = FieldCtx(-1)
    i = ctx.sqrt_gen()
    one = ctx.one()
    p, q = i, one + i
    lines = [
        (1, 0, 0),  # x
        (1, 0, -1),  # x - z
        (one, ctx.zero(), -p),  # x - p z
        (one, ctx.zero(), -q),  # x - q z
        (0, 1, 0),  # y
        (0, 1, -1),  # y - z
        (ctx.zero(), one, -p),  # y - p z
        (ctx.zero(), one, -q),  # y - q z
        (1, -1, 0),  # x - y
        (one, -i, -one),  # x - i y - z
        (one, one, -one - i),  # x + y - (1+i) z
        (one, i, -i),  # x + i y - i z
    ]
    return Arrangement(ctx, lines)


def eleven_if() -> Arrangement:
    """Rational 11-line arrangement with profile [10,5,5] that is inductively free."""
    ctx = FieldCtx()
    lines = [
        (1, 0, 0),  # x
        (0, 1, 0),  # y
        (0, 0, 1),  # z
        (1, 0, -1),  # x - z
        (1, 0, 1),  # x + z
        (0, 1, -1),  # y - z
        (0, 1, 1),  # y + z
        (1, -1, 0),  # x - y
        (1, 1, 0),  # x + y
        (1, -1, 1),  # x - y + z
        (1, -1, 2),  # x - y + 2z
    ]
    return Arrangement(ctx, lines)


def _family13_triples(sqrt3: bool) -> list[tuple[list, list, list]]:
    """Affine coefficient triples of the 12 parametric lines, as t-polynomials.

    With ``sqrt3`` the verbatim coordinates over Q(sqrt(3)) are used; otherwise
    the projectively equivalent rational form (x scaled by sqrt(3)).
    """
    # each entry: ([x-coeff poly], [y-coeff poly], [constant poly]), ascending in t
    if sqrt3:
        ctx = FieldCtx(3, True)
        base = ctx.base()
        r3 = base.sqrt_gen()
        X1, X0 = r3, -r3  # sqrt(3), -sqrt(3)
        one = base.one()
    else:
        ctx = FieldCtx(None, True)
        base = ctx.base()
        one = base.one()
        X1, X0 = one, -one
    z = base.zero()
    trip = [
        ([X0], [-one], [one, one]),  # h1 = -Sx - y + (t+1)
        ([z], [2 * one], [one, one]),  # h2 = 2y + t + 1
        ([X1], [-one], [one, one]),  # h3 = Sx - y + t + 1
        ([X1], [-one], [-2 * one, one]),  # h4 = Sx - y + t - 2
        ([X0], [-one], [-2 * one, one]),  # h5 = -Sx - y + t - 2
        ([z], [2 * one], [-2 * one, one]),  # h6 = 2y + t - 2
        ([z], [2 * one], [one, -2 * one]),  # h7 = 2y - 2t + 1
        ([X1], [-one], [one, -2 * one]),  # h8 = Sx - y - 2t + 1
        ([X0], [-one], [one, -2 * one]),  # h9 = -Sx - y - 2t + 1
        ([X1, -X1], [one, one], [-one, one, -one]),  # h10 = S(1-t)x + (t+1)y - t^2 + t - 1
        ([z, X1], [-2 * one, one], [-one, one, -one]),  # h11 = S t x + (t-2)y - t^2 + t - 1
        ([X0], [one, -2 * one], [-one, one, -one]),  # h12 = -S x + (1-2t)y - t^2 + t - 1
    ]
    return ctx, trip


def family13_family(sqrt3: bool = False) -> Family:
    """The coned 13-line family as a parametric Family (infinity line last)."""
    ctx, trip = _family13_triples(sqrt3)
    triples = [
        tuple(Poly(ctx, cs) for cs in tri) for tri in trip
    ]
    zero = Poly.zero(ctx)
    one = Poly.one(ctx)
    triples.append((zero, zero, one))  # the infinity line H13
    return Family(name="family13" + ("_sqrt3" if sqrt3 else ""), ctx=ctx, triples=tuple(triples))


def family13(lam: Param, sqrt3: bool = False) -> Arrangement:
    return family13_family(sqrt3).specialize(lam)


_FAMILY15_TRIPLES = [
    # integer polynomial triples, each inner list ascending in t
    ([1], [0], [0]),
    ([1], [1], [0]),
    ([1], [0], [1]),
    ([1], [1], [1]),
    ([1], [0, 1], [1]),
    ([0], [1], [0]),
    ([2], [1], [1]),
    ([1, 1], [0, 1], [1]),
    ([1, 1], [1], [1]),
    ([0, 2], [0, 1], [1]),
    ([1], [1, -1], [1]),
    ([1, -3], [1, -3, 1], [0, -1]),
    ([-1, 3], [0, 1], [0, 1]),
    ([1, -3], [0, 0, -1], [0, -1]),
    ([-1, 3], [-1, 2], [0, 1]),
]


def family15_family() -> Family:
    """The 15-line family over Q(t)."""
    ctx = FieldCtx(None, True)
    triples = tuple(
        tuple(Poly.from_rationals(ctx, cs) for cs in tri) for tri in _FAMILY15_TRIPLES
    )
    return Family(name="family15", ctx=ctx, triples=triples)


def family15(lam: Param) -> Arrangement:
    return family15_family().specialize(lam)


# ---------------------------------------------------------------------------
# Registry and self-checks


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parametric: bool
    build: Callable
    expected: dict


_ENTRIES: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> None:
    _ENTRIES[entry.name] = entry


_register(
    CatalogEntry(
        name="dual_hesse",
        parametric=False,
        build=dual_hesse,
        expected={"size": 9, "profile": (0, 12), "exponents": (1, 4, 4), "tag": "S-exceptional"},
    )
)
_register(
    CatalogEntry(
        name="pentagonal",
        parametric=False,
        build=pentagonal,
        expected={"size": 11, "profile": (10, 5, 5), "exponents": (1, 5, 5), "tag": "S-exceptional"},
    )
)
_register(
    CatalogEntry(
        name="g443",
        parametric=False,
        build=g443,
        expected={"size": 12, "profile": (0, 16, 3), "exponents": (1, 5, 6), "tag": "S-exceptional"},
    )
)
_register(
    CatalogEntry(
        name="eleven_if",
        parametric=False,
        build=eleven_if,
        expected={"size": 11, "profile": (10, 5, 5), "exponents": (1, 5, 5), "tag": "IF"},
    )
)
_register(
    CatalogEntry(
        name="family13",
        parametric=True,
        build=family13,
        expected={
            "generic": {"size": 13, "profile": (21, 3, 3, 3), "exponents": (1, 6, 6), "tag": "S-exceptional"},
            "lattice_change": {
                "values": (Fraction(-1), Fraction(2), Fraction(1, 2)),
                "size": 13,
                "profile": (18, 4, 3, 3),
                "exponents": (1, 5, 7),
                "tag": "IF",
            },
            "degenerate_values": (Fraction(0), Fraction(1)),
        },
    )
)
_register(
    CatalogEntry(
        name="family15",
        parametric=True,
        build=family15,
        expected={
            "generic": {"size": 15, "exponents": (1, 7, 7), "tag": "S-exceptional"},
            "lattice_change": {
                "quadratic_values": ((5, Fraction(3, 2), Fraction(1, 2)), (5, Fraction(-1, 2), Fraction(1, 2))),
                "size": 15,
                "exponents": (1, 5, 9),
                "tag": "family",
            },
            "degenerate_values": (Fraction(0), Fraction(1), Fraction(1, 2)),
        },
    )
)


def catalog_names() -> list[str]:
    return sorted(_ENTRIES)


def _entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise CatalogError(f"unknown catalog entry {name!r}") from None


def catalog_get(name: str, param: Optional[Param] = None) -> Arrangement:
    """Build a catalog arrangement; parametric entries require ``param``."""
    entry = _entry(name)
    if entry.parametric:
        if param is None:
            raise CatalogError(f"{name} needs a parameter value")
        return entry.build(param)
    if param is not None:
        raise CatalogError(f"{name} takes no parameter")
    return entry.build()


def catalog_family(name: str) -> Family:
    """The parametric Family behind a family entry."""
    if name == "family13":
        return family13_family()
    if name == "family15":
        return family15_family()
    raise CatalogError(f"{name} is not a parametric family")


def catalog_selfcheck(name: str, param: Optional[Param] = None) -> dict:
    """Recompute size/profile/exponents/class and compare to expectations."""
    entry = _entry(name)
    A = catalog_get(name, param) if entry.parametric else catalog_get(name)
    lat = compute_lattice(A)
    report: dict = {"name": name, "size": len(A), "profile": lat.profile}
    if param is not None:
        report["param"] = str(param)

    def fail(what: str, expected, got) -> None:
        raise CatalogMismatchError(
            f"{name}: {what} mismatch: expected {expected}, got {got}"
        )

    if not entry.parametric:
        exp = entry.expected
        if len(A) != exp["size"]:
            fail("size", exp["size"], len(A))
        if lat.profile != exp["profile"]:
            fail("profile", exp["profile"], lat.profile)
        res = is_free(A, lat=lat)
        report["verdict"] = res.verdict
        report["exponents"] = res.exponents
        if res.verdict != "free" or res.exponents != exp["exponents"]:
            fail("exponents", exp["exponents"], res.exponents)
        chain = is_inductively_free(A)
        tag = "IF" if chain is not None else "S-exceptional"
        report["tag"] = tag
        if tag != exp["tag"]:
            fail("class tag", exp["tag"], tag)
        return report

    # parametric entries: regime determined by the parameter
    exp = entry.expected
    if param is None:
        raise CatalogError(f"{name} self-check needs a parameter")
    lam = param if isinstance(param, QuadElem) else QuadElem.of(FieldCtx(), Fraction(param))
    generic = exp["generic"]
    degenerate = any(
        lam.is_rational() and lam.as_fraction() == v for v in exp["degenerate_values"]
    )
    if name == "family13" and not lam.is_rational() and lam.ctx.disc == -3:
        # roots of t^2 - t + 1 collapse three lines
        degenerate = degenerate or (lam * lam - lam + 1).is_zero()
    if degenerate or len(A) < generic["size"]:
        report["tag"] = "degenerate"
        if len(A) >= generic["size"]:
            fail("degeneration", "size drop", len(A))
        return report

    res = is_free(A, lat=lat)
    report["verdict"] = res.verdict
    report["exponents"] = res.exponents
    lattice_change = exp.get("lattice_change", {})
    special = False
    if lam.is_rational() and "values" in lattice_change:
        special = lam.as_fraction() in lattice_change["values"]
    if "quadratic_values" in lattice_change and not lam.is_rational():
        for disc, center, coef in lattice_change["quadratic_values"]:
            if lam.ctx.disc == disc and lam.a == center and abs(lam.b) == coef:
                special = True
    if special:
        if res.exponents != lattice_change["exponents"]:
            fail("exponents", lattice_change["exponents"], res.exponents)
        if "profile" in lattice_change and lat.profile != lattice_change["profile"]:
            fail("profile", lattice_change["profile"], lat.profile)
        glat = compute_lattice(catalog_get(name, 23))
        if lattice_isomorphic(lat, glat):
            fail("lattice", "non-generic lattice", "generic lattice")
        report["tag"] = lattice_change["tag"]
        if report["tag"] == "IF" and is_inductively_free(A) is None:
            fail("class tag", "IF", "not inductively free")
        return report

    if "profile" in generic and lat.profile != generic["profile"]:
        fail("profile", generic["profile"], lat.profile)
    if res.exponents != generic["exponents"]:
        fail("exponents", generic["exponents"], res.exponents)
    report["tag"] = generic["tag"]
    return report
