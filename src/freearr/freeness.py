"""Freeness certification for rank-3 line arrangements.

The pipeline is: (1) the characteristic polynomial must split integrally as
(t-1)(t-a)(t-b) — a necessary condition; (2) if some line carries more
intersection points than the smaller exponent, the pivot test decides
freeness outright; (3) otherwise freeness is decided by comparing the product
of the exponents of the rank-2 multiarrangement obtained by restricting onto
a line (with multiplicities) against a*b.

Rank-2 multiarrangement exponents are computed exactly, degree by degree, by
solving the divisibility constraints alpha^m | theta(alpha) as linear systems
over the scalar field (which may be a quadratic extension or a rational
function field).  Only the degrees below total/2 are searched; over a
function field full rank at one specialisation t = c settles a degree.
One eliminator, forward elimination with back substitution, solves every
system; over a function field each row is first cleared of denominators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .geometry import Arrangement, Point, key_order, meet, orthogonal_pair
from .lattice import (
    CharPoly,
    Counts,
    LatticeData,
    char_poly,
    compute_lattice,
    exponents_from_charpoly,
)
from .scalar import FieldCtx, Poly, QuadElem, Scalar

__all__ = [
    "FreenessError",
    "MultiArr2",
    "Derivation2",
    "ExponentPair",
    "FreenessResult",
    "abt_test",
    "ziegler_restriction",
    "multi_exponents",
    "yoshinaga_test",
    "is_free",
    "s_membership",
    "saito_verify_rank2",
]


class FreenessError(ValueError):
    """Invalid use of a freeness operation (bad index, wrong verdict)."""


# ---------------------------------------------------------------------------
# Binary forms: tuples of scalars, ascending in the u power.
# A homogeneous form of degree d is a tuple (c_0, ..., c_d) meaning
# sum c_k * u^k * v^(d-k).


def _form_mul(ctx: FieldCtx, a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple[Scalar, ...]:
    zero = ctx.zero()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return tuple(out)


def _form_is_zero(a: Sequence[Scalar]) -> bool:
    return all(c.is_zero() for c in a)


def _form_divisible(ctx: FieldCtx, g: Sequence[Scalar], p: Scalar, q: Scalar, m: int) -> bool:
    """Whether (p*u + q*v)^m divides the binary form g, by actual division.

    For p != 0 this dehomogenizes to a univariate remainder computation; for
    the form v it reduces to vanishing of the top u coefficients.
    """
    if _form_is_zero(g):
        return True
    d = len(g) - 1
    if m > d:
        return False
    if p.is_zero():
        # v^m | g  <=>  coefficients of u^k for k > d - m all vanish
        return all(g[k].is_zero() for k in range(d - m + 1, d + 1))
    # dehomogenize at v = 1: divide G(x) by (p*x + q)^m
    divisor: list[Scalar] = [ctx.one()]
    for _ in range(m):
        divisor = list(_form_mul(ctx, divisor, (q, p)))
    rem = list(g)
    dq = len(rem) - len(divisor)
    lead_inv = divisor[-1].inverse()
    for k in range(dq, -1, -1):
        top = rem[k + len(divisor) - 1]
        if top.is_zero():
            continue
        c = top * lead_inv
        for j, dc in enumerate(divisor):
            rem[k + j] = rem[k + j] - c * dc
    return all(c.is_zero() for c in rem[: len(divisor) - 1])


class MultiArr2:
    """Rank-2 multiarrangement: binary linear forms with positive multiplicities.

    Forms are pairs (p, q) for p*u + q*v, normalized so the first nonzero
    coefficient is 1, and pairwise non-proportional.
    """

    __slots__ = ("ctx", "forms", "mult")

    def __init__(
        self,
        ctx: FieldCtx,
        forms: Sequence[tuple[object, object]],
        mult: Sequence[int],
    ) -> None:
        if len(forms) != len(mult):
            raise FreenessError("forms and multiplicities differ in length")
        normed: list[tuple[Scalar, Scalar]] = []
        seen: set[tuple[Scalar, Scalar]] = set()
        for p, q in forms:
            ps, qs = ctx.scalar(p), ctx.scalar(q)
            if ps.is_zero() and qs.is_zero():
                raise FreenessError("zero form")
            piv = ps if not ps.is_zero() else qs
            inv = piv.inverse()
            key = (ps * inv, qs * inv)
            if key in seen:
                raise FreenessError("proportional forms must be merged")
            seen.add(key)
            normed.append(key)
        if any(m <= 0 for m in mult):
            raise FreenessError("multiplicities must be positive")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "forms", tuple(normed))
        object.__setattr__(self, "mult", tuple(int(m) for m in mult))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiArr2 is immutable")

    @property
    def total(self) -> int:
        return sum(self.mult)

    def defining_form(self) -> tuple[Scalar, ...]:
        """prod alpha_H^{m(H)} as a binary form."""
        out: tuple[Scalar, ...] = (self.ctx.one(),)
        for (p, q), m in zip(self.forms, self.mult):
            for _ in range(m):
                out = _form_mul(self.ctx, out, (q, p))
        return out

    def __repr__(self) -> str:
        parts = [f"({p}*u+{q}*v)^{m}" for (p, q), m in zip(self.forms, self.mult)]
        return " ".join(parts)


@dataclass(frozen=True)
class Derivation2:
    """theta = f_u * d/du + f_v * d/dv with homogeneous components of equal degree."""

    f_u: tuple
    f_v: tuple

    def __post_init__(self) -> None:
        if len(self.f_u) != len(self.f_v):
            raise FreenessError("derivation components differ in degree")

    @property
    def degree(self) -> int:
        return len(self.f_u) - 1

    def applied_to(self, p: Scalar, q: Scalar) -> tuple[Scalar, ...]:
        """theta(p*u + q*v) = p*f_u + q*f_v."""
        return tuple(p * a + q * b for a, b in zip(self.f_u, self.f_v))


@dataclass(frozen=True)
class ExponentPair:
    """Exponents (e1, e2) of a rank-2 multiarrangement, e1 <= e2.

    ``certificate`` holds the pairs (d, c) such that the degree-d divisibility
    system over the function field has full column rank at t = c, so no
    derivation of degree d exists; it is empty over numeric fields, where the
    exact elimination is the check.  ``witness`` is a nonzero derivation of
    degree e1, re-verified by division; when e1 = total // 2 it is solved for
    on first read.  Neither the witness nor its source takes part in ``==``.
    """

    e1: int
    e2: int
    certificate: tuple[tuple[int, QuadElem], ...] = ()
    _source: Optional[MultiArr2] = field(default=None, compare=False, repr=False)
    _witness: Optional[Derivation2] = field(default=None, compare=False, repr=False)

    @property
    def witness(self) -> Optional[Derivation2]:
        if self._witness is None and self._source is not None:
            object.__setattr__(self, "_witness", _derivation_at(self._source, self.e1))
        return self._witness

    def __iter__(self):
        return iter((self.e1, self.e2))


@dataclass(frozen=True)
class FreenessResult:
    """Verdict of the freeness pipeline with its deciding route and witness."""

    verdict: str  # "free" | "nonfree"
    route: str  # "chi_gate" | "abt" | "yoshinaga"
    exponents: Optional[tuple[int, int, int]]
    witness: dict = field(default_factory=dict)
    anomaly: bool = False
    restriction_pair: Optional[ExponentPair] = None  # set by the Yoshinaga route

    @property
    def is_free(self) -> bool:
        return self.verdict == "free"


# ---------------------------------------------------------------------------
# Pivot (ABT) test


def _exceeds_min_root(n: int, s: int, p: int) -> bool:
    """Exact test n > (s - sqrt(s^2 - 4p)) / 2 for the real min root."""
    disc = s * s - 4 * p
    if disc < 0:
        return False
    lhs = 2 * n - s  # n > min root  <=>  lhs > -sqrt(disc)
    if lhs > 0:
        return True
    if lhs == 0:
        return disc > 0
    return lhs * lhs < disc


def abt_test(
    A: Arrangement, L: Counts, c: CharPoly
) -> Optional[FreenessResult]:
    """Pivot test: a line with n > min root decides freeness outright.

    Returns None when no line has n_{A,H} exceeding the smaller root of the
    quadratic factor of chi (test inapplicable).
    """
    s, p = c.quad_sum, c.quad_prod
    best = None
    for h in range(L.nlines):
        n = L.n_by_line[h]
        if not _exceeds_min_root(n, s, p):
            continue
        if best is None or n > L.n_by_line[best]:
            best = h
    if best is None:
        return None
    n = L.n_by_line[best]
    # free iff n - 1 is a root of t^2 - s t + p
    r = n - 1
    if r * r - s * r + p == 0:
        other = s - r
        a, b = sorted((r, other))
        return FreenessResult(
            verdict="free",
            route="abt",
            exponents=(1, a, b),
            witness={"pivot": best, "n": n},
        )
    return FreenessResult(
        verdict="nonfree",
        route="abt",
        exponents=None,
        witness={"pivot": best, "n": n},
    )


# ---------------------------------------------------------------------------
# Ziegler restriction


def _span_coords(p0: Point, p1: Point, q: Point) -> tuple[Scalar, Scalar]:
    """(alpha, beta) with q proportional to alpha*p0 + beta*p1."""
    a = p0.coords
    b = p1.coords
    c = q.coords
    for i in range(3):
        for j in range(i + 1, 3):
            det = a[i] * b[j] - a[j] * b[i]
            if not det.is_zero():
                inv = det.inverse()
                alpha = (c[i] * b[j] - c[j] * b[i]) * inv
                beta = (a[i] * c[j] - a[j] * c[i]) * inv
                return alpha, beta
    raise FreenessError("chart points are dependent")


def ziegler_restriction(A: Arrangement, h: int) -> MultiArr2:
    """Rank-2 multiarrangement induced on line ``h``.

    Each intersection point of A on the line becomes a binary form in chart
    coordinates (u, v); its multiplicity counts the lines of A minus the
    restriction line passing through it.  Total multiplicity is |A| - 1.
    """
    if not 0 <= h < len(A):
        raise FreenessError(f"line index {h} out of range")
    if len(A) < 2:
        raise FreenessError("need at least two lines to restrict")
    H = A[h]
    ctx = A.ctx
    p0, p1 = (Point(ctx, t) for t in orthogonal_pair(H))
    groups: dict[Point, int] = {}
    for i, line in enumerate(A):
        if i == h:
            continue
        q = meet(line, H)
        groups[q] = groups.get(q, 0) + 1
    forms = []
    mult = []
    qs = list(groups)
    for q in (qs[i] for i in key_order(qs)):
        alpha, beta = _span_coords(p0, p1, q)
        # the form vanishing at (u, v) = (alpha, beta)
        forms.append((beta, -alpha))
        mult.append(groups[q])
    return MultiArr2(ctx, forms, mult)


# ---------------------------------------------------------------------------
# Exponents of a rank-2 multiarrangement


def _kernel_vector(ctx: FieldCtx, rows: list[list[Scalar]], ncols: int) -> Optional[list[Scalar]]:
    """One nonzero kernel vector of the row system, or None if full rank.

    Forward elimination below each pivot, the first row with a nonzero entry
    in its column, then back substitution with the first free column set to
    1 and the other free columns to 0.  Given the pivot columns this vector
    is unique, so scaling a row does not change it.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []  # pivot column of row r
    for col in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if not mat[i][col].is_zero()), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        # entries left of a row's pivot are never read again, so only the
        # columns after ``col`` are updated
        top = mat[r]
        inv = top[col].inverse()
        tail = [k for k in range(col + 1, ncols) if not top[k].is_zero()]
        for row in mat[r + 1 :]:
            if row[col].is_zero():
                continue
            f = row[col] * inv
            for k in tail:
                row[k] = row[k] - f * top[k]
        pivots.append(col)
    free_cols = sorted(set(range(ncols)) - set(pivots))
    if not free_cols:
        return None
    vec = [ctx.zero()] * ncols
    vec[free_cols[0]] = ctx.one()
    for r in range(len(pivots) - 1, -1, -1):
        row, col = mat[r], pivots[r]
        acc = ctx.zero()
        for k in range(col + 1, ncols):
            if not row[k].is_zero() and not vec[k].is_zero():
                acc = acc + row[k] * vec[k]
        vec[col] = -acc / row[col]
    return vec


def _divisibility_rows(
    ctx: FieldCtx, p: Scalar, q: Scalar, m: int, d: int
) -> list[tuple[list[Scalar], list[Scalar]]]:
    """Linear conditions for (p*u+q*v)^m | p*f_u + q*f_v at degree d.

    Each row is a pair (coefficients of a_0..a_d, coefficients of b_0..b_d)
    where f_u = sum a_k u^k v^(d-k), f_v likewise with b_k.
    """
    zero = ctx.zero()
    rows = []
    nrows = min(m, d + 1)
    if p.is_zero():
        # v^m | g  <=>  g's u^k coefficients vanish for k > d - m
        for k in range(d, d - nrows, -1):
            arow = [zero] * (d + 1)
            brow = [zero] * (d + 1)
            # g_k = p*a_k + q*b_k = q*b_k
            brow[k] = q
            rows.append((arow, brow))
        return rows
    # Taylor conditions at u = -(q/p) v: for j < m,
    # sum_{k>=j} C(k,j) (-q/p)^(k-j) g_k = 0  with g_k = p*a_k + q*b_k
    t = -(q / p)
    for j in range(nrows):
        arow = [zero] * (d + 1)
        brow = [zero] * (d + 1)
        binom = 1
        power = ctx.one()
        for k in range(j, d + 1):
            if k > j:
                binom = binom * k // (k - j)
                power = power * t
            w = power * binom
            arow[k] = w * p
            brow[k] = w * q
        rows.append((arow, brow))
    return rows


def _specialisation(M: MultiArr2) -> Optional[tuple[QuadElem, list[tuple[Scalar, Scalar]]]]:
    """The first c of 17, 23, 101, 1009 where no form has a pole, with the
    forms specialised at t = c; None if every candidate is a pole.

    Full column rank of the specialised degree-d system certifies full rank
    over the function field: a nonzero specialised maximal minor is a
    nonzero generic minor.  After normalisation each p is 0 or 1, so only
    the q can have a pole.
    """
    base = M.ctx.base()
    for cand in (17, 23, 101, 1009):
        c = QuadElem.of(base, cand)
        if all(q.den.eval(c) for _, q in M.forms):
            return c, [(p.eval(c), q.eval(c)) for p, q in M.forms]
    return None


def _system(
    ctx: FieldCtx, forms: Sequence[tuple[Scalar, Scalar]], mult: Sequence[int], d: int
) -> list[list[Scalar]]:
    """Rows (a_0..a_d, b_0..b_d) of every divisibility condition at degree d."""
    rows: list[list[Scalar]] = []
    for (p, q), m in zip(forms, mult):
        for arow, brow in _divisibility_rows(ctx, p, q, m, d):
            rows.append(arow + brow)
    return rows


def _cleared(ctx: FieldCtx, row: list[Scalar]) -> list[Scalar]:
    """A rational-function row times the lcm of its entries' denominators."""
    den = Poly.one(ctx)
    for e in row:
        if e.den.degree > 0:
            den = den * (e.den // e.den.gcd(den))
    if den.degree == 0:
        return row
    scale = ctx.scalar(den)
    return [e * scale for e in row]


def _derivation_at(M: MultiArr2, d: int) -> Optional[Derivation2]:
    """A nonzero derivation of degree d by exact elimination, or None.

    One eliminator, ``_kernel_vector``, serves every field.  Over
    Q(sqrt(d))(t) each row is first multiplied by the lcm of its
    denominators: the kernel is unchanged, and polynomial rows keep the
    rational functions met during elimination small.  The solution is
    re-verified against every divisibility constraint by actual polynomial
    division.
    """
    ctx = M.ctx
    rows = _system(ctx, M.forms, M.mult, d)
    if ctx.parametric:
        rows = [_cleared(ctx, row) for row in rows]
    vec = _kernel_vector(ctx, rows, 2 * (d + 1))
    if vec is None:
        return None
    theta = Derivation2(tuple(vec[: d + 1]), tuple(vec[d + 1 :]))
    for (p, q), m in zip(M.forms, M.mult):
        if not _form_divisible(ctx, theta.applied_to(p, q), p, q, m):
            raise FreenessError("internal check failed: witness violates a constraint")
    return theta


def multi_exponents(M: MultiArr2) -> ExponentPair:
    """Exponents (e1, e2): e1 is the least degree with a nonzero derivation.

    A rank-2 multiarrangement is free (Ziegler), so e1 <= total // 2 and only
    the degrees below total // 2 are searched.  Over a function field the
    forms are specialised once at t = c and each degree is first tried
    there; full rank rules out a kernel, and the pair (d, c) goes into the
    certificate.  A rank drop falls back to symbolic elimination.  A kernel
    found below total // 2 is the witness; otherwise e1 = total // 2 and the
    witness is solved for only when it is read.
    """
    total = M.total
    spec = _specialisation(M) if M.ctx.parametric else None
    certificate = []
    for d in range(total // 2):
        if spec is not None:
            c, forms = spec
            if _kernel_vector(c.ctx, _system(c.ctx, forms, M.mult, d), 2 * (d + 1)) is None:
                certificate.append((d, c))
                continue
        theta = _derivation_at(M, d)
        if theta is not None:
            return ExponentPair(d, total - d, tuple(certificate), M, theta)
    e1 = total // 2
    return ExponentPair(e1, total - e1, tuple(certificate), M)


def saito_verify_rank2(M: MultiArr2, theta1: Derivation2, theta2: Derivation2) -> bool:
    """Determinant test: det[theta_i(x_j)] = c * prod alpha_H^{m(H)}, c != 0."""
    if theta1.degree + theta2.degree != M.total:
        return False
    ctx = M.ctx
    det = tuple(
        x - y
        for x, y in zip(
            _form_mul(ctx, theta1.f_u, theta2.f_v),
            _form_mul(ctx, theta1.f_v, theta2.f_u),
        )
    )
    if _form_is_zero(det):
        return False
    target = M.defining_form()
    if len(det) != len(target):
        return False
    scale = None
    for x, y in zip(det, target):
        if y.is_zero() != x.is_zero():
            return False
        if y.is_zero():
            continue
        ratio = x / y
        if scale is None:
            scale = ratio
        elif ratio != scale:
            return False
    return scale is not None and not scale.is_zero()


# ---------------------------------------------------------------------------
# Yoshinaga criterion and pipeline


def default_restriction_line(L: Counts, A: Arrangement) -> int:
    """The line maximizing n_{A,H}, ties broken by canonical line order."""
    best = None
    for h in range(len(A)):
        if best is None:
            best = h
            continue
        nb, nh = L.n_by_line[best], L.n_by_line[h]
        if nh > nb or (nh == nb and A[h].sort_key() < A[best].sort_key()):
            best = h
    if best is None:
        raise FreenessError("empty arrangement")
    return best


def yoshinaga_test(A: Arrangement, c: CharPoly, h: int) -> FreenessResult:
    """Free iff d1*d2 of the restriction onto line h equals the root product.

    A free verdict additionally requires chi to split integrally; agreement
    of d1*d2 with a non-split chi is recorded as an anomaly (should never
    happen).
    """
    pair = multi_exponents(ziegler_restriction(A, h))
    ab = c.quad_prod
    exps = exponents_from_charpoly(c)
    witness = {"restriction": h, "d1": pair.e1, "d2": pair.e2, "ab": ab}
    matches = pair.e1 * pair.e2 == ab
    free = matches and exps is not None
    return FreenessResult(
        "free" if free else "nonfree",
        "yoshinaga",
        exps if free else None,
        witness,
        anomaly=matches and not free,
        restriction_pair=pair,
    )


def is_free(A: Arrangement, lat: Optional[Counts] = None) -> FreenessResult:
    """Deterministic pipeline: chi gate, then pivot test, then restriction.

    The pipeline reads only ``nlines``, ``mu_total`` and ``n_by_line`` of
    ``lat``, so ``IncidenceCounts`` stand in for a full lattice.
    """
    n = len(A)
    if n == 0:
        return FreenessResult("free", "chi_gate", (0, 0, 0), {"empty": True})
    if n <= 2:
        c = CharPoly(n, n - 1)
        return FreenessResult("free", "chi_gate", exponents_from_charpoly(c), {})
    if lat is None:
        lat = compute_lattice(A)
    c = char_poly(A, lat)
    exps = exponents_from_charpoly(c)
    if exps is None:
        return FreenessResult(
            "nonfree",
            "chi_gate",
            None,
            {"quad_sum": c.quad_sum, "quad_prod": c.quad_prod},
        )
    res = abt_test(A, lat, c)
    if res is not None:
        return res
    return yoshinaga_test(A, c, default_restriction_line(lat, A))


def s_membership(A: Arrangement, L: LatticeData, r: FreenessResult) -> bool:
    """Whether every line carries at most min-exponent intersection points."""
    if r.verdict != "free":
        raise FreenessError("s_membership needs a free arrangement")
    if r.exponents is None:
        raise FreenessError("free verdict without exponents")
    bound = min(r.exponents[1], r.exponents[2])
    return all(n <= bound for n in L.n_by_line)
