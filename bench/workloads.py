"""The four benchmark workloads: inputs from a seed, requests, output checks.

Each workload is built in three steps.  ``__init__`` makes the inputs from the
seed and does the set-up work that users pay once (JSON files, lattices).
``run(req)`` answers one request and returns a value that is compared
exactly between rounds.  ``check(reqs, outs)`` re-derives every answer of
one round outside the timed region and returns one fault (or None) per
request.

Every call into freearr goes through a module attribute (``fa.search.is_free``
and so on), so that the traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Optional

import checkers as ck

FIELD_DISCS = (None, 5, -3, -1)


def load_freearr() -> ModuleType:
    """freearr with its submodules; the package itself imports all but the CLI."""
    import freearr
    import freearr.cli  # noqa: F401

    return freearr


# ---------------------------------------------------------------------------
# helpers shared by the workloads


def _lines(A) -> list[tuple]:
    return [tuple(l.coeffs) for l in A.lines]


def _arr(fa, ctx, lines):
    return fa.geometry.Arrangement(ctx, lines)


def _relabel(fa, A, rng: random.Random):
    """A with its lines in a seeded order."""
    lines = list(A.lines)
    rng.shuffle(lines)
    return _arr(fa, A.ctx, lines)


def _big_flats(lines) -> list[frozenset[int]]:
    return [p for p in ck.incidence_points(lines) if len(p) >= 3]


def _quad(fa, disc: Optional[int], a, b=0):
    return fa.scalar.QuadElem(fa.scalar.FieldCtx(disc), Fraction(a), Fraction(b))


def _generic_fibre(fa, build, lam, reference_profile) -> bool:
    """Whether the fibre at lam keeps the generic size and brute-force profile."""
    try:
        A = build(lam)
    except (ValueError, ArithmeticError):
        return False
    return ck.profile(ck.incidence_points(_lines(A))) == reference_profile


def _seeded_rational(rng, fa, build, reference_profile, taken) -> Fraction:
    while True:
        lam = Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, 4))
        if lam in taken or lam.denominator == 1 and abs(lam) < 3:
            continue
        if _generic_fibre(fa, build, lam, reference_profile):
            taken.add(lam)
            return lam


def _lambda_text(lam) -> str:
    if isinstance(lam, Fraction):
        return str(lam)
    d = lam.ctx.disc
    return f"{lam.a}+({lam.b})*sqrt({d})"


def _ref_profile(build) -> tuple[int, ...]:
    return ck.profile(ck.incidence_points(_lines(build(23))))


# ---------------------------------------------------------------------------
# verdict_stream


@dataclass
class VerdictInput:
    spec: str  # argument given to the CLI
    ctx: object
    lines: list  # coefficient triples, for the checks


class VerdictStream:
    """Short CLI requests (``freeness``, then ``inductive`` when free)."""

    name = "verdict_stream"
    # One input per source and field in each slot.  Sizes follow a fixed
    # schedule so that the seed picks lines, not how much work a round holds.
    RANDOM_SIZES = (7, 10, 13, 16)
    CATALOG_DROPS = (0, 1, 2, 3)
    FIBRE_SUBSETS = (("family13", 10), ("family15", 12), ("family13", 12))

    def __init__(self, fa, seed: int, workdir: str) -> None:
        self.fa = fa
        rng = random.Random(seed)
        self.inputs: list[VerdictInput] = []
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        cat = fa.catalog
        catalogs = {None: cat.eleven_if, 5: cat.pentagonal, -3: cat.dual_hesse, -1: cat.g443}
        fibre_lams = {
            None: None,  # seeded rationals
            5: _quad(fa, 5, Fraction(1, 2), Fraction(1, 2)),
            -3: _quad(fa, -3, 1, 1),
            -1: _quad(fa, -1, 0, 1),
        }
        families = {"family13": cat.family13, "family15": cat.family15}
        refs = {name: _ref_profile(build) for name, build in families.items()}
        taken: set = set()
        for fi, disc in enumerate(FIELD_DISCS):
            ctx = fa.scalar.FieldCtx(disc)
            base = _lines(catalogs[disc]())
            for k in range(len(self.RANDOM_SIZES)):
                # random small-integer lines
                self._add_json(ctx, self._random_lines(rng, ctx, self.RANDOM_SIZES[k]))
                # a catalog arrangement over this field, or a subset of it
                self._add_json(ctx, rng.sample(base, len(base) - self.CATALOG_DROPS[k]))
                # a family fibre: a subset (as JSON) or whole (as a catalog spec)
                if k < len(self.FIBRE_SUBSETS):
                    fam_name, size = self.FIBRE_SUBSETS[k]
                else:
                    fam_name, size = ("family13", "family15")[fi % 2], None
                build = families[fam_name]
                lam = fibre_lams[disc]
                if lam is None:
                    lam = _seeded_rational(rng, fa, build, refs[fam_name], taken)
                elif not _generic_fibre(fa, build, lam, refs[fam_name]):
                    raise ValueError(f"{fam_name} at {lam} is not a generic fibre")
                fibre = _lines(build(lam))
                if size is None:
                    spec = f"catalog:{fam_name}?lambda={_lambda_text(lam)}"
                    self.inputs.append(VerdictInput(spec, ctx, fibre))
                else:
                    self._add_json(ctx, rng.sample(fibre, size))
                # one line added to a free arrangement: the join of two of its points
                free = base if size is not None else fibre
                self._add_json(ctx, self._add_joining_line(rng, free))

    # -- input generation ---------------------------------------------------

    def _scalar(self, rng, ctx):
        a = rng.randint(-3, 3)
        if ctx.disc is None or rng.random() < 0.5:
            return _quad(self.fa, ctx.disc, a)
        return _quad(self.fa, ctx.disc, a, rng.choice((-1, 1)))

    def _random_lines(self, rng, ctx, n):
        lines: list[tuple] = []
        while len(lines) < n:
            cand = tuple(self._scalar(rng, ctx) for _ in range(3))
            if all(c.is_zero() for c in cand) or any(ck.same_line(cand, l) for l in lines):
                continue
            lines.append(cand)
        return lines

    def _add_joining_line(self, rng, lines):
        pts = ck.incidence_points(lines)
        while True:
            p, q = rng.sample(pts, 2)
            i, j = sorted(p)[:2]
            k, m = sorted(q)[:2]
            line = ck.cross(ck.cross(lines[i], lines[j]), ck.cross(lines[k], lines[m]))
            if all(c.is_zero() for c in line) or any(ck.same_line(line, l) for l in lines):
                continue
            return lines + [line]

    def _add_json(self, ctx, lines) -> None:
        A = _arr(self.fa, ctx, lines)
        path = os.path.join(self.workdir, f"in{len(self.inputs):03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.fa.arrio.encode_arrangement(A), fh)
        self.inputs.append(VerdictInput(path, ctx, _lines(A)))

    # -- requests ---------------------------------------------------------------

    def warmup(self) -> None:
        self._cli(["freeness", self.inputs[0].spec])

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.fa.cli.main(argv)
        return code, buf.getvalue()

    def rounds_requests(self):
        """Yields (request, runner); ``inductive`` follows a free verdict."""
        for idx, inp in enumerate(self.inputs):
            out = yield ("freeness", idx), lambda inp=inp: self._cli(["freeness", inp.spec])
            if out is not None and out[0] == 0 and json.loads(out[1])["verdict"] == "free":
                yield ("inductive", idx), lambda inp=inp: self._cli(["inductive", inp.spec])

    # -- checks -------------------------------------------------------------------

    def check(self, reqs, outs) -> list[Optional[str]]:
        fa = self.fa
        faults: list[Optional[str]] = []
        counted: dict[int, list] = {}
        for (kind, idx), (code, text) in zip(reqs, outs):
            inp = self.inputs[idx]
            n = len(inp.lines)
            if code != 0:
                faults.append(f"exit code {code}")
                continue
            out = json.loads(text)
            if idx not in counted:
                counted[idx] = ck.incidence_points(inp.lines)
            pts = counted[idx]
            mu = ck.mu_total(pts)
            if kind == "freeness":
                A = _arr(fa, inp.ctx, inp.lines)
                faults.append(self._check_freeness(A, n, pts, mu, out))
            else:
                faults.append(self._check_inductive(n, inp, out))
        return faults

    def _check_freeness(self, A, n, pts, mu, out) -> Optional[str]:
        fa = self.fa
        if not ck.check_pair_count(n, pts):
            return "brute-force count misses a pair of lines"
        lat = fa.lattice.compute_lattice(A)
        if lat.profile != ck.profile(pts):
            return f"profile {lat.profile} != brute force {ck.profile(pts)}"
        route, w = out["route"], out["witness"]
        free = out["verdict"] == "free"
        if free and not ck.exponents_match(n, mu, out["exponents"]):
            return f"exponents {out['exponents']} do not fit the count"
        if not free and out["exponents"] is not None:
            return "nonfree verdict with exponents"
        if route == "chi_gate":
            if not free and ck.chi_exponents(n, mu) is not None:
                return "chi gate refused a split characteristic polynomial"
            if not free and w["quad_prod"] != mu - n + 1:
                return "chi gate witness does not fit the count"
            return None
        if route == "abt":
            h = w["pivot"]
            if w["n"] != sum(1 for p in pts if h in p):
                return "pivot point count does not fit the brute-force count"
        elif route == "yoshinaga":
            h = w["restriction"]
            if w["ab"] != mu - n + 1:
                return "restriction witness does not fit the count"
        else:
            return f"unknown route {route!r}"
        other = (h + 1) % n
        c = fa.lattice.char_poly(A, lat)
        again = fa.freeness.yoshinaga_test(A, c, other)
        if again.is_free != free:
            return f"yoshinaga_test on line {other} disagrees"
        return None

    def _check_inductive(self, n, inp, out) -> Optional[str]:
        chain = out["chain"]
        if out["inductively_free"]:
            moves = [(mv["kind"], self._decode_line(inp.ctx, mv["line"])) for mv in chain["moves"]]
            if any(kind != "delete" for kind, _ in moves):
                return "inductive chain adds a line"
            return ck.replay_chain(inp.lines, moves, chain["stages"])
        if chain is not None:
            return "chain given for a negative answer"
        if n <= 12:
            flats = _big_flats(inp.lines)
            if not any(
                ck.find_isomorphism(flats, ref, n) is not None for ref in self._exceptions(n)
            ):
                return "free, not inductively free, and not one of the three exceptions"
        return None

    def _exceptions(self, n):
        if not hasattr(self, "_exc"):
            cat = self.fa.catalog
            self._exc = [
                (len(A), _big_flats(_lines(A)))
                for A in (cat.dual_hesse(), cat.pentagonal(), cat.g443())
            ]
        return [flats for size, flats in self._exc if size == n]

    def _decode_line(self, ctx, raw):
        return tuple(self.fa.arrio.decode_scalar(ctx, s) for s in raw)


# ---------------------------------------------------------------------------
# recursive_search


class RecursiveSearch:
    """One ``recursive_freeness_bounded`` call per request, fresh cache each."""

    name = "recursive_search"

    def __init__(self, fa, seed: int, workdir: str) -> None:
        self.fa = fa
        rng = random.Random(seed)
        cat = fa.catalog
        taken: set = set()
        f13 = _seeded_rational(rng, fa, cat.family13, _ref_profile(cat.family13), taken)
        f15 = _seeded_rational(rng, fa, cat.family15, _ref_profile(cat.family15), taken)
        self.inputs = [
            ("dual_hesse", cat.dual_hesse()),
            ("pentagonal", cat.pentagonal()),
            ("g443", cat.g443()),
            ("eleven_if", cat.eleven_if()),
            (f"family13({f13})", cat.family13(f13)),
            (f"family15({f15})", cat.family15(f15)),
            ("family13(golden)", cat.family13(_quad(fa, 5, Fraction(1, 2), Fraction(1, 2)))),
            ("family15(i)", cat.family15(_quad(fa, -1, 0, 1))),
        ]
        for name in ("dual_hesse", "pentagonal", "g443", "eleven_if"):
            A = dict(self.inputs)[name]
            self.inputs.append((f"{name}+line", self._free_addition(rng, A)))
        eif = dict(self.inputs)["eleven_if"]
        self.inputs.append(("eleven_if-line", self._free_deletion(rng, eif)))

    def _free_addition(self, rng, A):
        fa = self.fa
        lat = fa.lattice.compute_lattice(A)
        pts = [fp.point for fp in lat.points]
        while True:
            p, q = rng.sample(pts, 2)
            line = fa.geometry.join(p, q)
            if line in A:
                continue
            B = A.add(line)
            if fa.freeness.is_free(B).is_free:
                return B

    def _free_deletion(self, rng, A):
        order = list(range(len(A)))
        rng.shuffle(order)
        for h in order:
            B = A.delete(h)
            if self.fa.freeness.is_free(B).is_free:
                return B
        raise ValueError("no free deletion")

    def warmup(self) -> None:
        self._run(self.inputs[3][1])

    def _run(self, A):
        v = self.fa.search.recursive_freeness_bounded(A, cache=self.fa.search.SearchCache())
        if v.chain is not None:
            moves = tuple((mv.kind, tuple(mv.line.coeffs)) for mv in v.chain.moves)
            return (v.kind, moves, v.chain.stages)
        return (v.kind, None, tuple(sorted(v.certificate.items())))

    def rounds_requests(self):
        for idx, (label, A) in enumerate(self.inputs):
            yield (label, idx), lambda A=A: self._run(A)

    def check(self, reqs, outs) -> list[Optional[str]]:
        return [self._check(self.inputs[idx][1], out) for (_, idx), out in zip(reqs, outs)]

    def _check(self, A, out) -> Optional[str]:
        fa = self.fa
        kind, moves, stages = out
        n = len(A)
        lines = _lines(A)
        if ck.line_exponents(lines) is None:
            return "input is not free by its characteristic polynomial"
        if kind == "yes":
            return ck.replay_chain(lines, moves, stages)
        if n <= 12:
            return f"free input with {n} lines got {kind!r}"
        if kind != "no":
            return f"verdict {kind!r}"
        for h in range(n):
            sub = lines[:h] + lines[h + 1:]
            if ck.line_exponents(sub) is None:
                continue  # nonfree by the brute-force characteristic polynomial
            B = A.delete(h)
            c = fa.lattice.char_poly(B)
            if fa.freeness.yoshinaga_test(B, c, 0).is_free:
                return f"deletion of line {h} is free"
        return None


# ---------------------------------------------------------------------------
# family_moduli


def _compose_affine(fa, fam, a: Fraction, b: Fraction):
    """The family with t replaced by a*s + b."""
    ctx = fam.ctx
    base = ctx.base()
    QE = fa.scalar.QuadElem
    Poly = fa.scalar.Poly
    sub = Poly(ctx, (QE.of(base, b), QE.of(base, a)))

    def comp(p):
        out = Poly.zero(ctx)
        for c in reversed(p.coeffs):
            out = out * sub + Poly(ctx, (c,))
        return out

    triples = tuple(tuple(comp(p) for p in tri) for tri in fam.triples)
    return fa.moduli.Family(f"{fam.name}[t={a}s+{b}]", ctx, triples)


def _eval_poly(p, x):
    acc = x.ctx.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _values(rational: tuple, disc: int, quadratic: tuple, rational_disc: int = 0) -> frozenset:
    F = Fraction
    out = {(rational_disc, F(x), F(0)) for x in rational}
    out |= {(disc, F(c), F(s) * F(y)) for c, y in quadratic for s in (1, -1)}
    return frozenset(out)


# The paper's exceptional parameters: family13 degenerates at 0, 1 and the
# roots of t^2 - t + 1 and changes lattice at -1, 1/2, 2; family15 degenerates
# at 0, 1/2, 1 and changes lattice at (3 +- sqrt5)/2 and (-1 +- sqrt5)/2.
PAPER_EXCEPTIONAL = {
    "family13": _values(("-1", "0", "1/2", "1", "2"), -3, (("1/2", "1/2"),)),
    "family13_sqrt3": _values(("-1", "0", "1/2", "1", "2"), -3, (("1/2", "1/2"),), 3),
    "family15": _values(("0", "1/2", "1"), 5, (("3/2", "1/2"), ("-1/2", "1/2"))),
}


class FamilyModuli:
    """Exceptional values and symbolic freeness of the 13- and 15-line families."""

    name = "family_moduli"
    # t = SCALE*s + b.  The scale is fixed: with a = -3/2 in place of 3/2 the
    # scalar products of family15's symbolic is_free move by up to 14% with b,
    # which would widen the seed-to-seed spread.  b is never an exceptional
    # value of a base family (0, 1, -1, 2, 1/2): there parts of the
    # elimination vanish and the request does less work.
    SCALE = Fraction(3, 2)
    SHIFTS = tuple(Fraction(x) for x in ("-1/2", "1/3", "-1/3", "2/3", "-2/3", "3/2",
                                         "-3/2", "-2", "5/2", "-5/2", "3", "-3"))
    # Reparametrisations per base family.  family15 gets two, so that the
    # median request is one of three family15 exceptional_values calls, which
    # cost alike, and not whichever call sits at a gap between families.
    REPARAMS = (1, 1, 2)

    def __init__(self, fa, seed: int, workdir: str) -> None:
        self.fa = fa
        rng = random.Random(seed)
        cat = fa.catalog
        self.bases = [cat.family13_family(), cat.family13_family(sqrt3=True), cat.family15_family()]
        self.reparam = []  # (base index, b, family)
        for k, fam in enumerate(self.bases):
            for b in rng.sample(self.SHIFTS, self.REPARAMS[k]):
                self.reparam.append((k, b, _compose_affine(fa, fam, self.SCALE, b)))

    def warmup(self) -> None:
        self.fa.moduli.exceptional_values(self.bases[0])

    def _exceptional(self, fam):
        rep = self.fa.moduli.exceptional_values(fam)
        return tuple(sorted(((v.value.ctx.disc or 0, v.value.a, v.value.b), v.kind) for v in rep.values))

    def _symbolic(self, fam):
        r = self.fa.freeness.is_free(fam.arrangement())
        return (r.verdict, r.route, r.exponents)

    def rounds_requests(self):
        for k, fam in enumerate(self.bases):
            yield ("exceptional", "base", k), lambda fam=fam: self._exceptional(fam)
        for j, (_, _, fam) in enumerate(self.reparam):
            yield ("exceptional", "reparam", j), lambda fam=fam: self._exceptional(fam)
        done = set()
        for j, (k, _, fam) in enumerate(self.reparam):
            if k not in done:
                done.add(k)
                yield ("symbolic", "reparam", j), lambda fam=fam: self._symbolic(fam)

    def check(self, reqs, outs) -> list[Optional[str]]:
        by_req = dict(zip(reqs, outs))
        faults = []
        for req, out in zip(reqs, outs):
            kind, which, k = req
            fam = self.bases[k] if which == "base" else self.reparam[k][2]
            if kind == "exceptional":
                fault = self._check_values(fam, out)
                if fault is None and which == "base":
                    if {v for v, _ in out} != PAPER_EXCEPTIONAL[fam.name]:
                        fault = "exceptional set differs from the paper's"
                if fault is None and which == "reparam":
                    base, b, _ = self.reparam[k]
                    fault = self._check_image(by_req[("exceptional", "base", base)], out, self.SCALE, b)
            else:
                fault = self._check_symbolic(fam, out)
            faults.append(fault)
        return faults

    def _specialize(self, fam, lam):
        """Lines at t = lam by direct evaluation, or None if one vanishes or two coincide."""
        lines = [tuple(_eval_poly(p, lam) for p in tri) for tri in fam.triples]
        if any(all(c.is_zero() for c in l) for l in lines):
            return None
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                if ck.same_line(lines[i], lines[j]):
                    return None
        return lines

    def _generic_profile(self, fam):
        lines = self._specialize(fam, self._generic_value(fam))
        return ck.profile(ck.incidence_points(lines))

    def _generic_value(self, fam):
        base = fam.ctx.base()
        QE = self.fa.scalar.QuadElem
        return QE.of(base, Fraction(1009, 7))

    def _check_values(self, fam, values) -> Optional[str]:
        generic = self._generic_profile(fam)
        QE = self.fa.scalar.QuadElem
        FC = self.fa.scalar.FieldCtx
        for (disc, a, b), kind in values:
            if kind == "outside_field":
                continue  # a root the family's field cannot host, reported unverified
            d = fam.ctx.disc if fam.ctx.disc is not None else (disc or None)
            lam = QE(FC(d), a, b)
            lines = self._specialize(self._lift(fam, d), lam)
            if (lines is None) != (kind == "size_drop"):
                return f"value {lam} is reported {kind!r}"
            if lines is not None and ck.profile(ck.incidence_points(lines)) == generic:
                return f"value {lam} keeps the generic profile"
        return None

    def _lift(self, fam, disc):
        """The family's polynomials with coefficients moved into Q(sqrt(disc))."""
        if fam.ctx.disc == disc:
            return fam
        fa = self.fa
        ctx = fa.scalar.FieldCtx(disc, True)
        base = ctx.base()
        QE = fa.scalar.QuadElem

        def lift(p):
            return fa.scalar.Poly(ctx, tuple(QE(base, c.a, c.b) for c in p.coeffs))

        return fa.moduli.Family(fam.name, ctx, tuple(tuple(lift(p) for p in tri) for tri in fam.triples))

    def _check_image(self, base_values, values, a, b) -> Optional[str]:
        # t = a*s + b, so a base value t0 becomes s0 = (t0 - b) / a
        image = sorted(((d, (x - b) / a, y / a), kind) for (d, x, y), kind in base_values)
        if image != sorted(values):
            return "exceptional set is not the image of the base family's set"
        return None

    def _check_symbolic(self, fam, out) -> Optional[str]:
        verdict, route, exps = out
        lines = self._specialize(fam, self._generic_value(fam))
        pts = ck.incidence_points(lines)
        spec = ck.chi_exponents(len(lines), ck.mu_total(pts))
        if verdict != "free" or exps is None or tuple(exps) != spec:
            return f"symbolic exponents {exps} != specialisation {spec}"
        return None


# ---------------------------------------------------------------------------
# lattice_symmetry

PAPER_PROFILES_12 = {
    (9, 4, (0, 12)),
    (11, 5, (1, 14, 2)),
    (11, 5, (4, 11, 3)),
    (11, 5, (7, 8, 4)),
    (11, 5, (10, 5, 5)),
    (12, 5, (0, 16, 3)),
}


class LatticeSymmetry:
    """Automorphisms, isomorphism and the profile classification on built lattices."""

    name = "lattice_symmetry"
    ELL_MAX = 19

    def __init__(self, fa, seed: int, workdir: str) -> None:
        self.fa = fa
        rng = random.Random(seed)
        cat = fa.catalog
        taken: set = set()
        ref13, ref15 = _ref_profile(cat.family13), _ref_profile(cat.family15)
        lams13 = [_seeded_rational(rng, fa, cat.family13, ref13, taken) for _ in range(2)]
        lam15 = _seeded_rational(rng, fa, cat.family15, ref15, taken)
        lam15b = _seeded_rational(rng, fa, cat.family15, ref15, taken)
        dh, g = cat.dual_hesse(), cat.g443()
        # The two large groups keep the catalog labelling: their search cost
        # moves by up to 2x with the labelling, which would swamp the seed-to-
        # seed comparison; the relabelled copies are used by isomorphism.
        self.arrs: dict[str, object] = {"dual_hesse": dh, "g443": g}
        relabelled = {
            "pentagonal": cat.pentagonal(),
            "eleven_if": cat.eleven_if(),
            f"family15({lam15})": cat.family15(lam15),
            "family15(i)": cat.family15(_quad(fa, -1, 0, 1)),
        }
        # Five fibres of family13 share one lattice and cost alike; the median
        # request falls among them rather than at a gap between unlike requests.
        for lam in lams13 + [_quad(fa, 5, Fraction(1, 2), Fraction(1, 2)),
                             _quad(fa, -1, 0, 1), _quad(fa, -3, 1, 1)]:
            if not _generic_fibre(fa, cat.family13, lam, ref13):
                raise ValueError(f"family13 at {lam} is not a generic fibre")
            relabelled[f"family13({lam})"] = cat.family13(lam)
        for name, A in relabelled.items():
            self.arrs[name] = _relabel(fa, A, rng)
        self.arrs["dual_hesse'"] = _relabel(fa, dh, rng)
        self.arrs["g443'"] = _relabel(fa, g, rng)
        self.arrs["pentagonal'"] = _relabel(fa, relabelled["pentagonal"], rng)
        self.arrs[f"family15({lam15b})'"] = _relabel(fa, cat.family15(lam15b), rng)
        self.lats = {name: fa.lattice.compute_lattice(A) for name, A in self.arrs.items()}
        self.aut_names = ["dual_hesse", "g443"] + list(relabelled)
        self.iso_pairs = [
            ("dual_hesse", "dual_hesse'", True),
            ("g443", "g443'", True),
            ("pentagonal", "pentagonal'", True),
            (f"family15({lam15})", f"family15({lam15b})'", True),
            ("pentagonal'", "eleven_if", False),
        ]

    def warmup(self) -> None:
        self.fa.lattice.lattice_isomorphic(self.lats["pentagonal"], self.lats["eleven_if"])

    def _aut(self, name):
        g = self.fa.lattice.lattice_automorphisms(self.lats[name])
        return (g.order, g.generators)

    def rounds_requests(self):
        for name in self.aut_names:
            yield ("aut", name), lambda name=name: self._aut(name)
        for a, b, _ in self.iso_pairs:
            yield ("iso", a, b), lambda a=a, b=b: self.fa.lattice.lattice_isomorphic(
                self.lats[a], self.lats[b]
            )
        yield ("classify", self.ELL_MAX), lambda: tuple(
            (p.ell, p.a, p.profile) for p in self.fa.moduli.classify_profiles(self.ELL_MAX)
        )

    def check(self, reqs, outs) -> list[Optional[str]]:
        flats = {}

        def flats_of(name):
            if name not in flats:
                flats[name] = _big_flats(_lines(self.arrs[name]))
            return flats[name]

        faults = []
        expected = dict(((a, b), want) for a, b, want in self.iso_pairs)
        for req, out in zip(reqs, outs):
            if req[0] == "aut":
                faults.append(self._check_aut(req[1], flats_of(req[1]), out))
            elif req[0] == "iso":
                _, a, b = req
                faults.append(self._check_iso(flats_of(a), flats_of(b), len(self.arrs[a]),
                                              out, expected[(a, b)]))
            else:
                faults.append(self._check_classify(out))
        return faults

    def _check_aut(self, name, flats, out) -> Optional[str]:
        order, gens = out
        n = len(self.arrs[name])
        for g in gens:
            if sorted(g) != list(range(n)) or not ck.maps_flats_onto(g, flats):
                return f"generator {g} does not map the big flats onto themselves"
        if len(ck.group_closure(gens, n)) != order:
            return f"closure of the generators is not of order {order}"
        if name == "dual_hesse" and order != 432:
            return f"dual Hesse group of order {order}, not 432"
        return None

    def _check_iso(self, flats_a, flats_b, n, out, want) -> Optional[str]:
        found = ck.find_isomorphism(flats_a, flats_b, n)
        if (found is not None) != want or out != want:
            return f"isomorphic={out}, expected {want}"
        return None

    def _check_classify(self, out) -> Optional[str]:
        for ell, a, prof in out:
            s1 = (ell - 1) * (a + 1) - a * a
            if sum(i * f for i, f in enumerate(prof, 1)) != s1:
                return f"{(ell, a, prof)} breaks the first identity"
            if sum(math.comb(i + 1, 2) * f for i, f in enumerate(prof, 1)) != math.comb(ell, 2):
                return f"{(ell, a, prof)} breaks the second identity"
            if sum((i + 1) * f for i, f in enumerate(prof, 1)) > a * ell:
                return f"{(ell, a, prof)} breaks the inequality"
        got = set(out)
        if len(got) != len(out) or got != ck.enumerate_profiles(self.ELL_MAX):
            return "classification differs from the independent enumeration"
        if {p for p in got if p[0] <= 12} != PAPER_PROFILES_12:
            return "classification up to 12 lines differs from the paper's"
        return None


WORKLOADS = {
    w.name: w for w in (VerdictStream, RecursiveSearch, FamilyModuli, LatticeSymmetry)
}
