"""Deterministic SVG 1.1 rendering of an arrangement's affine chart z = 1.

Incidences are decided exactly: the marker set is the intersection-point set
of the arrangement restricted to the viewport, computed in exact arithmetic
and converted to floating point only when coordinates are serialized.
Markers are sized by the point multiplicity.  Lines lying at infinity are
listed in a text annotation instead of being drawn.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .geometry import Arrangement
from .lattice import compute_lattice
from .scalar import QuadElem

__all__ = ["NotDrawableError", "render_svg"]

SIZE = 640  # width and height of the square canvas, in px


class NotDrawableError(ValueError):
    """The arrangement's field has no real embedding to draw with."""


def _in_range(x: QuadElem, lo: Fraction, hi: Fraction) -> bool:
    base = x.ctx
    return (
        (x - QuadElem.of(base, lo)).real_sign() >= 0
        and (QuadElem.of(base, hi) - x).real_sign() >= 0
    )


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _clip_segment(
    c: tuple[float, float, float], box: tuple[float, float, float, float]
) -> Optional[tuple[float, float, float, float]]:
    """Clip the affine line c0*x + c1*y + c2 = 0 to the box, or None."""
    c0, c1, c2 = c
    xmin, xmax, ymin, ymax = box
    # parametric point/direction form
    if abs(c0) >= abs(c1):
        p = (-c2 / c0, 0.0)
    else:
        p = (0.0, -c2 / c1)
    d = (-c1, c0)
    t0, t1 = float("-inf"), float("inf")
    for coord, dv, lo, hi in ((p[0], d[0], xmin, xmax), (p[1], d[1], ymin, ymax)):
        if dv == 0.0:
            if coord < lo or coord > hi:
                return None
            continue
        ta, tb = (lo - coord) / dv, (hi - coord) / dv
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
    if t0 >= t1:
        return None
    return (p[0] + t0 * d[0], p[1] + t0 * d[1], p[0] + t1 * d[0], p[1] + t1 * d[1])


def render_svg(A: Arrangement, viewport: Sequence[Fraction] = (-4, 4, -4, 4)) -> str:
    """Render the affine chart of A as an SVG 1.1 document string."""
    ctx = A.ctx
    if ctx.parametric:
        raise NotDrawableError("parametric arrangements are not drawable")
    if ctx.disc is not None and ctx.disc < 0:
        raise NotDrawableError(f"Q(sqrt({ctx.disc})) has no real embedding")
    lat = compute_lattice(A)
    xmin, xmax, ymin, ymax = (Fraction(v) for v in viewport)
    if xmin >= xmax or ymin >= ymax:
        raise NotDrawableError("empty viewport")
    pad = 30.0
    scale = (SIZE - 2 * pad) / float(max(xmax - xmin, ymax - ymin))

    def px(x: float, y: float) -> tuple[float, float]:
        return (pad + (x - float(xmin)) * scale, pad + (float(ymax) - y) * scale)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect x="{_fmt(pad)}" y="{_fmt(pad)}" '
        f'width="{_fmt((float(xmax - xmin)) * scale)}" '
        f'height="{_fmt((float(ymax - ymin)) * scale)}" '
        'fill="white" stroke="#cccccc"/>',
    ]
    box = (float(xmin), float(xmax), float(ymin), float(ymax))
    at_infinity: list[int] = []
    for i, line in enumerate(A):
        c0, c1, c2 = line.coeffs
        if c0.is_zero() and c1.is_zero():
            at_infinity.append(i)
            continue
        seg = _clip_segment((c0.real_value(), c1.real_value(), c2.real_value()), box)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = px(seg[0], seg[1]), px(seg[2], seg[3])
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#1f3b73" stroke-width="1.2"/>'
        )
        lx, ly = x1 + 0.88 * (x2 - x1), y1 + 0.88 * (y2 - y1)
        out.append(
            f'<text x="{_fmt(lx + 4)}" y="{_fmt(ly - 4)}" font-size="11" '
            f'fill="#1f3b73">H{i + 1}</text>'
        )
    for fp in lat.points:
        x, y, z = fp.point.coords
        if z.is_zero():
            continue
        zi = z.inverse()
        xa, ya = x * zi, y * zi
        if not (_in_range(xa, xmin, xmax) and _in_range(ya, ymin, ymax)):
            continue
        cx, cy = px(xa.real_value(), ya.real_value())
        r = 2.0 + fp.mu
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            'fill="#c0392b" fill-opacity="0.85"/>'
        )
    if at_infinity:
        names = ", ".join(f"H{i + 1}" for i in at_infinity)
        out.append(
            f'<text x="{_fmt(pad)}" y="{_fmt(SIZE - 8.0)}" font-size="12" '
            f'fill="#444444">{names} at infinity (z = 0)</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
