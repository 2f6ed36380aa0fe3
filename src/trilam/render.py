"""Figure-quality SVG rendering of chord families.

Chords are drawn inside the unit circle either as straight segments or
as hyperbolic geodesics (circular arcs orthogonal to the unit circle;
diameters fall back to straight segments).  Coordinates are emitted at
a fixed 12-decimal precision and elements follow the canonical chord
order, so renders are byte-deterministic.  This is the only place
floating point appears; all data paths stay exact.

The renderer works on the integer grid (`trilam.grid`) in one pass:
`Chord`s are put on their common scale N once; a pullback family or a
`render --in` document passes its int pairs and modulus.  The ints are
int64 while N <= `MAX_INT64_MODULUS` and Python ints beyond, so they
are exact at any scale; they give the canonical order
(`grid.short_arc_order`) and each arc's sweep flag.  The floats are
exactly these: the correctly rounded turns `x / N`, equal to
`float(Fraction(x, N))`; `math.cos` and `math.sin` of `2.0 * math.pi *
(x / N)` once per distinct angle of each slice of 1,024 chords; and
float64 array arithmetic for points, centers and radii in the operation
order of the scalar formula (numpy's + - * / and sqrt round as
CPython's do and fuse no multiply-adds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence, Union

import numpy as np

from .chords import Chord
from .grid import MAX_INT64_MODULUS, on_grid, scale_of, short_arc_order

__all__ = ["RenderConfig", "render_svg"]

# chords drawn at a time: a large family is never held as per-chord
# Python floats all at once, and chords sharing an endpoint mostly sit
# in one slice, so its trig is still taken once
_SLICE = 1024


@dataclass(frozen=True)
class RenderConfig:
    size_px: int = 800
    geodesic_style: str = "arc"  # "arc" (hyperbolic geodesics) or "straight"
    color_by: str = "type"       # "type" or "block"
    background: str = "white"
    circle_stroke: str = "#888888"
    circle_stroke_width: float = 1.5
    chord_stroke_width: float = 1.0
    margin_px: int = 10


_TYPE_COLORS = {"B": "#c02030", "D": "#1040c0", "": "#202020"}


def _block_color(block: int) -> str:
    # deterministic palette: rotate hue with the golden ratio
    hue = (0.61803398875 * (block - 1)) % 1.0
    r, g, b = _hsv(hue, 0.75, 0.78)
    return f"#{r:02x}{g:02x}{b:02x}"


def _hsv(h: float, s: float, v: float) -> tuple[int, int, int]:
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - s * f), v * (1 - s * (1 - f))
    rgb = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]
    return tuple(int(round(255 * x)) for x in rgb)  # type: ignore[return-value]


# one %-template per element kind; %.12f formats as f"{x:.12f}" does
_DOT = '<circle class="%s" cx="%.12f" cy="%.12f" r="1.5" fill="%s"/>'
_TAIL = '" fill="none" stroke="%s" stroke-width="%s"/>'
_LINE = '<path class="%s" d="M %.12f %.12f L %.12f %.12f' + _TAIL
_ARC = '<path class="%s" d="M %.12f %.12f A %s %s 0 0 %d %.12f %.12f' + _TAIL


def _style(cls: str, block: int, cfg: RenderConfig) -> tuple[str, str]:
    """(class label, color) of a chord."""
    if cfg.color_by == "block" and block:
        return f"block-{block}", _block_color(block)
    return (f"type-{cls}" if cls else "chord"), _TYPE_COLORS.get(cls, _TYPE_COLORS[""])


def render_svg(chords: Union[Sequence[Chord], np.ndarray], cfg: RenderConfig = RenderConfig(),
               classes: Optional[Sequence[str]] = None,
               blocks: Optional[Sequence[int]] = None,
               modulus: Optional[int] = None) -> str:
    """Render chords to a standalone SVG document.

    `chords` are `Chord`s or, when `modulus` is given, an (n, 2) array
    of int pairs lo <= hi on the grid of that modulus, such as
    `Prelamination.pairs` or the pairs of `formats.chords_from_json`;
    beyond `MAX_INT64_MODULUS` they are taken as Python ints.  `classes`
    (e.g. the leaf types) and `blocks` attach style classes and colors
    per chord; both default to a single neutral style.  One element is
    emitted per chord, in canonical chord order.
    """
    size = cfg.size_px
    cx = cy = size / 2.0
    r = size / 2.0 - cfg.margin_px

    if modulus is None:
        n = scale_of(v for ch in chords for v in ch.endpoints())
        chords = [on_grid(v, n) for ch in chords for v in ch.endpoints()]
    else:
        n = int(modulus)
    pairs = np.asarray(chords, dtype=np.int64 if n <= MAX_INT64_MODULUS else object).reshape(-1, 2)
    m = len(pairs)
    order = short_arc_order(pairs, n)
    pairs = pairs[order]
    keys = list(zip(classes if classes is not None else [""] * m,
                    blocks if blocks is not None else [0] * m))
    styles = {key: _style(*key, cfg) for key in set(keys)}
    styled = [styles[keys[i]] for i in order.tolist()]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="{cfg.background}"/>',
        '<circle cx="%.12f" cy="%.12f" r="%.12f" fill="none" ' % (cx, cy, r)
        + f'stroke="{cfg.circle_stroke}" stroke-width="{cfg.circle_stroke_width}"/>',
    ]
    for s in range(0, m, _SLICE):
        lines += _elements(pairs[s:s + _SLICE], styled[s:s + _SLICE], n, cx, cy, r, cfg)
    lines.append("</svg>\n")
    return "\n".join(lines)


def _elements(pairs: np.ndarray, styled: list[tuple[str, str]], n: int,
              cx: float, cy: float, r: float, cfg: RenderConfig) -> list[str]:
    """The SVG elements of canonically ordered chords, in order.

    A degenerate chord is a dot; a straight chord, or a diameter
    (1 + p1.p2 < 1e-9 for the unit-disk endpoints p1, p2), a segment.
    Any other geodesic is an arc of the circle orthogonal to the unit
    circle through p1 and p2: center o = k (p1 + p2) with
    k = 1 / (1 + p1.p2), radius sqrt(|o|^2 - 1).  It runs from lo to hi
    inside the disk, clockwise on screen (SVG sweep 1) iff the arc from
    lo to hi is the short one, 2 (hi - lo) < n.
    """
    ends, inv = np.unique(pairs.ravel(), return_inverse=True)
    th = (2.0 * math.pi * (ends / n).astype(np.float64)).tolist()
    cos = np.fromiter(map(math.cos, th), np.float64, len(th))
    sin = np.fromiter(map(math.sin, th), np.float64, len(th))
    i1, i2 = inv[0::2], inv[1::2]
    c1, s1, c2, s2 = cos[i1], sin[i1], cos[i2], sin[i2]
    x1, y1, x2, y2 = cx + r * c1, cy - r * s1, cx + r * c2, cy - r * s2
    kind = np.where(i1 == i2, 0, 1)
    if cfg.geodesic_style == "arc":
        dot = c1 * c2 + s1 * s2
        kind[(kind == 1) & ~(1.0 + dot < 1e-9)] = 2
    out: list = [None] * len(pairs)
    for k, tmpl in enumerate((_DOT, _LINE, _ARC)):
        rows = np.flatnonzero(kind == k)
        if not len(rows):
            continue
        label, color = zip(*[styled[i] for i in rows.tolist()])
        start = (label, x1[rows].tolist(), y1[rows].tolist())
        if k == 0:
            fields = (*start, color)
        elif k == 1:
            fields = (*start, x2[rows].tolist(), y2[rows].tolist(),
                      color, repeat(cfg.chord_stroke_width))
        else:
            kk = 1.0 / (1.0 + dot[rows])
            ox = kk * (c1[rows] + c2[rows])
            oy = kk * (s1[rows] + s2[rows])
            # |o|^2 - 1 = (1 - p1.p2) / (1 + p1.p2) >= 0, but rounding takes it
            # below 0 for some endpoints a few 1e-9 turn apart; such an arc
            # gets radius 0, which SVG draws as the segment
            rr = ["%.12f" % x
                  for x in (np.sqrt(np.maximum(ox * ox + oy * oy - 1.0, 0.0)) * r).tolist()]
            sweep = (2 * (pairs[rows, 1] - pairs[rows, 0]) < n).tolist()
            fields = (*start, rr, rr, sweep, x2[rows].tolist(), y2[rows].tolist(),
                      color, repeat(cfg.chord_stroke_width))
        for i, t in zip(rows.tolist(), zip(*fields)):
            out[i] = tmpl % t
    return out
