"""Figure-quality SVG rendering of chord families.

Chords are drawn inside the unit circle either as straight segments or
as hyperbolic geodesics (circular arcs orthogonal to the unit circle;
diameters fall back to straight segments).  Coordinates are emitted at
a fixed 12-decimal precision and elements follow the canonical chord
order, so renders are byte-deterministic.  `RenderConfig` sets the
size, style and coloring; the rest of the styling is fixed.  This is
the only place floating point appears; all data paths stay exact.

The renderer works on the integer grid (`trilam.grid`) in one pass:
`Chord`s are put on their common scale N once (`grid.rows_of`); the
leaves, a pullback family or a `render --in` document pass their int
pairs and modulus.  The ints are int64 while 2N fits it
(`grid.int_dtype`) and Python ints beyond, so they are exact at any
scale; they give the canonical order (`grid.short_arc_order`) and each
arc's sweep flag.  The floats are exactly these: the correctly rounded
turns `x / N`, equal to `float(Fraction(x, N))`, by one array division
while x and N are int64 below 2^53 (both convert exactly) and of Python
ints beyond; `math.cos` and `math.sin` of `2.0 * math.pi * (x / N)`
once per distinct angle of each slice of 1,024 chords; and float64
array arithmetic for points, centers and radii in the operation order
of the scalar formula (numpy's + - * / and sqrt round as CPython's do
and fuse no multiply-adds).  `render_svg` joins the document's byte
chunks, one per slice, each written by the text engine (`trilam.text`)
with coordinates as `'%.12f' % v`.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .chords import Chord
from .grid import int_dtype, rows_of, short_arc_order
from .text import fixed12, joined, rows_bytes

__all__ = ["RenderConfig", "render_svg"]

# chords drawn at a time: a large family is never held as per-chord
# Python floats all at once, and chords sharing an endpoint mostly sit
# in one slice, so its trig is still taken once
_SLICE = 1024
_MARGIN_PX = 10  # between the circle and the edge of the picture


@dataclass(frozen=True)
class RenderConfig:
    size_px: int = 800
    geodesic_style: str = "arc"  # "arc" (hyperbolic geodesics) or "straight"
    color_by: str = "type"       # "type" or "block"

    def __post_init__(self):
        if self.size_px <= 2 * _MARGIN_PX:
            raise ValueError(f"size {self.size_px} px leaves no circle inside its margins")
        if self.geodesic_style not in ("arc", "straight") or self.color_by not in ("type", "block"):
            raise ValueError("geodesic_style must be 'arc' or 'straight' and color_by 'type' or "
                             f"'block', got {self.geodesic_style!r} and {self.color_by!r}")


_TYPE_COLORS = {"B": "#c02030", "D": "#1040c0", "": "#202020"}


def _block_color(block: int) -> str:
    # deterministic palette: rotate hue with the golden ratio
    hue = (0.61803398875 * (block - 1)) % 1.0
    r, g, b = (int(round(255 * x)) for x in colorsys.hsv_to_rgb(hue, 0.75, 0.78))
    return f"#{r:02x}{g:02x}{b:02x}"


# one %-template per element kind, the one definition of its text
_DOT = '<circle class="%s" cx="%.12f" cy="%.12f" r="1.5" fill="%s"/>'
_TAIL = '" fill="none" stroke="%s" stroke-width="1.0"/>'
_LINE = '<path class="%s" d="M %.12f %.12f L %.12f %.12f' + _TAIL
_ARC = '<path class="%s" d="M %.12f %.12f A %.12f %.12f 0 0 %d %.12f %.12f' + _TAIL


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
    `BuildState.pairs`, `Prelamination.pairs` or `formats.chords_from_json`'s;
    once 2 * modulus leaves int64 they are taken as Python ints.  `classes`
    (e.g. the leaf types) and `blocks` attach style classes and colors
    per chord; both default to a single neutral style.  One element is
    emitted per chord, in canonical chord order.
    """
    return joined(_svg_chunks(chords, cfg, classes, blocks, modulus))


def _svg_chunks(chords: Union[Sequence[Chord], np.ndarray], cfg: RenderConfig,
                classes: Optional[Sequence[str]], blocks: Optional[Sequence[int]],
                modulus: Optional[int]) -> Iterator[bytes]:
    """`render_svg`'s document in UTF-8, as it is made: a chunk per slice of chords."""
    size = cfg.size_px
    cx = cy = size / 2.0
    r = size / 2.0 - _MARGIN_PX

    if modulus is None:
        chords, n = rows_of((v.as_integer_ratio() for ch in chords for v in ch.endpoints()),
                            reach=2)
    else:
        n = int(modulus)
    pairs = np.asarray(chords, dtype=int_dtype(2 * n)).reshape(-1, 2)
    m = len(pairs)
    order = short_arc_order(pairs, n)
    pairs = pairs.take(order, 0)
    # one style per distinct (class, block), gathered by id: no tuple per chord
    (cu, ci), (bu, bi) = (np.unique(np.asarray(v if v is not None else [d]), return_inverse=True)
                          for v, d in ((classes, ""), (blocks, 0)))
    keys, sid = np.unique(np.broadcast_to(ci * len(bu) + bi, m), return_inverse=True)
    keys = zip(cu[keys // len(bu)].tolist(), bu[keys % len(bu)].tolist())
    styles = np.array([[t.encode() for t in _style(*key, cfg)] for key in keys], "S").reshape(-1, 2)
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
           f'viewBox="0 0 {size} {size}">\n<rect width="{size}" height="{size}" '
           'fill="white"/>\n<circle cx="%.12f" cy="%.12f" r="%.12f" fill="none" '
           'stroke="#888888" stroke-width="1.5"/>\n' % (cx, cy, r)).encode()
    for s in range(0, m, _SLICE):
        yield _elements(pairs[s:s + _SLICE], styles[sid[order[s:s + _SLICE]]], n, cx, cy, r, cfg)
    yield b"</svg>\n"


def _elements(pairs: np.ndarray, styles: np.ndarray, n: int,
              cx: float, cy: float, r: float, cfg: RenderConfig) -> bytes:
    """The SVG elements of canonically ordered chords in UTF-8, in order, a line each.

    `styles` holds each chord's (label, color) bytes.  A degenerate chord
    is a dot; a straight chord, or a diameter (1 + p1.p2 < 1e-9 for the
    unit-disk endpoints p1, p2), a segment.  Any other geodesic is an arc
    of the circle orthogonal to the unit circle through p1 and p2: center
    o = k (p1 + p2) with k = 1 / (1 + p1.p2), radius sqrt(|o|^2 - 1).  It
    runs from lo to hi inside the disk, clockwise on screen (SVG sweep 1)
    iff the arc from lo to hi is the short one, 2 (hi - lo) < n.
    """
    ends, inv = np.unique(pairs.ravel(), return_inverse=True)
    turns = (ends / n if ends.dtype == np.int64 and n < 2**53
             else np.array([x / n for x in ends.tolist()], np.float64))
    th = (2.0 * math.pi * turns).tolist()
    cos = np.fromiter(map(math.cos, th), np.float64, len(th))
    sin = np.fromiter(map(math.sin, th), np.float64, len(th))
    i1, i2 = inv[0::2], inv[1::2]
    c1, s1, c2, s2 = cos[i1], sin[i1], cos[i2], sin[i2]
    x1, y1, x2, y2 = cx + r * c1, cy - r * s1, cx + r * c2, cy - r * s2
    kind = np.where(i1 == i2, 0, 1)
    if cfg.geodesic_style == "arc":
        dot = c1 * c2 + s1 * s2
        kind[(kind == 1) & ~(1.0 + dot < 1e-9)] = 2
    parts = []
    for k, tmpl in enumerate((_DOT, _LINE, _ARC)):
        rows = np.flatnonzero(kind == k)
        if not len(rows):
            continue
        floats = [x1[rows], y1[rows]]
        if k == 1:
            floats += [x2[rows], y2[rows]]
        elif k == 2:
            kk = 1.0 / (1.0 + dot[rows])
            ox = kk * (c1[rows] + c2[rows])
            oy = kk * (s1[rows] + s2[rows])
            # |o|^2 - 1 = (1 - p1.p2) / (1 + p1.p2) >= 0, but rounding takes it
            # below 0 for some endpoints a few 1e-9 turn apart; such an arc
            # gets radius 0, which SVG draws as the segment
            floats += [np.sqrt(np.maximum(ox * ox + oy * oy - 1.0, 0.0)) * r, x2[rows], y2[rows]]
        label, color = styles[rows].view(np.uint8).reshape(len(rows), 2, -1).transpose(1, 0, 2)
        xy = list(fixed12(np.stack(floats, 1)).transpose(1, 0, 2))
        if k == 2:  # the radius, written once, is both rx and ry; then the sweep flag
            sweep = 48 + (2 * (pairs[rows, 1] - pairs[rows, 0]) < n).astype(np.uint8)[:, None]
            xy[3:3] = [xy[2], sweep]
        parts.append((rows if len(rows) < len(pairs) else slice(None), tmpl + "\n",
                      [label, *xy, color]))
    return rows_bytes(len(pairs), parts)
