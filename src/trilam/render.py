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
pairs and modulus, int64 while 2N fits it (`grid.int_dtype`) and Python
ints beyond, exact at any scale.  They give the canonical order
(`grid.short_arc_order`) and each arc's sweep flag.  The floats are
exactly these: the turns `x / N`, correctly rounded (one array division
while x and N are int64 below 2^53, of Python ints beyond); `math.cos`
and `math.sin` of `2.0 * math.pi * (x / N)` for each endpoint, both from
one `cmath.rect(1.0, t)`, which CPython computes as 1.0 * cos(t) and
1.0 * sin(t) with the libm `cos` and `sin` that `math` calls; and
float64 array arithmetic in the operation order of the scalar formula
(numpy's + - * / and sqrt round as CPython's do and fuse no
multiply-adds).  `render_svg` joins the document's byte chunks, one per
slice of 1,024 chords, written by the text engine (`trilam.text`).
"""

from __future__ import annotations

import cmath
import colorsys
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .chords import Chord
from .grid import int_dtype, rows_of, short_arc_order
from .text import fixed12, joined, pieces, rows_bytes

__all__ = ["RenderConfig", "render_svg"]

# chords drawn at a time: a large family is never held as per-chord Python floats all at once
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
_PIECES = [pieces(t + "\n") for t in (_DOT, _LINE, _ARC)]


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

    `styles` holds each chord's (label, color) bytes.  The trig is taken
    per endpoint (`_cos_sin` of the lo column, then the hi column), bit
    for bit that of `math` (module docstring): leaf and pullback families
    seldom or never share endpoints, so none are deduplicated.  A
    degenerate chord is a dot; a straight chord, or a diameter
    (1 + p1.p2 < 1e-9 for the unit-disk endpoints p1, p2), a segment.  Any
    other geodesic is an arc of the circle orthogonal to the unit circle
    through p1 and p2: center o = k (p1 + p2) with k = 1 / (1 + p1.p2),
    radius sqrt(|o|^2 - 1).  It runs from lo to hi inside the disk,
    clockwise on screen (SVG sweep 1) iff the arc from lo to hi is the
    short one, 2 (hi - lo) < n.
    """
    (lo, hi), m = pairs.T, len(pairs)
    cos, sin = _cos_sin(pairs.T.ravel(), n)
    (c1, c2), (s1, s2) = cos.reshape(2, m), sin.reshape(2, m)
    (x1, x2), (y1, y2) = (cx + r * cos).reshape(2, m), (cy - r * sin).reshape(2, m)
    dot1 = 1.0 + (c1 * c2 + s1 * s2)
    kind = np.where(lo == hi, 0, 1 + ((dot1 >= 1e-9) & (cfg.geodesic_style == "arc")))
    parts = []
    for k, count in enumerate(np.bincount(kind, minlength=3).tolist()):
        if not count:
            continue
        rows = np.flatnonzero(kind == k) if count < m else slice(None)  # one kind: no gathers
        floats = [v[rows] for v in ((x1, y1) if k == 0 else (x1, y1, x2, y2))]
        if k == 2:
            kk = 1.0 / dot1[rows]
            ox, oy = (kk * (a[rows] + b[rows]) for a, b in ((c1, c2), (s1, s2)))
            # |o|^2 - 1 = (1 - p1.p2) / (1 + p1.p2) >= 0, but rounding takes it
            # below 0 for some endpoints a few 1e-9 turn apart; such an arc
            # gets radius 0, which SVG draws as the segment
            floats.insert(2, np.sqrt(np.maximum(ox * ox + oy * oy - 1.0, 0.0)) * r)
        label, color = styles[rows].view(np.uint8).reshape(count, 2, -1).transpose(1, 0, 2)
        xy = list(fixed12(np.stack(floats)))
        if k == 2:  # the radius, written once, is both rx and ry; then the sweep flag
            sweep = 48 + (2 * (hi[rows] - lo[rows]) < n).astype(np.uint8)[:, None]
            xy[3:3] = [xy[2], sweep]
        parts.append((rows, _PIECES[k], [label, *xy, color]))
    return rows_bytes(m, parts)


def _cos_sin(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`math.cos` and `math.sin` of 2.0 * math.pi * (x / n) for each int x of x, bit for bit."""
    turns = (x / n if x.dtype == np.int64 and n < 2**53
             else np.array([v / n for v in x.tolist()], np.float64))
    th = (2.0 * math.pi * turns).tolist()
    z = np.fromiter(map(cmath.rect, [1.0] * len(th), th), complex, len(th))
    return z.real, z.imag
