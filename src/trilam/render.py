"""Figure-quality SVG rendering of chord families.

Chords are drawn inside the unit circle either as straight segments or
as hyperbolic geodesics (circular arcs orthogonal to the unit circle;
diameters fall back to straight segments).  Coordinates are emitted at
a fixed 12-decimal precision and elements follow the canonical chord
order, so renders are byte-deterministic.  This is the only place
floating point appears; all data paths stay exact.

The renderer works on the integer grid (`trilam.grid`): `Chord`s are
put on their common scale N once, and a pullback family passes its int
pairs and modulus directly.  The canonical order is the short-arc key
on ints, and the angle x/N becomes the float `x / N`, which CPython
rounds correctly, so it is exactly `float(Fraction(x, N))`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .chords import Chord
from .grid import on_grid, scale_of

__all__ = ["RenderConfig", "render_svg"]

_PREC = 12


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


def _fmt(x: float) -> str:
    return f"{x:.{_PREC}f}"


def _point(angle_turns: float, cx: float, cy: float, r: float) -> tuple[float, float]:
    th = 2.0 * math.pi * angle_turns
    return (cx + r * math.cos(th), cy - r * math.sin(th))


def _geodesic_path(a: float, b: float, cx: float, cy: float, r: float) -> str:
    """SVG path for the hyperbolic geodesic between circle points at angles a, b (turns)."""
    x1, y1 = _point(a, cx, cy, r)
    x2, y2 = _point(b, cx, cy, r)
    # unit-disk coordinates (y up) for the orthogonal-circle construction
    p1 = (math.cos(2 * math.pi * a), math.sin(2 * math.pi * a))
    p2 = (math.cos(2 * math.pi * b), math.sin(2 * math.pi * b))
    dot = p1[0] * p2[0] + p1[1] * p2[1]
    if 1.0 + dot < 1e-9:  # antipodal endpoints: geodesic is the diameter
        return f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"
    k = 1.0 / (1.0 + dot)
    ox, oy = k * (p1[0] + p2[0]), k * (p1[1] + p2[1])
    radius = math.sqrt(ox * ox + oy * oy - 1.0)
    # the arc inside the disk is the minor arc; SVG sweep=1 is clockwise on
    # screen, which is the negative mathematical direction
    a1 = math.atan2(p1[1] - oy, p1[0] - ox)
    a2 = math.atan2(p2[1] - oy, p2[0] - ox)
    delta = math.remainder(a2 - a1, math.tau)
    # the screen y-flip reverses orientation: math-positive delta is sweep 0
    sweep = 0 if delta > 0 else 1
    rr = radius * r
    return f"M {_fmt(x1)} {_fmt(y1)} A {_fmt(rr)} {_fmt(rr)} 0 0 {sweep} {_fmt(x2)} {_fmt(y2)}"


def _short_arc(pair: Sequence[int], n: int) -> tuple[int, int]:
    """`Chord.sort_key` on the grid of modulus n: start, then end of the short arc."""
    lo, hi = pair
    return (lo, hi) if 2 * (hi - lo) <= n else (hi, lo)


def render_svg(chords: Union[Sequence[Chord], np.ndarray], cfg: RenderConfig = RenderConfig(),
               classes: Optional[Sequence[str]] = None,
               blocks: Optional[Sequence[int]] = None,
               modulus: Optional[int] = None) -> str:
    """Render chords to a standalone SVG document.

    `chords` are `Chord`s or, when `modulus` is given, an (n, 2) int
    array of pairs lo <= hi on the grid of that modulus, such as
    `Prelamination.pairs`.  `classes` (e.g. the leaf types) and `blocks`
    attach style classes and colors per chord; both default to a single
    neutral style.  One path element is emitted per chord, in canonical
    chord order.
    """
    size = cfg.size_px
    cx = cy = size / 2.0
    r = size / 2.0 - cfg.margin_px

    if modulus is None:
        n = scale_of(v for ch in chords for v in ch.endpoints())
        pairs = [(on_grid(ch.a, n), on_grid(ch.b, n)) for ch in chords]
    else:
        n = int(modulus)
        pairs = chords.tolist()
    items = list(zip(pairs,
                     classes if classes is not None else [""] * len(pairs),
                     blocks if blocks is not None else [0] * len(pairs)))
    items.sort(key=lambda it: _short_arc(it[0], n))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="{cfg.background}"/>',
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="none" '
        f'stroke="{cfg.circle_stroke}" stroke-width="{cfg.circle_stroke_width}"/>',
    ]
    for (lo, hi), cls, block in items:
        a = lo / n
        b = hi / n
        if cfg.color_by == "block" and block:
            color = _block_color(block)
            label = f"block-{block}"
        else:
            color = _TYPE_COLORS.get(cls, _TYPE_COLORS[""])
            label = f"type-{cls}" if cls else "chord"
        if lo == hi:
            x, y = _point(a, cx, cy, r)
            lines.append(f'<circle class="{label}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="1.5" '
                         f'fill="{color}"/>')
            continue
        if cfg.geodesic_style == "straight":
            x1, y1 = _point(a, cx, cy, r)
            x2, y2 = _point(b, cx, cy, r)
            d = f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"
        else:
            d = _geodesic_path(a, b, cx, cy, r)
        lines.append(f'<path class="{label}" d="{d}" fill="none" stroke="{color}" '
                     f'stroke-width="{cfg.chord_stroke_width}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
