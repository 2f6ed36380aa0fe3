"""Reference oracles for the integer-grid paths of trilam.

These are the straightforward `fractions.Fraction` formulations of the
legality oracle, of the preperiod-1 point enumeration and of the SVG
and JSON emission of chord families, and the per-chord dict dedup of
pullback levels.  The package computes all of them on the integer grid
(`trilam.grid`) or with sorted int64 keys; the differential tests
compare the two.  Nothing here is used by `src/`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

import numpy as np

from trilam.angles import Angle, in_open_arc, tripling
from trilam.chords import Chord, SIXTH, chord_antipode, crosses, length
from trilam.formats import chord_to_json
from trilam.grid import on_grid, scale_of
from trilam.legality import LegalityVerdict, LegalityWitness, StripSystem, strips_of
from trilam.pullback import _canonical_order, _level_children, _seed_system
from trilam.render import (
    RenderConfig,
    _TYPE_COLORS,
    _block_color,
    _fmt,
    _geodesic_path,
    _point,
)

# -- preperiod-1 points ------------------------------------------------------


def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def exact_period_numerators(k: int) -> np.ndarray:
    """Numerators a (mod 3^k - 1) of angles a/(3^k - 1) with exact period k."""
    modulus = 3**k - 1
    a = np.arange(modulus, dtype=np.int64)
    keep = np.ones(modulus, dtype=bool)
    for d in _divisors(k):
        if d == k:
            break
        # period divides d  <=>  (3^d - 1) * a == 0 mod (3^k - 1)
        keep &= (a * (3**d - 1)) % modulus != 0
    return a[keep]


def type_b_numerators(k: int) -> np.ndarray:
    """Numerators of type-B block-k points among a/(3^{2k} - 1)."""
    modulus = 3 ** (2 * k) - 1
    nums = exact_period_numerators(2 * k)
    # t^k(x) = x + 1/2: (3^k - 1) a == modulus/2 mod modulus
    sel = (nums * (3**k - 1) - modulus // 2) % modulus == 0
    return nums[sel]


def block_points(block: int, ptype: str) -> list[Angle]:
    if ptype == "B":
        modulus = 3 ** (2 * block) - 1
        return sorted(Fraction(int(a), modulus) for a in type_b_numerators(block))
    modulus = 3**block - 1
    nums = exact_period_numerators(block)
    if block % 2 == 0:
        half = block // 2
        is_b = (nums * (3**half - 1) - modulus // 2) % modulus == 0
        nums = nums[~is_b]
    return sorted(Fraction(int(a), modulus) for a in nums)


def preperiod1_points(block: int, ptype: str) -> list[Angle]:
    """Both non-cycle preimages of every periodic point of the class, by Fraction iteration."""
    period = 2 * block if ptype == "B" else block
    out: list[Angle] = []
    for y in block_points(block, ptype):
        pred = y
        for _ in range(period - 1):
            pred = tripling(pred)
        for j in range(3):
            x = (y / 3 + Fraction(j, 3)) % 1
            if x != pred:
                out.append(x)
    out.sort()
    return out


# -- crossing ----------------------------------------------------------------


def crosses_by_arcs(c1: Chord, c2: Chord) -> bool:
    """Crossing as exactly one endpoint of c2 strictly inside the arc from c1.a to c1.b."""
    if c1.degenerate or c2.degenerate:
        return False
    if c1.a in (c2.a, c2.b) or c1.b in (c2.a, c2.b):
        return False
    return in_open_arc(c2.a, c1.a, c1.b) != in_open_arc(c2.b, c1.a, c1.b)


# -- legality ----------------------------------------------------------------


def full_orbit(c: Chord) -> list[Chord]:
    """Images of c up to and including the first repeat of its ordered endpoint pair."""
    pair = (c.a, c.b)
    seen = set()
    out = []
    while pair not in seen:
        seen.add(pair)
        out.append(Chord(*pair))
        pair = (tripling(pair[0]), tripling(pair[1]))
    out.append(Chord(*pair))
    return out


def _in_closed_arc(x: Angle, s: Angle, e: Angle) -> bool:
    return x == s or x == e or in_open_arc(x, s, e)


def strip_violation(d: Chord, strips: StripSystem) -> Optional[Chord]:
    """The boundary object d violates, or None when d avoids the open strips."""
    bounds = strips.bounding_chords()
    for bound in bounds:
        if crosses(d, bound):
            return bound
    for s, e in strips.arcs:
        if in_open_arc(d.a, s, e) or in_open_arc(d.b, s, e):
            return Chord(s, e)
    if strips.arcs and d not in bounds:
        for half, marker in ((strips.arcs[:2], strips.M),
                             (strips.arcs[2:], chord_antipode(strips.M))):
            if all(any(_in_closed_arc(v, s, e) for s, e in half) for v in d.endpoints()):
                return marker
    return None


def is_legal_pair(c: Chord) -> LegalityVerdict:
    """Legality of {c, -c} by pairwise Fraction `crosses` and the Fraction strip test."""
    if c.degenerate:
        return LegalityVerdict("legal")
    if length(c) > SIXTH:
        raise ValueError(f"legality is decided for chords of length <= 1/6, got {length(c)}")
    orbit = full_orbit(c)
    tagged = [(i, "c", ch) for i, ch in enumerate(orbit)]
    tagged += [(i, "-c", chord_antipode(ch)) for i, ch in enumerate(orbit)]
    for k in range(len(tagged)):
        i, oi, ci = tagged[k]
        for j, oj, cj in tagged[k + 1:]:
            if crosses(ci, cj):
                return LegalityVerdict("illegal", LegalityWitness("crossing", i, oi, ci, j, oj, cj))
    strips = strips_of(c)
    for i, ch in enumerate(orbit[1:], start=1):
        violated = strip_violation(ch, strips)
        if violated is not None:
            return LegalityVerdict("illegal", LegalityWitness("strip", i, "c", ch, None, None, violated))
    return LegalityVerdict("legal")


# -- pullback levels -----------------------------------------------------------


def prelamination_levels(c: Chord, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonically ordered pairs and depths of the pullback family of c.

    Each level's children are deduplicated one chord at a time through a
    dict of the keys lo * n + hi seen so far.
    """
    seeds, barriers = _seed_system(c)
    n = scale_of(v for ch in seeds for v in ch.endpoints()) * 3**depth
    seen: dict[int, int] = {}
    ordered: list[tuple[int, int]] = []
    levels: list[int] = []

    def commit(pair: tuple[int, int], level: int) -> bool:
        key = pair[0] * n + pair[1]
        if key in seen:
            return False
        seen[key] = level
        ordered.append(pair)
        levels.append(level)
        return True

    for ch in seeds:
        commit((on_grid(ch.a, n), on_grid(ch.b, n)), 0)
    bars = [(on_grid(ch.a, n), on_grid(ch.b, n)) for ch in barriers]
    frontier = np.array(ordered, dtype=np.int64)
    for level in range(1, depth + 1):
        if len(frontier) == 0:
            break
        fresh = [(lo, hi) for lo, hi in _level_children(frontier, bars, n).tolist()
                 if commit((lo, hi), level)]
        frontier = np.array(fresh, dtype=np.int64).reshape(-1, 2)
    pairs = np.array(ordered, dtype=np.int64).reshape(-1, 2)
    order = _canonical_order(pairs, n)
    return pairs[order], np.array(levels, dtype=np.int64)[order]


# -- output --------------------------------------------------------------------


def prelamination_json(seed: Chord, depth: int, chords: list[Chord]) -> str:
    """The prelamination document, one `chord_to_json` dict per chord through `json.dumps`."""
    doc = {
        "seed": chord_to_json(seed),
        "depth": depth,
        "chords": [chord_to_json(c) for c in chords],
    }
    return json.dumps(doc, indent=0) + "\n"


def render_svg(chords: list[Chord], cfg: RenderConfig = RenderConfig(),
               classes: Optional[list[str]] = None,
               blocks: Optional[list[int]] = None) -> str:
    """The SVG of chords, ordered by `Chord.sort_key`, floats taken as `float(Fraction)`."""
    size = cfg.size_px
    cx = cy = size / 2.0
    r = size / 2.0 - cfg.margin_px
    items = list(zip(chords,
                     classes if classes is not None else [""] * len(chords),
                     blocks if blocks is not None else [0] * len(chords)))
    items.sort(key=lambda it: it[0].sort_key())
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="{cfg.background}"/>',
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="none" '
        f'stroke="{cfg.circle_stroke}" stroke-width="{cfg.circle_stroke_width}"/>',
    ]
    for ch, cls, block in items:
        a = float(ch.a)
        b = float(ch.b)
        if cfg.color_by == "block" and block:
            color = _block_color(block)
            label = f"block-{block}"
        else:
            color = _TYPE_COLORS.get(cls, _TYPE_COLORS[""])
            label = f"type-{cls}" if cls else "chord"
        if ch.degenerate:
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
