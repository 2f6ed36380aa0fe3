"""Reference oracles for the integer-grid paths of trilam.

These are the straightforward `fractions.Fraction` formulations of the
legality oracle and its short strips, of the preperiod-1 point
enumeration, of the pullback seed system and of the SVG and JSON
emission of chord families, and the per-chord dict dedup of pullback
levels.  The SVG oracle draws one chord at a time with scalar `math`
(four trig calls per chord and an `atan2` sweep flag).  The package computes all of them on the integer grid
(`trilam.grid`) or with sorted int64 keys; the differential tests
compare the two.  Nothing here is used by `src/`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from trilam.angles import Angle, THIRD, antipode, in_open_arc, tripling
from trilam.chords import Chord, SIXTH, chord_antipode, crosses, length, majors_of
from trilam.formats import chord_to_json, record_to_json
from trilam.grid import on_grid, scale_of, short_arc_order
from trilam.legality import LegalityVerdict, LegalityWitness
from trilam.orbits import chord_orbit
from trilam.pullback import IllegalSeedError, _level_children
from trilam.render import RenderConfig, _TYPE_COLORS, _block_color

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


@dataclass(frozen=True, slots=True)
class StripSystem:
    """Short strips of a chord: bounded by M, M' and their antipodes."""

    M: Chord
    Mp: Chord
    width: Fraction
    arcs: tuple[tuple[Angle, Angle], ...]  # four open boundary arcs (two per strip)

    def bounding_chords(self) -> tuple[Chord, ...]:
        out = []
        for ch in (self.M, self.Mp, chord_antipode(self.M), chord_antipode(self.Mp)):
            if ch not in out:
                out.append(ch)
        return tuple(out)


def _boundary_arcs(first: tuple, second: tuple) -> list[tuple]:
    verts = sorted(set(first) | set(second))
    owner = [v in first for v in verts]
    n = len(verts)
    return [(verts[i], verts[(i + 1) % n]) for i in range(n) if owner[i] != owner[(i + 1) % n]]


def strip_system(first: Chord, second: Chord) -> StripSystem:
    """The strip pair bounded by two disjoint chords with a common image.

    The strip between them meets the circle in the two arcs joining an
    endpoint of one to an endpoint of the other; the antipodal strip
    contributes the antipodal arcs.
    """
    width = abs(THIRD - length(first))
    if first == second:
        return StripSystem(M=first, Mp=second, width=width, arcs=())
    arcs = _boundary_arcs(first.endpoints(), second.endpoints())
    full = tuple(arcs) + tuple((antipode(a), antipode(b)) for a, b in arcs)
    return StripSystem(M=first, Mp=second, width=width, arcs=full)


def strips_of(c: Chord) -> StripSystem:
    """The short strips of a chord of length <= 1/6 (or a degenerate chord).

    Realized as the strip between the major pair M, M' plus its
    antipodal copy; the two boundary arcs per strip have length
    |1/3 - |M|| = |c|.  A degenerate c yields the critical chord twice
    with width 0 and no arcs.
    """
    big, small = majors_of(c)  # rejects length > 1/6
    return strip_system(big, small)


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


# -- pullback seeds and levels -------------------------------------------------


def quad(c: Chord) -> list[Angle]:
    """Vertices of the convex hull of M_c and M'_c, in circular order from the smallest."""
    big, small = majors_of(c)
    return sorted(set(big.endpoints()) | set(small.endpoints()))


def quad_edges(c: Chord) -> list[Chord]:
    """The four edges of the quadrilateral of c, in circular order of its vertices."""
    verts = quad(c)
    return [Chord(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def short_quad_edges(c: Chord) -> list[Chord]:
    """The quadrilateral edges of c other than the major pair, plus antipodes."""
    big, small = majors_of(c)
    edges = [e for e in quad_edges(c) if e not in (big, small)]
    out = list(edges)
    for e in edges:
        anti = chord_antipode(e)
        if anti not in out:
            out.append(anti)
    return out


def seed_system(c: Chord) -> tuple[list[Chord], list[Chord]]:
    """Seed chords and pullback barriers of the pullback family of c, as `Chord`s."""
    if c.degenerate:
        crit, _ = majors_of(c)
        barriers = [crit, chord_antipode(crit)]
        return list(barriers), list(barriers)
    verdict = is_legal_pair(c)
    if not verdict.is_legal:
        raise IllegalSeedError(c, verdict)
    barriers: list[Chord] = []
    for e in quad_edges(c) + [chord_antipode(e) for e in quad_edges(c)]:
        if e not in barriers:
            barriers.append(e)
    seeds = list(barriers)
    for ch in chord_orbit(c).chords:
        for member in (ch, chord_antipode(ch)):
            if not member.degenerate and member not in seeds:
                seeds.append(member)
    return seeds, barriers


def prelamination_levels(c: Chord, depth: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Canonically ordered pairs and depths of the pullback family of c, and its modulus.

    The modulus is the lcm of the seed denominators times 3^depth.  Each
    level's children are deduplicated one chord at a time through a dict
    of the keys lo * n + hi seen so far.
    """
    seeds, barriers = seed_system(c)
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
    order = short_arc_order(pairs, n)
    return pairs[order], np.array(levels, dtype=np.int64)[order], n


# -- output --------------------------------------------------------------------


def records_json(records: list) -> str:
    """The record array, one `record_to_json` dict per record through `json.dumps`."""
    return json.dumps([record_to_json(r) for r in records], indent=0) + "\n"


def prelamination_json(seed: Chord, depth: int, chords: list[Chord]) -> str:
    """The prelamination document, one `chord_to_json` dict per chord through `json.dumps`."""
    doc = {
        "seed": chord_to_json(seed),
        "depth": depth,
        "chords": [chord_to_json(c) for c in chords],
    }
    return json.dumps(doc, indent=0) + "\n"


_PREC = 12


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
