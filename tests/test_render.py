import math
import re
from fractions import Fraction

import numpy as np
import pytest

import reference
from trilam.builder import build
from trilam.chords import Chord
from trilam.render import RenderConfig, render_svg
from trilam.text import fixed12

from conftest import ch


def paths_of(svg):
    return re.findall(r"<path [^>]*d=\"([^\"]+)\"", svg)


def test_path_count_matches_chord_count():
    chords = [ch(1, 6, 1, 3), ch(2, 3, 5, 6), ch(5, 12, 7, 12), ch(11, 12, 1, 12)]
    svg = render_svg(chords)
    assert len(paths_of(svg)) == 4
    assert svg.count("<circle") == 1  # the unit circle outline


def test_empty_render_has_circle_only():
    svg = render_svg([])
    assert paths_of(svg) == []
    assert svg.count("<circle") == 1


def test_type_classes_attached():
    state = build(2)
    recs = state.sorted_leaves()
    svg = render_svg([r.chord for r in recs], classes=[r.ptype for r in recs],
                     blocks=[r.block_period for r in recs])
    assert svg.count('class="type-B"') == sum(r.ptype == "B" for r in recs)
    assert svg.count('class="type-D"') == sum(r.ptype == "D" for r in recs)


def test_block_coloring_distinct():
    state = build(2)
    recs = state.sorted_leaves()
    svg = render_svg([r.chord for r in recs], RenderConfig(color_by="block"),
                     classes=[r.ptype for r in recs], blocks=[r.block_period for r in recs])
    assert 'class="block-1"' in svg and 'class="block-2"' in svg


def test_render_is_deterministic():
    chords = [r.chord for r in build(3).sorted_leaves()]
    assert render_svg(chords) == render_svg(chords)


def test_straight_style_uses_line_segments():
    svg = render_svg([ch(1, 6, 1, 3)], RenderConfig(geodesic_style="straight"))
    (d,) = paths_of(svg)
    assert " L " in d and " A " not in d


def test_diameter_falls_back_to_segment():
    svg = render_svg([ch(0, 1, 1, 2)])
    (d,) = paths_of(svg)
    assert " L " in d


def test_degenerate_chord_renders_as_dot():
    from trilam.chords import Chord

    svg = render_svg([Chord(Fraction(1, 7), Fraction(1, 7))])
    assert paths_of(svg) == []
    assert svg.count("<circle") == 2


@pytest.mark.parametrize("kwargs", [{"size_px": 20}, {"size_px": -5},
                                    {"geodesic_style": "curved"}, {"color_by": "period"}])
def test_config_refuses_what_it_cannot_draw(kwargs):
    # a size of at most twice the margin gives a circle of radius <= 0; an
    # unknown style or coloring would be drawn as the default one
    RenderConfig(size_px=21)  # the smallest size with a circle
    with pytest.raises(ValueError):
        RenderConfig(**kwargs)


def test_geodesic_arc_stays_inside_disk():
    cfg = RenderConfig(size_px=1000)
    svg = render_svg([ch(1, 6, 1, 3)], cfg)
    (d,) = paths_of(svg)
    m = re.match(
        r"M (\S+) (\S+) A (\S+) \S+ 0 0 (\d) (\S+) (\S+)", d)
    assert m, d
    x1, y1, rr, sweep, x2, y2 = (float(m.group(i)) if i != 4 else int(m.group(4))
                                 for i in range(1, 7))
    # reconstruct the arc per SVG semantics: of the two candidate centers the
    # one whose (minor-arc) sweep sign matches the flag is drawn
    mx, my = (x1 + x2) / 2, (y1 + y2) / 2
    dx, dy = x2 - x1, y2 - y1
    half = math.hypot(dx, dy) / 2
    h = math.sqrt(max(rr * rr - half * half, 0.0))
    nx, ny = -dy / (2 * half), dx / (2 * half)
    chosen = None
    for cxs, cys in ((mx + h * nx, my + h * ny), (mx - h * nx, my - h * ny)):
        a1 = math.atan2(y1 - cys, x1 - cxs)
        a2 = math.atan2(y2 - cys, x2 - cxs)
        delta = math.remainder(a2 - a1, math.tau)
        if (delta > 0) == (sweep == 1):
            chosen = (cxs, cys, a1, delta)
    assert chosen is not None
    cxs, cys, a1, delta = chosen
    disk_c, disk_r = 500.0, 490.0  # the circle sits inside a 10 px margin
    for t in (0.25, 0.5, 0.75):
        ang = a1 + t * delta
        px = cxs + rr * math.cos(ang)
        py = cys + rr * math.sin(ang)
        assert math.hypot(px - disk_c, py - disk_c) < disk_r + 1e-6


def test_unreduced_endpoint_renders_as_reference():
    # 1 is the point 0: (3/4, 1) is the chord (0, 3/4), drawn before (3/4, 7/8)
    chords = [Chord(Fraction(3, 4), Fraction(1)), Chord(Fraction(3, 4), Fraction(7, 8))]
    assert render_svg(chords) == reference.render_svg(chords)


def test_chord_below_float_resolution_renders_with_radius_zero():
    # for this chord one grid step long the float |o|^2 - 1 rounds below 0:
    # the reference's math.sqrt fails, the renderer draws an arc of radius
    # 0, which SVG draws as the segment
    n = 6 * 3**16
    lo = 8122906
    with pytest.raises(ValueError, match="math domain error"):
        reference.render_svg([Chord(Fraction(lo, n), Fraction(lo + 1, n))])
    (d,) = paths_of(render_svg(np.array([[lo, lo + 1]]), modulus=n))
    assert " A 0.000000000000 0.000000000000 0 0 1 " in d


def _fixed12_lines(x):
    mat = fixed12(x)
    mat = np.concatenate([mat, np.full((len(x), 1), ord("\n"), np.uint8)], axis=1)
    return mat[mat != 0].tobytes().decode().splitlines()


def test_fixed12_matches_percent_format():
    # the exact vectorised '%.12f' against Python's: log-uniform doubles down
    # to subnormals, exact ties at the 13th decimal (multiples of 2^-13),
    # both neighbours of each midpoint (K + 0.5) / 10^12, and the values
    # at and past the edges of the fast range
    rng = np.random.default_rng(13)
    k = rng.integers(0, 4 * 10**15, 10**5)
    mid = (k + 0.5) / 10**12
    edge = 2**52 / 10**12
    x = np.concatenate([
        np.exp(rng.uniform(math.log(1e-320), math.log(4.5e3), 10**6)),
        np.arange(2**13 * 4) / 2**13 + 1234.0,
        np.nextafter(mid, 0.0), mid, np.nextafter(mid, np.inf),
        [0.0, -0.0, 5e-324, edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf),
         1e9, 1e300, np.inf, -np.inf, np.nan, -1.5],
    ])
    got, want = _fixed12_lines(x), ["%.12f" % v for v in x.tolist()]
    assert got == want, [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w][:10]


def _mixed_slice():
    # a dot, a diameter drawn as a segment, ordinary arcs and a near-diameter
    # arc whose radius (about 12,400 px at 800 px) leaves the fast range
    return [Chord(Fraction(1, 7), Fraction(1, 7)), ch(1, 4, 3, 4), ch(1, 6, 1, 3),
            Chord(Fraction(0), Fraction(51, 100)), ch(5, 12, 7, 12), ch(11, 12, 1, 12)]


@pytest.mark.parametrize("cfg", [
    RenderConfig(size_px=10000),  # coordinates on both sides of the fast range
    RenderConfig(color_by="block"),
    RenderConfig(color_by="block", geodesic_style="straight", size_px=4600),
])
def test_render_matches_reference_at_fallback_edges(cfg):
    # all in one slice of the renderer, styled by type or by block
    recs = build(4).sorted_leaves()
    chords = [r.chord for r in recs] + _mixed_slice()
    kw = {"classes": [r.ptype for r in recs] + ["B", "D", "", "x", "B", "D"],
          "blocks": [r.block_period for r in recs] + [0, 1, 2, 3, 4, 0]}
    assert render_svg(chords, cfg, **kw) == reference.render_svg(chords, cfg, **kw)


def test_near_diameter_radius_leaves_fast_range():
    svg = render_svg(_mixed_slice())
    radii = [float(m) for m in re.findall(r" A (\S+) ", svg)]
    assert max(radii) > 2**52 / 10**12
    assert svg == reference.render_svg(_mixed_slice())
