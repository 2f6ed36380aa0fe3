"""Grid emission of chord families against the Fraction reference.

`prelamination_to_json` and `render_svg` write a pullback family
straight from its int pairs and modulus; `reference` holds the
`Fraction` formulations they replaced (a `Fraction` per endpoint, sorted
by `Chord.sort_key`, floats from `float(Fraction)`, text by
`json.dumps`).  Every document must be byte-identical.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

import reference
from trilam.builder import build
from trilam.chords import Chord
from trilam.cli import main
from trilam.formats import grid_angle_strs, prelamination_to_json
from trilam.pullback import build_prelamination, hyperbolic_prune
from trilam.render import RenderConfig, render_svg

from conftest import PULLBACK_SEEDS, ch

STYLES = [RenderConfig(), RenderConfig(geodesic_style="straight", size_px=300, margin_px=4)]


@pytest.mark.parametrize("seed", PULLBACK_SEEDS, ids=str)
def test_prelamination_output_matches_fraction_reference(seed):
    for depth in (0, 1, 3, 6):
        pre = build_prelamination(seed, depth)
        chords = pre.chords()
        want = reference.prelamination_json(seed, depth, chords)
        assert pre.to_json() == want
        for cfg in STYLES:
            want = reference.render_svg(chords, cfg)
            assert render_svg(pre.pairs, cfg, modulus=pre.modulus) == want
            assert render_svg(chords, cfg) == want


def test_cli_pullback_output_matches_fraction_reference(capsys, tmp_path):
    c = ch(11, 12, 1, 12)
    chords = hyperbolic_prune(c, 4).chords()
    base = ["pullback", "11/12", "1/12", "--depth", "4", "--prune"]
    doc = tmp_path / "family.json"
    assert main(base + ["--out", str(doc)]) == 0
    assert doc.read_text() == reference.prelamination_json(c, 4, chords)
    assert main(base + ["--format", "svg", "--style", "straight"]) == 0
    want = reference.render_svg(chords, RenderConfig(geodesic_style="straight"))
    assert capsys.readouterr().out == want
    # render --in draws the same chords from the document
    assert main(["render", "--in", str(doc), "--style", "straight"]) == 0
    assert capsys.readouterr().out == want


def test_empty_prelamination_document_matches_json_dumps():
    seed = ch(1, 6, 1, 3)
    text = prelamination_to_json(seed, 2, np.empty((0, 2), dtype=np.int64), 36)
    assert text == reference.prelamination_json(seed, 2, [])
    assert json.loads(text) == {"seed": {"a": "1/6", "b": "1/3"}, "depth": 2, "chords": []}


def test_grid_angle_strings_are_reduced():
    n = 2 * 3**4 * 5
    col = np.arange(n, dtype=np.int64)
    want = [f"{f.numerator}/{f.denominator}" for f in (Fraction(x, n) for x in range(n))]
    assert grid_angle_strs(col, n) == want
    assert want[0] == "0/1"


@pytest.mark.parametrize("cfg", STYLES + [RenderConfig(color_by="block"),
                                          RenderConfig(geodesic_style="straight",
                                                       color_by="block")])
def test_render_of_chords_matches_fraction_reference(cfg):
    # build(3) leaves with their types and blocks, plus a degenerate chord,
    # diameters, a critical chord, a wrapping chord and a repeated chord
    recs = build(3).sorted_leaves()
    extra = [Chord(Fraction(1, 7), Fraction(1, 7)), ch(0, 1, 1, 2), ch(1, 4, 3, 4),
             ch(1, 6, 1, 2), ch(11, 12, 1, 12), ch(1, 4, 3, 4)]
    chords = [r.chord for r in recs] + extra
    classes = [r.ptype for r in recs] + ["", "B", "D", "", "B", "D"]
    blocks = [r.block_period for r in recs] + [0, 1, 2, 0, 5, 3]
    want = reference.render_svg(chords, cfg, classes=classes, blocks=blocks)
    assert render_svg(chords, cfg, classes=classes, blocks=blocks) == want
    assert render_svg(chords[::-1], cfg, classes=classes[::-1], blocks=blocks[::-1]) == \
        reference.render_svg(chords[::-1], cfg, classes=classes[::-1], blocks=blocks[::-1])
