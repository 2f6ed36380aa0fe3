"""Grid emission of chord families against the Fraction reference.

`prelamination_to_json`, `render_svg` and the record writers
(`rows_to_json`, `rows_to_csv`) write a family straight from its int
pairs and modulus, and assemble their text directly; `reference` holds
the `Fraction` formulations they replaced (a `Fraction` per endpoint,
sorted by `Chord.arc`, floats from `float(Fraction)`, scalar `math` per
chord with an `atan2` sweep flag, text by `json.dumps` and
`csv.DictWriter`).  Every document must be byte-identical.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

import reference
from trilam.builder import build
from trilam.chords import Chord
from trilam.cli import main
from trilam.formats import (
    prelamination_to_json,
    records_to_csv,
    records_to_json,
    rows_to_csv,
    rows_to_json,
)
from trilam.grid import int_dtype, on_grid, scale_of
from trilam.pullback import build_prelamination, hyperbolic_prune
from trilam.render import RenderConfig, render_svg
from trilam.text import digits

from conftest import PULLBACK_SEEDS, ch

STYLES = [RenderConfig(), RenderConfig(geodesic_style="straight", size_px=300)]


@pytest.mark.parametrize("seed", PULLBACK_SEEDS, ids=str)
def test_prelamination_output_matches_fraction_reference(seed):
    for depth in (0, 1, 3, 6):
        pre = build_prelamination(seed, depth)
        chords = reference.prelamination_chords(pre)
        want = reference.prelamination_json(seed, depth, chords)
        assert prelamination_to_json(seed, depth, pre.pairs, pre.modulus) == want
        for cfg in STYLES:
            want = reference.render_svg(chords, cfg)
            assert render_svg(pre.pairs, cfg, modulus=pre.modulus) == want
            assert render_svg(chords, cfg) == want


def test_cli_pullback_output_matches_fraction_reference(capsys, tmp_path):
    c = ch(11, 12, 1, 12)
    chords = reference.prelamination_chords(hyperbolic_prune(c, 4))
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


@pytest.mark.parametrize("scale", [1, 2**64], ids=["own-modulus", "past-int64"])
def test_object_rows_write_the_bytes_of_int64_rows(scale):
    # the writers gather rows into canonical order by `take`; Python-int rows, on the
    # family's own modulus or scaled past int64, give the bytes of the int64 rows
    seed = ch(5, 24, 7, 24)
    pre = hyperbolic_prune(seed, 4)
    n = pre.modulus
    rows = pre.pairs.astype(object) * scale
    assert prelamination_to_json(seed, 4, rows, n * scale) == \
        prelamination_to_json(seed, 4, pre.pairs, n)
    for cfg in STYLES:
        assert render_svg(rows, cfg, modulus=n * scale) == render_svg(pre.pairs, cfg, modulus=n)
    cols = (["B", "D"] * len(rows))[:len(rows)], list(range(1, len(rows) + 1))
    for write in (rows_to_json, rows_to_csv):
        assert write(rows, n * scale, *cols) == write(pre.pairs, n, *cols)
    # the empty family still renders and writes
    empty = np.empty((0, 2), dtype=object)
    assert render_svg(empty, modulus=n * scale) == render_svg(np.empty((0, 2), np.int64),
                                                             modulus=n)
    assert json.loads(prelamination_to_json(seed, 4, empty, n * scale))["chords"] == []


def test_digits_match_str():
    # every power of ten and its neighbours up to 2^63 - 1, and random ints of every length;
    # ints past int64 take one `%` each
    rng = np.random.default_rng(17)
    edges = sorted({max(0, 10**k + d) for k in range(19) for d in (-1, 0, 1)} | {2**63 - 1})
    lengths = 10 ** rng.uniform(0, np.log10(2**63 - 1), 10**4)
    for v in (np.array(edges), lengths.astype(np.int64), rng.integers(0, 2**63 - 1, 10**4),
              np.array([0, 7, 2**63, 10**30 + 5], dtype=object), np.array([], np.int64)):
        text = digits(v)
        assert [row[row != 0].tobytes().decode() for row in text] == [str(x) for x in v.tolist()]
    assert digits(np.arange(12).reshape(3, 2, 2)).shape == (3, 2, 2, 4)


def test_records_document_matches_json_dumps():
    recs = build(3).sorted_leaves()
    for part in (recs, recs[:1], []):
        assert records_to_json(part) == reference.records_json(part)
        assert records_to_csv(part) == reference.records_csv(part)


@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
def test_row_writers_match_record_references(dtype):
    # comajors writes the state's rows in `order`, masked by type; the text is
    # that of the records sorted in canonical order, on either dtype
    state = build(4)
    pairs = state.pairs.astype(dtype)
    recs = sorted(state.leaves, key=reference.record_order)
    for ptype in ("B", "D", None):
        order = state.order()
        if ptype is not None:
            order = order[state.ptypes[order] == ptype]
        part = [r for r in recs if ptype in (None, r.ptype)]
        cols = (pairs[order], state.scale, state.ptypes[order].tolist(),
                state.blocks[order].tolist())
        assert rows_to_json(*cols) == reference.records_json(part)
        assert rows_to_csv(*cols) == reference.records_csv(part)


def test_written_angles_are_reduced():
    # every angle of the grid as endpoint a and b, on int64 rows and on
    # Python-int rows of the same angles on a grid 2**64 times finer
    n = 2 * 3**4 * 5
    want = [f"{f.numerator}/{f.denominator}" for f in (Fraction(x, n) for x in range(n))]
    assert want[0] == "0/1"
    rows = np.stack([np.arange(n), np.arange(n)[::-1]], axis=1)
    for pairs, m in [(rows, n), (rows.astype(object) * 2**64, n * 2**64)]:
        cols = (pairs, m, ["B"] * n, [1] * n)
        lines = rows_to_csv(*cols).splitlines()
        assert lines[1:] == [f"{a},{b},B,1" for a, b in zip(want, want[::-1])]
        doc = json.loads(rows_to_json(*cols))
        assert [(r["a"], r["b"]) for r in doc] == list(zip(want, want[::-1]))


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


@pytest.mark.parametrize("cfg", STYLES, ids=["arc", "straight"])
def test_render_beyond_int64_scale_matches_fraction_reference(cfg):
    # denominators whose lcm exceeds 2^64: the grid ints are Python ints
    rng = random.Random(3)
    dens = [2**61 - 1, 3**40, 2 * 5**27, 2 * 7**22]
    ends = [Fraction(rng.randrange(q), q) for q in dens for _ in range(40)]
    chords = [Chord(a, b) for a, b in zip(ends, ends[1:] + ends[:1])]
    chords += [Chord(a, (a + Fraction(1, 2)) % 1) for a in ends[::9]]  # diameters
    chords += [Chord(ends[5], ends[5]), chords[7]]  # a dot and a repeat
    n = scale_of(v for c in chords for v in c.endpoints())
    assert n > 2**64
    want = reference.render_svg(chords, cfg)
    assert render_svg(chords, cfg) == want
    pairs = np.array([[on_grid(c.a, n), on_grid(c.b, n)] for c in chords], dtype=object)
    assert render_svg(pairs, cfg, modulus=n) == want


@pytest.mark.parametrize("cfg", STYLES, ids=["arc", "straight"])
def test_render_int64_grid_past_2_53_matches_fraction_reference(cfg):
    # 2n still fits int64, so the grid ints are int64; the turns x / n must
    # come from Python ints, since numpy would round such an x to a double first
    n = 6 * 3**33
    assert 2**53 < n and int_dtype(2 * n) is np.int64
    rng = random.Random(8)
    pairs = np.sort(np.array([[rng.randrange(n), rng.randrange(n)] for _ in range(300)]), axis=1)
    chords = [Chord(Fraction(a, n), Fraction(b, n)) for a, b in pairs.tolist()]
    want = reference.render_svg(chords, cfg)
    assert render_svg(chords, cfg) == want
    assert render_svg(pairs, cfg, modulus=n) == want


def test_render_near_diameters_matches_fraction_reference():
    # chords within 3,000 grid steps of a diameter on either side, and
    # diameters: the arcs' sweep flag comes from the ints, the reference's
    # from atan2; the closest ones take the diameter's segment
    n = 6 * 3**16
    rng = np.random.default_rng(11)
    lo = rng.integers(3000, n // 2 - 3000, 2000)
    hi = lo + n // 2 + rng.integers(-3000, 3001, 2000)
    pairs = np.stack([lo, hi], axis=1)
    chords = [Chord(Fraction(int(a), n), Fraction(int(b), n)) for a, b in pairs.tolist()]
    want = reference.render_svg(chords)
    assert " A " in want and " L " in want
    assert render_svg(pairs, modulus=n) == want
    assert render_svg(chords) == want


@pytest.mark.parametrize("color_by", ["type", "block"])
def test_cli_render_of_records_matches_fraction_reference(tmp_path, capsys, color_by):
    recs = build(3).sorted_leaves()
    src = tmp_path / "leaves.json"
    src.write_text(records_to_json(recs))
    assert main(["render", "--in", str(src), "--color-by", color_by]) == 0
    want = reference.render_svg([r.chord for r in recs], RenderConfig(color_by=color_by),
                                classes=[r.ptype for r in recs],
                                blocks=[r.block_period for r in recs])
    assert capsys.readouterr().out == want


def test_cli_render_of_unreduced_chord_list_matches_fraction_reference(tmp_path, capsys):
    doc = [{"a": "2/4", "b": "3/12"}, {"a": "10/12", "b": "2/24"}, {"a": "7/7", "b": "9/6"},
           {"a": "4/8", "b": "-1/2"}, {"a": "6/18", "b": "2/3"}]
    chords = [ch(2, 4, 3, 12), ch(10, 12, 2, 24), ch(7, 7, 9, 6), ch(4, 8, -1, 2), ch(6, 18, 2, 3)]
    src = tmp_path / "chords.json"
    src.write_text(json.dumps(doc))
    assert main(["render", "--in", str(src)]) == 0
    assert capsys.readouterr().out == reference.render_svg(chords)
    # and with a denominator that takes the grid beyond int64
    doc.append({"a": f"10/{2**66}", "b": "1/3"})
    chords.append(ch(10, 2**66, 1, 3))
    src.write_text(json.dumps(doc))
    assert main(["render", "--in", str(src)]) == 0
    assert capsys.readouterr().out == reference.render_svg(chords)
