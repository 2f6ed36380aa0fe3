from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from trilam import grid
from trilam.angles import orbit_info
from trilam.chords import Chord, SIXTH, chord_antipode, crosses, image, length
from trilam.legality import (
    hits_strip_interior,
    is_comajor,
    is_legal_pair,
)

from conftest import ch

angles = st.fractions(min_value=0, max_value=1, max_denominator=400).map(lambda f: f % 1)


def grid_strips(c):
    """(M, M', boundary arcs) of c from the grid routine, as Fractions."""
    n = grid.scale_of(c.endpoints(), 6)
    big, small = grid.majors((grid.on_grid(c.a, n), grid.on_grid(c.b, n)), n)
    _, arcs, _ = grid.strip_parts(big, small, n)
    chord = lambda q: Chord(Fraction(q[0], n), Fraction(q[1], n))
    return chord(big), chord(small), tuple((Fraction(s, n), Fraction(e, n)) for s, e in arcs)


def test_strips_of_examples():
    # the Fraction reference and the grid routine agree on each example
    s = reference.strips_of(ch(1, 12, 1, 6))
    assert grid_strips(ch(1, 12, 1, 6)) == (s.M, s.Mp, s.arcs)
    assert s.M == ch(5, 12, 5, 6)
    assert s.Mp == ch(1, 2, 3, 4)
    assert s.width == Fraction(1, 12)
    assert set(s.arcs) == {
        (Fraction(5, 12), Fraction(1, 2)), (Fraction(3, 4), Fraction(5, 6)),
        (Fraction(11, 12), Fraction(0)), (Fraction(1, 4), Fraction(1, 3)),
    }

    # width = |1/3 - |M|| = |c| = 2/24; the strip arcs (13/24,15/24) and
    # (21/24,23/24) have exactly that length
    s = reference.strips_of(ch(5, 24, 7, 24))
    assert grid_strips(ch(5, 24, 7, 24)) == (s.M, s.Mp, s.arcs)
    assert (s.M, s.Mp, s.width) == (ch(13, 24, 23, 24), ch(5, 8, 7, 8), Fraction(1, 12))
    assert set(s.arcs) == {
        (Fraction(13, 24), Fraction(15, 24)), (Fraction(21, 24), Fraction(23, 24)),
        (Fraction(1, 24), Fraction(3, 24)), (Fraction(9, 24), Fraction(11, 24)),
    }

    s = reference.strips_of(Chord(Fraction(1, 6), Fraction(1, 6)))
    assert s.M == s.Mp == ch(1, 2, 5, 6)
    assert s.width == 0 and s.arcs == ()
    assert grid_strips(Chord(Fraction(1, 6), Fraction(1, 6))) == (s.M, s.Mp, s.arcs)


def test_strip_width_equals_chord_length():
    for c in (ch(1, 20, 1, 12), ch(5, 24, 7, 24), ch(1, 100, 3, 100)):
        assert reference.strips_of(c).width == length(c)
        _, _, arcs = grid_strips(c)
        assert len(arcs) == 4 and all((e - s) % 1 == length(c) for s, e in arcs)


@pytest.mark.parametrize("d,c,expected", [
    (ch(1, 4, 1, 2), ch(1, 12, 1, 6), True),    # crosses a strip boundary
    (ch(1, 2, 3, 4), ch(1, 12, 1, 6), False),   # equals the boundary chord M'
    (ch(5, 8, 7, 8), ch(5, 24, 7, 24), False),  # equals M'
])
def test_hits_strip_interior(d, c, expected):
    assert hits_strip_interior(d, c) is expected


def test_degenerate_pairs_are_legal():
    assert is_legal_pair(Chord(Fraction(1, 7), Fraction(1, 7))).is_legal


def test_block_one_leaf_is_legal():
    assert is_legal_pair(ch(1, 6, 1, 3)).is_legal


def test_illegal_with_strip_witness():
    verdict = is_legal_pair(ch(1, 12, 1, 6))
    assert not verdict.is_legal
    w = verdict.witness
    assert w.kind == "strip"
    assert w.first_index == 1
    assert w.first == ch(1, 4, 1, 2)
    # the witness is reproducible: the image really crosses the reported boundary
    assert crosses(w.first, w.second)
    # and the boundary chord claimed in the worked derivation also crosses it
    assert crosses(ch(1, 4, 1, 2), ch(11, 12, 1, 3))


@pytest.mark.parametrize("c,expected", [
    (ch(5, 24, 7, 24), True),
    (ch(1, 12, 1, 6), False),
    (ch(11, 12, 1, 12), True),
])
def test_is_comajor(c, expected):
    assert is_comajor(c) is expected


def test_rejects_long_input():
    with pytest.raises(ValueError):
        is_legal_pair(ch(0, 1, 1, 4))


def test_forced_block3_pairing_regression():
    # the wrap-around block-3 leaves: the drawn pairing is legal, the
    # alternative pairing of the same four points is not
    assert is_comajor(ch(151, 156, 5, 156))
    assert is_comajor(ch(155, 156, 1, 156))
    assert not is_comajor(ch(1, 156, 5, 156))
    assert not is_comajor(ch(151, 156, 155, 156))


def test_length_one_sixth_scan_small():
    # denominator <= 24 slice of the full scan (acceptance covers <= 48)
    angles24 = sorted({Fraction(p, q) for q in range(1, 25) for p in range(q)})
    legal = set()
    for a in angles24:
        b = (a + SIXTH) % 1
        if b.denominator <= 24:
            c = Chord(a, b)
            if is_legal_pair(c).is_legal:
                legal.add(c)
    assert legal == {ch(1, 6, 1, 3), ch(2, 3, 5, 6), ch(5, 12, 7, 12), ch(11, 12, 1, 12)}


@given(angles, angles)
@settings(max_examples=150, deadline=None)
def test_legality_is_antipode_symmetric(a, b):
    c = Chord(a, b)
    assume(length(c) <= SIXTH)
    assert is_legal_pair(c).status == is_legal_pair(chord_antipode(c)).status


@given(angles, angles)
@settings(max_examples=150, deadline=None)
def test_mismatched_orbit_data_is_illegal(a, b):
    c = Chord(a, b)
    assume(0 < length(c) <= SIXTH)
    ia, ib = orbit_info(a), orbit_info(b)
    assume((ia.preperiod, ia.period) != (ib.preperiod, ib.period))
    assert not is_legal_pair(c).is_legal


def test_legal_nondegenerate_is_never_periodic():
    # sample: every certified leaf endpoint is strictly preperiodic
    for c in (ch(5, 24, 7, 24), ch(11, 12, 1, 12), ch(151, 156, 5, 156)):
        assert is_comajor(c)
        for v in c.endpoints():
            assert orbit_info(v).preperiod == 1
