import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trilam import grid
from trilam.chords import Chord, SIXTH, chord_antipode, crosses, image, length

import reference
from conftest import ch
from reference import LengthClass, classify, majors_of, sml_siblings

angles = st.fractions(min_value=0, max_value=1, max_denominator=600).map(lambda f: f % 1)


@pytest.mark.parametrize("c,expected", [
    (ch(1, 6, 1, 3), Fraction(1, 6)),
    (ch(0, 1, 1, 2), Fraction(1, 2)),
    (ch(11, 12, 1, 12), Fraction(1, 6)),  # wrapping arc
])
def test_length(c, expected):
    assert length(c) == expected


@pytest.mark.parametrize("c,expected", [
    (ch(1, 10, 1, 5), LengthClass.SHORT),
    (ch(5, 6, 1, 6), LengthClass.CRITICAL),
    (ch(0, 1, 1, 2), LengthClass.DIAMETER),
    (ch(1, 6, 1, 3), LengthClass.MEDIUM),
    (ch(0, 1, 2, 5), LengthClass.LONG),
    (Chord(Fraction(1, 7), Fraction(1, 7)), LengthClass.DEGENERATE),
])
def test_classify(c, expected):
    assert classify(c) is expected


@pytest.mark.parametrize("c1,c2,expected", [
    (ch(0, 1, 1, 2), ch(1, 4, 3, 4), True),    # interleaved
    (ch(1, 4, 1, 2), ch(0, 1, 1, 4), False),   # shared endpoint
    (ch(1, 4, 1, 2), ch(1, 3, 11, 12), True),  # 1/3 inside (1/4,1/2), 11/12 outside
    (Chord(Fraction(0), Fraction(1, 2)), Chord(Fraction(3, 4), Fraction(1)), False),  # 0 is 1
])
def test_crosses(c1, c2, expected):
    assert crosses(c1, c2) is expected
    assert crosses(c2, c1) is expected


def test_chord_reduces_endpoints_mod_1():
    full_turn = Chord(Fraction(0), Fraction(1))
    assert full_turn.degenerate and length(full_turn) == 0
    assert Chord(Fraction(3, 4), Fraction(1)) == ch(0, 1, 3, 4)
    assert Chord(Fraction(-1, 4), Fraction(5, 4)).endpoints() == (Fraction(1, 4), Fraction(3, 4))


def test_degenerate_never_crosses():
    dot = Chord(Fraction(1, 4), Fraction(1, 4))
    assert not crosses(dot, ch(0, 1, 1, 2))


@pytest.mark.parametrize("c,expected", [
    (ch(1, 6, 1, 3), ch(1, 2, 0, 1)),
    (ch(5, 24, 7, 24), ch(5, 8, 7, 8)),
])
def test_image(c, expected):
    assert image(c) == expected


def test_image_of_critical_is_degenerate():
    img = image(ch(5, 6, 1, 6))
    assert img.degenerate and img.a == Fraction(1, 2)


def translates(c):
    """The chords c + 1/3 and c + 2/3."""
    return tuple(Chord((c.a + t) % 1, (c.b + t) % 1) for t in (Fraction(1, 3), Fraction(2, 3)))


def test_translate_siblings():
    assert translates(ch(0, 1, 1, 100)) == (ch(1, 3, 103, 300), ch(2, 3, 203, 300))
    assert translates(ch(1, 6, 1, 3)) == (ch(1, 2, 2, 3), ch(5, 6, 0, 1))
    assert translates(ch(1, 4, 3, 4)) == (ch(7, 12, 1, 12), ch(11, 12, 5, 12))
    for c in (ch(0, 1, 1, 100), ch(1, 6, 1, 3), ch(1, 4, 3, 4)):
        assert {image(t) for t in translates(c)} == {image(c)}


@pytest.mark.parametrize("c,first,second,first_class,second_class", [
    # oracle: all three members share the image of c
    (ch(1, 10, 1, 5), ch(13, 30, 13, 15), ch(23, 30, 8, 15), LengthClass.LONG, LengthClass.MEDIUM),
    (ch(1, 12, 1, 6), ch(5, 12, 5, 6), ch(3, 4, 1, 2), LengthClass.LONG, LengthClass.MEDIUM),
    (ch(11, 12, 1, 12), ch(1, 4, 3, 4), ch(7, 12, 5, 12), LengthClass.DIAMETER, LengthClass.MEDIUM),
])
def test_sml_siblings(c, first, second, first_class, second_class):
    got = sml_siblings(c)
    assert got == (first, second)
    assert image(got[0]) == image(c) and image(got[1]) == image(c)
    assert classify(got[0]) is first_class and classify(got[1]) is second_class


@pytest.mark.parametrize("bad", [ch(5, 6, 1, 6), ch(0, 1, 1, 2)])
def test_sml_siblings_rejects_boundary_inputs(bad):
    with pytest.raises(ValueError):
        sml_siblings(bad)


def brute_majors(c):
    """Oracle: scan the nine preimage pairings of image(c) for the two
    long/medium siblings disjoint from c."""
    u, v = image(c).endpoints()
    third = Fraction(1, 3)
    found = []
    for i in range(3):
        for j in range(3):
            cand = Chord((u / 3 + i * third) % 1, (v / 3 + j * third) % 1)
            if cand.degenerate or cand == c or cand in found:
                continue
            if set(cand.endpoints()) & set(c.endpoints()) or crosses(cand, c):
                continue
            if length(cand) >= SIXTH:
                found.append(cand)
    return sorted(found, key=length, reverse=True)


@pytest.mark.parametrize("c,big,small", [
    (Chord(Fraction(1, 2), Fraction(1, 2)), ch(5, 6, 1, 6), ch(5, 6, 1, 6)),
    (ch(5, 24, 7, 24), ch(13, 24, 23, 24), ch(5, 8, 7, 8)),
    (ch(11, 12, 1, 12), ch(1, 4, 3, 4), ch(5, 12, 7, 12)),
])
def test_majors_of(c, big, small):
    assert majors_of(c) == (big, small)
    if not c.degenerate:
        if length(c) < SIXTH:
            # at length exactly 1/6 the disjoint-sibling pairing is not unique
            # (the quadrilateral's short edges tie); the oracle covers the
            # interior case, the boundary case is pinned above
            assert brute_majors(c) == [big, small]
        # exact length identities
        assert length(big) == Fraction(1, 3) + length(c)
        assert length(small) == Fraction(1, 3) - length(c)


def test_majors_of_rejects_long_input():
    with pytest.raises(ValueError):
        majors_of(ch(0, 1, 1, 4))


@pytest.mark.parametrize("c,verts", [
    (ch(11, 12, 1, 12), [Fraction(1, 4), Fraction(5, 12), Fraction(7, 12), Fraction(3, 4)]),
    (ch(1, 6, 1, 3), [Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)]),
    (Chord(Fraction(1, 6), Fraction(1, 6)), [Fraction(1, 2), Fraction(5, 6)]),
])
def test_quad(c, verts):
    assert reference.quad(c) == verts
    # the grid routine's quadrilateral has the same vertices
    n = grid.scale_of(c.endpoints(), 6)
    row = np.array([[grid.on_grid(c.a, n), grid.on_grid(c.b, n)]])
    big, small = grid.strips(row, n)[0, :2].tolist()
    assert sorted({Fraction(v, n) for v in big + small}) == verts


@pytest.mark.parametrize("c,x,y,expected", [
    (ch(0, 1, 1, 2), Fraction(1, 4), Fraction(3, 4), True),
    (ch(11, 12, 1, 12), Fraction(23, 24), Fraction(1, 24), False),  # both inside
    (ch(47, 48, 1, 48), Fraction(23, 24), Fraction(1, 24), False),  # both outside
])
def test_separates(c, x, y, expected):
    # c separates x from y iff they lie in different regions of the family {c}
    n = grid.scale_of([*c.endpoints(), x, y])
    regions = grid.Laminar(np.array([[grid.on_grid(c.a, n), grid.on_grid(c.b, n)]])).regions(
        np.array([grid.on_grid(x, n), grid.on_grid(y, n)]))
    assert bool(regions[0] != regions[1]) is expected


def chords_strategy(max_den=600):
    return st.tuples(angles, angles).map(lambda ab: Chord(*ab))


@given(chords_strategy())
@settings(max_examples=300)
def test_translate_collection_shares_image_and_length(c):
    assume(not c.degenerate)
    s1, s2 = translates(c)
    assert image(s1) == image(s2) == image(c)
    assert length(s1) == length(s2) == length(c)


@given(angles, st.fractions(min_value=0, max_value=SIXTH, max_denominator=600))
@settings(max_examples=300)
def test_sml_pattern_for_interior_short_chords(a, ln):
    # drawn short rather than filtered: a filter keeping one chord in three
    # fails Hypothesis's filter health check on some seeds
    c = Chord(a, (a + ln) % 1)
    assume(0 < length(c) < SIXTH)
    first, second = sml_siblings(c)
    assert image(first) == image(second) == image(c)
    assert {classify(c), classify(first), classify(second)} == {
        LengthClass.SHORT, LengthClass.MEDIUM, LengthClass.LONG,
    }


@given(chords_strategy())
@settings(max_examples=300)
def test_image_commutes_with_antipode(c):
    assert image(chord_antipode(c)) == chord_antipode(image(c))


@given(chords_strategy(), chords_strategy())
@settings(max_examples=300)
def test_crosses_is_symmetric(c1, c2):
    assert crosses(c1, c2) == crosses(c2, c1)


def _random_chord(rng, n, lo, hi):
    return Chord(Fraction(rng.randrange(lo * n, hi * n), n), Fraction(rng.randrange(lo * n, hi * n), n))


def test_crosses_matches_open_arc_form():
    # the grid predicate against the Fraction open-arc form, half the cases
    # with endpoints in [0, 1) and half with endpoints beyond it; small
    # grids make shared endpoints and degenerate chords common
    rng = random.Random(5)
    outcomes = {True: set(), False: set()}
    for i in range(6000):
        n = rng.choice([6, 12, 24, 36])
        lo, hi = (0, 1) if i % 2 else (-1, 2)
        c1, c2 = _random_chord(rng, n, lo, hi), _random_chord(rng, n, lo, hi)
        got = crosses(c1, c2)
        assert got == reference.crosses_by_arcs(c1, c2), (c1, c2)
        outcomes[got].add(i % 2)
    assert outcomes == {True: {0, 1}, False: {0, 1}}


def test_from_grid_equals_the_normalising_constructor():
    # in-range rows skip __post_init__; reversed, out-of-range and degenerate rows,
    # and grids past int64, give what Chord(Fraction, Fraction) gives
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.choice([1, 6, 48, 3**41, 2**70 + 3])
        x, y = rng.randrange(-2 * n, 3 * n), rng.randrange(-2 * n, 3 * n)
        lo, hi = sorted((x % n, y % n))
        for p in ((x, y), (y, x), (lo, hi), (hi, lo), (lo, lo), (hi, hi)):
            got, want = Chord.from_grid(p, n), Chord(Fraction(p[0], n), Fraction(p[1], n))
            assert (got, got.a, got.b, str(got), hash(got)) == (
                want, want.a, want.b, str(want), hash(want)), (p, n)
            assert 0 <= got.a <= got.b < 1
