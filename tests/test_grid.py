"""The integer-grid core against independent Fraction formulations.

`reference` holds the Fraction legality oracle and point enumeration
that the grid paths replaced; the tests here require equal results.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import reference
from trilam import grid
from trilam.builder import build
from trilam.chords import Chord, SIXTH, crosses, length
from trilam.legality import hits_strip_interior, is_legal_pair
from trilam.orbits import preperiod1_points


@pytest.mark.parametrize("block", range(1, 8))
@pytest.mark.parametrize("ptype", ["B", "D"])
def test_preperiod1_points_match_reference(block, ptype):
    assert preperiod1_points(block, ptype) == reference.preperiod1_points(block, ptype)


def test_legality_matches_reference_on_build5():
    for rec in build(5).leaves:
        c = rec.chord
        assert is_legal_pair(c).to_json() == reference.is_legal_pair(c).to_json(), c


def test_legality_matches_reference_on_short_chords():
    rng = random.Random(20220214)
    kinds = {}
    checked = 0
    while checked < 500:
        q = rng.randint(1, 200)
        # half the sample shares one denominator, which makes legal and
        # strip verdicts common enough to show up
        q2 = q if rng.random() < 0.5 else rng.randint(1, 200)
        c = Chord(Fraction(rng.randrange(q), q), Fraction(rng.randrange(q2), q2))
        if length(c) > SIXTH:
            continue
        got = is_legal_pair(c).to_json()
        assert got == reference.is_legal_pair(c).to_json(), c
        kind = got.get("witness", {}).get("kind", got["status"])
        kinds[kind] = kinds.get(kind, 0) + 1
        checked += 1
    assert {"crossing", "strip", "legal"} <= set(kinds), kinds


def test_strip_hits_match_reference():
    rng = random.Random(5)
    hits = set()
    for _ in range(1500):
        q = rng.choice([12, 24, 36, 48, 60])
        c = Chord(Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q))
        if length(c) > SIXTH:
            continue
        d = Chord(Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q))
        want = reference.strip_violation(d, reference.strips_of(c)) is not None
        assert hits_strip_interior(d, c) == want, (d, c)
        hits.add(want)
    assert hits == {True, False}


def _random_family(rng, n, size):
    out = []
    for _ in range(size):
        x, y = rng.randrange(n), rng.randrange(n)
        out.append((min(x, y), max(x, y)))
    return out


def test_sweep_matches_pairwise_crosses():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(600):
        n = rng.choice([12, 24, 30, 48])
        pairs = _random_family(rng, n, rng.randint(0, 7))
        chords = [Chord(Fraction(x, n), Fraction(y, n)) for x, y in pairs]
        pairwise = any(crosses(chords[i], chords[j])
                       for i in range(len(chords)) for j in range(i + 1, len(chords)))
        found = grid.crossing_pair(pairs)
        assert (found is not None) == pairwise, pairs
        rows = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        assert (grid.crossing_pair(rows) is not None) == pairwise, pairs
        if found is not None:
            p, q = found
            assert grid.crosses(p, q, n)
            assert crosses(Chord(Fraction(p[0], n), Fraction(p[1], n)),
                           Chord(Fraction(q[0], n), Fraction(q[1], n)))
        outcomes.add(pairwise)
    assert outcomes == {True, False}


def test_grid_crosses_matches_fraction_crosses():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.choice([6, 24, 36, 60])
        p, q = _random_family(rng, n, 2)
        fp = Chord(Fraction(p[0], n), Fraction(p[1], n))
        fq = Chord(Fraction(q[0], n), Fraction(q[1], n))
        assert grid.crosses(p, q, n) == crosses(fp, fq)


def _brute_orbit(x, n):
    seen = {}
    while x not in seen:
        seen[x] = len(seen)
        x = 3 * x % n
    return seen[x], len(seen) - seen[x]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 26, 54, 80, 162, 242, 1000])
def test_closure_bounds_every_orbit_on_the_grid(n):
    e, k = grid.closure(n)
    orbits = [_brute_orbit(x, n) for x in range(n)]
    assert max(pre for pre, _ in orbits) == e
    assert all(k % per == 0 for _, per in orbits)
    # the bound is attained: some angle has the full period
    assert any(per == k for _, per in orbits)


def test_chord_orbit_closes_exactly():
    n = 2 * 3**3 * 13
    for p in [(1, 2), (5, 40), (0, 351), (7, 7)]:
        orbit = grid.chord_orbit(p, n)
        assert len(set(orbit)) == len(orbit) - 1
        assert orbit[-1] in orbit[:-1]
        assert all(b == (3 * a[0] % n, 3 * a[1] % n) for a, b in zip(orbit, orbit[1:]))


def test_on_grid_and_scale_of():
    angles = [Fraction(1, 6), Fraction(3, 8), Fraction(0)]
    n = grid.scale_of(angles, 5)
    assert n == 120
    assert [grid.on_grid(a, n) for a in angles] == [20, 45, 0]
