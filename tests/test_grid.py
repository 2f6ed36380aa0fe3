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
from trilam.chords import Chord, SIXTH, length
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


def _laminar_family(rng, n, size):
    """A random crossing-free family: chords open and close as a stack walks the grid.

    Chords may repeat, share endpoints or be degenerate.
    """
    out, stack = [], []
    while len(out) < size:
        for x in range(n):
            while stack and rng.random() < 0.3:
                out.append((stack.pop(), x))
                if rng.random() < 0.1:
                    out.append(out[-1])
            if rng.random() < 0.3:
                stack.append(x)
        out += [(x, n - 1) for x in reversed(stack)]
        stack.clear()
    rng.shuffle(out)
    return out


def _families(rng):
    """Random families, crossing and laminar, with their grid modulus."""
    for k in range(1200):
        n = rng.choice([12, 24, 30, 48])
        if k % 2:
            yield n, _random_family(rng, n, rng.randint(0, 9))
        else:
            pairs = _laminar_family(rng, n, rng.randint(1, 24))
            if k % 4 == 0:  # move one endpoint: often a crossing
                i = rng.randrange(len(pairs))
                pairs[i] = tuple(sorted((pairs[i][0], rng.randrange(n))))
            yield n, pairs


def _as_rows(pairs, shift):
    """The family as an array: int64, or Python ints shifted past 2**64 by a multiple of n."""
    if shift == 0:
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return np.array(pairs, dtype=object).reshape(-1, 2) + shift


def test_sweep_matches_pairwise_crosses():
    """The reference stack sweep and `grid.Laminar` agree with the pairwise open-arc test."""
    rng = random.Random(7)
    outcomes = set()
    for n, pairs in _families(rng):
        chords = [Chord(Fraction(x, n), Fraction(y, n)) for x, y in pairs]
        pairwise = any(reference.crosses_by_arcs(chords[i], chords[j])
                       for i in range(len(chords)) for j in range(i + 1, len(chords)))
        assert (reference.crossing_pair(pairs) is not None) == pairwise, pairs
        for shift in (0, n * 2**64):
            rows = _as_rows(pairs, shift)
            found = grid.Laminar(rows).crossing
            assert (found is not None) == pairwise, (pairs, shift)
            if found is not None:
                i, j = found
                assert grid.crosses(tuple(rows[i]), tuple(rows[j]), n), (pairs, found)
        outcomes.add(pairwise)
    assert outcomes == {True, False}


def _innermost(pairs, encloses):
    """Row of the innermost chord `encloses(j, a, b)` selects, by brute force.

    Innermost is the least span; among equal copies the latest row.
    """
    best = -1
    for j, (a, b) in enumerate(pairs):
        if a < b and encloses(j, a, b) and (best < 0 or b - a <= pairs[best][1] - pairs[best][0]):
            best = j
    return best


def test_laminar_parents_and_regions_match_brute_force():
    rng = random.Random(12)
    checked = 0
    for n, pairs in _families(rng):
        # a chord's parent encloses it; of its equal copies only the earlier ones do
        parents = [-1 if lo == hi else _innermost(
            pairs, lambda j, a, b: j != i and a <= lo and hi <= b and (j < i or (a, b) != (lo, hi)))
            for i, (lo, hi) in enumerate(pairs)]
        regions = [_innermost(pairs, lambda j, a, b: a < x < b) for x in range(-1, n + 1)]
        for shift in (0, n * 2**64):
            lam = grid.Laminar(_as_rows(pairs, shift))
            if lam.crossing is not None:
                with pytest.raises(ValueError, match="not laminar"):
                    lam.parents()
                continue
            assert lam.parents().tolist() == parents, pairs
            points = np.array([x + shift for x in range(-1, n + 1)],
                              dtype=object if shift else np.int64)
            assert lam.regions(points).tolist() == regions, pairs
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("shift", [0, 48 * 2**64], ids=["int64", "object"])
def test_crosses_array_form_matches_scalar_form(shift):
    # the family includes degenerate chords and shared endpoints; the
    # object rows sit past 2**64, a multiple of n higher
    rng = random.Random(13)
    n = 48
    pairs = _random_family(rng, n, 60) + [(5, 5), (0, 47), (0, 5)]
    rows = _as_rows(pairs, shift)
    got = grid.crosses((rows[:, :1], rows[:, 1:]), (rows[:, 0], rows[:, 1]), n)
    want = [[grid.crosses(p, q, n) for q in pairs] for p in pairs]
    assert got.dtype == bool and got.tolist() == want
    assert {True, False} <= set(np.ravel(want))


def test_grid_crosses_matches_fraction_crosses():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.choice([6, 24, 36, 60])
        p, q = _random_family(rng, n, 2)
        fp = Chord(Fraction(p[0], n), Fraction(p[1], n))
        fq = Chord(Fraction(q[0], n), Fraction(q[1], n))
        assert grid.crosses(p, q, n) == reference.crosses_by_arcs(fp, fq)


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
    # `grid.orbit` steps from the chord by tripling, and the step after its
    # last repeats one of its states, so it holds every state of the orbit;
    # the array form steps every chord at once
    n = 2 * 3**3 * 13
    chords = [(1, 2), (5, 40), (0, 351), (7, 7)]
    columns = list(grid.orbit(*np.array(chords).T.copy(), n))
    for i, p in enumerate(chords):
        orbit = list(grid.orbit(*p, n))
        assert orbit[0] == p and len(orbit) == sum(grid.closure(n))
        assert all(b == (3 * a[0] % n, 3 * a[1] % n) for a, b in zip(orbit, orbit[1:]))
        assert (3 * orbit[-1][0] % n, 3 * orbit[-1][1] % n) in orbit
        assert [(x[i], y[i]) for x, y in columns] == orbit


def test_on_grid_and_scale_of():
    angles = [Fraction(1, 6), Fraction(3, 8), Fraction(0), Fraction(1), Fraction(-5, 8)]
    n = grid.scale_of(angles, 5)
    assert n == 120
    assert [grid.on_grid(a, n) for a in angles] == [20, 45, 0, 0, 45]
