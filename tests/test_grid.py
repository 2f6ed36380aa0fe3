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
from trilam.chords import Chord, SIXTH, chord_antipode, length
from trilam.legality import hits_strip_interior, is_legal_pair, legal_mask
from trilam.orbits import preperiod1_grid, preperiod1_points


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


def _short_chords(rng, count):
    """Random chords of length <= 1/6, as (x, y, q) on the grid q: legal and illegal ones,
    degenerate ones and ones of length exactly 1/6."""
    out = []
    while len(out) < count:
        q = 6 * rng.randint(1, 16)
        x = rng.randrange(q)
        kind = rng.random()
        y = x if kind < 0.1 else x + q // 6 if kind < 0.25 else x + rng.randint(-q // 6, q // 6)
        out.append((x, y % q, q) if rng.random() < 0.5 else (y % q, x, q))
    return out


def test_legal_mask_and_witnesses_match_reference():
    # each chord is decided alone on its own grid (`is_legal_pair`, verdict and
    # witness) and in one batch on a grid 5 times the lcm of all of theirs, and
    # on one 3^40 times larger, held as Python ints
    rng = random.Random(20261019)
    # (45/108, 61/108) has its arcs in swapped order, and its first image meets two of them
    chords = _short_chords(rng, 600) + [(45, 61, 108)]
    big = 5 * grid.scale_of((Fraction(1, q) for _, _, q in chords), 6)
    masks = [legal_mask(np.array([(x * (n // q), y * (n // q)) for x, y, q in chords], dtype), n)
             for n, dtype in ((big, np.int64), (big * 3**40, object))]
    assert masks[0].tolist() == masks[1].tolist()
    kinds = {}
    for (x, y, q), legal in zip(chords, masks[0].tolist()):
        c = Chord(Fraction(x, q), Fraction(y, q))
        want = reference.is_legal_pair(c).to_json()
        assert is_legal_pair(c).to_json() == want, c
        assert legal == (want["status"] == "legal"), c
        kind = want.get("witness", {}).get("kind", want["status"])
        kinds[kind, c.degenerate, 6 * length(c) == 1] = True
    assert {("legal", True, False), ("legal", False, True), ("crossing", False, False),
            ("strip", False, False)} <= set(kinds), kinds


def test_legal_mask_of_build5_leaves_on_their_class_grids():
    state = build(5)
    for block in range(1, 6):
        for t in ("B", "D"):
            n = preperiod1_grid(block, t)[1]
            rows = state.pairs[(state.blocks == block) & (state.ptypes == t)] // (state.scale // n)
            assert legal_mask(rows, n).all(), (block, t)
    with pytest.raises(ValueError, match="length <= 1/6, got 1/4"):
        legal_mask(np.array([[0, 3], [0, 1]]), 12)


def test_block5_census_legal_pairs_are_the_leaves():
    # completeness: the legal same-class pairs of length <= 1/6 are exactly the leaves
    state, candidates = build(5), 0
    for block in range(1, 6):
        for t in ("B", "D"):
            points, n = preperiod1_grid(block, t)
            i, j = np.triu_indices(len(points), 1)
            d = points[j] - points[i]
            pairs = np.stack([points[i], points[j]], 1)[6 * np.minimum(d, n - d) <= n]
            candidates += len(pairs)
            leaves = state.pairs[(state.blocks == block) & (state.ptypes == t)]
            legal = pairs[legal_mask(pairs, n)].tolist()
            assert sorted(legal) == sorted(np.sort(leaves // (state.scale // n)).tolist())
    assert candidates == 7748 + 76640  # blocks <= 4 (acceptance criterion 3), then block 5


def test_strips_match_reference_on_every_short_chord():
    for n in (6, 12, 24, 36, 60):
        rows = np.array([(x, y) for x in range(n) for y in range(x, n)
                         if 6 * grid.arclen(x, y, n) <= n])
        for (x, y), objs in zip(rows.tolist(), grid.strips(rows, n).tolist()):
            want = reference.strips_of(Chord(Fraction(x, n), Fraction(y, n)))
            chord = lambda q: Chord(Fraction(q[0], n), Fraction(q[1], n))
            bounds = [chord(q) for q in objs[:4]]
            assert list(dict.fromkeys(bounds)) == list(want.bounding_chords()), (x, y, n)
            assert (chord(objs[8]), chord(objs[9])) == (want.M, chord_antipode(want.M))
            arcs = [] if x == y else [(Fraction(a, n), Fraction(b, n)) for a, b in objs[4:8]]
            assert tuple(arcs) == want.arcs, (x, y, n)


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


def test_mismatched_rows_tell_families_apart_on_disjoint_ranges():
    # families laid side by side on [r n, (r + 1) n): a family crosses iff one of its rows is marked
    rng = random.Random(19)
    families = [(n, pairs) for n, pairs in _families(rng) if pairs][:300]
    for shift in (0, 2**64):
        rows, owner, crossing = [], [], []
        for r, (n, pairs) in enumerate(families):
            rows += [(x + 48 * r + shift, y + 48 * r + shift) for x, y in pairs]
            owner += [r] * len(pairs)
            crossing.append(grid.Laminar(np.array(pairs)).crossing is not None)
        marked = grid.Laminar(np.array(rows, dtype=object if shift else np.int64)).mismatched
        got = np.zeros(len(families), dtype=bool)
        got[np.array(owner)[marked]] = True
        assert got.tolist() == crossing
    assert {True, False} <= set(crossing)


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


# the widest span whose keys `Laminar` sorts as int64: span * span < 2**63
_KEYED_SPAN = 3037000499


def _spread(pairs, span, base):
    """The family stretched onto [base, base + span), plus the chord joining both ends."""
    top = max(max(p) for p in pairs)
    out = [(base + x * (span - 1) // top, base + y * (span - 1) // top) for x, y in pairs]
    return out + [(base, base + span - 1)]


@pytest.mark.parametrize("span", [None, _KEYED_SPAN, _KEYED_SPAN + 1, 2**40],
                         ids=["grid", "widest-keyed", "one-past", "far-past"])
@pytest.mark.parametrize("base", [0, -(2**40)], ids=["base-0", "negative-lo"])
@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
def test_laminar_matches_lexsort_orders(monkeypatch, span, base, dtype):
    # families of 1-300 chords with repeats and degenerate rows, laminar and
    # crossing; `Laminar` sorts keys through the widest-keyed span and
    # lexsorts past it, whatever the family's size
    real, lexsorted = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: lexsorted.append(True) or real(keys))
    rng = random.Random(17)
    outcomes = set()
    for k in range(60):
        n = rng.choice([48, 600])
        pairs = _laminar_family(rng, n, rng.randint(1, 300))
        pairs += [(x, x) for x in rng.sample(range(n), 3)]
        if k % 3 == 0:  # move one endpoint: often a crossing
            i = rng.randrange(len(pairs))
            pairs[i] = tuple(sorted((pairs[i][0], rng.randrange(n))))
        pairs = _spread(pairs, span, base) if span else [(x + base, y + base) for x, y in pairs]
        rows = np.array(pairs, dtype=dtype)
        lexsorted.clear()
        got = grid.Laminar(rows)
        outcomes.add((got.crossing is None, bool(lexsorted)))
        want = reference.LexsortLaminar(rows)
        assert got.crossing == want.crossing, pairs
        if want.crossing is None:
            assert got.parents().tolist() == want.parents().tolist()
            points = np.array(sorted({x + d for p in pairs for x in p for d in (-1, 0, 1)}),
                              dtype=dtype)
            assert got.regions(points).tolist() == want.regions(points).tolist()
    past_keys = span is not None and span > _KEYED_SPAN
    assert outcomes == {(True, past_keys), (False, past_keys)}


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


@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
def test_rows_of_matches_on_grid_and_scale_of(big):
    # rows_of puts a whole family on its grid as scale_of and on_grid put each
    # angle, in the dtype int_dtype gives for the stated reach
    rng = random.Random(5)
    qs = [3**41, 2**30 * 7, 12] if big else [12, 7, 40, 9]
    chords = [Chord(Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q))
              for q in qs for _ in range(5)]
    for reach in (1, 3):
        pairs, n = grid.rows_of((v.as_integer_ratio() for c in chords for v in c.endpoints()),
                                5, reach=reach)
        assert n == grid.scale_of((v for c in chords for v in c.endpoints()), 5)
        assert pairs.dtype == grid.int_dtype(reach * n) == (object if big else np.int64)
        assert pairs.tolist() == [[grid.on_grid(c.a, n), grid.on_grid(c.b, n)] for c in chords]
    pairs, n = grid.rows_of([], 12)
    assert pairs.shape == (0, 2) and n == 12


def _tied_family(rng, n):
    """A family on a few points of a small grid: chords chained end to end (one's lo the
    next one's hi), repeated, degenerate and nested, laminar or crossing."""
    points = sorted(rng.sample(range(n), rng.randint(2, 5)))
    chain = [(x, y) for x, y in zip(points, points[1:])]
    pairs = chain + [(points[0], points[-1])] * rng.randint(0, 2)
    pairs += [(x, x) for x in rng.sample(points, rng.randint(0, 2))]
    pairs += [tuple(sorted(rng.sample(points, 2))) for _ in range(rng.randint(0, 4))]
    pairs += rng.sample(pairs, rng.randint(0, len(pairs)))  # repeats
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
def test_laminar_counts_match_two_searches_under_ties(dtype):
    # the depth counts from one binary search and a running count of the
    # closes equal those of the two binary searches where endpoints tie
    rng = random.Random(23)
    shift = 0 if dtype is np.int64 else 2**64
    families = [(6, []), (6, [(2, 2), (2, 2)])]  # no chord left to order
    for k in range(600):
        n = rng.choice([6, 8, 12])
        families.append((n, _tied_family(rng, n) if k % 3
                         else _laminar_family(rng, n, rng.randint(1, 30))))
    outcomes = set()
    for n, pairs in families:
        rows = np.array([(x + shift, y + shift) for x, y in pairs], dtype=dtype).reshape(-1, 2)
        got, want = grid.Laminar(rows), reference.LexsortLaminar(rows)
        assert got.mismatched.tolist() == want.mismatched.tolist(), pairs
        assert got.crossing == want.crossing, pairs
        outcomes.add(got.crossing is None)
        if want.crossing is None:
            assert got.parents().tolist() == want.parents().tolist(), pairs
            points = np.array([x + shift for x in range(-1, n + 1)], dtype=dtype)
            assert got.regions(points).tolist() == want.regions(points).tolist(), pairs
    assert outcomes == {True, False}
