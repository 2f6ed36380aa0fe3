import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from trilam import legality, pullback
from trilam.angles import parse_angle
from trilam.builder import build
from trilam.chords import Chord, image, length
from trilam.formats import prelamination_to_json
from trilam.grid import MAX_INT64_MODULUS, closure, crosses, on_grid, scale_of
from trilam.pullback import (
    IllegalSeedError,
    InvariantError,
    Prelamination,
    _barrier_regions,
    _level_children,
    _seed_system,
    build_prelamination,
    hyperbolic_prune,
    short_quad_edges,
)

import reference
from conftest import PRUNED_COMAJOR, PULLBACK_SEEDS, ch, witness_crosses
from reference import LengthClass, chord_orbit, classify, sml_siblings


def grid_chord(p, n):
    return Chord(Fraction(p[0], n), Fraction(p[1], n))


def quad_barriers(c):
    n, _, barriers, _ = _seed_system(c)
    return [grid_chord(p, n) for p in barriers]


def pullbacks(parent, barriers):
    """Selected preimages of one chord among the barriers, by `_level_children` on their grid."""
    n = 3 * scale_of(v for c in (parent, *barriers) for v in c.endpoints())
    pairs = [(on_grid(c.a, n), on_grid(c.b, n)) for c in (parent, *barriers)]
    got = _level_children(np.array(pairs[:1], dtype=np.int64), _barrier_regions(pairs[1:], n),
                          n).tolist()
    return sorted((grid_chord(p, n) for p in got), key=Chord.arc)


def test_pullbacks_of_invariant_diameter():
    got = pullbacks(ch(1, 4, 3, 4), quad_barriers(ch(11, 12, 1, 12)))
    assert set(got) == {ch(11, 12, 1, 12), ch(5, 12, 7, 12), ch(1, 4, 3, 4)}


def test_pullbacks_of_critical_chords():
    bars = [ch(1, 6, 5, 6), ch(1, 3, 2, 3)]
    assert set(pullbacks(ch(1, 6, 5, 6), bars)) == {ch(17, 18, 1, 18), ch(7, 18, 11, 18)}
    assert set(pullbacks(ch(1, 3, 2, 3), bars)) == {ch(4, 9, 5, 9), ch(8, 9, 1, 9)}


def test_pullbacks_generic_sibling_collection():
    # deep pullback in general position: exactly three disjoint preimages
    got = pullbacks(ch(11, 12, 1, 12), quad_barriers(ch(11, 12, 1, 12)))
    assert got == sorted([ch(11, 36, 13, 36), ch(23, 36, 25, 36), ch(35, 36, 1, 36)],
                         key=Chord.arc)
    imgs = {image(x) for x in got}
    assert imgs == {ch(11, 12, 1, 12)}


def test_seed_system_has_no_degenerate_chord():
    # a degenerate chord has no preimage chords, and `_level_children`
    # expands every frontier chord: the degenerate orbit of a degenerate
    # seed must stay out of its seeds, and no level may produce one
    for seed in PULLBACK_SEEDS + [Chord(Fraction(1, 6), Fraction(1, 6)), ch(11, 12, 1, 12)]:
        _, seeds, barriers, _ = _seed_system(seed)
        assert all(x != y for x, y in seeds + barriers), seed
        pre = build_prelamination(seed, 4)
        assert (pre.pairs[:, 0] != pre.pairs[:, 1]).all(), seed


def _grid_seed_system(c):
    """The reference seed system of c as its scale and sets of int pairs on it."""
    seeds, barriers = reference.seed_system(c)
    n = scale_of(v for s in seeds for v in s.endpoints())
    as_pairs = lambda chords: {(on_grid(x.a, n), on_grid(x.b, n)) for x in chords}
    return n, as_pairs(seeds), as_pairs(barriers)


@pytest.mark.parametrize("seeds", ["build5", "pullback", "degenerate"])
def test_seed_system_matches_reference(seeds):
    if seeds == "build5":
        chords = [r.chord for r in build(5).leaves]
    elif seeds == "pullback":
        chords = PULLBACK_SEEDS
    else:
        chords = [Chord(Fraction(k, 36), Fraction(k, 36)) for k in range(36)]
    for c in chords:
        n, seeds_got, barriers, _ = _seed_system(c)
        assert (n, set(seeds_got), set(barriers)) == _grid_seed_system(c), c
        assert len(barriers) == len(set(barriers)), c


def test_short_quad_edges_match_reference_on_build5():
    for rec in build(5).leaves:
        assert short_quad_edges(rec.chord) == reference.short_quad_edges(rec.chord), rec.chord
    assert short_quad_edges(Chord(Fraction(1, 2), Fraction(1, 2))) == []
    with pytest.raises(ValueError, match="length <= 1/6"):
        short_quad_edges(ch(0, 1, 1, 4))


def test_degenerate_half_depth_one():
    pre = build_prelamination(Chord(Fraction(1, 2), Fraction(1, 2)), 1)
    assert set(reference.prelamination_chords(pre)) == {
        ch(1, 6, 5, 6), ch(1, 3, 2, 3),
        ch(17, 18, 1, 18), ch(7, 18, 11, 18),
        ch(4, 9, 5, 9), ch(8, 9, 1, 9),
    }


def test_nondegenerate_depth_zero_seed_family():
    pre = build_prelamination(ch(1, 6, 1, 3), 0)
    chords = set(reference.prelamination_chords(pre))
    assert {ch(1, 6, 1, 3), ch(2, 3, 5, 6), ch(0, 1, 1, 2)} <= chords
    assert len(chords) == 7  # edges of both quadrilaterals plus the fixed minor


def test_collapsing_quadrilateral_tiebreak():
    # degenerate 1/6: the critical chord (1/2, 5/6) has the periodic endpoint
    # 1/2, so its pullbacks form a collapsing quadrilateral; only the short
    # edges survive, alongside the regular pullback on the far side
    pre = build_prelamination(Chord(Fraction(1, 6), Fraction(1, 6)), 1)
    chords = set(reference.prelamination_chords(pre))
    kept = {ch(1, 6, 5, 18), ch(1, 2, 11, 18), ch(5, 6, 17, 18)}
    dropped = {ch(11, 18, 5, 6), ch(1, 2, 17, 18)}
    assert kept <= chords
    assert not dropped & chords
    # retained pullbacks are the two shortest among the endpoint-sharing candidates
    assert max(length(c) for c in kept) <= min(length(c) for c in dropped)


def test_illegal_seed_rejected_with_witness():
    with pytest.raises(IllegalSeedError) as err:
        build_prelamination(ch(1, 12, 1, 6), 1)
    assert err.value.verdict.witness.kind == "strip"


@pytest.mark.parametrize("seed", [
    Chord(Fraction(1, 2), Fraction(1, 2)),
    Chord(Fraction(1, 6), Fraction(1, 6)),
    ch(1, 6, 1, 3),
    ch(11, 12, 1, 12),
])
def test_prelamination_invariants_depth_five(seed):
    pre = build_prelamination(seed, 5)
    assert pre.noncrossing()
    assert pre.antipode_closed()
    assert pre.forward_closed()
    assert pre.sibling_complete()
    assert pre.min_length_law()


def test_prelamination_round_trip_membership():
    pre = build_prelamination(ch(1, 6, 1, 3), 3)
    for c in reference.prelamination_chords(pre)[:20]:
        assert pre.contains(c)
    assert not pre.contains(ch(1, 7, 2, 7))


def test_hyperbolic_prune_keeps_comajor_drops_short_edges():
    c = ch(11, 12, 1, 12)
    pruned = hyperbolic_prune(c, 3)
    assert pruned.contains(c)
    shorts = short_quad_edges(c)
    assert {str(s) for s in shorts} == {"(1/4, 5/12)", "(7/12, 3/4)",
                                        "(3/4, 11/12)", "(1/12, 1/4)"}
    for s in shorts:
        assert not pruned.contains(s)
    # nothing left maps onto a short edge
    assert not pruned.forward_orbit_hits(shorts).any()
    # pruning preserves the structural invariants that survive subsetting
    assert pruned.noncrossing()
    assert pruned.antipode_closed()


def test_hyperbolic_prune_block_one_d_seed():
    c = ch(1, 6, 1, 3)
    pruned = hyperbolic_prune(c, 3)
    assert pruned.contains(c)
    assert not pruned.forward_orbit_hits(short_quad_edges(c)).any()


def test_hyperbolic_prune_rejects_bad_seeds():
    with pytest.raises(ValueError):
        hyperbolic_prune(Chord(Fraction(1, 2), Fraction(1, 2)), 2)
    with pytest.raises(ValueError):
        # image endpoints are preperiodic, not periodic: not co-periodic
        hyperbolic_prune(ch(5, 72, 7, 72), 2)


def test_closest_to_criticality_law():
    # sampled medium/long chords that are strictly closest to criticality
    # within their own orbit never map into their short strips
    d3 = [r.chord for r in build(3).leaves if r.block_period == 3 and r.ptype == "D"]
    seeds = [ch(5, 24, 7, 24)] + d3[:2]
    sampled = 0
    dist = lambda x: abs(Fraction(1, 3) - length(x))
    for seed in seeds:
        pre = build_prelamination(seed, 3)
        for c in reference.prelamination_chords(pre):
            cls = classify(c)
            if cls not in (LengthClass.MEDIUM, LengthClass.LONG) or length(c) <= Fraction(1, 6):
                continue
            orb = chord_orbit(c)
            if any(other != c and dist(other) <= dist(c) for other in orb.chords[1:]):
                continue
            partner, _ = sml_siblings(c)
            strips = reference.strip_system(c, partner)
            for img in orb.chords[1:]:
                assert reference.strip_violation(img, strips) is None
            sampled += 1
    assert sampled >= 3


def _sibling_families():
    """Pullback families at depths 2-6, and copies with every fifth chord of the interior
    depths, or of the last depth, dropped.

    The seeds are `PULLBACK_SEEDS` and every 16th leaf of `build(4)`.
    """
    leaves = [r.chord for r in build(4).leaves]
    for seed in PULLBACK_SEEDS + leaves[::16]:
        for depth in range(2, 7):
            pre = build_prelamination(seed, depth)
            yield pre
            for drop in ((pre.depths >= 1) & (pre.depths < depth), pre.depths == depth):
                keep = np.ones(len(pre), dtype=bool)
                keep[np.flatnonzero(drop)[::5]] = False
                yield Prelamination(seed=seed, depth=depth, modulus=pre.modulus,
                                    pairs=pre.pairs[keep], depths=pre.depths[keep])


def test_sibling_complete_matches_reference():
    verdicts = []
    for pre in _sibling_families():
        verdicts.append(pre.sibling_complete())
        assert verdicts[-1] == reference.sibling_complete(pre), (pre.seed, pre.depth, len(pre))
    assert set(verdicts) == {True, False}
    # on the grid 36 the preimages of (3, 9) are u = 1, 13, 25 and v = 3, 15, 27: a full
    # collection (1, 3), (13, 15), (25, 27), and (1, 15) beside it, which is in none
    pairs = [(3, 9), (1, 3), (13, 15), (25, 27), (1, 15)]
    for m in (4, 5):
        pre = Prelamination(seed=PULLBACK_SEEDS[0], depth=2, modulus=36,
                            pairs=np.array(pairs[:m]), depths=np.array([0, 1, 1, 1, 1][:m]))
        assert pre.sibling_complete() == reference.sibling_complete(pre) == (m == 4)


def _hand_built(modulus, pairs, seed):
    return Prelamination(seed=seed, depth=0, modulus=modulus,
                         pairs=np.array(pairs, dtype=np.int64).reshape(-1, 2),
                         depths=np.zeros(len(pairs), dtype=np.int64))


def test_prelamination_refuses_modulus_whose_keys_wrap():
    seed = Chord(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="would wrap"):
        _hand_built(4 * 10**9, [(1, 2), (3, 4), (5, 6)], seed)
    n = MAX_INT64_MODULUS
    top = _hand_built(n, [(1, 2), (3, 4), (n - 2, n - 1)], seed)
    assert top.contains(Chord(Fraction(n - 2, n), Fraction(n - 1, n)))
    assert not top.contains(Chord(Fraction(n - 3, n), Fraction(n - 1, n)))


# on the grid 12, rows that break 0 <= lo <= hi < 12 or one depth in 0 .. 2 per row; the
# reversed row (7, 3) is the chord (3, 7), which crosses (1, 5)
@pytest.mark.parametrize("pairs, depths", [
    ([[1, 5], [7, 3]], [0, 0]),
    ([[-1, 5], [3, 7]], [0, 0]),
    ([[1, 5], [3, 12]], [0, 0]),
    ([[1, 5], [3, 7]], [0, 0, 0]),
    ([[1, 5], [3, 7]], [0]),
    ([[1, 5], [3, 7]], [0, 3]),
    ([[1, 5], [3, 7]], [-1, 0]),
], ids=["reversed", "negative", "off-grid", "extra-depth", "missing-depth", "too-deep",
        "negative-depth"])
def test_prelamination_refuses_malformed_rows(pairs, depths):
    with pytest.raises(ValueError, match="need rows"):
        Prelamination(seed=PULLBACK_SEEDS[0], depth=2, modulus=12, pairs=np.array(pairs),
                      depths=np.array(depths))


def test_prelamination_keeps_rows_in_key_order():
    pre = Prelamination(seed=PULLBACK_SEEDS[0], depth=2, modulus=12,
                        pairs=np.array([[1, 5], [3, 7]]), depths=np.array([0, 2]))
    assert not pre.noncrossing()
    rows = np.array([[0, 6], [1, 5], [1, 11], [2, 2]])
    kept = Prelamination(seed=PULLBACK_SEEDS[0], depth=2, modulus=12, pairs=rows,
                         depths=np.array([0, 1, 2, 1]))
    assert kept.pairs is rows  # already in key order: neither sorted nor copied
    assert kept.keys.tolist() == [6, 17, 23, 26]


def test_prune_is_the_family_less_the_edges_orbit_hits():
    # the prune grows only the surviving seeds; the whole family less every chord
    # whose forward orbit reaches a short quadrilateral edge must give the same rows
    leaves = [r.chord for r in build(4).leaves]
    verdicts = set()
    for seed in PULLBACK_SEEDS[1:] + leaves[::16]:
        edges = short_quad_edges(seed)
        for depth in range(7):
            pre = build_prelamination(seed, depth)
            hit = pre.forward_orbit_hits(edges)
            assert np.array_equal(hit, reference.forward_orbit_hits(pre, edges)), (seed, depth)
            pruned = hyperbolic_prune(seed, depth)
            assert np.array_equal(pruned.pairs, pre.pairs.compress(~hit, 0)), (seed, depth)
            assert np.array_equal(pruned.depths, pre.depths.compress(~hit)), (seed, depth)
            verdicts.update(hit.tolist())
    assert verdicts == {True, False}


def test_prune_puts_the_strips_on_the_grid_once(monkeypatch):
    calls = []

    def spy(c):
        calls.append(c)
        return legality.strips_on_grid(c)

    monkeypatch.setattr(pullback, "strips_on_grid", spy)
    c = ch(5, 24, 7, 24)
    hyperbolic_prune(c, 3)
    assert calls == [c]


def test_prune_census_through_block_five():
    # every comajor of blocks <= 5 survives its pruning at depth 5, and the general
    # oracle finds no kept chord whose forward orbit reaches a short quadrilateral edge
    comajors = [r.chord for r in build(5).leaves]
    assert len(comajors) == 688
    for c in comajors:
        pruned = hyperbolic_prune(c, 5)
        assert pruned.contains(c), c
        assert not pruned.forward_orbit_hits(short_quad_edges(c)).any(), c


def test_forward_orbit_hits_runs_to_exact_closure():
    # on the grid 106 = 2 * 53 the orbit of (1/106, 2/106) has period 52,
    # longer than the depth + 40 steps of a fixed bound at depth 0
    n = 106
    assert closure(n) == (0, 52)
    pre = _hand_built(n, [(1, 2)], ch(1, 106, 2, 106))
    x = pow(3, 45, n)
    late = Chord(Fraction(x, n), Fraction(2 * x % n, n))
    assert pre.forward_orbit_hits([late]).tolist() == [True]
    x = pow(3, 51, n)  # the last state before the orbit closes
    last = Chord(Fraction(x, n), Fraction(2 * x % n, n))
    assert pre.forward_orbit_hits([last]).tolist() == [True]


def test_forward_orbit_hits_misses_targets_off_the_grid():
    pre = build_prelamination(Chord(Fraction(1, 2), Fraction(1, 2)), 3)
    off, on = ch(1, 7, 2, 7), ch(1, 6, 5, 6)
    assert not pre.contains(off)
    assert not pre.forward_orbit_hits([off]).any()
    assert pre.forward_orbit_hits([off, on]).tolist() == pre.forward_orbit_hits([on]).tolist()
    assert pre.forward_orbit_hits([on]).any()


def test_forward_orbit_hits_matches_chord_orbits():
    # degenerate 1/2 at depth 3: modulus 6 * 27, exact bound 4 + 1 steps
    # against depth + 40 = 43; every chord's full orbit decides the mask
    pre = build_prelamination(Chord(Fraction(1, 2), Fraction(1, 2)), 3)
    assert sum(closure(pre.modulus)) == 5
    targets = [ch(1, 6, 5, 6), ch(4, 9, 5, 9)]
    want = [any(t in chord_orbit(c).chords for t in targets)
            for c in reference.prelamination_chords(pre)]
    assert pre.forward_orbit_hits(targets).tolist() == want
    assert set(want) == {True, False}
    assert pre.min_length_law()


def _single_and_all(targets):
    return [[t] for t in targets] + [targets]


@pytest.mark.parametrize("seed", PULLBACK_SEEDS, ids=str)
def test_forward_orbit_hits_matches_orbit_walk(seed):
    # targets: the short quadrilateral edges, two members, a chord off
    # the grid and a degenerate chord (the image of a critical chord for 1/2)
    point = 3 * seed.a % 1
    verdicts = set()
    for depth in range(6):
        families = [build_prelamination(seed, depth)]
        if not seed.degenerate:
            families.append(hyperbolic_prune(seed, depth))
        for pre in families:
            chords = reference.prelamination_chords(pre)
            targets = [chords[len(chords) // 3], chords[-1], ch(1, 7, 2, 7), Chord(point, point)]
            if not seed.degenerate:
                targets += short_quad_edges(seed)
            for ts in _single_and_all(targets):
                got = pre.forward_orbit_hits(ts)
                assert np.array_equal(got, reference.forward_orbit_hits(pre, ts)), (depth, ts)
                verdicts.update(got.tolist())
    assert verdicts == {True, False}


def test_hand_built_family_is_stored_in_key_order():
    # rows given in shuffled order come out sorted by lo * n + hi, each
    # depth still on its own chord, and the orbit hits follow the rows
    pre = build_prelamination(ch(5, 24, 7, 24), 4)
    n, rng = pre.modulus, np.random.default_rng(7)
    depth_of = dict(zip(map(tuple, pre.pairs.tolist()), pre.depths.tolist()))
    shuffled = rng.permutation(len(pre))
    hand = Prelamination(seed=pre.seed, depth=pre.depth, modulus=n, pairs=pre.pairs[shuffled],
                         depths=pre.depths[shuffled])
    keys = hand.pairs[:, 0] * n + hand.pairs[:, 1]
    assert (np.diff(keys) > 0).all() and np.array_equal(keys, hand.keys)
    assert [depth_of[p] for p in map(tuple, hand.pairs.tolist())] == hand.depths.tolist()
    chords = reference.prelamination_chords(hand)
    for ts in _single_and_all([chords[5], chords[-1], *short_quad_edges(pre.seed)]):
        assert np.array_equal(hand.forward_orbit_hits(ts), reference.forward_orbit_hits(hand, ts))


def test_forward_orbit_hits_matches_orbit_walk_off_the_family():
    # on the grid 106, (1, 2) maps to the member (3, 6), whose image
    # (9, 18) is no member; (4, 10) is repeated and (5, 5) degenerate
    n = 106
    seed = ch(1, 106, 2, 106)
    pre = _hand_built(n, [(1, 2), (3, 6), (4, 10), (5, 5), (4, 10)], seed)
    x = pow(3, 45, n)
    targets = [Chord.from_grid(p, n) for p in [(x, 2 * x % n), (12, 30), (15, 15), (3, 6)]]
    for ts in _single_and_all(targets):
        assert np.array_equal(pre.forward_orbit_hits(ts), reference.forward_orbit_hits(pre, ts))
    assert pre.forward_orbit_hits(targets[:1]).tolist() == [True, True, False, False, False]
    assert pre.forward_orbit_hits(targets[1:3]).tolist() == [False, False, True, True, True]
    empty = _hand_built(n, [], seed)
    assert empty.forward_orbit_hits(targets).tolist() == []
    assert reference.forward_orbit_hits(empty, targets).tolist() == []


@pytest.mark.parametrize("seed", PULLBACK_SEEDS, ids=str)
def test_level_dedup_matches_dict_reference(seed):
    for depth in range(7):
        pre = build_prelamination(seed, depth)
        pairs, depths, n = reference.prelamination_levels(seed, depth)
        order = np.argsort(pairs[:, 0] * n + pairs[:, 1])  # the family's key order
        pairs, depths = pairs[order], depths[order]
        assert pre.modulus == n, depth
        assert np.array_equal(pre.pairs, pairs), depth
        assert np.array_equal(pre.depths, depths), depth


def test_prelamination_keys_are_the_sorted_chord_keys():
    pre = hyperbolic_prune(ch(11, 12, 1, 12), 3)
    n = pre.modulus
    assert pre.keys.tolist() == sorted(lo * n + hi for lo, hi in pre.pairs.tolist())
    assert all(pre.contains(c) for c in reference.prelamination_chords(pre))


# sha256 of the pullback JSON, recorded before the laminar pass and the
# barrier regions replaced the stack sweep and the per-barrier loop
_PINNED_JSON = [
    (PULLBACK_SEEDS[0], 8, "f9a708abeafa3e5999963df1f9daf0cd2842d61e602d1b3e4dd9fb47b82cb98b"),
    (PULLBACK_SEEDS[1], 8, "8b2aaba7e62c5151fed4e88c636fc00a799119fac9e90277d5cad145d31c0529"),
    (PULLBACK_SEEDS[2], 8, "d9e972a3bc8a31dcfd02beb40ec7bee17ad295f68e0e0c498838982f476e5e98"),
    (PULLBACK_SEEDS[3], 8, "9c3588b3ae151c6244f7f7ab8b32113c73ae40fce09c74c2351a003e4dd37277"),
    (PULLBACK_SEEDS[4], 8, "1b59a371cebfc62bd18783c21d1d601fb2ab646bab11542242c32c7a1f4449ec"),
    (PULLBACK_SEEDS[5], 8, "9458fa9cb4519b661a49a818c3a7fd67661898d623c031381d7aa4c490bc8fe4"),
    (ch(4367, 4368, 1, 4368), 9,
     "e9c88bd01d9b5d8d0d1ffce13e9abd6e17e8ff4feccc44d223f1a89a41d12113"),
]


@pytest.mark.parametrize("seed,depth,digest", _PINNED_JSON,
                         ids=[f"{c}-depth{d}" for c, d, _ in _PINNED_JSON])
def test_pullback_json_matches_pinned_digest(seed, depth, digest):
    pre = build_prelamination(seed, depth)
    text = prelamination_to_json(seed, depth, pre.pairs, pre.modulus)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# one sha256 over the depth-8 JSON of the 72 distinct degenerate seeds k/36 and k/48 in
# angle order, recorded while critical and multi-matching parents were still selected one
# by one: these families meet such parents at every level
_PINNED_DEGENERATE_JSON = "c53584badfd65a42cc3295cf48602a81db026b5fd4439c1bb7132c6690985408"


def test_degenerate_seed_families_match_pinned_digest():
    angles = sorted({Fraction(k, 36) for k in range(36)} | {Fraction(k, 48) for k in range(48)})
    digest, chords = hashlib.sha256(), 0
    for v in angles:
        seed = Chord(v, v)
        pre = build_prelamination(seed, 8)
        digest.update(prelamination_to_json(seed, 8, pre.pairs, pre.modulus).encode())
        chords += len(pre)
    assert (len(angles), chords) == (72, 1_128_464)
    assert digest.hexdigest() == _PINNED_DEGENERATE_JSON


# sha256 of the pruned pullback JSON at depth 8, recorded while the prune
# still built the whole family and removed the chords whose orbits hit an edge
_PINNED_PRUNED_JSON = [
    (PULLBACK_SEEDS[1], "e83d9ce301e4247d864f65e410f1659634ba4bc037df0e4cdf454b3a1d24d710"),
    (PULLBACK_SEEDS[2], "bc3de673c8b7ee8099aac6ffbabd0329bddf65719fae1ac7a36a9b1697732e55"),
    (PULLBACK_SEEDS[3], "9640c3b54519994f99841cd72f888eb86f9c65b2d994f715fcaa16e45692e979"),
    (PULLBACK_SEEDS[4], "8c5f9a646c9a3c4b5844df8ff202eee92d1ab81dcc80ae0ed5ec2239cb346a11"),
    (PULLBACK_SEEDS[5], "83fc945220002849167696b116d9a87cc68f2ef8a6cc577c7c397b920eaddf82"),
    (ch(11, 12, 1, 12), "ef01737fd82382a58a97c2012fdca8843543d878d5a1a08b4a0ebaaf69da6259"),
]


@pytest.mark.parametrize("seed,digest", _PINNED_PRUNED_JSON,
                         ids=[str(c) for c, _ in _PINNED_PRUNED_JSON])
def test_pruned_json_matches_pinned_digest(seed, digest):
    pre = hyperbolic_prune(seed, 8)
    text = prelamination_to_json(seed, 8, pre.pairs, pre.modulus)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _check_level(frontier, barriers, n):
    got = _level_children(frontier, _barrier_regions(barriers, n), n)
    # the engine lists its rows by child slot; the next level sorts them anyway
    rows = got[np.lexsort((got[:, 1], got[:, 0]))]
    assert np.array_equal(rows, reference.level_children(frontier, barriers, n))
    return got


def _matched_parents(frontier, barriers, n):
    """The frontier rows left with a surviving matching; each other row must raise the
    same no-matching InvariantError on both sides, its witness naming the survivors."""
    regions, matched, unmatched = _barrier_regions(barriers, n), [], 0
    for row in frontier:
        try:
            _level_children(row[None], regions, n)
            matched.append(row)
        except InvariantError as err:
            with pytest.raises(InvariantError) as want:
                reference.level_children(row[None], barriers, n)
            assert err.witness == want.value.witness
            unmatched += 1
    return np.array(matched, dtype=np.int64).reshape(-1, 2), unmatched


def test_level_children_matches_barrier_oracle_on_build5_seeds():
    # the degenerate seeds k/36 start from critical chords: their parents take the
    # critical branch, which the build(5) seeds never reach
    chords = [rec.chord for rec in build(5).leaves]
    chords += [Chord(Fraction(k, 36), Fraction(k, 36)) for k in range(36)]
    levels = critical = 0
    for c in chords:
        n0, seeds, barriers, _ = _seed_system(c)
        scale = 3**5
        n = n0 * scale
        bars = [(x * scale, y * scale) for x, y in barriers]
        seeded = np.array(seeds, dtype=np.int64) * scale
        keys = np.unique(seeded[:, 0] * n + seeded[:, 1])  # the engine's level 0
        for _ in range(5):
            frontier = np.stack(np.divmod(keys, n), 1)
            span = 3 * (frontier[:, 1] - frontier[:, 0])
            critical += np.count_nonzero((span == n) | (span == 2 * n))
            children = _check_level(frontier, bars, n)
            x, y = 3 * children.T % n
            child_keys = children[:, 0] * n + children[:, 1]
            # a child's image is its parent, so distinct parents have distinct children
            assert (np.isin(np.minimum(x, y) * n + np.maximum(x, y), keys).all()
                    and len(np.unique(child_keys)) == len(child_keys))
            keys = np.unique(child_keys)
            levels += 1
    assert levels == 5 * (688 + 36) and critical > 0


def test_level_children_matches_barrier_oracle_on_endpoint_barriers():
    # barriers whose endpoints are preimage points of the frontier or
    # their grid neighbours, so candidates end on barrier endpoints
    rng = random.Random(3)
    n = 6 * 3**6
    matched = unmatched = 0
    for _ in range(300):
        frontier = np.array([sorted(rng.sample(range(n), 2)) for _ in range(40)], dtype=np.int64)
        pre = [(int(x) // 3 + k * (n // 3)) % n for x in frontier.ravel() for k in range(3)]
        ends = [(rng.choice(pre) + rng.choice([-1, 0, 0, 1])) % n
                for _ in range(rng.randint(2, 16))]
        barriers = [tuple(sorted(rng.sample(ends, 2))) for _ in range(rng.randint(1, 8))]
        frontier, missed = _matched_parents(frontier, barriers, n)
        _check_level(frontier, barriers, n)
        matched, unmatched = matched + len(frontier), unmatched + missed
    # arbitrary barriers, unlike those of a legal seed, often leave a parent no matching
    assert matched > 3000 and unmatched > 3000


def _parent_cases(n):
    """The first parent (a, b) on the grid n of each case the selection tells apart.

    A critical parent is keyed by its span; any other by the sign of 2 delta - n/3
    (or "same triple" for delta = b//3 - a//3 = 0) and the candidate id, if any,
    whose canonical pair is the parent itself.
    """
    third, cases = n // 3, {}
    for a in range(n):
        for b in range(a + 1, n):
            if b - a in (third, 2 * third):
                cases.setdefault(("critical", b - a), (a, b))
                continue
            delta = b // 3 - a // 3
            cands = [tuple(sorted((a // 3 + i * third, b // 3 + j * third)))
                     for i in range(3) for j in range(3)]
            own = cands.index((a, b)) if (a, b) in cands else None
            cases.setdefault((int(np.sign(2 * delta - third)) if delta else "same triple", own),
                             (a, b))
    return cases


@pytest.mark.parametrize("n", [54, 162])
def test_level_children_matches_selection_oracle_on_every_mask(n):
    # every survival mask, fed as a one-cell region table, for one parent of each case:
    # each delta-class, both critical spans and each candidate that is its own parent.
    # Endpoints off the multiples of 3, which the engine never expands, make more of
    # these cases occur
    cases = _parent_cases(n)
    assert set(cases) == {
        ("critical", n // 3), ("critical", 2 * n // 3), ("same triple", None),
        (-1, None), (-1, 1), (-1, 3), (-1, 4), (-1, 5), (-1, 7),
        (0, None), (0, 1), (0, 5), (0, 6), (1, None), (1, 2)}
    third, unmatched = n // 3, 0
    for a, b in cases.values():
        for mask in range(512):
            survivors = {cid: tuple(sorted((a // 3 + cid // 3 * third, b // 3 + cid % 3 * third)))
                         for cid in range(9) if mask >> cid & 1}
            regions = (np.empty(0, dtype=np.int64), np.array([[mask]]))
            try:
                want = sorted(reference.select_pullbacks((a, b), survivors, n))
            except InvariantError as err:
                with pytest.raises(InvariantError) as got:
                    _level_children(np.array([[a, b]]), regions, n)
                assert got.value.witness == err.witness, (a, b, mask)
                unmatched += 1
                continue
            got = _level_children(np.array([[a, b]]), regions, n)
            assert sorted(map(tuple, got.tolist())) == want, (a, b, mask)
    assert unmatched > 0


def test_cell_table_matches_candidate_survivals():
    # a parent's survival mask, looked up by the cells of its endpoints among the cuts,
    # has bit 3*i + j set exactly when its candidate (u_i, v_j) crosses no barrier, for
    # every parent on the grid (endpoints multiples of 3 or not), with barriers ending
    # at 0 and at n - 1; parents with and without a surviving matching both occur
    rng = random.Random(29)
    outcomes = set()
    for k in (1, 2, 3):
        n = 6 * 3**k
        points = np.arange(n)
        pre = points[:, None] // 3 + n // 3 * np.arange(3)
        cand = (pre[:, None, :, None], pre[None, :, None, :])  # (u_i, v_j) of each parent
        for trial in range(40):
            ends = rng.sample(range(1, n - 1), rng.randint(2, 8))
            barriers = [tuple(sorted(rng.sample(ends, 2))) for _ in range(rng.randint(1, 5))]
            barriers += [tuple(sorted((e, rng.choice(ends)))) for e in ([], [0], [n - 1],
                                                                          [0, n - 1])[trial % 4]]
            cuts, masks = _barrier_regions(barriers, n)
            crossed = np.zeros((n, n, 3, 3), dtype=bool)
            for bar in barriers:
                crossed |= crosses(bar, cand, n)
            want = (~crossed).reshape(n, n, 9) @ (1 << np.arange(9))
            cell = cuts.searchsorted(points, "right")
            assert np.array_equal(masks[cell[:, None], cell[None, :]], want), barriers
            outcomes.update(np.unique(np.isin(want, reference._MATCH_MASKS)).tolist())
    assert outcomes == {True, False}


def test_no_matching_raises_its_witness(no_matching):
    # each level reads the module's `_PICK` once, for all its parents
    with pytest.raises(InvariantError, match="survives its barriers") as err:
        build_prelamination(ch(11, 12, 1, 12), 2)
    assert err.value.witness["kind"] == "no-matching"
    assert set(err.value.witness) == {"kind", "parent", "survivors"}


def test_crossing_family_raises_invariant_error_with_witness(crossing_pullback):
    with pytest.raises(InvariantError, match="produced a crossing") as err:
        build_prelamination(ch(11, 12, 1, 12), 2)
    assert witness_crosses(err.value.witness)


def test_repeated_family_raises_invariant_error_with_witness(repeating_pullback, monkeypatch):
    c = ch(11, 12, 1, 12)
    with pytest.raises(InvariantError, match="repeats the chord") as err:
        build_prelamination(c, 2)
    witness = err.value.witness
    assert witness["kind"] == "repeat" and set(witness) == {"kind", "chord"}
    monkeypatch.undo()
    repeated = Chord(parse_angle(witness["chord"]["a"]), parse_angle(witness["chord"]["b"]))
    assert build_prelamination(c, 2).contains(repeated)


def test_parent_without_surviving_matching_raises_invariant_error():
    # the preimages of (1/8, 3/8) are u_i = 1/24, 3/8, 17/24 and v_j = 1/8, 11/24, 19/24;
    # the diameters (0, 1/2) and (1/4, 3/4) leave only (u_0, v_0) and (u_1, v_1), which
    # complete none of the five matchings
    with pytest.raises(InvariantError, match=r"preimages of \(1/8, 3/8\) survives") as err:
        pullbacks(ch(1, 8, 3, 8), [ch(0, 1, 1, 2), ch(1, 4, 3, 4)])
    assert err.value.witness == {
        "kind": "no-matching", "parent": {"a": "1/8", "b": "3/8"},
        "survivors": [{"a": "1/24", "b": "1/8"}, {"a": "3/8", "b": "11/24"}]}


def test_pruned_comajor_raises_invariant_error_with_witness(pruning_everything):
    with pytest.raises(InvariantError, match="did not survive its own pruning") as err:
        hyperbolic_prune(ch(5, 24, 7, 24), 2)
    assert err.value.witness == PRUNED_COMAJOR
