import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from trilam.angles import parse_angle
from trilam.builder import build
from trilam.chords import Chord, image, length
from trilam.formats import prelamination_to_json
from trilam.grid import MAX_INT64_MODULUS, closure, on_grid, scale_of
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
from conftest import PULLBACK_SEEDS, ch, witness_crosses
from reference import LengthClass, chord_orbit, classify, sml_siblings


def grid_chord(p, n):
    return Chord(Fraction(p[0], n), Fraction(p[1], n))


def quad_barriers(c):
    n, _, barriers = _seed_system(c)
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
        _, seeds, barriers = _seed_system(seed)
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
        n, seeds_got, barriers = _seed_system(c)
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
    assert set(pre.chords()) == {
        ch(1, 6, 5, 6), ch(1, 3, 2, 3),
        ch(17, 18, 1, 18), ch(7, 18, 11, 18),
        ch(4, 9, 5, 9), ch(8, 9, 1, 9),
    }


def test_nondegenerate_depth_zero_seed_family():
    pre = build_prelamination(ch(1, 6, 1, 3), 0)
    chords = set(pre.chords())
    assert {ch(1, 6, 1, 3), ch(2, 3, 5, 6), ch(0, 1, 1, 2)} <= chords
    assert len(chords) == 7  # edges of both quadrilaterals plus the fixed minor


def test_collapsing_quadrilateral_tiebreak():
    # degenerate 1/6: the critical chord (1/2, 5/6) has the periodic endpoint
    # 1/2, so its pullbacks form a collapsing quadrilateral; only the short
    # edges survive, alongside the regular pullback on the far side
    pre = build_prelamination(Chord(Fraction(1, 6), Fraction(1, 6)), 1)
    chords = set(pre.chords())
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
    for c in pre.chords()[:20]:
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
        for c in pre.chords():
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
    want = [any(t in chord_orbit(c).chords for t in targets) for c in pre.chords()]
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
            chords = pre.chords()
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
    chords = hand.chords()
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
    assert all(pre.contains(c) for c in pre.chords())


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


def _check_level(frontier, barriers, n):
    got = _level_children(frontier, _barrier_regions(barriers, n), n)
    assert np.array_equal(got, reference.level_children(frontier, barriers, n))
    return got


def test_level_children_matches_barrier_oracle_on_build5_seeds():
    levels = 0
    for rec in build(5).leaves:
        n0, seeds, barriers = _seed_system(rec.chord)
        scale = 3**5
        n = n0 * scale
        bars = [(x * scale, y * scale) for x, y in barriers]
        seeded = np.array(seeds, dtype=np.int64) * scale
        keys = np.unique(seeded[:, 0] * n + seeded[:, 1])  # the engine's level 0
        for _ in range(5):
            children = _check_level(np.stack(np.divmod(keys, n), 1), bars, n)
            x, y = 3 * children.T % n
            child_keys = children[:, 0] * n + children[:, 1]
            # a child's image is its parent, so distinct parents have distinct children
            assert (np.isin(np.minimum(x, y) * n + np.maximum(x, y), keys).all()
                    and len(np.unique(child_keys)) == len(child_keys))
            keys = np.unique(child_keys)
            levels += 1
    assert levels == 5 * 688


def test_level_children_matches_barrier_oracle_on_endpoint_barriers():
    # barriers whose endpoints are preimage points of the frontier or
    # their grid neighbours, so candidates end on barrier endpoints
    rng = random.Random(3)
    n = 6 * 3**6
    for _ in range(300):
        frontier = np.array([sorted(rng.sample(range(n), 2)) for _ in range(40)], dtype=np.int64)
        pre = [(int(x) // 3 + k * (n // 3)) % n for x in frontier.ravel() for k in range(3)]
        ends = [(rng.choice(pre) + rng.choice([-1, 0, 0, 1])) % n
                for _ in range(rng.randint(2, 16))]
        barriers = [tuple(sorted(rng.sample(ends, 2))) for _ in range(rng.randint(1, 8))]
        _check_level(frontier, barriers, n)


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
