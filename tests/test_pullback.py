from fractions import Fraction

import numpy as np
import pytest

from trilam.builder import build
from trilam.chords import Chord, classify, image, length, LengthClass, sml_siblings
from trilam.orbits import chord_orbit
from trilam.grid import MAX_INT64_MODULUS, closure, on_grid, scale_of
from trilam.pullback import (
    IllegalSeedError,
    Prelamination,
    _level_children,
    _seed_system,
    build_prelamination,
    hyperbolic_prune,
    short_quad_edges,
)

import reference
from conftest import PULLBACK_SEEDS, ch


def grid_chord(p, n):
    return Chord(Fraction(p[0], n), Fraction(p[1], n))


def quad_barriers(c):
    n, _, barriers = _seed_system(c)
    return [grid_chord(p, n) for p in barriers]


def pullbacks(parent, barriers):
    """Selected preimages of one chord among the barriers, by `_level_children` on their grid."""
    n = 3 * scale_of(v for c in (parent, *barriers) for v in c.endpoints())
    pairs = [(on_grid(c.a, n), on_grid(c.b, n)) for c in (parent, *barriers)]
    got = _level_children(np.array(pairs[:1], dtype=np.int64), pairs[1:], n).tolist()
    return sorted((grid_chord(p, n) for p in got), key=Chord.sort_key)


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
                         key=Chord.sort_key)
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


def _hand_built(modulus, pairs, seed):
    return Prelamination(seed=seed, depth=0, modulus=modulus,
                         pairs=np.array(pairs, dtype=np.int64),
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


@pytest.mark.parametrize("seed", PULLBACK_SEEDS, ids=str)
def test_level_dedup_matches_dict_reference(seed):
    for depth in range(7):
        pre = build_prelamination(seed, depth)
        pairs, depths, n = reference.prelamination_levels(seed, depth)
        assert pre.modulus == n, depth
        assert np.array_equal(pre.pairs, pairs), depth
        assert np.array_equal(pre.depths, depths), depth


def test_prelamination_keys_are_the_sorted_chord_keys():
    pre = hyperbolic_prune(ch(11, 12, 1, 12), 3)
    n = pre.modulus
    assert pre.keys.tolist() == sorted(lo * n + hi for lo, hi in pre.pairs.tolist())
    assert all(pre.contains(c) for c in pre.chords())
