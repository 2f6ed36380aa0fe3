import hashlib
from fractions import Fraction

import numpy as np
import pytest

import reference
from trilam import builder
from trilam.builder import (
    BuildError,
    BuildState,
    ComajorRecord,
    build,
    group_by_component,
    nesting_audit,
    pair_consecutively,
    run_step,
    seed_leaves,
)
from trilam.chords import Chord
from trilam.formats import records_to_csv, records_to_json
from trilam.orbits import preperiod1_grid, preperiod1_points

from conftest import (COLLISION, CROSSING_LEAVES, ENDPOINT_USAGE, NO_SECTOR, ODD_COMPONENT,
                      OVER_LONG, ch, gen0_collections)


def fractions(col: np.ndarray, scale: int) -> list[Fraction]:
    return [Fraction(v, scale) for v in col.tolist()]


def test_seed_leaves():
    seeds = seed_leaves()
    assert [(r.ptype, str(r.chord)) for r in seeds] == [
        ("D", "(1/6, 1/3)"), ("D", "(2/3, 5/6)"),
        ("B", "(5/12, 7/12)"), ("B", "(11/12, 1/12)"),
    ]
    for r in seeds:
        assert r.block_period == 1
        assert r.minor == ch(0, 1, 1, 2) or r.minor == ch(1, 4, 3, 4)


def test_group_block2_d_points_against_seeds():
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    groups = group_by_component(state.grow(*preperiod1_grid(2, "D")), state)
    assert [[str(p) for p in fractions(g, state.scale)] for g in groups] == [
        ["23/24", "1/24"],   # ordered along the wrapping arc of (11/12, 1/12)
        ["5/24", "7/24"],
        ["11/24", "13/24"],
        ["17/24", "19/24"],
    ]


def test_group_block2_b_points_against_seeds():
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    groups = group_by_component(state.grow(*preperiod1_grid(2, "B")), state)
    assert len(groups) == 8
    assert all(len(g) == 2 for g in groups)


def test_group_rejects_endpoint_collision():
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    with pytest.raises(BuildError, match="candidate point 1/6 collides"):
        group_by_component(np.array([state.scale // 6]), state)


@pytest.mark.parametrize("point", [Fraction(1, 2), Fraction(1, 12)], ids=str)
def test_group_rejects_central_point_outside_the_sectors(point):
    # under no leaf, and not strictly inside any sector ((3j + 1)/12, (3j + 2)/12):
    # 1/2 lies between sectors, 1/12 is a sector's bound
    state = BuildState(leaves=[ComajorRecord(ch(1, 6, 1, 3), "D", 1)], completed_block=1)
    with pytest.raises(BuildError, match=f"central point {point} lies in no sector"):
        group_by_component(np.array([point.numerator * state.scale // point.denominator]), state)


def test_step_on_no_leaves_finds_points_outside_the_sectors():
    # with no leaf to collide with, the first block-2 point, of type B as that
    # pass runs first, reaches the sector test
    with pytest.raises(BuildError, match="central point 1/48 lies in no sector"):
        run_step(BuildState(completed_block=1), 2)


def test_pair_consecutively():
    # groups on the grid of 48: (5/24, 7/24), the wrapping (23/24, 1/24),
    # then two chords of one group, each as a (lo, hi) row
    groups = [np.array([10, 14]), np.array([46, 2]), np.array([1, 5, 7, 11])]
    assert pair_consecutively(groups, 48).tolist() == [[10, 14], [2, 46], [1, 5], [7, 11]]
    assert pair_consecutively([np.array([0, 8])], 48).tolist() == [[0, 8]]  # length 1/6


def test_pair_rejects_odd_groups():
    with pytest.raises(BuildError, match=r"odd number of candidate points: \['1/24'\]"):
        pair_consecutively([np.array([46, 2]), np.array([2])], 48)


def test_pair_rejects_overlong_chords():
    with pytest.raises(BuildError, match=r"over-long chord \(0, 1/4\)"):
        pair_consecutively([np.array([10, 14]), np.array([0, 12])], 48)


def test_run_step_two():
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    run_step(state, 2)
    assert state.completed_block == 2
    assert len(state.leaves) == 16
    b2 = {str(r.chord) for r in state.leaves if r.block_period == 2 and r.ptype == "B"}
    assert b2 == {"(47/48, 1/48)", "(5/48, 7/48)", "(11/48, 13/48)", "(17/48, 19/48)",
                  "(23/48, 25/48)", "(29/48, 31/48)", "(35/48, 37/48)", "(41/48, 43/48)"}
    d2 = {str(r.chord) for r in state.leaves if r.block_period == 2 and r.ptype == "D"}
    assert d2 == {"(23/24, 1/24)", "(5/24, 7/24)", "(11/24, 13/24)", "(17/24, 19/24)"}


def test_run_step_requires_consecutive_blocks():
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    with pytest.raises(ValueError):
        run_step(state, 3)


def test_run_step_refuses_the_seed_block():
    # block 1 is drawn by seed_leaves(), whose leaves bound the sectors
    for block in (0, 1):
        with pytest.raises(ValueError, match="block 1 is the seed"):
            run_step(BuildState(completed_block=block - 1), block)


def test_build_counts():
    assert len(build(1).leaves) == 4
    assert len(build(2).leaves) == 16
    assert len(build(3).leaves) == 64


def test_build_verified_through_block_three():
    state = build(3, verify=True)
    assert state.completed_block == 3


def test_verify_counts_each_point_once():
    # a repeated leaf uses each of its endpoints twice: the sets of used and
    # candidate points still agree, their multisets do not
    leaves = build(2).leaves
    state = BuildState(leaves=leaves + leaves[-1:], completed_block=2)
    with pytest.raises(BuildError, match="exactly once") as err:
        builder._verify(state)
    assert err.value.witness == {"kind": "endpoint-usage", "point": str(leaves[-1].chord.a),
                                 "endpoints": 2, "candidates": 1}


def test_verify_names_a_candidate_no_leaf_ends_at(extra_candidate):
    with pytest.raises(BuildError, match="exactly once") as err:
        build(1, verify=True)
    assert err.value.witness == ENDPOINT_USAGE


def test_count_law(build4):
    per = {}
    for r in build4.leaves:
        per[(r.block_period, r.ptype)] = per.get((r.block_period, r.ptype), 0) + 1
    for n in range(1, 5):
        for t in ("B", "D"):
            assert per[(n, t)] == len(preperiod1_points(n, t)) // 2
    assert per[(2, "B")] == 8 and per[(2, "D")] == 4
    assert per[(3, "B")] == 24 and per[(3, "D")] == 24


def test_build_is_deterministic():
    a, b = build(3), build(3)
    assert records_to_json(a.sorted_leaves()) == records_to_json(b.sorted_leaves())
    assert records_to_csv(a.sorted_leaves()) == records_to_csv(b.sorted_leaves())


def test_nesting_audit_block_one_and_two():
    rep1 = nesting_audit(build(1))
    assert rep1.cross_type == [] and rep1.separated_same_type == []
    rep2 = nesting_audit(build(2))
    pins = [(str(i.chord), str(o.chord)) for i, o in rep2.cross_type]
    assert ("(47/48, 1/48)", "(23/24, 1/24)") in pins
    assert all(i.ptype != o.ptype for i, o in rep2.cross_type)
    assert rep2.separated_same_type == []


def test_nesting_audit_same_type_needs_separator():
    # two same-type same-block leaves nested with nothing between: hard error
    state = BuildState(
        leaves=[ComajorRecord(ch(1, 20, 1, 12), "D", 5),
                ComajorRecord(ch(1, 18, 1, 14), "D", 5)],
        completed_block=5,
    )
    with pytest.raises(BuildError, match=r"same-type block-5 leaves nested with no smaller-block "
                       r"leaf between them: \(1/18, 1/14\) under \(1/20, 1/12\)") as err:
        nesting_audit(state)
    assert err.value.witness == {"kind": "unseparated", "inner": {"a": "1/18", "b": "1/14"},
                                 "outer": {"a": "1/20", "b": "1/12"}}


def test_nesting_audit_accepts_separated_same_type(build4):
    # build(4) contains same-type same-block nestings, each split by a
    # smaller-block leaf (the structure theorem); the audit must accept them
    rep = nesting_audit(build4)
    assert rep.separated_same_type
    for inner, outer, sep in rep.separated_same_type:
        assert sep.block_period < inner.block_period == outer.block_period


def test_group_by_component_matches_sweep_oracle_through_block_8(monkeypatch):
    # every step of build(8) groups its points as the stack sweep does
    real = builder.group_by_component
    calls = []

    def checked(points, state):
        got = real(points, state)
        want = reference.group_by_component(fractions(points, state.scale), state)
        assert [fractions(g, state.scale) for g in got] == want
        calls.append(len(points))
        return got

    monkeypatch.setattr(builder, "group_by_component", checked)
    build(8)
    assert len(calls) == 14 and sum(calls) == 2 * (19408 - 4)


# sha256 of the nesting_audit lists of build(k), recorded before the audit
# ran on `grid.Laminar` parents
_AUDIT_DIGESTS = {
    1: "1391876e63685b7da0e6a923dc6c4c106590930a70cdf4665088614cae243c44",
    2: "bdb175136ca0d38c1ef7837f56b850c9ccd5a15e037bafa47f35f73b4b4673ad",
    3: "c9b2bdeeccc5bbdfdccb0f73b732d49e78207c78980d70cbd7d0f60ef37ecc86",
    4: "cccc7ec59511cf3b95c0b027e828e338800a64ad66bd2d4e0ee9a411def6266f",
    5: "28d40a6b8f913f6887edc870f38285e7e1b9d15883877a74191d217530d985c4",
    6: "9875ee0e3fc3a61ab93df8fa696caf4402ae41ed8075e815a05c3f60ded0c2b2",
    7: "40611289cdc9a66e0a619e3def4b50688595e85f5147b6da7846a483e5e1f5eb",
    8: "6aaa06995af500ee23ed82b4794d6f05f99f003c4feaa08e19285c08b3f34518",
}


def audit_digest(rep) -> str:
    text = repr(([(str(i.chord), str(o.chord)) for i, o in rep.cross_type],
                 [(str(i.chord), str(o.chord), str(s.chord))
                  for i, o, s in rep.separated_same_type]))
    return hashlib.sha256(text.encode()).hexdigest()


def test_nesting_audit_lists_match_pinned_digests():
    for k, want in _AUDIT_DIGESTS.items():
        assert audit_digest(nesting_audit(build(k))) == want, k


def test_state_pairs_match_leaf_chords():
    # after every step the rows, the type column and the block column agree
    # with the records, the leaves of each (block, type) use exactly its
    # preperiod-1 points, and a state rebuilt from the records alone has
    # the same rows and records
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    for k in range(1, 7):
        if k > 1:
            run_step(state, k)
        leaves = state.leaves
        assert state.pairs.tolist() == [sorted(r.chord.on_grid(state.scale)) for r in leaves]
        assert state.ptypes.tolist() == [r.ptype for r in leaves]
        assert state.blocks.tolist() == [r.block_period for r in leaves]
        for block in range(1, k + 1):
            for t in "BD":
                ends = [v for r in leaves if (r.block_period, r.ptype) == (block, t)
                        for v in r.chord.endpoints()]
                assert sorted(ends) == sorted(preperiod1_points(block, t)), (k, block, t)
        fresh = BuildState(leaves=leaves, completed_block=k)
        assert (fresh.pairs * (state.scale // fresh.scale)).tolist() == state.pairs.tolist()
        assert fresh.leaves == leaves


def test_sorted_leaves_match_record_sort_through_block_8():
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    for k in range(1, 9):
        if k > 1:
            run_step(state, k)
        assert state.sorted_leaves() == sorted(state.leaves, key=reference.record_order), k


def test_object_grid_from_mid_build_gives_same_output(monkeypatch, build6):
    # 3 * scale is 2^15 at block 4 and 2^22 at block 5: with the int64
    # bound lowered to 2^21 the build changes dtype inside block 5
    monkeypatch.setattr(builder, "int_dtype", lambda largest: object if largest >= 2**21
                        else np.int64)
    state, dtypes = BuildState(leaves=seed_leaves(), completed_block=1), []
    for k in range(2, 7):
        dtypes.append(run_step(state, k).pairs.dtype)
    assert dtypes == [np.int64] * 3 + [object] * 2
    assert records_to_json(state.sorted_leaves()) == records_to_json(build6.sorted_leaves())
    assert audit_digest(nesting_audit(state)) == _AUDIT_DIGESTS[6]


def test_rows_to_records_keeps_no_list_per_row():
    # 50k rows: the only tracked objects kept are the records' own (record, chord and two
    # fractions), so the GC runs as often as building those records from flat ints does;
    # a list kept per row ran about 25% more collections
    n, m = 997, 50_000
    pairs = np.sort(np.arange(2 * m, dtype=np.int64).reshape(-1, 2) % n, axis=1)
    types, blocks, (los, his) = ["B"] * m, [1] * m, pairs.T.tolist()
    own = gen0_collections(lambda: [ComajorRecord(Chord.from_grid((lo, hi), n), t, b)
                                    for lo, hi, t, b in zip(los, his, types, blocks)])
    assert gen0_collections(lambda: builder.rows_to_records(pairs, n, types, blocks)) <= own + 5


def test_records_round_trip_rows_past_int64():
    # a modulus past 2^63: object rows of Python ints become Fraction(x, n) and come back
    n = 4 * 3**41
    pairs = np.array([[0, n // 2], [n // 3, n - 1], [5, 7]], dtype=object)
    records = builder.rows_to_records(pairs, n, ["D", "B", "D"], [1, 2, 3])
    assert [(r.chord.a, r.chord.b) for r in records] == [
        (Fraction(lo, n), Fraction(hi, n)) for lo, hi in pairs.tolist()]
    back, scale, types, blocks = builder.records_to_rows(records, n)
    assert (back.dtype, scale, types, blocks) == (object, n, ["D", "B", "D"], [1, 2, 3])
    assert back.tolist() == pairs.tolist()


def test_crossing_leaf_raises_with_witness(crossing_leaf):
    with pytest.raises(BuildError, match=r"leaf \(1/6, 1/3\) crosses leaf \(1/4, 3/8\)") as err:
        build(2)
    assert err.value.witness == CROSSING_LEAVES


@pytest.mark.parametrize("fixture,message,witness", [
    ("odd_component", r"odd number of candidate points: \['1/24'\]", ODD_COMPONENT),
    ("over_long_leaf", r"over-long chord \(0, 1/4\)", OVER_LONG),
    ("colliding_point", r"candidate point 1/6 collides with an existing leaf endpoint",
     COLLISION),
    ("no_seed", r"central point 1/48 lies in no sector", NO_SECTOR),
], ids=["odd-component", "over-long", "collision", "no-sector"])
def test_pairing_failure_raises_with_witness(request, fixture, message, witness):
    request.getfixturevalue(fixture)
    with pytest.raises(BuildError, match=message) as err:
        build(2)
    assert err.value.witness == witness


@pytest.mark.parametrize("record,message", [
    (ComajorRecord(ch(1, 6, 1, 3), "DB", 1), r"record types must be 'B' or 'D', got \['DB'\]"),
    (ComajorRecord(ch(1, 6, 1, 3), "D", 0), r"record ComajorRecord\(.*block_period=0\) needs "
                                            r"'block' >= 1"),
], ids=["type-DB", "block-0"])
def test_build_state_rejects_what_no_record_array_holds(record, message):
    # "U1" would keep "DB" as "D" without a word; records_from_json refuses both the same way
    with pytest.raises(ValueError, match=message):
        BuildState([record], 1)


def test_nesting_audit_rejects_crossing_leaves():
    state = BuildState(leaves=[ComajorRecord(ch(1, 6, 1, 3), "D", 1),
                               ComajorRecord(ch(1, 4, 3, 8), "D", 2)], completed_block=2)
    with pytest.raises(BuildError) as err:
        nesting_audit(state)
    assert err.value.witness == CROSSING_LEAVES
