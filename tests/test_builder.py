from fractions import Fraction

import pytest

from trilam.builder import (
    BuildError,
    BuildState,
    build,
    group_by_component,
    make_record,
    nesting_audit,
    pair_consecutively,
    run_step,
    seed_leaves,
)
from trilam.formats import records_to_csv, records_to_json
from trilam.orbits import preperiod1_points

from conftest import ch


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
    groups = group_by_component(preperiod1_points(2, "D"), state)
    assert [[str(p) for p in g] for g in groups] == [
        ["23/24", "1/24"],   # ordered along the wrapping arc of (11/12, 1/12)
        ["5/24", "7/24"],
        ["11/24", "13/24"],
        ["17/24", "19/24"],
    ]


def test_group_block2_b_points_against_seeds():
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    groups = group_by_component(preperiod1_points(2, "B"), state)
    assert len(groups) == 8
    assert all(len(g) == 2 for g in groups)


def test_group_rejects_endpoint_collision():
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    with pytest.raises(BuildError):
        group_by_component([Fraction(1, 6)], state)


def test_pair_consecutively():
    assert pair_consecutively([Fraction(5, 24), Fraction(7, 24)]) == [ch(5, 24, 7, 24)]
    assert pair_consecutively([Fraction(23, 24), Fraction(1, 24)]) == [ch(23, 24, 1, 24)]
    b = [Fraction(1, 48), Fraction(5, 48), Fraction(7, 48), Fraction(11, 48)]
    assert pair_consecutively(b) == [ch(1, 48, 5, 48), ch(7, 48, 11, 48)]


def test_pair_rejects_odd_groups():
    with pytest.raises(BuildError):
        pair_consecutively([Fraction(1, 24)])


def test_pair_rejects_overlong_chords():
    with pytest.raises(BuildError):
        pair_consecutively([Fraction(0), Fraction(1, 4)])


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


def test_build_counts():
    assert len(build(1).leaves) == 4
    assert len(build(2).leaves) == 16
    assert len(build(3).leaves) == 64


def test_build_verified_through_block_three():
    state = build(3, verify=True)
    assert state.completed_block == 3


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
        leaves=[make_record(ch(1, 20, 1, 12), "D", 5),
                make_record(ch(1, 18, 1, 14), "D", 5)],
        completed_block=5,
    )
    with pytest.raises(BuildError):
        nesting_audit(state)


def test_nesting_audit_accepts_separated_same_type(build4):
    # build(4) contains same-type same-block nestings, each split by a
    # smaller-block leaf (the structure theorem); the audit must accept them
    rep = nesting_audit(build4)
    assert rep.separated_same_type
    for inner, outer, sep in rep.separated_same_type:
        assert sep.block_period < inner.block_period == outer.block_period
