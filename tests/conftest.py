import gc
from fractions import Fraction

import numpy as np
import pytest

from trilam import builder, pullback
from trilam.angles import parse_angle
from trilam.builder import build
from trilam.chords import Chord, crosses


def ch(p, q, r, s) -> Chord:
    return Chord(Fraction(p, q) % 1, Fraction(r, s) % 1)


def gen0_collections(job) -> int:
    """The gen-0 collections of CPython's cyclic GC while `job()` runs, at the thresholds
    (700, 10, 10) set here and restored after; a collection starts after 700 net
    allocations of tracked objects (tuples, lists, instances), so it counts those a
    job keeps alive."""
    old = gc.get_threshold()
    gc.collect()
    gc.set_threshold(700, 10, 10)
    try:
        before = gc.get_stats()[0]["collections"]
        job()
        return gc.get_stats()[0]["collections"] - before
    finally:
        gc.set_threshold(*old)


# the degenerate 1/2 seed and legal pairs whose pullback families the
# grid paths are checked on against the reference
PULLBACK_SEEDS = [
    Chord(Fraction(1, 2), Fraction(1, 2)),
    ch(5, 12, 7, 12),
    ch(5, 24, 7, 24),
    ch(29, 48, 31, 48),
    ch(7, 39, 8, 39),
    ch(1, 24, 23, 24),
]


@pytest.fixture(scope="session")
def build4():
    return build(4)


@pytest.fixture(scope="session")
def build6():
    return build(6)


# the witness of a block-2 leaf (1/4, 3/8) drawn across the seed leaf (1/6, 1/3)
CROSSING_LEAVES = {"kind": "crossing", "first": {"a": "1/6", "b": "1/3"},
                   "second": {"a": "1/4", "b": "3/8"}}


@pytest.fixture
def crossing_leaf(monkeypatch):
    """The builder draws the block-2 leaf (1/4, 3/8), which crosses a seed leaf."""
    monkeypatch.setattr(builder, "group_by_component",
                        lambda points, state: [np.array([state.scale // 4, 3 * state.scale // 8])])


# the witnesses of a block-2 group of one point and of the block-2 chord (0, 1/4)
ODD_COMPONENT = {"kind": "odd-component", "points": ["1/24"]}
OVER_LONG = {"kind": "over-long", "chord": {"a": "0/1", "b": "1/4"}}


@pytest.fixture
def odd_component(monkeypatch):
    """The builder finds one block-2 component holding the single point 1/24."""
    monkeypatch.setattr(builder, "group_by_component",
                        lambda points, state: [np.array([state.scale // 24])])


@pytest.fixture
def over_long_leaf(monkeypatch):
    """The builder pairs the block-2 points 0 and 1/4, a chord longer than 1/6."""
    monkeypatch.setattr(builder, "group_by_component",
                        lambda points, state: [np.array([0, state.scale // 4])])


# the witnesses of a block-2 candidate at the seed endpoint 1/6 and of the first
# block-2 point, 1/48, when no seed leaf cuts the disk
COLLISION = {"kind": "collision", "point": "1/6", "leaf": {"a": "1/6", "b": "1/3"}}
NO_SECTOR = {"kind": "no-sector", "point": "1/48"}


@pytest.fixture
def colliding_point(monkeypatch):
    """The block-2 candidates also hold 1/6, an endpoint of the seed leaf (1/6, 1/3)."""
    real = builder.preperiod1_grid

    def with_collision(block, ptype):
        nums, den = real(block, ptype)
        return np.append(nums, den // 6), den

    monkeypatch.setattr(builder, "preperiod1_grid", with_collision)


@pytest.fixture
def no_seed(monkeypatch):
    """The builder starts from no leaves, so no block-2 point lies in a sector."""
    monkeypatch.setattr(builder, "seed_leaves", lambda: [])


@pytest.fixture
def crossing_pullback(monkeypatch):
    """Each pullback level also yields its longest child moved one grid step back: a crossing."""
    real = pullback._level_children

    def with_crossing(frontier, regions, n):
        out = real(frontier, regions, n)
        lo, hi = out[np.argmax((out[:, 1] - out[:, 0]) * (out[:, 0] > 0))]
        return np.vstack([out, [[lo - 1, hi - 1]]])

    monkeypatch.setattr(pullback, "_level_children", with_crossing)


@pytest.fixture
def repeating_pullback(monkeypatch):
    """Each pullback level also yields its first child a second time: a repeated chord."""
    real = pullback._level_children

    def with_repeat(frontier, regions, n):
        out = real(frontier, regions, n)
        return np.vstack([out, out[:1]])

    monkeypatch.setattr(pullback, "_level_children", with_repeat)


def witness_crosses(witness: dict) -> bool:
    """True iff a JSON crossing witness names two chords that cross."""
    first, second = (Chord(parse_angle(witness[k]["a"]), parse_angle(witness[k]["b"]))
                     for k in ("first", "second"))
    return witness["kind"] == "crossing" and crosses(first, second)


# the witnesses of the block-1 type-B candidate 0, which no leaf ends at, and
# of the comajor (5/24, 7/24) pruned from its own family
ENDPOINT_USAGE = {"kind": "endpoint-usage", "point": "0/1", "endpoints": 0, "candidates": 1}
PRUNED_COMAJOR = {"kind": "pruned-comajor", "chord": {"a": "5/24", "b": "7/24"}}


@pytest.fixture
def extra_candidate(monkeypatch):
    """The type-B candidates of every block also hold 0; only `--verify` of block 1 sees them."""
    real = builder.preperiod1_grid

    def with_zero(block, ptype):
        nums, den = real(block, ptype)
        return (np.append(nums, 0) if ptype == "B" else nums), den

    monkeypatch.setattr(builder, "preperiod1_grid", with_zero)


@pytest.fixture
def pruning_everything(monkeypatch):
    """Every seed counts as a short quadrilateral edge: pruning grows none."""
    real = pullback._seed_system

    def all_edges(c):
        n, seeds, barriers, _ = real(c)
        return n, seeds, barriers, seeds

    monkeypatch.setattr(pullback, "_seed_system", all_edges)


@pytest.fixture
def no_matching(monkeypatch):
    """The selection table leaves every parent no matching, so the first one raises."""
    monkeypatch.setattr(pullback, "_PICK", np.full_like(pullback._PICK, -2))
