"""Step-wise construction of all co-periodic comajor leaves by block period.

Step 1 draws the four block-period-1 leaves.  Each later step takes the
preperiod-1 points of the next block (type B first, then type D against
the enlarged leaf set), partitions them into components cut out by the
already drawn leaves (the central one split further by the four sectors
the step-1 leaves leave on the circle), and pairs the points of each
component consecutively along its boundary arc.  A long chord, an odd
component, a reused point or a crossing raises BuildError rather than
being repaired, since each contradicts a theorem about the lamination.
The leaves live on one integer grid held by `BuildState`, a (lo, hi) row
per leaf beside its type and block; each step grows the scale by one
lcm.  Grouping, pairing, the crossing check and the nesting audit run on
these rows through one laminar pass (`grid.Laminar`), in which grouping
lays the four sectors beside the leaves as arcs; output is written from
the rows, and `Fraction` records only when leaves are read: records and
rows convert by `records_to_rows` and `rows_to_records`, here and in `formats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from math import lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .angles import angle_str
from .chords import Chord, chord_to_json, crossing_to_json, image
from .grid import MAX_INT64_MODULUS, Laminar, int_dtype, rows_of, short_arc_order
from .legality import is_legal_pair, legal_mask
from .orbits import preperiod1_grid

__all__ = [
    "ComajorRecord",
    "BuildState",
    "NestingReport",
    "BuildError",
    "VerificationError",
    "seed_leaves",
    "group_by_component",
    "pair_consecutively",
    "run_step",
    "build",
    "nesting_audit",
    "records_to_rows",
    "rows_to_records",
    "check_types",
]


class BuildError(RuntimeError):
    """A theorem-backed contract of the construction was violated; `witness` is JSON or None."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness


class VerificationError(RuntimeError):
    """A produced leaf failed the independent legality oracle; `witness` is the verdict's JSON."""

    def __init__(self, leaf: Chord, verdict):
        super().__init__(f"leaf {leaf} failed certification")
        self.witness = verdict.to_json()["witness"]


@dataclass(frozen=True, slots=True)
class ComajorRecord:
    """A co-periodic comajor leaf with its classification and provenance."""

    chord: Chord
    ptype: str  # "B" or "D"
    block_period: int

    @property
    def minor(self) -> Chord:
        return image(self.chord)


def records_to_rows(records: Iterable[ComajorRecord], *moduli: int,
                    reach: int = 1) -> tuple[np.ndarray, int, list[str], list[int]]:
    """(pairs, n, types, blocks): the records' chords as `grid.rows_of` puts them on a grid,
    and their types and blocks, in record order."""
    records = list(records)
    ends = (v.as_integer_ratio() for r in records for v in r.chord.endpoints())
    pairs, n = rows_of(ends, *moduli, reach=reach)
    return pairs, n, [r.ptype for r in records], [r.block_period for r in records]


def rows_to_records(pairs: np.ndarray, n: int, types: Iterable[str],
                    blocks: Iterable[int]) -> list[ComajorRecord]:
    """The records of (lo, hi) rows on the grid of n and their types and blocks, in row order."""
    return [ComajorRecord(Chord.from_grid(p, n), t, b)
            for p, t, b in zip(pairs.tolist(), types, blocks)]


def check_types(types: Sequence[str]) -> Sequence[str]:
    """The record types, each 'B' or 'D'; others are refused by name."""
    bad = sorted(set(types) - {"B", "D"})
    if bad:
        raise ValueError(f"record types must be 'B' or 'D', got {bad}")
    return types


class BuildState:
    """The leaves drawn so far: (lo, hi) rows on the grid of `scale`, type and block columns.

    `pairs` holds one row per leaf, in leaf order, of dtype
    `int_dtype(3 * scale)`; `ptypes` and `blocks` hold each leaf's type
    and block.  All are derived from `leaves` once; each step grows the
    grid (`grow`) and appends to them.
    """

    def __init__(self, leaves: Sequence[ComajorRecord] = (), completed_block: int = 0):
        self.completed_block = completed_block
        self.pairs, self.scale, types, blocks = records_to_rows(leaves, 12, reach=3)
        self.ptypes = np.array(check_types(types), dtype="U1")
        self.blocks = np.array(blocks, dtype=np.int64)
        if (self.blocks < 1).any():
            raise ValueError(f"record {leaves[np.argmax(self.blocks < 1)]!r} needs 'block' >= 1")

    def grow(self, nums: np.ndarray, den: int) -> np.ndarray:
        """Grow the scale to a multiple of den and return the angles nums / den on it."""
        scale = lcm(self.scale, den)
        if scale != self.scale:  # cast first: the products may pass int64
            self.pairs = self.pairs.astype(int_dtype(3 * scale)) * (scale // self.scale)
            self.scale = scale
        return nums.astype(self.pairs.dtype) * (scale // den)

    leaves = property(lambda self: rows_to_records(self.pairs, self.scale, self.ptypes.tolist(),
                                                   self.blocks.tolist()),
                      doc="The records of the leaves in leaf order, made on each read.")

    def order(self) -> np.ndarray:
        """The leaves' rows in canonical order: block, type D before B, then the short-arc key."""
        order = short_arc_order(self.pairs, self.scale)
        return order[np.lexsort((self.ptypes[order] == "B", self.blocks[order]))]

    def sorted_leaves(self) -> list[ComajorRecord]:
        """The records in canonical order (`order`)."""
        order = self.order()
        return rows_to_records(self.pairs.take(order, 0), self.scale, self.ptypes[order].tolist(),
                               self.blocks[order].tolist())


@dataclass
class NestingReport:
    cross_type: list[tuple[ComajorRecord, ComajorRecord]]  # (inner, outer) pairs
    separated_same_type: list[tuple[ComajorRecord, ComajorRecord, ComajorRecord]]
    # (inner, outer, smaller-block separator) triples


# Step-1 leaves; the four sectors between them bound all later central candidates.
_SEED_DATA = (
    ("D", Fraction(1, 6), Fraction(1, 3)),
    ("D", Fraction(2, 3), Fraction(5, 6)),
    ("B", Fraction(5, 12), Fraction(7, 12)),
    ("B", Fraction(11, 12), Fraction(1, 12)),
)


def seed_leaves() -> list[ComajorRecord]:
    """The four block-period-1 comajor leaves."""
    return [ComajorRecord(Chord(a, b), t, 1) for t, a, b in _SEED_DATA]


def _arc_family(pairs: np.ndarray, scale: int) -> tuple[np.ndarray, np.ndarray, Laminar]:
    """(rows, owner, laminar structure) of the short arcs of crossing-free (lo, hi) chords.

    Row i < len(pairs) is the arc (start, end) of chord i, 0 <= start <
    scale; an arc reaching the seam at `scale` is repeated shifted by
    -scale, so that every arc holding a point of [0, scale) holds it on
    the line, and `owner` maps each row to its chord.  These lifts of a
    crossing-free family are laminar; a crossing raises BuildError.
    """
    x, y = pairs.T
    wrap = 2 * (y - x) > scale
    rows = np.stack([np.where(wrap, y, x), np.where(wrap, x + scale, y)], axis=1)
    seam = np.flatnonzero(rows[:, 1] >= scale)
    rows = np.concatenate([rows, rows[seam] - scale])
    owner = np.concatenate([np.arange(len(pairs)), seam])
    lam = Laminar(rows)
    if lam.crossing is not None:
        first, second = (Chord.from_grid(pairs[owner[r]].tolist(), scale) for r in lam.crossing)
        raise BuildError(f"leaf {first} crosses leaf {second}", crossing_to_json(first, second))
    return rows, owner, lam


def group_by_component(points: np.ndarray, state: BuildState) -> list[np.ndarray]:
    """Partition candidate points, ints on `state.scale`, by the component of the disk.

    Two points share a group iff no existing leaf separates them.  The
    central component (under no leaf) is split further by the four
    sectors ((3j + 1)/12, (3j + 2)/12) that the step-1 leaves leave on
    the circle; these are laid beside the leaves as four more arcs, and
    the arcs are laminar, so a point's group is keyed by the innermost
    arc containing it (`Laminar.regions`), leaf or sector.  A central
    point under no arc lies in no sector.  Points are ordered along
    their group's arc (wrap-aware); groups are ordered by smallest
    member.  A point colliding with an existing endpoint signals an
    enumeration bug.
    """
    scale, pts = state.scale, points
    sectors = np.array([[1, 2], [4, 5], [7, 8], [10, 11]], state.pairs.dtype) * (scale // 12)
    rows, owner, lam = _arc_family(np.concatenate([state.pairs, sectors]), scale)
    ends = np.sort(np.append(state.pairs, scale))  # scale lies past every point
    taken = np.flatnonzero(ends[np.searchsorted(ends, pts)] == pts)
    if len(taken):
        leaf = state.pairs[(state.pairs == pts[taken[0]]).any(1).argmax()].tolist()
        point = Fraction(int(pts[taken[0]]), scale)
        raise BuildError(f"candidate point {point} collides with an existing leaf endpoint",
                         {"kind": "collision", "point": angle_str(point),
                          "leaf": chord_to_json(Chord.from_grid(leaf, scale))})
    row = lam.regions(pts)
    homeless = np.flatnonzero(row < 0)
    if len(homeless):
        point = Fraction(int(pts[homeless[0]]), scale)
        raise BuildError(f"central point {point} lies in no sector",
                         {"kind": "no-sector", "point": angle_str(point)})
    # bucket: the leaf or sector of the innermost arc; pos: the offset along that arc
    bucket, pos = owner[row], pts - rows[row, 0]

    order = np.lexsort((pos, bucket))
    pts = pts[order]
    starts = np.flatnonzero(np.diff(bucket[order], prepend=-1))
    first, stop = starts.tolist(), [*starts[1:].tolist(), len(pts)]
    return [pts[first[k]:stop[k]] for k in np.argsort(np.minimum.reduceat(pts, starts)).tolist()]


def pair_consecutively(groups: list[np.ndarray], scale: int) -> np.ndarray:
    """(lo, hi) rows pairing (1st,2nd), (3rd,4th), ... of each boundary-ordered group.

    Odd group size and chords longer than 1/6 are hard errors (both
    contradict theorems about co-periodic comajors).
    """
    odd = np.flatnonzero(np.array([len(g) for g in groups]) % 2)
    if len(odd):
        points = [angle_str(Fraction(v, scale)) for v in groups[odd[0]].tolist()]
        raise BuildError(f"component holds an odd number of candidate points: {points}",
                         {"kind": "odd-component", "points": points})
    pairs = np.sort(np.concatenate(groups).reshape(-1, 2), axis=1)
    d = pairs[:, 1] - pairs[:, 0]
    long = np.flatnonzero(6 * np.minimum(d, scale - d) > scale)
    if len(long):
        chord = Chord.from_grid(pairs[long[0]].tolist(), scale)
        raise BuildError(f"consecutive pairing produced an over-long chord {chord}",
                         {"kind": "over-long", "chord": chord_to_json(chord)})
    return pairs


def _commit(state: BuildState, block: int, ptype: str) -> None:
    points = state.grow(*preperiod1_grid(block, ptype))
    new = pair_consecutively(group_by_component(points, state), state.scale)
    family = np.concatenate([state.pairs, new])
    _arc_family(family, state.scale)  # one laminarity pass: a crossing is a hard error
    state.pairs = family
    state.ptypes = np.concatenate([state.ptypes, np.full(len(new), ptype)])
    state.blocks = np.concatenate([state.blocks, np.full(len(new), block)])


def run_step(state: BuildState, block: int) -> BuildState:
    """Add all block-`block` leaves: type B first, then type D against the enlarged set."""
    if block < 2:
        raise ValueError(f"block {block} is no step: block 1 is the seed, seed_leaves()")
    if state.completed_block != block - 1:
        raise ValueError(f"state completed block {state.completed_block}, expected {block - 1}")
    _commit(state, block, "B")
    _commit(state, block, "D")
    state.completed_block = block
    return state


def build(max_block: int, verify: bool = False) -> BuildState:
    """Seed plus steps 2..max_block; with verify, certify every leaf with the oracle."""
    if max_block < 1:
        raise ValueError("max_block must be >= 1")
    if 2 * (3**max_block - 1) > MAX_INT64_MODULUS:  # the last block's type-B modulus
        top = next(k for k in count(1) if 2 * (3**(k + 1) - 1) > MAX_INT64_MODULUS)
        raise ValueError(f"block {max_block} needs modulus {2 * (3**max_block - 1)}, where int64 "
                         f"chord keys would wrap; the largest block is {top}")
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    for block in range(2, max_block + 1):
        run_step(state, block)
    if verify:
        _verify(state)
    return state


def _verify(state: BuildState) -> None:
    """`legal_mask` once per (block, type) class on its grid 3M, a multiple of 6 as 3^k - 1
    is even; the first failing leaf raises VerificationError with `is_legal_pair`'s witness
    for its row."""
    failed, expected = [], []
    for block, t in product(range(1, state.completed_block + 1), "BD"):
        nums, den = preperiod1_grid(block, t)
        leaves = np.flatnonzero((state.blocks == block) & (state.ptypes == t))
        rows = state.pairs.take(leaves, 0) // (state.scale // den)
        failed += [(leaves[i], rows[i], den) for i in np.flatnonzero(~legal_mask(rows, den))[:1]]
        expected.append(nums.astype(state.pairs.dtype) * (state.scale // den))
    if failed:
        leaf, row, n = min(failed, key=lambda f: f[0])
        raise VerificationError(Chord.from_grid(state.pairs[leaf].tolist(), state.scale),
                                is_legal_pair(Chord.from_grid(row.tolist(), n)))
    # the multisets of leaf endpoints and candidate points agree
    used, points = np.sort(state.pairs, axis=None), np.sort(np.concatenate(expected))
    if not np.array_equal(used, points):  # the least point counted differently lies at
        k = min(len(used), len(points))  # their first difference, or first extra value
        k = next(iter(np.flatnonzero(used[:k] != points[:k])), k)
        point = min(v[k] for v in (used, points) if len(v) > k)
        raise BuildError("endpoint usage does not cover each candidate point exactly once",
                         {"kind": "endpoint-usage",
                          "point": angle_str(Fraction(int(point), state.scale)),
                          "endpoints": int(np.count_nonzero(used == point)),
                          "candidates": int(np.count_nonzero(points == point))})


def nesting_audit(state: BuildState) -> NestingReport:
    """Audit equal-block nestings against the block-period structure theorem.

    For every nested pair of leaves of the same block period, a leaf of
    strictly smaller block period must lie between them (it is what put
    the inner leaf in its own component when the pair was drawn).  For a
    same-type pair a missing separator is a hard error; cross-type pairs
    are reported, the separated same-type ones listed with their
    separator.  Pairs are ordered by block, then by their leaves' positions.
    """
    _, owner, lam = _arc_family(state.pairs, state.scale)
    # all leaves climb their chains of enclosing arcs at once, recording
    # each same-block ancestor with the first smaller-block leaf passed
    parent = lam.parents()[: len(state.pairs)]
    up = np.where(parent >= 0, owner[parent], -1)
    blocks = state.blocks
    leaf = np.flatnonzero(up >= 0)
    at, passed = up[leaf], np.full(len(leaf), -1)
    found = []
    while len(leaf):
        same = blocks[at] == blocks[leaf]
        found.append(np.stack([leaf[same], at[same], passed[same]]))
        passed = np.where((passed < 0) & (blocks[at] < blocks[leaf]), at, passed)
        at = up[at]
        keep = at >= 0
        leaf, at, passed = leaf[keep], at[keep], passed[keep]
    found = np.concatenate([np.empty((3, 0), dtype=np.intp), *found], axis=1)
    inner, outer, sep = found[:, np.lexsort((found[:2].max(0), found[:2].min(0),
                                             blocks[found[0]]))]
    del found
    leaves = state.leaves
    cross = state.ptypes[inner] != state.ptypes[outer]
    bare = np.flatnonzero(~cross & (sep < 0))[:1]
    if len(bare):
        i, o = leaves[inner[bare[0]]], leaves[outer[bare[0]]]
        raise BuildError(f"same-type block-{i.block_period} leaves nested with no smaller-block "
                         f"leaf between them: {i.chord} under {o.chord}",
                         {"kind": "unseparated", "inner": chord_to_json(i.chord),
                          "outer": chord_to_json(o.chord)})

    def records(rows, *cols):  # one map over the records per column, in the order above
        return list(zip(*(map(leaves.__getitem__, col[rows].tolist()) for col in cols)))

    return NestingReport(records(cross, inner, outer), records(~cross, inner, outer, sep))
