"""Step-wise construction of all co-periodic comajor leaves by block period.

Step 1 draws the four block-period-1 leaves.  Each later step takes the
preperiod-1 points of the next block (type B first, then type D against
the enlarged leaf set), partitions them into components cut out by the
already drawn leaves (with the central component further split by the
four sectors the step-1 leaves leave on the circle), and connects the
points of each component consecutively along its boundary arc.  Every
produced chord is short, every point is used exactly once, and the
growing family stays crossing-free and closed under the half-turn;
violations of any of these raise rather than being repaired, since each
is backed by a theorem about the comajor lamination.  The step's
crossing check, the components of its points and the nested pairs of
the nesting audit all come from one laminar pass over the leaves
(`grid.laminar`); a crossing raises BuildError with its witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .angles import Angle
from .chords import Chord, SIXTH, image, length
from .formats import crossing_to_json
from .grid import Laminar, int_dtype, laminar, on_grid, scale_of
from .legality import is_legal_pair
from .orbits import preperiod1_points

__all__ = [
    "ComajorRecord",
    "BuildState",
    "NestingReport",
    "BuildError",
    "VerificationError",
    "make_record",
    "seed_leaves",
    "group_by_component",
    "pair_consecutively",
    "run_step",
    "build",
    "nesting_audit",
]


class BuildError(RuntimeError):
    """A theorem-backed contract of the construction was violated; `witness` is JSON or None."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness


class VerificationError(RuntimeError):
    """A produced leaf failed the independent legality oracle."""

    def __init__(self, record: "ComajorRecord", verdict):
        self.record = record
        self.verdict = verdict
        super().__init__(f"leaf {record.chord} failed certification: {verdict.to_json()}")


@dataclass(frozen=True, slots=True)
class ComajorRecord:
    """A co-periodic comajor leaf with its classification and provenance."""

    chord: Chord
    ptype: str  # "B" or "D"
    block_period: int
    minor: Chord

    def sort_key(self):
        return (self.block_period, self.ptype == "B", self.chord.sort_key())


def make_record(chord: Chord, ptype: str, block: int) -> ComajorRecord:
    return ComajorRecord(chord=chord, ptype=ptype, block_period=block, minor=image(chord))


@dataclass
class BuildState:
    leaves: list[ComajorRecord] = field(default_factory=list)
    completed_block: int = 0

    def chords(self) -> list[Chord]:
        return [rec.chord for rec in self.leaves]

    def sorted_leaves(self) -> list[ComajorRecord]:
        return sorted(self.leaves, key=ComajorRecord.sort_key)


@dataclass
class NestingReport:
    checked_blocks: int
    cross_type: list[tuple[ComajorRecord, ComajorRecord]]  # (inner, outer) pairs
    separated_same_type: list[tuple[ComajorRecord, ComajorRecord, ComajorRecord]]
    # (inner, outer, smaller-block separator) triples

    def __str__(self) -> str:
        lines = [f"nesting audit over blocks 1..{self.checked_blocks}: "
                 f"{len(self.cross_type)} cross-type same-block nesting(s), "
                 f"{len(self.separated_same_type)} same-type nesting(s) split by a smaller block"]
        for inner, outer in self.cross_type[:12]:
            lines.append(f"  {inner.ptype} {inner.chord} under {outer.ptype} {outer.chord}")
        if len(self.cross_type) > 12:
            lines.append(f"  ... {len(self.cross_type) - 12} more")
        return "\n".join(lines)


# Step-1 leaves; the four sectors between them bound all later central candidates.
_SEED_DATA = (
    ("D", Fraction(1, 6), Fraction(1, 3)),
    ("D", Fraction(2, 3), Fraction(5, 6)),
    ("B", Fraction(5, 12), Fraction(7, 12)),
    ("B", Fraction(11, 12), Fraction(1, 12)),
)


def seed_leaves() -> list[ComajorRecord]:
    """The four block-period-1 comajor leaves."""
    return [make_record(Chord(a, b), ptype=t, block=1) for t, a, b in _SEED_DATA]


def _arcs(chords: list[Chord], scale: int) -> np.ndarray:
    """(start, end) of the chords' short arcs on the grid, 0 <= start < scale."""
    pairs = [(on_grid(ch.a, scale), on_grid(ch.b, scale)) for ch in chords]
    # with the lifts of `_arc_family` differences of these stay below 3 * scale
    x, y = np.array(pairs, dtype=int_dtype(3 * scale)).reshape(-1, 2).T
    wrap = 2 * (y - x) > scale
    return np.stack([np.where(wrap, y, x), np.where(wrap, x + scale, y)], axis=1)


def _sectors(scale: int) -> np.ndarray:
    """(start, span) of the arcs of the central component left by the step-1 leaves."""
    arcs = _arcs([Chord(a, b) for _, a, b in _SEED_DATA], scale)
    arcs = arcs[np.argsort(arcs[:, 0])]
    return np.stack([arcs[:, 1] % scale, (np.roll(arcs[:, 0], -1) - arcs[:, 1]) % scale], axis=1)


def _arc_family(chords: list[Chord], scale: int) -> tuple[np.ndarray, np.ndarray, Laminar]:
    """(rows, owner, laminar structure) of the short arcs of crossing-free chords.

    Row i < len(chords) is the arc of chord i; an arc reaching the seam
    at `scale` is repeated shifted by -scale, so that every arc holding
    a point of [0, scale) holds it on the line, and `owner` maps each
    row to its chord.  These lifts of a crossing-free family are
    laminar; a crossing raises BuildError.
    """
    rows = _arcs(chords, scale)
    seam = np.flatnonzero(rows[:, 1] >= scale)
    rows = np.concatenate([rows, rows[seam] - scale])
    owner = np.concatenate([np.arange(len(chords)), seam])
    lam = laminar(rows)
    if lam.crossing is not None:
        first, second = (chords[owner[r]] for r in lam.crossing)
        raise BuildError(f"leaf {first} crosses leaf {second}", crossing_to_json(first, second))
    return rows, owner, lam


def group_by_component(points: list[Angle], state: BuildState) -> list[list[Angle]]:
    """Partition candidate points by the component of the disk they lie in.

    Two points share a group iff no existing leaf separates them; the
    under-arcs of the leaves are laminar, so a point's component is
    keyed by the innermost arc containing it (`Laminar.regions`).
    Within the central component (under no leaf), groups are further
    split by the four step-1 sectors.  Points are ordered along their
    component's boundary arc (wrap-aware); groups are ordered by
    smallest member.  A point colliding with an existing endpoint
    signals an enumeration bug.
    """
    leaves = state.chords()
    # common integer scale for the step: all comparisons become int ops
    scale = scale_of([*points, *(v for ch in leaves for v in ch.endpoints())], 12)
    rows, owner, lam = _arc_family(leaves, scale)
    pts = np.array([on_grid(p, scale) for p in points], dtype=rows.dtype)
    ends = np.sort(rows[: len(leaves)] % scale, axis=None)  # a point past them all wraps to 0
    taken = np.flatnonzero(ends[np.searchsorted(ends, pts) % len(ends)] == pts)
    if len(taken):
        raise BuildError(f"candidate point {points[taken[0]]} collides with an existing leaf "
                         "endpoint")

    # bucket: the leaf of the innermost arc, or len(leaves) + sector for a
    # central point; pos: the offset along the bucket's boundary arc
    row = lam.regions(pts)
    bucket, pos = owner[row], pts - rows[row, 0]
    sectors = _sectors(scale)
    off = (pts[:, None] - sectors[:, 0]) % scale
    in_sector = (0 < off) & (off < sectors[:, 1])
    central = np.flatnonzero(row < 0)
    homeless = central[~in_sector[central].any(axis=1)]
    if len(homeless):
        raise BuildError(f"central point {points[homeless[0]]} lies in no sector")
    sector = in_sector[central].argmax(axis=1)
    bucket[central], pos[central] = len(leaves) + sector, off[central, sector]

    order = np.lexsort((pos, bucket))
    starts = np.flatnonzero(np.diff(bucket[order], prepend=-1))
    groups = np.split(order, starts[1:])
    return [[points[i] for i in groups[k].tolist()]
            for k in np.argsort(np.minimum.reduceat(pts[order], starts)).tolist()]


def pair_consecutively(group: list[Angle]) -> list[Chord]:
    """Pair (1st,2nd), (3rd,4th), ... of a boundary-ordered point group.

    Odd group size and chords longer than 1/6 are hard errors (both
    contradict theorems about co-periodic comajors).
    """
    if len(group) % 2 != 0:
        raise BuildError(f"component holds an odd number of candidate points: {group}")
    out = []
    for i in range(0, len(group), 2):
        ch = Chord(group[i], group[i + 1])
        if length(ch) > SIXTH:
            raise BuildError(f"consecutive pairing produced an over-long chord {ch}")
        out.append(ch)
    return out


def _commit(state: BuildState, block: int, ptype: str) -> None:
    points = preperiod1_points(block, ptype)
    new: list[Chord] = []
    for group in group_by_component(points, state):
        new.extend(pair_consecutively(group))
    # one laminarity pass replaces pairwise crossing checks; any crossing
    # between a new leaf and the family is a hard error
    family = state.chords() + new
    _arc_family(family, scale_of(v for ch in family for v in ch.endpoints()))
    for ch in new:
        state.leaves.append(make_record(ch, ptype=ptype, block=block))


def run_step(state: BuildState, block: int) -> BuildState:
    """Add all block-`block` leaves: type B first, then type D against the enlarged set."""
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
    state = BuildState(leaves=seed_leaves(), completed_block=1)
    for block in range(2, max_block + 1):
        run_step(state, block)
    if verify:
        _verify(state)
    return state


def _verify(state: BuildState) -> None:
    used: set[Angle] = set()
    for rec in state.leaves:
        verdict = is_legal_pair(rec.chord)
        if not verdict.is_legal:
            raise VerificationError(rec, verdict)
        used.update(rec.chord.endpoints())
    expected: set[Angle] = set()
    for block in range(1, state.completed_block + 1):
        for t in ("B", "D"):
            expected.update(preperiod1_points(block, t))
    if used != expected:
        raise BuildError("endpoint usage does not cover each candidate point exactly once")


def nesting_audit(state: BuildState) -> NestingReport:
    """Audit equal-block nestings against the block-period structure theorem.

    For every nested pair of leaves of the same block period, a leaf of
    strictly smaller block period must lie between them (it is what put
    the inner leaf in its own component when the pair was drawn).  For a
    same-type pair a missing separator is a hard error; cross-type pairs
    are reported, the separated same-type ones listed with their
    separator.  Pairs are ordered by block, then by their leaves' positions.
    """
    chords = state.chords()
    scale = scale_of(v for ch in chords for v in ch.endpoints())
    _, owner, lam = _arc_family(chords, scale)
    # all leaves climb their chains of enclosing arcs at once, recording
    # each same-block ancestor with the first smaller-block leaf passed
    parent = lam.parents()[: len(chords)]
    up = np.where(parent >= 0, owner[parent], -1)
    blocks = np.array([rec.block_period for rec in state.leaves])
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
    inner, outer, sep = np.concatenate([np.empty((3, 0), dtype=np.intp), *found], axis=1)
    order = np.lexsort((np.maximum(inner, outer), np.minimum(inner, outer), blocks[inner]))

    cross, separated, leaves = [], [], state.leaves
    for i, o, s in zip(inner[order].tolist(), outer[order].tolist(), sep[order].tolist()):
        if leaves[i].ptype != leaves[o].ptype:
            cross.append((leaves[i], leaves[o]))
        elif s < 0:
            raise BuildError(f"same-type block-{leaves[i].block_period} leaves nested with no "
                             f"smaller-block leaf between them: {leaves[i].chord} under "
                             f"{leaves[o].chord}")
        else:
            separated.append((leaves[i], leaves[o], leaves[s]))
    return NestingReport(checked_blocks=state.completed_block, cross_type=cross,
                         separated_same_type=separated)
