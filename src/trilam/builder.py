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
is backed by a theorem about the comajor lamination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .angles import Angle
from .chords import Chord, SIXTH, image, length
from .grid import Pair, crossing_pair, on_grid, scale_of
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
    """A theorem-backed contract of the construction was violated."""


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
    step: int
    minor: Chord

    def sort_key(self):
        return (self.block_period, self.ptype == "B", self.chord.sort_key())


def make_record(chord: Chord, ptype: str, block: int) -> ComajorRecord:
    return ComajorRecord(chord=chord, ptype=ptype, block_period=block, step=block,
                         minor=image(chord))


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


def _sectors(scale: int) -> list[tuple[int, int]]:
    """(start, span) of the arcs of the central component left by the step-1 leaves."""
    arcs = sorted(_arc(on_grid(a, scale), on_grid(b, scale), scale) for _, a, b in _SEED_DATA)
    return [((s + w) % scale, (arcs[(i + 1) % len(arcs)][0] - s - w) % scale)
            for i, (s, w) in enumerate(arcs)]


def _arc(x: int, y: int, scale: int) -> tuple[int, int]:
    """(start, span) of the short arc of the chord (x, y), x <= y, on the grid of modulus scale."""
    return (x, y - x) if 2 * (y - x) <= scale else (y, scale - (y - x))


def _grid_pairs(chords: list[Chord], scale: int) -> list[Pair]:
    return [(on_grid(ch.a, scale), on_grid(ch.b, scale)) for ch in chords]


def group_by_component(points: list[Angle], state: BuildState) -> list[list[Angle]]:
    """Partition candidate points by the component of the disk they lie in.

    Two points share a group iff no existing leaf separates them; the
    under-arcs of the leaves are laminar, so a point's component is
    keyed by the innermost arc containing it.  Within the central
    component (under no leaf), groups are further split by the four
    step-1 sectors.  Points are ordered along their component's boundary
    arc (wrap-aware); groups are ordered by smallest member.  A point
    colliding with an existing endpoint signals an enumeration bug.
    """
    leaves = state.chords()
    # common integer scale for the step: all comparisons become int ops
    scale = scale_of([*points, *(v for ch in leaves for v in ch.endpoints())], 12)
    pts = [on_grid(p, scale) for p in points]
    pairs = _grid_pairs(leaves, scale)
    taken = {v for pair in pairs for v in pair}

    # leaf arcs as line intervals (start, end, leaf index); a wrapping arc
    # also as its copy shifted by -scale.  Both families stay laminar.
    intervals = []
    for idx, (x, y) in enumerate(pairs):
        s, w = _arc(x, y, scale)
        intervals.append((s, s + w, idx))
        if s + w >= scale:
            intervals.append((s - scale, s + w - scale, idx))
    intervals.sort(key=lambda iv: (iv[0], -iv[1]))
    sectors = _sectors(scale)

    # one sweep: the stack holds the arcs open at the current point,
    # innermost on top
    buckets: dict[tuple, list[tuple[int, int, Angle]]] = {}
    stack: list[tuple[int, int, int]] = []
    k = 0
    for p_i, p in sorted(zip(pts, points)):
        if p_i in taken:
            raise BuildError(f"candidate point {p} collides with an existing leaf endpoint")
        while k < len(intervals) and intervals[k][0] < p_i:
            s, e, idx = intervals[k]
            while stack and stack[-1][1] <= s:
                stack.pop()
            stack.append((s, e, idx))
            k += 1
        while stack and stack[-1][1] <= p_i:
            stack.pop()
        if stack:
            s, _, idx = stack[-1]
            key, pos = ("leaf", idx), p_i - s
        else:
            for i, (s, w) in enumerate(sectors):
                off = (p_i - s) % scale
                if 0 < off < w:
                    key, pos = ("sector", i), off
                    break
            else:
                raise BuildError(f"central point {p} lies in no sector")
        buckets.setdefault(key, []).append((pos, p_i, p))

    groups = []
    for members in buckets.values():
        members.sort()
        groups.append((min(m[1] for m in members), [m[2] for m in members]))
    groups.sort()
    return [g for _, g in groups]


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
    # one laminarity sweep replaces pairwise crossing checks; any crossing
    # between a new leaf and the family is a hard error
    family = state.chords() + new
    scale = scale_of(v for ch in family for v in ch.endpoints())
    pairs = _grid_pairs(family, scale)
    offender = crossing_pair(pairs)
    if offender is not None:
        first, second = (family[pairs.index(p)] for p in offender)
        raise BuildError(f"leaf {first} crosses leaf {second}")
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
    separator.
    """
    chords = state.chords()
    scale = scale_of(v for ch in chords for v in ch.endpoints())
    # (start, span) on the common integer scale, aligned with leaves
    arcs = [_arc(x, y, scale) for x, y in _grid_pairs(chords, scale)]

    def nested(i: int, j: int) -> bool:
        si, wi = arcs[i]
        sj, wj = arcs[j]
        return (si - sj) % scale + wi <= wj

    # innermost enclosing leaf of strictly smaller block, per leaf
    ancestor: list[Optional[int]] = [None] * len(arcs)
    for i, rec in enumerate(state.leaves):
        best = None
        for j, other in enumerate(state.leaves):
            if other.block_period >= rec.block_period:
                continue
            if nested(i, j) and (best is None or arcs[j][1] < arcs[best][1]):
                best = j
        ancestor[i] = best

    by_block: dict[int, list[int]] = {}
    for i, rec in enumerate(state.leaves):
        by_block.setdefault(rec.block_period, []).append(i)
    cross = []
    separated = []
    leaves = state.leaves
    for block, idxs in sorted(by_block.items()):
        for a_pos, i in enumerate(idxs):
            for j in idxs[a_pos + 1:]:
                if nested(i, j):
                    inner, outer = i, j
                elif nested(j, i):
                    inner, outer = j, i
                else:
                    continue
                if leaves[inner].ptype != leaves[outer].ptype:
                    cross.append((leaves[inner], leaves[outer]))
                    continue
                sep = ancestor[inner]
                if sep is None or not nested(sep, outer):
                    raise BuildError(
                        f"same-type block-{block} leaves nested with no smaller-block leaf "
                        f"between them: {leaves[inner].chord} under {leaves[outer].chord}"
                    )
                separated.append((leaves[inner], leaves[outer], leaves[sep]))
    return NestingReport(checked_blocks=state.completed_block, cross_type=cross,
                         separated_same_type=separated)
