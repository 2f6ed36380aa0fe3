"""Reference oracles for the integer-grid paths of trilam.

These are the straightforward `fractions.Fraction` formulations of the
legality oracle and its short strips, of the preperiod-1 point
enumeration, of chord crossing by open arcs, of length classes, sibling
pairs, major pairs and chord orbits (`image` applied until a chord
repeats), of the pullback seed system and of the SVG and JSON emission
of chord families, and the per-chord dict dedup of pullback levels,
the per-chord sibling-collection check and the per-chord orbit walk of
forward orbit hits.  The SVG oracle draws one chord
at a time with scalar `math` (four trig calls per chord and an `atan2`
sweep flag).  The laminarity oracles are stack sweeps: `crossing_pair`
for the verdict and `group_by_component` for point components;
`level_children` tests every pullback candidate against every barrier.
The package computes all of them on the integer grid (`trilam.grid`),
with sorted int64 keys or with the vectorised laminar pass
(`grid.Laminar`); the differential tests compare the two.  Nothing here
is used by `src/`.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np

from trilam.angles import HALF, Angle, antipode, tripling
from trilam.chords import Chord, SIXTH, chord_antipode, image, length
from trilam.builder import _SEED_DATA, BuildError
from trilam.formats import chord_to_json, record_to_json
from trilam.grid import crosses, on_grid, orbit, scale_of, short_arc_order
from trilam.legality import LegalityVerdict, LegalityWitness
from trilam.pullback import _MATCHINGS, _MATCH_MASKS, IllegalSeedError, _select_pullbacks
from trilam.render import RenderConfig, _TYPE_COLORS, _block_color

# -- preperiod-1 points ------------------------------------------------------


def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def exact_period_numerators(k: int) -> np.ndarray:
    """Numerators a (mod 3^k - 1) of angles a/(3^k - 1) with exact period k."""
    modulus = 3**k - 1
    a = np.arange(modulus, dtype=np.int64)
    keep = np.ones(modulus, dtype=bool)
    for d in _divisors(k):
        if d == k:
            break
        # period divides d  <=>  (3^d - 1) * a == 0 mod (3^k - 1)
        keep &= (a * (3**d - 1)) % modulus != 0
    return a[keep]


def type_b_numerators(k: int) -> np.ndarray:
    """Numerators of type-B block-k points among a/(3^{2k} - 1)."""
    modulus = 3 ** (2 * k) - 1
    nums = exact_period_numerators(2 * k)
    # t^k(x) = x + 1/2: (3^k - 1) a == modulus/2 mod modulus
    sel = (nums * (3**k - 1) - modulus // 2) % modulus == 0
    return nums[sel]


def block_points(block: int, ptype: str) -> list[Angle]:
    if ptype == "B":
        modulus = 3 ** (2 * block) - 1
        return sorted(Fraction(int(a), modulus) for a in type_b_numerators(block))
    modulus = 3**block - 1
    nums = exact_period_numerators(block)
    if block % 2 == 0:
        half = block // 2
        is_b = (nums * (3**half - 1) - modulus // 2) % modulus == 0
        nums = nums[~is_b]
    return sorted(Fraction(int(a), modulus) for a in nums)


def preperiod1_points(block: int, ptype: str) -> list[Angle]:
    """Both non-cycle preimages of every periodic point of the class, by Fraction iteration."""
    period = 2 * block if ptype == "B" else block
    out: list[Angle] = []
    for y in block_points(block, ptype):
        pred = y
        for _ in range(period - 1):
            pred = tripling(pred)
        for j in range(3):
            x = (y / 3 + Fraction(j, 3)) % 1
            if x != pred:
                out.append(x)
    out.sort()
    return out


# -- Fraction chords ---------------------------------------------------------

THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


def in_open_arc(x: Angle, a: Angle, b: Angle) -> bool:
    """True iff x lies strictly inside the positively oriented arc from a to b.

    Angles are compared mod 1, so wraparound through 0 is handled;
    a == b is rejected (empty/full arc is ambiguous).
    """
    if (b - a) % 1 == 0:
        raise ValueError("arc endpoints must be distinct")
    return 0 < (x - a) % 1 < (b - a) % 1


class LengthClass(enum.Enum):
    DEGENERATE = "degenerate"
    SHORT = "short"        # 0 < len < 1/6
    MEDIUM = "medium"      # 1/6 <= len < 1/3
    CRITICAL = "critical"  # len = 1/3
    LONG = "long"          # 1/3 < len < 1/2
    DIAMETER = "diameter"  # len = 1/2 (also long)


def classify(ch: Chord) -> LengthClass:
    ln = length(ch)
    if ln == 0:
        return LengthClass.DEGENERATE
    if ln < SIXTH:
        return LengthClass.SHORT
    if ln < THIRD:
        return LengthClass.MEDIUM
    if ln == THIRD:
        return LengthClass.CRITICAL
    if ln < HALF:
        return LengthClass.LONG
    return LengthClass.DIAMETER


def sml_siblings(ch: Chord) -> tuple[Chord, Chord]:
    """The mixed sibling pair (a+1/3, b-1/3) and (a+2/3, b-2/3).

    Here (a, b) is labeled so the positively oriented arc from a to b is
    the shorter one.  Both outputs share image(ch); for a short or
    length-1/6 input they are the long/medium chords of the (sml)
    collection.  Critical chords and diameters are rejected (no shorter
    arc, or siblings degenerate).
    """
    cls = classify(ch)
    if cls is LengthClass.DEGENERATE:
        raise ValueError("degenerate chord has no sibling collection")
    if cls is LengthClass.CRITICAL:
        raise ValueError("critical chord has no sibling collection")
    if cls is LengthClass.DIAMETER:
        raise ValueError("diameter has no canonical shorter arc")
    a, b = ch.arc()
    first = Chord((a + THIRD) % 1, (b - THIRD) % 1)
    second = Chord((a + TWO_THIRDS) % 1, (b - TWO_THIRDS) % 1)
    return (first, second)


def majors_of(c: Chord) -> tuple[Chord, Chord]:
    """The major pair (M, M') of a chord of length <= 1/6, longer one first.

    These are the two long/medium chords with the same image as c.  For
    degenerate c the critical chord (c + 1/3, c + 2/3), which is disjoint
    from c, is returned twice.
    """
    if c.degenerate:
        crit = Chord((c.a + THIRD) % 1, (c.a + TWO_THIRDS) % 1)
        return (crit, crit)
    if length(c) > SIXTH:
        raise ValueError(f"majors are defined for chords of length <= 1/6, got {length(c)}")
    first, second = sml_siblings(c)
    if length(first) >= length(second):
        return (first, second)
    return (second, first)


@dataclass(frozen=True, slots=True)
class ChordOrbit:
    """Eventually periodic orbit of a chord: preperiod part plus one cycle."""

    preperiod: int
    pointwise_period: int
    setwise_period: int
    chords: tuple[Chord, ...]

    def cycle(self) -> tuple[Chord, ...]:
        return self.chords[self.preperiod:]


def chord_orbit(c: Chord) -> ChordOrbit:
    """The orbit of c by applying `image` until a chord repeats.

    The chords run up to the first repeat, which closes the setwise
    cycle; the endpoints, tripled once around that cycle, come back
    either in place (pointwise period = setwise) or swapped (twice it).
    """
    chords = [c]
    while (nxt := image(chords[-1])) not in chords:
        chords.append(nxt)
    pre = chords.index(nxt)
    setwise = len(chords) - pre
    x = chords[pre].a
    for _ in range(setwise):
        x = tripling(x)
    pointwise = setwise if x == chords[pre].a else 2 * setwise
    return ChordOrbit(preperiod=pre, pointwise_period=pointwise, setwise_period=setwise,
                      chords=tuple(chords))


def crosses_by_arcs(c1: Chord, c2: Chord) -> bool:
    """Crossing as exactly one endpoint of c2 strictly inside the arc from c1.a to c1.b.

    Endpoints are points of the circle, so they are compared mod 1.
    """
    if c1.degenerate or c2.degenerate:
        return False
    if {c1.a % 1, c1.b % 1} & {c2.a % 1, c2.b % 1}:
        return False
    return in_open_arc(c2.a, c1.a, c1.b) != in_open_arc(c2.b, c1.a, c1.b)


def crossing_pair(pairs: Union[Iterable[tuple[int, int]], np.ndarray]):
    """A crossing pair of a family of (lo, hi) chords with lo <= hi, or None.

    Laminarity stack sweep, O(n log n): two chords cross iff their
    [lo, hi] intervals partially overlap with all four inequalities
    strict.  The family may come in any order, as int pairs or as an
    (n, 2) array; none of its chords may wrap past 0.
    """
    if isinstance(pairs, np.ndarray):
        pairs = pairs.tolist()
    stack: list = []
    for p in sorted(pairs, key=lambda p: (p[0], -p[1])):
        lo, hi = p
        while stack and stack[-1][1] <= lo:
            stack.pop()
        if stack and stack[-1][1] < hi:
            return (stack[-1], p)
        stack.append(p)
    return None


def _arc(x: int, y: int, scale: int) -> tuple[int, int]:
    """(start, span) of the short arc of the chord (x, y), x <= y, on the grid of modulus scale."""
    return (x, y - x) if 2 * (y - x) <= scale else (y, scale - (y - x))


def _sectors(scale: int) -> list[tuple[int, int]]:
    """(start, span) of the arcs of the central component left by the step-1 leaves."""
    arcs = sorted(_arc(on_grid(a, scale), on_grid(b, scale), scale) for _, a, b in _SEED_DATA)
    return [((s + w) % scale, (arcs[(i + 1) % len(arcs)][0] - s - w) % scale)
            for i, (s, w) in enumerate(arcs)]


def group_by_component(points: list[Angle], state) -> list[list[Angle]]:
    """`builder.group_by_component` by one stack sweep over the sorted points and leaf arcs."""
    leaves = [rec.chord for rec in state.leaves]
    scale = scale_of([*points, *(v for ch in leaves for v in ch.endpoints())], 12)
    pts = [on_grid(p, scale) for p in points]
    pairs = [(on_grid(ch.a, scale), on_grid(ch.b, scale)) for ch in leaves]
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

    # the stack holds the arcs open at the current point, innermost on top
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


# -- legality ----------------------------------------------------------------


def full_orbit(c: Chord) -> list[Chord]:
    """Images of c up to and including the first repeat of its ordered endpoint pair."""
    pair = (c.a, c.b)
    seen = set()
    out = []
    while pair not in seen:
        seen.add(pair)
        out.append(Chord(*pair))
        pair = (tripling(pair[0]), tripling(pair[1]))
    out.append(Chord(*pair))
    return out


@dataclass(frozen=True, slots=True)
class StripSystem:
    """Short strips of a chord: bounded by M, M' and their antipodes."""

    M: Chord
    Mp: Chord
    width: Fraction
    arcs: tuple[tuple[Angle, Angle], ...]  # four open boundary arcs (two per strip)

    def bounding_chords(self) -> tuple[Chord, ...]:
        out = []
        for ch in (self.M, self.Mp, chord_antipode(self.M), chord_antipode(self.Mp)):
            if ch not in out:
                out.append(ch)
        return tuple(out)


def _boundary_arcs(first: tuple, second: tuple) -> list[tuple]:
    verts = sorted(set(first) | set(second))
    owner = [v in first for v in verts]
    n = len(verts)
    return [(verts[i], verts[(i + 1) % n]) for i in range(n) if owner[i] != owner[(i + 1) % n]]


def strip_system(first: Chord, second: Chord) -> StripSystem:
    """The strip pair bounded by two disjoint chords with a common image.

    The strip between them meets the circle in the two arcs joining an
    endpoint of one to an endpoint of the other; the antipodal strip
    contributes the antipodal arcs.
    """
    width = abs(THIRD - length(first))
    if first == second:
        return StripSystem(M=first, Mp=second, width=width, arcs=())
    arcs = _boundary_arcs(first.endpoints(), second.endpoints())
    full = tuple(arcs) + tuple((antipode(a), antipode(b)) for a, b in arcs)
    return StripSystem(M=first, Mp=second, width=width, arcs=full)


def strips_of(c: Chord) -> StripSystem:
    """The short strips of a chord of length <= 1/6 (or a degenerate chord).

    Realized as the strip between the major pair M, M' plus its
    antipodal copy; the two boundary arcs per strip have length
    |1/3 - |M|| = |c|.  A degenerate c yields the critical chord twice
    with width 0 and no arcs.
    """
    big, small = majors_of(c)  # rejects length > 1/6
    return strip_system(big, small)


def _in_closed_arc(x: Angle, s: Angle, e: Angle) -> bool:
    return (x - s) % 1 <= (e - s) % 1


def strip_violation(d: Chord, strips: StripSystem) -> Optional[Chord]:
    """The boundary object d violates, or None when d avoids the open strips."""
    bounds = strips.bounding_chords()
    for bound in bounds:
        if crosses_by_arcs(d, bound):
            return bound
    for s, e in strips.arcs:
        if in_open_arc(d.a, s, e) or in_open_arc(d.b, s, e):
            return Chord(s, e)
    if strips.arcs and d not in bounds:
        for half, marker in ((strips.arcs[:2], strips.M),
                             (strips.arcs[2:], chord_antipode(strips.M))):
            if all(any(_in_closed_arc(v, s, e) for s, e in half) for v in d.endpoints()):
                return marker
    return None


def is_legal_pair(c: Chord) -> LegalityVerdict:
    """Legality of {c, -c} by pairwise `crosses_by_arcs` and the Fraction strip test."""
    if c.degenerate:
        return LegalityVerdict("legal")
    if length(c) > SIXTH:
        raise ValueError(f"legality is decided for chords of length <= 1/6, got {length(c)}")
    orbit = full_orbit(c)
    tagged = [(i, "c", ch) for i, ch in enumerate(orbit)]
    tagged += [(i, "-c", chord_antipode(ch)) for i, ch in enumerate(orbit)]
    for k in range(len(tagged)):
        i, oi, ci = tagged[k]
        for j, oj, cj in tagged[k + 1:]:
            if crosses_by_arcs(ci, cj):
                return LegalityVerdict("illegal", LegalityWitness("crossing", i, oi, ci, j, oj, cj))
    strips = strips_of(c)
    for i, ch in enumerate(orbit[1:], start=1):
        violated = strip_violation(ch, strips)
        if violated is not None:
            return LegalityVerdict("illegal", LegalityWitness("strip", i, "c", ch, None, None, violated))
    return LegalityVerdict("legal")


# -- pullback seeds and levels -------------------------------------------------


def quad(c: Chord) -> list[Angle]:
    """Vertices of the convex hull of M_c and M'_c, in circular order from the smallest."""
    big, small = majors_of(c)
    return sorted(set(big.endpoints()) | set(small.endpoints()))


def quad_edges(c: Chord) -> list[Chord]:
    """The four edges of the quadrilateral of c, in circular order of its vertices."""
    verts = quad(c)
    return [Chord(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def short_quad_edges(c: Chord) -> list[Chord]:
    """The quadrilateral edges of c other than the major pair, plus antipodes."""
    big, small = majors_of(c)
    edges = [e for e in quad_edges(c) if e not in (big, small)]
    out = list(edges)
    for e in edges:
        anti = chord_antipode(e)
        if anti not in out:
            out.append(anti)
    return out


def seed_system(c: Chord) -> tuple[list[Chord], list[Chord]]:
    """Seed chords and pullback barriers of the pullback family of c, as `Chord`s."""
    if c.degenerate:
        crit, _ = majors_of(c)
        barriers = [crit, chord_antipode(crit)]
        return list(barriers), list(barriers)
    verdict = is_legal_pair(c)
    if not verdict.is_legal:
        raise IllegalSeedError(c, verdict)
    barriers: list[Chord] = []
    for e in quad_edges(c) + [chord_antipode(e) for e in quad_edges(c)]:
        if e not in barriers:
            barriers.append(e)
    seeds = list(barriers)
    for ch in chord_orbit(c).chords:
        for member in (ch, chord_antipode(ch)):
            if not member.degenerate and member not in seeds:
                seeds.append(member)
    return seeds, barriers


def _has_disjoint_triple(member: tuple[int, int], group: list[tuple[int, int]],
                         n: int) -> bool:
    others = [g for g in group if g != member]
    for i, g1 in enumerate(others):
        if set(g1) & set(member) or crosses(g1, member, n):
            continue
        for g2 in others[i + 1:]:
            if set(g2) & (set(member) | set(g1)):
                continue
            if crosses(g2, member, n) or crosses(g2, g1, n):
                continue
            return True
    return False


def sibling_complete(pre) -> bool:
    """`Prelamination.sibling_complete` by grouping the chords on their images one at a time.

    Every chord at interior depth whose image is non-critical needs two
    other chords of its image group, all three pairwise disjoint.
    """
    n = pre.modulus
    groups: dict[int, list[tuple[int, int]]] = {}
    img_keys = []
    for lo, hi in pre.pairs.tolist():
        x, y = (3 * lo) % n, (3 * hi) % n
        key = min(x, y) * n + max(x, y)
        img_keys.append(key)
        groups.setdefault(key, []).append((lo, hi))
    for (lo, hi), d, key in zip(pre.pairs.tolist(), pre.depths.tolist(), img_keys):
        if not (1 <= d <= pre.depth - 1):
            continue
        span = (3 * (hi - lo)) % n
        if 3 * min(span, n - span) == n:
            continue  # image critical: the third sibling is excluded by construction
        if not _has_disjoint_triple((lo, hi), groups[key], n):
            return False
    return True


def forward_orbit_hits(pre, targets: list[Chord]) -> np.ndarray:
    """Boolean mask of the chords of `pre` whose forward orbit (index >= 0) reaches a target.

    Every chord steps through all states of its own orbit (`grid.orbit`),
    and each state's key is looked up among the targets' keys.
    """
    n = pre.modulus
    tkeys = np.array(sorted(k for k in map(pre._key, targets) if k is not None), dtype=np.int64)
    hit = np.zeros(len(pre.pairs), dtype=bool)
    for x, y in orbit(*pre.pairs.T.copy(), n):
        hit |= np.isin(np.minimum(x, y) * n + np.maximum(x, y), tkeys)
    return hit


def level_children(frontier: np.ndarray, barriers: list[tuple[int, int]],
                   n: int) -> np.ndarray:
    """All selected pullback pairs of the frontier chords (with duplicates), barrier by barrier.

    Each of the nine candidates of every parent is tested against every
    barrier with the modular crossing test; the selection is the
    engine's (`_MATCHINGS` fast path, `_select_pullbacks` otherwise).
    """
    a = frontier[:, 0]
    b = frontier[:, 1]
    third = n // 3
    offs = np.array([0, third, 2 * third], dtype=np.int64)
    us = (a[:, None] // 3 + offs) % n
    vs = (b[:, None] // 3 + offs) % n
    x1 = us[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]]
    x2 = vs[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]]
    crossed = np.zeros(x1.shape, dtype=bool)
    for bs, be in barriers:
        span = (be - bs) % n
        o1 = (x1 - bs) % n
        o2 = (x2 - bs) % n
        in1 = (0 < o1) & (o1 < span)
        in2 = (0 < o2) & (o2 < span)
        shared = (o1 == 0) | (o1 == span) | (o2 == 0) | (o2 == span)
        crossed |= (in1 != in2) & ~shared
    surv = ~crossed
    mask = surv.astype(np.int64) @ (1 << np.arange(9, dtype=np.int64))

    span_p = (b - a) % n
    critical = (span_p == third) | (span_p == 2 * third)
    fast = ~critical & np.isin(mask, np.array(_MATCH_MASKS, dtype=mask.dtype))

    lo = np.minimum(x1, x2)
    hi = np.maximum(x1, x2)
    chunks: list[np.ndarray] = []
    for m, mbits in zip(_MATCHINGS, _MATCH_MASKS):
        sel = fast & (mask == mbits)
        if sel.any():
            ids = list(m)
            chunks.append(np.stack([lo[sel][:, ids].ravel(), hi[sel][:, ids].ravel()], axis=1))

    slow_pairs: list[tuple[int, int]] = []
    for pi in np.nonzero(~fast)[0]:
        surv_map = {cid: (int(lo[pi, cid]), int(hi[pi, cid])) for cid in range(9) if surv[pi, cid]}
        slow_pairs.extend(_select_pullbacks((int(a[pi]), int(b[pi])), surv_map, n))
    if slow_pairs:
        chunks.append(np.array(slow_pairs, dtype=np.int64).reshape(-1, 2))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


def prelamination_levels(c: Chord, depth: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Canonically ordered pairs and depths of the pullback family of c, and its modulus.

    The modulus is the lcm of the seed denominators times 3^depth.  Each
    level's children are deduplicated one chord at a time through a dict
    of the keys lo * n + hi seen so far.
    """
    seeds, barriers = seed_system(c)
    n = scale_of(v for ch in seeds for v in ch.endpoints()) * 3**depth
    seen: dict[int, int] = {}
    ordered: list[tuple[int, int]] = []
    levels: list[int] = []

    def commit(pair: tuple[int, int], level: int) -> bool:
        key = pair[0] * n + pair[1]
        if key in seen:
            return False
        seen[key] = level
        ordered.append(pair)
        levels.append(level)
        return True

    for ch in seeds:
        commit((on_grid(ch.a, n), on_grid(ch.b, n)), 0)
    bars = [(on_grid(ch.a, n), on_grid(ch.b, n)) for ch in barriers]
    frontier = np.array(ordered, dtype=np.int64)
    for level in range(1, depth + 1):
        if len(frontier) == 0:
            break
        fresh = [(lo, hi) for lo, hi in level_children(frontier, bars, n).tolist()
                 if commit((lo, hi), level)]
        frontier = np.array(fresh, dtype=np.int64).reshape(-1, 2)
    pairs = np.array(ordered, dtype=np.int64).reshape(-1, 2)
    order = short_arc_order(pairs, n)
    return pairs[order], np.array(levels, dtype=np.int64)[order], n


# -- output --------------------------------------------------------------------


def record_order(rec) -> tuple:
    """The canonical record order: block, type D before B, then `Chord.arc`."""
    return (rec.block_period, rec.ptype == "B", rec.chord.arc())


def records_json(records: list) -> str:
    """The record array, one `record_to_json` dict per record through `json.dumps`."""
    return json.dumps([record_to_json(r) for r in records], indent=0) + "\n"


def prelamination_json(seed: Chord, depth: int, chords: list[Chord]) -> str:
    """The prelamination document, one `chord_to_json` dict per chord through `json.dumps`.

    The chords are written in canonical order, sorted by `Chord.arc`,
    whatever order they come in.
    """
    doc = {
        "seed": chord_to_json(seed),
        "depth": depth,
        "chords": [chord_to_json(c) for c in sorted(chords, key=Chord.arc)],
    }
    return json.dumps(doc, indent=0) + "\n"


_PREC = 12


def _fmt(x: float) -> str:
    return f"{x:.{_PREC}f}"


def _point(angle_turns: float, cx: float, cy: float, r: float) -> tuple[float, float]:
    th = 2.0 * math.pi * angle_turns
    return (cx + r * math.cos(th), cy - r * math.sin(th))


def _geodesic_path(a: float, b: float, cx: float, cy: float, r: float) -> str:
    """SVG path for the hyperbolic geodesic between circle points at angles a, b (turns)."""
    x1, y1 = _point(a, cx, cy, r)
    x2, y2 = _point(b, cx, cy, r)
    # unit-disk coordinates (y up) for the orthogonal-circle construction
    p1 = (math.cos(2 * math.pi * a), math.sin(2 * math.pi * a))
    p2 = (math.cos(2 * math.pi * b), math.sin(2 * math.pi * b))
    dot = p1[0] * p2[0] + p1[1] * p2[1]
    if 1.0 + dot < 1e-9:  # antipodal endpoints: geodesic is the diameter
        return f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"
    k = 1.0 / (1.0 + dot)
    ox, oy = k * (p1[0] + p2[0]), k * (p1[1] + p2[1])
    radius = math.sqrt(ox * ox + oy * oy - 1.0)
    # the arc inside the disk is the minor arc; SVG sweep=1 is clockwise on
    # screen, which is the negative mathematical direction
    a1 = math.atan2(p1[1] - oy, p1[0] - ox)
    a2 = math.atan2(p2[1] - oy, p2[0] - ox)
    delta = math.remainder(a2 - a1, math.tau)
    # the screen y-flip reverses orientation: math-positive delta is sweep 0
    sweep = 0 if delta > 0 else 1
    rr = radius * r
    return f"M {_fmt(x1)} {_fmt(y1)} A {_fmt(rr)} {_fmt(rr)} 0 0 {sweep} {_fmt(x2)} {_fmt(y2)}"


def render_svg(chords: list[Chord], cfg: RenderConfig = RenderConfig(),
               classes: Optional[list[str]] = None,
               blocks: Optional[list[int]] = None) -> str:
    """The SVG of chords, ordered by `Chord.arc`, floats taken as `float(Fraction)`."""
    size = cfg.size_px
    cx = cy = size / 2.0
    r = size / 2.0 - 10  # a fixed 10 px margin
    items = list(zip(chords,
                     classes if classes is not None else [""] * len(chords),
                     blocks if blocks is not None else [0] * len(chords)))
    items.sort(key=lambda it: it[0].arc())
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="none" '
        'stroke="#888888" stroke-width="1.5"/>',
    ]
    for ch, cls, block in items:
        a = float(ch.a)
        b = float(ch.b)
        if cfg.color_by == "block" and block:
            color = _block_color(block)
            label = f"block-{block}"
        else:
            color = _TYPE_COLORS.get(cls, _TYPE_COLORS[""])
            label = f"type-{cls}" if cls else "chord"
        if ch.degenerate:
            x, y = _point(a, cx, cy, r)
            lines.append(f'<circle class="{label}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="1.5" '
                         f'fill="{color}"/>')
            continue
        if cfg.geodesic_style == "straight":
            x1, y1 = _point(a, cx, cy, r)
            x2, y2 = _point(b, cx, cy, r)
            d = f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"
        else:
            d = _geodesic_path(a, b, cx, cy, r)
        lines.append(f'<path class="{label}" d="{d}" fill="none" stroke="{color}" '
                     'stroke-width="1.0"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
