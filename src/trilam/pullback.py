"""Finite-depth symmetric pullback prelaminations and hyperbolic pruning.

A legal pair {c, -c} seeds a pullback family: a degenerate c starts
from its pair of critical chords, a non-degenerate c from the edges of
its quadrilateral pair together with the finite forward orbits of
+-c.  Each level adds, for every chord of the previous level, the
preimage chords that cross none of the generating barriers (the
critical chords, respectively the quadrilateral edges), taken from the
grid strips the legality oracle uses (`legality.strips_on_grid`).
Whether a candidate crosses a barrier depends only on which barrier
endpoint or open arc between them each of its endpoints lies in, so a
parent's nine survivals depend only on the cells of its endpoints among
a few cuts: one small table of survival masks (`_barrier_regions`).

Preimage selection.  The six preimage points u_i = a//3 + i*n/3 and
v_j = b//3 + j*n/3 of a chord (a, b) alternate around the circle, so its
candidates (u_i, v_j), of id 3*i + j, form at most five non-crossing
perfect matchings (the all-short, all-medium and three mixed patterns of
the sibling trichotomy).  Barriers generically leave exactly one alive;
the other cases take their survivors from the same mask, deterministically,
by rules that one table holds (`_pick_table`):

* critical parent: candidates longer than 1/3 are dropped (they span
  over the co-critical chord), and endpoint-sharing candidates around a
  periodic endpoint keep the shorter chord (the collapsing
  quadrilateral keeps its short edges);
* several surviving matchings: prefer the one containing the parent
  itself (setwise invariant minors are their own pullback), then the
  shortest length profile, then canonical order;
* no surviving matching: InvariantError, witness `{"kind": "no-matching",
  "parent", "survivors"}`; no legal seed tried reaches it, though
  arbitrary barrier sets do.

Depth truncation replaces the closure operation: the artifact produces
finite prelaminations only.  Every angle generated at depth d is an
integer multiple of 1/(D * 3^d) for D = lcm(6, denominators of c), the
scale of the seed system, so the engine runs on int64 numerators at
that fixed scale (`trilam.grid`).  A modulus at which the int64 chord
keys lo * n + hi would wrap is refused with ValueError before any level
is expanded.

Every child triples back to its parent, so children of distinct
parents are distinct and a child can repeat only a seed (one of an
earlier level would have a parent repeating one too): each level's
sorted child keys, less the seed keys found in them, form the next
frontier.  A chord's depth is the level of its first appearance.  The
finished family, its levels merged by one stable argsort into key order
lo * n + hi, must be laminar (`grid.Laminar`) and free of repeats, else
InvariantError gives a witness.  The hyperbolic prune grows only the
seeds whose forward orbits miss the short quadrilateral edges: that is
the family less the edges' backward orbits, as a chord of depth >= 1 is
hit iff its parent is and a kept parent has the same children, because
* each child triples back to its parent;
* the edges are seeds, and no chord of depth >= 1 is a seed;
* a parent's children depend only on that parent and the barriers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .angles import orbit_info
from .chords import Chord, chord_to_json, crossing_to_json, image
from .grid import Laminar, Pair, antipode, arclen, canon, check_int64, closure, crosses, orbit
from .legality import LegalityVerdict, is_legal_pair, strips_on_grid

__all__ = [
    "Prelamination",
    "IllegalSeedError",
    "InvariantError",
    "build_prelamination",
    "hyperbolic_prune",
    "short_quad_edges",
]


class IllegalSeedError(ValueError):
    """The seed pair failed the legality oracle; `witness` is the verdict's JSON."""

    def __init__(self, c: Chord, verdict: LegalityVerdict):
        super().__init__(f"seed {c} is not a legal pair")
        self.verdict = verdict
        self.witness = verdict.to_json()["witness"]


class InvariantError(RuntimeError):
    """The generated chord family violated a structural invariant; `witness` is JSON or None."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness


# The five matchings of the module docstring, as candidate ids.
_MATCHINGS = (
    (0, 4, 8),
    (2, 3, 7),
    (0, 5, 7),
    (2, 4, 6),
    (1, 3, 8),
)
_MATCH_U, _MATCH_V = np.divmod(np.array(_MATCHINGS), 3)  # the (u_i, v_j) of each pairing


def _pick_table() -> np.ndarray:
    """The places among u_0, v_0, u_1, ..., v_2 of the children's lo and hi, per parent case.

    The rules see only the mask, the class of delta = b//3 - a//3 (0, below, at or above
    n/6), and whether the parent is critical (own 10) or which candidate is itself (id
    own - 1; 0: none): column (own * 4 + cls) * 512 + mask.  -1 pads a critical parent's
    children, -2 marks no matching.  A rule takes the first candidate set the mask holds,
    in an order fixed on the model parent u_i = 4i, v_j = cls + 4j mod 12 (the greedy
    critical rule: disjoint sets of the short ones, ordered by membership of the shortest).
    """
    pick = np.full((11, 4, 512, 3), -2, dtype=np.int8)  # candidate ids
    for cls in range(4):
        pair = [canon(4 * (c // 3), cls + 4 * (c % 3)) for c in range(9)]
        size = [arclen(*p, 12) for p in pair]
        short = sorted((c for c in range(9) if 3 * size[c] <= 12), key=lambda c: (size[c], pair[c]))
        disjoint = [s for k in range(4) for s in combinations(short, k)
                    if len({e for c in s for e in pair[c]}) == sum(len({*pair[c]}) for c in s)]
        orders = [sorted(_MATCHINGS, key=lambda m: (mine not in [pair[c] for c in m],
                                                    sorted(size[c] for c in m),
                                                    sorted(pair[c] for c in m)))
                  for mine in [None, *pair]]
        orders.append(sorted(disjoint, key=lambda s: [c not in s for c in short]))
        for own, order in enumerate(orders):
            for s in reversed(order):  # the first set the mask holds is written last
                bits = sum(1 << c for c in s)
                pick[own, cls, np.arange(512) & bits == bits] = [*s, -1, -1, -1][:3]
    place = np.where(pick < 0, pick, np.sort([2 * (pick // 3), 2 * (pick % 3) + 1], axis=0))
    return np.ascontiguousarray(place.reshape(2, -1, 3).transpose(0, 2, 1))


_PICK = _pick_table()


def short_quad_edges(c: Chord) -> list[Chord]:
    """The two edges of the quadrilateral of c other than the major pair, plus antipodes."""
    n, _, _, arcs = strips_on_grid(c)
    return list(dict.fromkeys(Chord.from_grid(arc, n) for arc in arcs))


def _seed_system(c: Chord) -> tuple[int, list[Pair], list[Pair], list[Pair]]:
    """(n0, seeds, barriers, edges) of the pullback family of c, (lo, hi) pairs on the grid n0.

    The barriers are the bounding chords and the short edges (`edges`, none
    for a degenerate c) of c's strips: the critical chord and its antipode
    for a degenerate c, the quadrilateral edges and their antipodes
    otherwise.  The seeds add the non-degenerate chords of the orbits of c
    and -c; they may repeat.
    """
    verdict = is_legal_pair(c)
    if not verdict.is_legal:
        raise IllegalSeedError(c, verdict)
    n, p, bounds, arcs = strips_on_grid(c)
    edges = list(dict.fromkeys(canon(s, e) for s, e in arcs))
    barriers = list(dict.fromkeys(bounds + edges))
    images = [canon(x, y) for x, y in orbit(*p, n)]
    seeds = barriers + [r for q in images for r in (q, antipode(q, n)) if r[0] != r[1]]
    return n, seeds, barriers, edges


@dataclass
class Prelamination:
    """Depth-truncated pullback family of int64 numerators mod `modulus`, kept in key order
    (rows out of it are stably sorted); rows off 0 <= lo <= hi < modulus raise ValueError,
    as do depths not one per row in 0 .. `depth`."""

    seed: Chord
    depth: int
    modulus: int
    pairs: np.ndarray   # (n, 2) canonical lo < hi numerators, stably sorted by key
    depths: np.ndarray  # (n,) int8 generation level of first appearance
    keys: np.ndarray = field(init=False, repr=False)  # sorted lo * modulus + hi

    def __post_init__(self):
        check_int64(self.modulus)
        (lo, hi), depths, n = self.pairs.T, self.depths, self.modulus
        if not (0 <= self.pairs.min(initial=0) <= self.pairs.max(initial=0) < n
                and (lo <= hi).all() and len(depths) == len(lo)
                and 0 <= depths.min(initial=0) <= depths.max(initial=0) <= self.depth):
            raise ValueError(f"need rows 0 <= lo <= hi < {n}, depths 0 .. {self.depth}")
        self.keys = lo * n + hi
        if (self.keys[1:] < self.keys[:-1]).any():
            order = self.keys.argsort(kind="stable")
            self.pairs, self.depths, self.keys = self.pairs[order], depths[order], self.keys[order]

    def __len__(self) -> int:
        return len(self.pairs)

    def _key(self, ch: Chord) -> Optional[int]:
        """lo * modulus + hi of ch, or None when ch is off this family's grid."""
        lo, hi = ch.a * self.modulus, ch.b * self.modulus
        if lo.denominator != 1 or hi.denominator != 1:
            return None
        return int(lo) * self.modulus + int(hi)

    def contains(self, ch: Chord) -> bool:
        key = self._key(ch)
        if key is None:
            return False  # off the grid: certainly not a member
        i = int(np.searchsorted(self.keys, key))
        return i < len(self.keys) and self.keys[i] == key

    # -- structural invariants ------------------------------------------------

    def noncrossing(self) -> bool:
        return Laminar(self.pairs).crossing is None

    def antipode_closed(self) -> bool:
        n = self.modulus
        x, y = (self.pairs.T + n // 2) % n
        return bool(np.array_equal(np.sort(_keys(x, y, n)), self.keys))

    def forward_closed(self) -> bool:
        n = self.modulus
        x, y = 3 * self.pairs.T % n
        return bool(np.isin(_keys(x, y, n)[x != y], self.keys).all())

    def sibling_complete(self) -> bool:
        """Every chord at interior depth whose image is not critical lies in a full collection.

        That is one of the five `_MATCHINGS` of its image's six preimage
        points, with all three chords present: three pairwise disjoint
        chords of the same image.
        """
        n, third = self.modulus, self.modulus // 3
        inner = self.pairs.compress((1 <= self.depths) & (self.depths <= self.depth - 1), 0)
        x, y = 3 * inner.T % n
        keep = (abs(x - y) != third) & (abs(x - y) != 2 * third)  # image not critical
        key, x, y = (inner[:, 0] * n + inner[:, 1])[keep], x[keep], y[keep]
        offs = third * np.arange(3)
        keys = _keys((np.minimum(x, y)[:, None] // 3 + offs)[:, _MATCH_U],  # (k, matching, pair)
                     (np.maximum(x, y)[:, None] // 3 + offs)[:, _MATCH_V], n)
        ok = np.isin(keys, self.keys).all(axis=2) & (keys == key[:, None, None]).any(axis=2)
        return bool(ok.any(axis=1).all())

    def min_length_law(self) -> bool:
        """No forward image of any chord is shorter than min(its length, the minor's)."""
        n = self.modulus
        if self.seed.degenerate:
            return True  # the minor is a point, so the bound is 0 and the law is vacuous
        minor_len = arclen(*image(self.seed).on_grid(n), n)

        def length(x, y):
            return np.minimum((y - x) % n, (x - y) % n)

        bound = np.minimum(length(*self.pairs.T), minor_len)
        return all((length(x, y) >= bound).all() for x, y in orbit(*self.pairs.T.copy(), n))

    def forward_orbit_hits(self, targets: list[Chord]) -> np.ndarray:
        """Boolean mask of chords whose forward orbit (index >= 0) reaches a target.

        A target off this family's grid is reached by no orbit.  A chord
        whose image is a member is hit iff it or its image is, so hits spread
        by pointer doubling; only chords whose image is no member (critical
        chords, whose image is a point) walk their orbits, then point to self.
        """
        n, keys = self.modulus, self.keys
        tkeys = np.array([k for k in map(self._key, targets) if k is not None], dtype=np.int64)
        lo, hi = self.pairs.T
        images = _keys(3 * lo % n, 3 * hi % n, n)
        img = np.minimum(np.searchsorted(keys, images), len(keys) - 1)
        out = np.flatnonzero(keys[img] != images)
        hit = np.isin(keys, tkeys)
        walk = np.stack([_keys(x, y, n) for x, y in orbit(lo[out], hi[out], n)])
        hit[out] |= np.isin(walk, tkeys).any(axis=0)
        img[out] = out
        for _ in range((sum(closure(n)) - 1).bit_length()):  # img covers 2**k steps in pass k
            hit |= hit[img]
            img = img[img]
        return hit


def _keys(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Keys lo * n + hi of the chords with endpoint arrays x and y on the grid of modulus n."""
    return np.minimum(x, y) * n + np.maximum(x, y)


def _barrier_regions(barriers: list[Pair], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(cuts, masks): the cells of parent endpoints and the survival masks of cell pairs.

    For n a multiple of 3 the preimage x // 3 + i * n/3 of x is at or past a
    point e of its third iff x >= 3e mod n, so whether each preimage of x is
    before, at or after each barrier endpoint e, and with it which candidates
    cross no barrier, is the same throughout the cell searchsorted(cuts, x,
    "right") among the cuts 0 (left out), 3e and 3(e + 1) mod n.  Bit 3*i + j
    of masks[k, l] is set when the candidate (u_i, v_j) of a parent with
    endpoints in cells k and l crosses no barrier (`grid.crosses`).
    """
    ends = np.unique(barriers)
    starts = np.unique(np.concatenate([[0], 3 * ends % n, 3 * (ends + 1) % n]))
    pre = starts[:, None] // 3 + n // 3 * np.arange(3)  # the u_i of each cell's first point
    cand = (pre[:, None, :, None, None], pre[None, :, None, :, None])
    crossed = crosses(np.array(barriers, dtype=np.int64).T, cand, n).any(axis=4)
    return starts[1:], (~crossed).reshape(len(starts), len(starts), 9) @ (1 << np.arange(9))


def _level_children(frontier: np.ndarray, regions: tuple[np.ndarray, np.ndarray],
                    n: int) -> np.ndarray:
    """All selected pullback pairs of the frontier rows lo <= hi, distinct for distinct parents.

    Each parent reads its mask from `regions` (`_barrier_regions` on the grid n) and its
    children from one `_PICK` column; the first parent left no matching raises InvariantError.
    """
    third = n // 3
    cuts, masks = regions  # candidate 3*i + j is (u_i, v_j)
    (a3, b3), (ra, rb) = (frontier // 3).T, (frontier % third).T
    col = np.searchsorted([1, third, third + 1], 2 * (b3 - a3), "right") * 512  # delta-class
    col += masks[tuple(cuts.searchsorted(frontier, "right").T)]
    col += 2048 * 10 * (ra == rb)  # critical: a span of n/3 or 2n/3 is 0 mod n/3
    # x is u_i (v_i) for i = x // third iff x % third is a3 (b3): the parent's own candidate
    s = np.flatnonzero((ra != rb) & ((ra == a3) | (ra == b3)))
    if len(s):
        (i, j), ua = (frontier[s] // third).T, ra[s] == a3[s]
        col[s] += 2048 * np.where(ua, (rb[s] == b3[s]) * (3 * i + j + 1),
                                  (rb[s] == a3[s]) * (3 * j + i + 1))
    place = _PICK.take(col, 2)  # (2, 3, m): each child's lo and hi
    if place[0, 0].min(initial=0) == -2:
        k = int(place[0, 0].argmin())  # the first parent left no matching
        chord, x, y = Chord.from_grid(frontier[k].tolist(), n), int(a3[k]), int(b3[k])
        survivors = sorted(canon(x + c // 3 * third, y + c % 3 * third) for c in range(9)
                           if col[k] >> c & 1)
        raise InvariantError(f"no matching of the preimages of {chord} survives its barriers", {
            "kind": "no-matching", "parent": chord_to_json(chord),
            "survivors": [chord_to_json(Chord.from_grid(p, n)) for p in survivors]})
    out = np.multiply(place >> 1, third, dtype=np.int64)  # u_i or v_j, below n as a, b are
    out += a3
    out += (place & 1) * (b3 - a3)
    out = out.reshape(2, -1)  # a critical parent may have fewer than 3 children
    return (out if place[0, 2].min(initial=0) >= 0 else out[:, place[0].ravel() >= 0]).T


def _levels(roots: np.ndarray, seeds: np.ndarray, regions: tuple[np.ndarray, ...], n: int,
            depth: int) -> list[np.ndarray]:
    """Per level, the sorted keys lo * n + hi of the chords first appearing there.

    Level 0 holds the `roots`, some or all of the sorted distinct seed keys
    `seeds`.  A child can repeat only a seed, since its image is its parent
    (see the module docstring), and one that does is dropped, grown or not.
    The keys are sorted, so the few seeds are searched in the many children.
    """
    levels = [roots]
    for _ in range(depth):
        children = _level_children(np.stack(np.divmod(levels[-1], n), axis=1), regions, n)
        keys = np.sort(children[:, 0] * n + children[:, 1])
        first, last = keys.searchsorted(seeds), keys.searchsorted(seeds, "right")
        levels.append(np.delete(keys, first[first < last]))
    return levels


def _grow(c: Chord, depth: int, prune: bool) -> Prelamination:
    """The laminar, repeat-free family of {c, -c} grown from every seed, or with `prune`
    from the seeds whose forward orbits (one stacked walk on the grid n0) miss every edge."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n0, seeds, barriers, edges = _seed_system(c)
    scale = 3**depth
    n = n0 * scale
    check_int64(n)

    regions = _barrier_regions([(x * scale, y * scale) for x, y in barriers], n)
    x, y = np.unique(np.array(seeds, dtype=np.int64), axis=0).T  # key order
    roots = seeded = _keys(x * scale, y * scale, n)
    if prune:  # every state of the seeds' orbits, walked on the grid n0
        walk = np.stack([_keys(*state, n0) for state in orbit(x, y, n0)])
        roots = seeded.compress(~np.isin(walk, _keys(*np.array(edges).T, n0)).any(axis=0))
    levels = _levels(roots, seeded, regions, n, depth)
    depths = np.repeat(np.arange(len(levels), dtype=np.int8), [len(k) for k in levels])
    keys = np.concatenate(levels)
    del levels
    order = keys.argsort(kind="stable")
    pairs = np.stack(np.divmod(keys.take(order), n), axis=1)
    del keys
    pre = Prelamination(seed=c, depth=depth, modulus=n, pairs=pairs, depths=depths.take(order))
    del pairs, depths, order  # only the family stays alive through the invariant check
    crossing = Laminar(pre.pairs).crossing
    if crossing is not None:
        first, second = (Chord.from_grid(p, n) for p in pre.pairs[list(crossing)].tolist())
        raise InvariantError(f"pullback family of {c} produced a crossing: "
                             f"{first} crosses {second}", crossing_to_json(first, second))
    repeat = np.flatnonzero(pre.keys[1:] == pre.keys[:-1])
    if len(repeat):
        chord = Chord.from_grid(divmod(int(pre.keys[repeat[0]]), n), n)
        raise InvariantError(f"pullback family of {c} repeats the chord {chord}",
                             {"kind": "repeat", "chord": chord_to_json(chord)})
    return pre


def build_prelamination(c: Chord, depth: int) -> Prelamination:
    """The depth-truncated pullback family of a legal pair {c, -c}."""
    return _grow(c, depth, prune=False)


def hyperbolic_prune(c: Chord, depth: int) -> Prelamination:
    """Remove the short quadrilateral edges of c and their backward orbits.

    Requires a non-degenerate co-periodic seed (the image of c has
    periodic endpoints); the comajor c itself always survives.  Only the
    seeds whose forward orbits miss the edges grow (see the module docstring).
    """
    if c.degenerate:
        raise ValueError("hyperbolic pruning needs a non-degenerate comajor")
    if any(orbit_info(v).preperiod != 0 for v in image(c).endpoints()):
        raise ValueError(f"{c} is not co-periodic (its image is not periodic)")
    pruned = _grow(c, depth, prune=True)
    if not pruned.contains(c):
        raise InvariantError(f"comajor {c} did not survive its own pruning",
                             {"kind": "pruned-comajor", "chord": chord_to_json(c)})
    return pruned
