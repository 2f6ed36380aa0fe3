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
family's barriers become one small survival table over those regions
(`_barrier_regions`) and each candidate costs one lookup.

Preimage selection.  The six preimage points of a chord alternate
around the circle, so its preimage chords organize into at most five
non-crossing perfect matchings (the all-short, all-medium and three
mixed patterns of the sibling trichotomy).  Barriers generically leave
exactly one matching alive.  The remaining cases are resolved
deterministically:

* critical parent: candidates longer than 1/3 are dropped (they span
  over the co-critical chord), and endpoint-sharing candidates around a
  periodic endpoint keep the shorter chord (the collapsing
  quadrilateral keeps its short edges);
* several surviving matchings: prefer the one containing the parent
  itself (setwise invariant minors are their own pullback), then the
  shortest length profile, then canonical order;
* no surviving matching: all surviving candidates are returned for the
  caller.

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
child keys are filtered against the seed keys alone and form the next
frontier.  A chord's depth is the level of its first appearance.  The
finished family must be laminar (`grid.Laminar`) and free of repeats
(a crossing or a repeat raises InvariantError with its witness) and is
kept in key order: `Prelamination.pairs` is sorted by lo * n + hi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .angles import orbit_info
from .chords import Chord, image
from .formats import chord_to_json, crossing_to_json
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


# Perfect non-crossing matchings of the six alternating preimage points,
# as candidate ids 3*i + j for the pairing (u_i, v_j): the all-short,
# all-medium and three mixed sibling patterns.
_MATCHINGS = (
    (0, 4, 8),
    (2, 3, 7),
    (0, 5, 7),
    (2, 4, 6),
    (1, 3, 8),
)
_MATCH_MASKS = tuple(sum(1 << cid for cid in m) for m in _MATCHINGS)


def _select_pullbacks(parent: tuple[int, int], survivors: dict[int, tuple[int, int]],
                      n: int) -> list[tuple[int, int]]:
    """Resolve the surviving preimage candidates of one parent chord.

    `survivors` maps candidate id (3*i + j) to its canonical int pair.
    Implements the selection rules described in the module docstring.
    """
    if arclen(*parent, n) * 3 == n:
        # critical parent: the shortest candidates of length <= 1/3 sharing no endpoint
        chosen: list[tuple[int, int]] = []
        used: set[int] = set()
        for pr in sorted((pr for pr in survivors.values() if arclen(*pr, n) * 3 <= n),
                         key=lambda pr: (arclen(*pr, n), pr)):
            if not used & set(pr):
                chosen.append(pr)
                used.update(pr)
        return sorted(chosen)

    viable = [m for m in _MATCHINGS if all(cid in survivors for cid in m)]
    if not viable:
        return sorted(survivors.values())
    parent_pair = tuple(sorted(parent))
    pool = [m for m in viable if any(survivors[cid] == parent_pair for cid in m)] or viable
    chosen_m = min(pool, key=lambda m: (sorted(arclen(*survivors[cid], n) for cid in m),
                                        sorted(survivors[cid] for cid in m)))
    return sorted(survivors[cid] for cid in chosen_m)


def short_quad_edges(c: Chord) -> list[Chord]:
    """The two edges of the quadrilateral of c other than the major pair, plus antipodes."""
    n, _, (_, arcs, _) = strips_on_grid(c)
    return list(dict.fromkeys(Chord.from_grid(arc, n) for arc in arcs))


def _seed_system(c: Chord) -> tuple[int, list[Pair], list[Pair]]:
    """(n0, seeds, barriers) of the pullback family of c, as (lo, hi) pairs on the grid n0.

    The barriers are the bounding chords and the short edges of c's
    strips: the critical chord and its antipode for a degenerate c, the
    quadrilateral edges and their antipodes otherwise.  The seeds add
    the non-degenerate chords of the orbits of c and -c; they may repeat.
    """
    verdict = is_legal_pair(c)
    if not verdict.is_legal:
        raise IllegalSeedError(c, verdict)
    n, p, (bounds, arcs, _) = strips_on_grid(c)
    barriers = list(dict.fromkeys(bounds + [canon(s, e) for s, e in arcs]))
    images = [canon(x, y) for x, y in orbit(*p, n)]
    seeds = barriers + [r for q in images for r in (q, antipode(q, n)) if r[0] != r[1]]
    return n, seeds, barriers


@dataclass
class Prelamination:
    """Depth-truncated pullback family, stored as int64 numerators mod `modulus`."""

    seed: Chord
    depth: int
    modulus: int
    pairs: np.ndarray   # (n, 2) canonical lo < hi numerators, stably sorted by key
    depths: np.ndarray  # (n,) generation level of first appearance
    keys: np.ndarray = field(init=False, repr=False)  # sorted lo * modulus + hi

    def __post_init__(self):
        check_int64(self.modulus)
        keys = self.pairs[:, 0] * self.modulus + self.pairs[:, 1]
        order = np.argsort(keys, kind="stable")
        self.pairs, self.depths, self.keys = self.pairs[order], self.depths[order], keys[order]

    def __len__(self) -> int:
        return len(self.pairs)

    def chords(self) -> list[Chord]:
        n = self.modulus
        return [Chord.from_grid(p, n) for p in self.pairs.tolist()]

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
        inner = self.pairs[(1 <= self.depths) & (self.depths <= self.depth - 1)]
        x, y = 3 * inner.T % n
        keep = (abs(x - y) != third) & (abs(x - y) != 2 * third)  # image not critical
        key, x, y = (inner[:, 0] * n + inner[:, 1])[keep], x[keep], y[keep]
        offs = third * np.arange(3)
        lo, hi = _candidates(np.minimum(x, y)[:, None] // 3 + offs,
                             np.maximum(x, y)[:, None] // 3 + offs)
        keys = lo * n + hi
        present = np.isin(keys, self.keys)
        ok = np.zeros(len(key), dtype=bool)
        for m in map(list, _MATCHINGS):
            ok |= present[:, m].all(axis=1) & (keys[:, m] == key[:, None]).any(axis=1)
        return bool(ok.all())

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
        whose image is a member is hit iff it or its image is, so hits
        spread by one gather per tripling step; only chords whose image is
        no member (critical chords, whose image is a point) walk their orbits.
        """
        n, keys = self.modulus, self.keys
        tkeys = np.array([k for k in map(self._key, targets) if k is not None], dtype=np.int64)
        lo, hi = self.pairs.T
        images = _keys(3 * lo % n, 3 * hi % n, n)
        img = np.minimum(np.searchsorted(keys, images), len(keys) - 1)
        out = np.flatnonzero(keys[img] != images)
        hit = np.isin(keys, tkeys)
        for x, y in orbit(lo[out], hi[out], n):
            hit[out] |= np.isin(_keys(x, y, n), tkeys)
        img[out] = out
        for _ in range(sum(closure(n)) - 1):
            hit |= hit[img]
        return hit


def _keys(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Keys lo * n + hi of the chords with endpoint arrays x and y on the grid of modulus n."""
    return np.minimum(x, y) * n + np.maximum(x, y)


def _candidates(us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the nine candidates 3*i + j = (u_i, v_j), per row of preimages us and vs."""
    x1, x2 = us[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]], vs[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]]
    return np.minimum(x1, x2), np.maximum(x1, x2)


def _barrier_regions(barriers: list[Pair], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(E, table): the sorted distinct barrier endpoints and the survival table of their regions.

    A point x has region code 2 * searchsorted(E, x), plus 1 when x is
    in E; whether a chord crosses a barrier depends on its endpoints'
    codes alone.  table[c1, c2] says that a chord with endpoint codes c1
    and c2 crosses no barrier, by `grid.crosses` at representatives on
    the grid 2n (the regions before E[0] and after E[-1] are one arc).
    """
    ends = np.unique(barriers)
    reps = np.full(2 * len(ends) + 1, 2 * ends[-1] + 1)
    reps[1::2], reps[2:-1:2] = 2 * ends, ends[:-1] + ends[1:]
    bars = 2 * np.array(barriers, dtype=np.int64).T
    hit = crosses((reps[:, None, None], reps[None, :, None]), bars, 2 * n)
    return ends, ~hit.any(axis=2)


def _level_children(frontier: np.ndarray, regions: tuple[np.ndarray, np.ndarray],
                    n: int) -> np.ndarray:
    """All selected pullback pairs of the frontier chords (with duplicates).

    `regions` is `_barrier_regions` of the barriers on the grid n.
    """
    a = frontier[:, 0]
    b = frontier[:, 1]
    third = n // 3
    offs = np.array([0, third, 2 * third], dtype=np.int64)
    us = (a[:, None] // 3 + offs) % n
    vs = (b[:, None] // 3 + offs) % n
    ends, table = regions
    cu, cv = (np.searchsorted(ends, x) + np.searchsorted(ends, x, side="right") for x in (us, vs))
    surv = table[cu[:, :, None], cv[:, None, :]].reshape(-1, 9)  # candidate 3*i + j: (u_i, v_j)
    lo, hi = _candidates(us, vs)
    mask = surv.astype(np.int64) @ (1 << np.arange(9, dtype=np.int64))

    span_p = (b - a) % n
    critical = (span_p == third) | (span_p == 2 * third)
    fast = ~critical & np.isin(mask, np.array(_MATCH_MASKS, dtype=mask.dtype))

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


def _levels(seeds: np.ndarray, regions: tuple[np.ndarray, np.ndarray], n: int,
            depth: int) -> list[np.ndarray]:
    """Per level, the sorted keys lo * n + hi of the chords first appearing there.

    `seeds` holds the sorted distinct seed keys, the only keys a child can
    repeat, since its image is its parent (see the module docstring).  The
    keys are sorted only to give the family's one sort nearly sorted input.
    """
    levels = [seeds]
    for _ in range(depth):
        children = _level_children(np.stack(np.divmod(levels[-1], n), axis=1), regions, n)
        keys = children[:, 0] * n + children[:, 1]
        fresh = seeds[np.minimum(np.searchsorted(seeds, keys), len(seeds) - 1)] != keys
        levels.append(np.sort(keys[fresh]))
    return levels


def build_prelamination(c: Chord, depth: int) -> Prelamination:
    """The depth-truncated pullback family of a legal pair {c, -c}."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n0, seeds, barriers = _seed_system(c)
    scale = 3**depth
    n = n0 * scale
    check_int64(n)

    regions = _barrier_regions([(x * scale, y * scale) for x, y in barriers], n)
    seeded = np.array(seeds, dtype=np.int64) * scale
    levels = _levels(np.unique(seeded[:, 0] * n + seeded[:, 1]), regions, n, depth)
    depths = np.repeat(np.arange(len(levels), dtype=np.int64), [len(k) for k in levels])
    keys = np.concatenate(levels)
    del levels
    pairs = np.stack(np.divmod(keys, n), axis=1)
    del keys
    pre = Prelamination(seed=c, depth=depth, modulus=n, pairs=pairs, depths=depths)
    del pairs, depths  # only the family stays alive through the invariant check
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


def hyperbolic_prune(c: Chord, depth: int) -> Prelamination:
    """Remove the short quadrilateral edges of c and their backward orbits.

    Requires a non-degenerate co-periodic seed (the image of c has
    periodic endpoints); the comajor c itself always survives.
    """
    if c.degenerate:
        raise ValueError("hyperbolic pruning needs a non-degenerate comajor")
    minor = image(c)
    if any(orbit_info(v).preperiod != 0 for v in minor.endpoints()):
        raise ValueError(f"{c} is not co-periodic (its image is not periodic)")
    pre = build_prelamination(c, depth)
    hit = pre.forward_orbit_hits(short_quad_edges(c))
    pruned = Prelamination(seed=c, depth=depth, modulus=pre.modulus, pairs=pre.pairs[~hit],
                           depths=pre.depths[~hit])
    if not pruned.contains(c):
        raise InvariantError(f"comajor {c} did not survive its own pruning")
    return pruned
