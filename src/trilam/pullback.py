"""Finite-depth symmetric pullback prelaminations and hyperbolic pruning.

A legal pair {c, -c} seeds a pullback family: a degenerate c starts
from its pair of critical chords, a non-degenerate c from the edges of
its quadrilateral pair together with the finite forward orbits of
+-c.  Each level adds, for every chord of the previous level, the
preimage chords that cross none of the generating barriers (the
critical chords, respectively the quadrilateral edges), taken from the
grid strips the legality oracle uses (`grid.majors`, `grid.strip_parts`).

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

Levels are deduplicated on those keys: each level's children are
reduced to their sorted unique keys, the keys already seen are dropped
by a binary search in the sorted set of earlier keys, and the fresh
ones are merged into it and form the next frontier.  A chord's depth is
the level of its first appearance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .angles import orbit_info
from .chords import Chord, image
from .grid import (MAX_INT64_MODULUS, Pair, antipode, arclen, canon, chord_orbit, closure,
                   crosses, crossing_pair, majors, on_grid, scale_of, short_arc_order,
                   strip_parts)
from .legality import LegalityVerdict, is_legal_pair

__all__ = [
    "Prelamination",
    "IllegalSeedError",
    "InvariantError",
    "build_prelamination",
    "hyperbolic_prune",
    "short_quad_edges",
]


class IllegalSeedError(ValueError):
    """The seed pair failed the legality oracle."""

    def __init__(self, c: Chord, verdict: LegalityVerdict):
        self.verdict = verdict
        super().__init__(f"seed {c} is not a legal pair: {verdict.to_json()}")


class InvariantError(RuntimeError):
    """The generated chord family violated a structural invariant."""


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
    a, b = parent
    if arclen(a, b, n) * 3 == n:
        # critical parent
        keep = [(cid, pr) for cid, pr in survivors.items() if arclen(*pr, n) * 3 <= n]
        keep.sort(key=lambda item: (arclen(*item[1], n), item[1]))
        chosen: list[tuple[int, int]] = []
        used: set[int] = set()
        for _, pr in keep:
            if pr[0] in used or pr[1] in used:
                continue
            chosen.append(pr)
            used.update(pr)
        return sorted(chosen)

    viable = [m for m in _MATCHINGS if all(cid in survivors for cid in m)]
    if not viable:
        return sorted(survivors.values())
    if len(viable) > 1:
        parent_pair = tuple(sorted(parent))
        containing = [m for m in viable
                      if any(survivors[cid] == parent_pair for cid in m)]
        pool = containing or viable
        pool = sorted(
            pool,
            key=lambda m: (sorted(arclen(*survivors[cid], n) for cid in m),
                           sorted(survivors[cid] for cid in m)),
        )
        chosen_m = pool[0]
    else:
        chosen_m = viable[0]
    return sorted(survivors[cid] for cid in chosen_m)


def _strips(c: Chord) -> tuple[int, list[Pair], list[Pair]]:
    """n0 = lcm(6, denominators of c), and the bounding chords and boundary arcs of c's strips."""
    n = scale_of(c.endpoints(), 6)
    bounds, arcs, _ = strip_parts(*majors((on_grid(c.a, n), on_grid(c.b, n)), n), n)
    return n, bounds, arcs


def short_quad_edges(c: Chord) -> list[Chord]:
    """The two edges of the quadrilateral of c other than the major pair, plus antipodes."""
    n, _, arcs = _strips(c)
    return list(dict.fromkeys(Chord(Fraction(s, n), Fraction(e, n)) for s, e in arcs))


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
    n, bounds, arcs = _strips(c)
    barriers = list(dict.fromkeys(bounds + [canon(s, e) for s, e in arcs]))
    orbit = [canon(x, y) for x, y in chord_orbit((on_grid(c.a, n), on_grid(c.b, n)), n)]
    seeds = barriers + [p for q in orbit for p in (q, antipode(q, n)) if p[0] != p[1]]
    return n, seeds, barriers


@dataclass
class Prelamination:
    """Depth-truncated pullback family, stored as int64 numerators mod `modulus`."""

    seed: Chord
    depth: int
    modulus: int
    pairs: np.ndarray   # (n, 2) canonical lo < hi numerators, sorted by short-arc key
    depths: np.ndarray  # (n,) generation level of first appearance
    pruned: bool = False
    keys: np.ndarray = field(init=False, repr=False)  # sorted lo * modulus + hi

    def __post_init__(self):
        _check_modulus(self.modulus)
        self.keys = np.sort(self.pairs[:, 0] * self.modulus + self.pairs[:, 1])

    def __len__(self) -> int:
        return len(self.pairs)

    def chords(self) -> list[Chord]:
        n = self.modulus
        return [Chord(Fraction(int(lo), n), Fraction(int(hi), n)) for lo, hi in self.pairs]

    def to_pair(self, ch: Chord) -> tuple[int, int]:
        lo = ch.a * self.modulus
        hi = ch.b * self.modulus
        if lo.denominator != 1 or hi.denominator != 1:
            raise ValueError(f"{ch} is not on the grid of this prelamination")
        return (int(lo), int(hi))

    def contains(self, ch: Chord) -> bool:
        try:
            lo, hi = self.to_pair(ch)
        except ValueError:
            return False  # off the grid: certainly not a member
        key = lo * self.modulus + hi
        i = int(np.searchsorted(self.keys, key))
        return i < len(self.keys) and self.keys[i] == key

    # -- structural invariants ------------------------------------------------

    def noncrossing(self) -> bool:
        return crossing_pair(self.pairs) is None

    def antipode_closed(self) -> bool:
        n = self.modulus
        half = n // 2
        x = (self.pairs[:, 0] + half) % n
        y = (self.pairs[:, 1] + half) % n
        keys = np.sort(np.minimum(x, y) * n + np.maximum(x, y))
        return bool(np.array_equal(keys, self.keys))

    def forward_closed(self) -> bool:
        n = self.modulus
        x = (3 * self.pairs[:, 0]) % n
        y = (3 * self.pairs[:, 1]) % n
        nondeg = x != y
        keys = np.minimum(x, y) * n + np.maximum(x, y)
        present = np.isin(keys[nondeg], self.keys)
        return bool(present.all())

    def sibling_complete(self) -> bool:
        """Every chord at interior depth whose image is non-critical admits a
        full collection of three pairwise disjoint same-image chords."""
        n = self.modulus
        groups: dict[int, list[tuple[int, int]]] = {}
        img_keys = []
        for lo, hi in self.pairs:
            x, y = (3 * int(lo)) % n, (3 * int(hi)) % n
            key = min(x, y) * n + max(x, y)
            img_keys.append(key)
            groups.setdefault(key, []).append((int(lo), int(hi)))
        for (lo, hi), d, key in zip(self.pairs.tolist(), self.depths.tolist(), img_keys):
            if not (1 <= d <= self.depth - 1):
                continue
            if arclen((3 * lo) % n, (3 * hi) % n, n) * 3 == n:
                continue  # image critical: the third sibling is excluded by construction
            if not _has_disjoint_triple((lo, hi), groups[key], n):
                return False
        return True

    def min_length_law(self) -> bool:
        """No forward image of any chord is shorter than min(its length, the minor's)."""
        n = self.modulus
        if self.seed.degenerate:
            return True  # the minor is a point, so the bound is 0 and the law is vacuous
        minor = image(self.seed)
        minor_len = arclen(on_grid(minor.a, n), on_grid(minor.b, n), n)
        own = np.minimum((self.pairs[:, 1] - self.pairs[:, 0]) % n,
                         (self.pairs[:, 0] - self.pairs[:, 1]) % n)
        bound = np.minimum(own, minor_len)
        x, y = self.pairs[:, 0].copy(), self.pairs[:, 1].copy()
        ok = np.ones(len(self.pairs), dtype=bool)
        for _ in range(sum(closure(n))):
            x, y = (3 * x) % n, (3 * y) % n
            ln = np.minimum((y - x) % n, (x - y) % n)
            ok &= ln >= bound
        return bool(ok.all())

    def forward_orbit_hits(self, targets: list[Chord]) -> np.ndarray:
        """Boolean mask of chords whose forward orbit (index >= 0) reaches a target."""
        n = self.modulus
        tkeys = np.array(sorted(min(p) * n + max(p) for p in
                                (self.to_pair(t) for t in targets)), dtype=np.int64)
        x, y = self.pairs[:, 0].copy(), self.pairs[:, 1].copy()
        hit = np.zeros(len(self.pairs), dtype=bool)
        for _ in range(sum(closure(n))):
            keys = np.minimum(x, y) * n + np.maximum(x, y)
            hit |= np.isin(keys, tkeys)
            x, y = (3 * x) % n, (3 * y) % n
        return hit

    def to_json(self) -> str:
        from .formats import prelamination_to_json

        return prelamination_to_json(self.seed, self.depth, self.pairs, self.modulus)


def _check_modulus(n: int) -> None:
    """Refuse a modulus whose int64 chord keys lo * n + hi would wrap."""
    if n > MAX_INT64_MODULUS:
        raise ValueError(f"modulus {n} exceeds {MAX_INT64_MODULUS}, where int64 chord keys "
                         "would wrap")


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


def _level_children(frontier: np.ndarray, barriers: list[tuple[int, int]],
                    n: int) -> np.ndarray:
    """All selected pullback pairs of the frontier chords (with duplicates)."""
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

    slow_idx = np.nonzero(~fast)[0]
    slow_pairs: list[tuple[int, int]] = []
    for pi in slow_idx:
        surv_map = {
            cid: (int(lo[pi, cid]), int(hi[pi, cid]))
            for cid in range(9)
            if surv[pi, cid]
        }
        parent = (int(a[pi]), int(b[pi]))
        slow_pairs.extend(_select_pullbacks(parent, surv_map, n))
    if slow_pairs:
        chunks.append(np.array(slow_pairs, dtype=np.int64).reshape(-1, 2))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


def build_prelamination(c: Chord, depth: int) -> Prelamination:
    """The depth-truncated pullback family of a legal pair {c, -c}."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n0, seeds, barriers = _seed_system(c)
    scale = 3**depth
    n = n0 * scale
    _check_modulus(n)

    bars = [(x * scale, y * scale) for x, y in barriers]
    seeded = np.array(seeds, dtype=np.int64) * scale
    seen = np.unique(seeded[:, 0] * n + seeded[:, 1])
    level_keys = [seen]
    for _ in range(depth):
        frontier = np.stack(np.divmod(level_keys[-1], n), axis=1)
        if len(frontier) == 0:
            break
        children = _level_children(frontier, bars, n)
        keys = np.unique(children[:, 0] * n + children[:, 1])
        at = np.searchsorted(seen, keys)
        fresh = seen[np.minimum(at, len(seen) - 1)] != keys
        seen = np.insert(seen, at[fresh], keys[fresh])
        level_keys.append(keys[fresh])

    keys = np.concatenate(level_keys)
    pairs = np.stack(np.divmod(keys, n), axis=1)
    depths = np.repeat(np.arange(len(level_keys), dtype=np.int64),
                       [len(k) for k in level_keys])
    order = short_arc_order(pairs, n)
    pre = Prelamination(seed=c, depth=depth, modulus=n, pairs=pairs[order],
                        depths=depths[order])
    if not pre.noncrossing():
        raise InvariantError(f"pullback family of {c} produced a crossing")
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
    pruned = Prelamination(
        seed=c,
        depth=depth,
        modulus=pre.modulus,
        pairs=pre.pairs[~hit],
        depths=pre.depths[~hit],
        pruned=True,
    )
    if not pruned.contains(c):
        raise InvariantError(f"comajor {c} did not survive its own pruning")
    return pruned
