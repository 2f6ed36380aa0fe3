"""Legality oracle for symmetric chord pairs.

A symmetric pair {c, -c} is legal when it is degenerate, or when
(a) no two iterated forward images of c and -c cross, and
(b) no forward image of c meets the interior of the short strips of c.
Legal pairs are exactly the comajor pairs, so this module is the
independent certifier for everything the builder produces.

The short strips of a chord c of length <= 1/6 form the region bounded
by its major pair (M, M') together with the antipodal copy.  A chord
meets the open strip region iff it crosses one of the four bounding
chords or has an endpoint strictly inside one of the four boundary
arcs; chords equal to a bounding chord or touching only strip vertices
stay outside.

Condition (a) is checked over all pairs drawn from the union of both
full orbits (indices >= 0, the most conservative reading); condition
(b) over images with index >= 1.  `grid.orbit` steps through every
state the grid allows, so the verdict is exact.

`legal_mask(pairs, n)` decides many chords on one grid by array passes:
orbits as (rows, L) arrays, L = e + k of `grid.closure(n)`; (a) as one
`grid.Laminar` pass over all families, each on its own range of the
line; (b) as one table lookup per image on where its endpoints lie among
the strips of `grid.strips`, which also give the pullback barriers.
`is_legal_pair` is the batch of one; its witness is the first crossing
pair or strip hit in the order of the `Fraction` reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid
from .chords import Chord, chord_to_json
from .grid import Pair, scale_of

__all__ = [
    "LegalityWitness",
    "LegalityVerdict",
    "hits_strip_interior",
    "is_legal_pair",
    "legal_mask",
    "strips_on_grid",
]

_IMAGES = 2**16  # orbit images decided at once: bounds `_decide`'s (rows, L) arrays


@dataclass(frozen=True, slots=True)
class LegalityWitness:
    kind: str  # "crossing" or "strip"
    first_index: int
    first_of: str  # "c" or "-c"
    first: Chord
    second_index: Optional[int]
    second_of: Optional[str]
    second: Chord  # crossing partner, strip boundary chord, or violated arc as a chord

    def to_json(self) -> dict:
        if self.kind == "strip":
            return {"kind": "strip", "image_index": self.first_index,
                    "image": chord_to_json(self.first), "boundary": chord_to_json(self.second)}
        return {"kind": "crossing",
                "first": {"image_index": self.first_index, "of": self.first_of,
                          "chord": chord_to_json(self.first)},
                "second": {"image_index": self.second_index, "of": self.second_of,
                           "chord": chord_to_json(self.second)}}


@dataclass(frozen=True, slots=True)
class LegalityVerdict:
    status: str  # "legal" or "illegal"
    witness: Optional[LegalityWitness] = None

    @property
    def is_legal(self) -> bool:
        return self.status == "legal"

    def to_json(self) -> dict:
        doc: dict = {"status": self.status}
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        return doc


def strips_on_grid(c: Chord) -> tuple[int, Pair, list[Pair], list[Pair]]:
    """(n, p, bounds, arcs): c (length <= 1/6) as p on the grid n = lcm(6, denominators of c),
    and the distinct bounding chords and arcs (none if c is degenerate) of `grid.strips`."""
    n = scale_of(c.endpoints(), 6)
    p = c.on_grid(n)
    objs = list(map(tuple, grid.strips(np.array([p], grid.int_dtype(3 * n)), n)[0].tolist()))
    return n, p, list(dict.fromkeys(objs[:4])), objs[4:8] if p[0] != p[1] else []


def _hits(images: np.ndarray, objs: np.ndarray, n: int) -> np.ndarray:
    """(m, k, 10): whether image (lo, hi) [r, j] meets the open strips through objs[r, o]: a
    bounding chord by crossing it, an arc by an endpoint strictly inside it, a marker by
    lying, no bounding chord, with both endpoints on the closed arcs of that strip."""
    lo, hi, bounds = images[..., :1], images[..., 1:], objs[:, None, :4]
    crossed = grid.crosses((bounds[..., 0], bounds[..., 1]), (lo, hi), n)
    start = objs[:, None, None, 4:8, 0]
    span = (objs[:, None, None, 4:8, 1] - start) % n
    w = (images[..., None] - start) % n  # (m, k, endpoint, arc): offsets into the arcs
    on_bound = ((lo == bounds[..., 0]) & (hi == bounds[..., 1])).any(2)
    closed = (w <= span).reshape(*w.shape[:3], 2, 2).any(4).all(2)  # per strip
    marked = closed & ~on_bound[..., None] & (span[:, :, 0, :2] > 0)
    return np.concatenate([crossed, ((0 < w) & (w < span)).any(2), marked], 2)


def _first_hits(start: int, length: int) -> np.ndarray:
    """(24, 24): per pair of endpoint classes (`_decide`), the first object of `_hits` met,
    or 10, read off the chord (start, start + length) on the grid 24 at a point per class."""
    reps = (start + 4 * np.arange(6)[:, None] + [0, 1, length, length + 1]).ravel() % 24
    images = np.sort(np.stack(np.meshgrid(reps, reps, indexing="ij"), 2), 2).reshape(1, -1, 2)
    hits = _hits(images, grid.strips(np.array([[start, start + length]]), 24), 24)[0]
    return np.where(hits.any(1), hits.argmax(1), 10).reshape(24, 24)


# (b) depends only on the classes of an image's endpoints, every strip vertex lying on a
# class bound, and on the order of the arcs: _FIRST[2 (arcs swapped) + (length is 1/6)] is
# read off a short arc from 0 or 8 (n/3 <= s < 2n/3 swaps them), of length 2 (< 1/6) or 4.
_FIRST = np.array([_first_hits(start, length) for start in (0, 8) for length in (2, 4)])


def _decide(rows: np.ndarray, n: int):
    """(family, crossed, first) of (lo, hi) rows of length <= 1/6 on the grid n, degenerate
    ones undecided.  `family` (m, 2L, 2) is each row's images x * 3^j mod n (3^j mod n, the
    orbit of the point 1), then their antipodes, shifted by r n for row r; `crossed` marks
    (a); `first` (m, L - 1) is the first object of `grid.strips` image j + 1 meets, or 10,
    by the class 4k + t of each endpoint: its sixth k of the circle from the short arc
    (s, s + l), and t = 0 at the sixth's start, 1 before + l, 2 at it, 3 past it."""
    m = len(rows)
    dtype = grid.int_dtype(max(n, m, 3) * n)  # the products and the shifted families
    rows = rows.astype(dtype, copy=False)
    s, length = grid.short_arcs(rows, n)
    orbit = rows[:, None] * np.array([x for x, _ in grid.orbit(1, 1, n)], dtype)[:, None] % n
    family = np.concatenate([orbit, (orbit + n // 2) % n], 1)
    family.sort(axis=2)
    family += np.arange(0, m * n, n, dtype=dtype)[:, None, None]  # family r on [r n, (r + 1) n)
    crossed = np.zeros(m, dtype=bool)
    crossed[grid.Laminar(family.reshape(-1, 2)).mismatched // family.shape[1]] = True
    table = (3 * s // n % 2 * 2 + length // (n // 6)).astype(np.intp, copy=False)[:, None]
    r = (orbit[:, 1:] - s[:, None, None]) % n
    k = r // (n // 6)
    f, length = r - k * (n // 6), length[:, None, None]
    ends = (4 * k + (f > 0) + (f >= length) + (f > length)).astype(np.intp, copy=False)
    return family, crossed, _FIRST[table, ends[..., 0], ends[..., 1]]


def legal_mask(pairs: np.ndarray, n: int) -> np.ndarray:
    """Per (x, y) row on the grid of modulus n (a multiple of 6), whether {c, -c} is legal,
    as it is for a degenerate row; a chord longer than 1/6 raises ValueError."""
    out, step = np.empty(len(pairs), dtype=bool), max(1, _IMAGES // sum(grid.closure(n)))
    for start in range(0, len(pairs), step):
        rows = np.sort(pairs[start:start + step], axis=1)
        _, crossed, first = _decide(rows, n)
        out[start:start + step] = (rows[:, 0] == rows[:, 1]) | ~(crossed | (first < 10).any(1))
    return out


def hits_strip_interior(d: Chord, c: Chord) -> bool:
    """True iff d meets the open strip region of c (a chord of length <= 1/6): it crosses a
    bounding chord, has an endpoint inside a boundary arc, or lies in the closed arc system
    of one strip (short edges and corner-to-corner diagonals) without being a bounding chord."""
    n = scale_of([*c.endpoints(), *d.endpoints()], 6)
    dtype = grid.int_dtype(3 * n)
    image = np.array([[d.on_grid(n)]], dtype)
    return bool(_hits(image, grid.strips(np.array([c.on_grid(n)], dtype), n), n).any())


def is_legal_pair(c: Chord) -> LegalityVerdict:
    """Decide legality of the symmetric pair {c, -c}; exact, with witness when illegal.

    The batch of one of `legal_mask`, on the grid lcm(6, denominators of
    c); a chord longer than 1/6 is rejected.
    """
    if c.degenerate:
        return LegalityVerdict("legal")
    n = scale_of(c.endpoints(), 6)
    row = np.array([c.on_grid(n)], grid.int_dtype(3 * n))
    family, crossed, first = _decide(row, n)
    family, size = family[0], len(family[0]) // 2
    chord = lambda p: Chord.from_grid(sorted(p.tolist()), n)  # noqa: E731
    tag = lambda k: (k, "c") if k < size else (k - size, "-c")  # noqa: E731
    if crossed[0]:  # the first crossing pair of the family, in family order
        lo, hi = family.T
        k, j = next((k, k + 1 + int(hit.argmax())) for k in range(2 * size)
                    if (hit := grid.crosses((lo[k], hi[k]), (lo[k + 1:], hi[k + 1:]), n)).any())
        witness = LegalityWitness("crossing", *tag(k), chord(family[k]), *tag(j), chord(family[j]))
    elif (first < 10).any():  # the first image meeting the strips, and the first object met
        i = int((first[0] < 10).argmax())
        witness = LegalityWitness("strip", i + 1, "c", chord(family[i + 1]), None, None,
                                  chord(grid.strips(row, n)[0, first[0, i]]))
    else:
        return LegalityVerdict("legal")
    return LegalityVerdict("illegal", witness)
