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

The oracle runs on the integer grid of modulus N = lcm(6, denominators
of c) (`trilam.grid`): the orbit, the antipodes at +N/2, the majors at
+-N/3, the strip arcs and both scans are int operations.  The strips
come from `strips_on_grid` (`grid.majors`, `grid.strip_parts`), the
routine the pullback engine takes its barriers from.  `Chord` values
are built only for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from . import grid
from .angles import Angle
from .chords import Chord
from .grid import Pair, Strips, canon, majors, scale_of, strip_parts

__all__ = [
    "LegalityWitness",
    "LegalityVerdict",
    "hits_strip_interior",
    "is_legal_pair",
    "strips_on_grid",
]


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
        from .formats import chord_to_json

        if self.kind == "crossing":
            return {
                "kind": "crossing",
                "first": {"image_index": self.first_index, "of": self.first_of,
                          "chord": chord_to_json(self.first)},
                "second": {"image_index": self.second_index, "of": self.second_of,
                           "chord": chord_to_json(self.second)},
            }
        return {
            "kind": "strip",
            "image_index": self.first_index,
            "image": chord_to_json(self.first),
            "boundary": chord_to_json(self.second),
        }


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


def strips_on_grid(c: Chord, *angles: Angle) -> tuple[int, Pair, Strips]:
    """(n, p, strips) of a chord c of length <= 1/6: the grid n = lcm(6, denominators of c
    and of the angles), c as the pair p on it and `grid.strip_parts` of its majors."""
    n = scale_of([*c.endpoints(), *angles], 6)
    p = c.on_grid(n)
    return n, p, strip_parts(*majors(p, n), n)


def hits_strip_interior(d: Chord, c: Chord) -> bool:
    """True iff d meets the open strip region of c (a chord of length <= 1/6).

    The short strips of c are bounded by its major pair M, M' and their
    antipodes.  A chord meets the open region iff it crosses one of the
    four bounding chords, has an endpoint strictly inside one of the four
    boundary arcs, or lies inside the closed arc system of a single
    strip (quadrilateral short edges and corner-to-corner diagonals run
    through the open region).  Bounding chords themselves and chords
    that touch a strip vertex but leave the strips return false.
    """
    n, _, strips = strips_on_grid(c, *d.endpoints())
    return _violation(canon(*d.on_grid(n)), *strips, n) is not None


def _violation(d: Pair, bounds: list[Pair], arcs: list[Pair], markers: tuple[Pair, Pair],
               n: int) -> Optional[Pair]:
    """The boundary chord d violates on the grid of modulus n, or None.

    `bounds` are the distinct bounding chords, `arcs` the four open
    boundary arcs (two per strip) and `markers` the chords M and -M
    reported when d lies inside the closed arc system of one strip.
    """
    for bound in bounds:
        if grid.crosses(d, bound, n):
            return bound
    for s, e in arcs:
        if any(0 < (v - s) % n < (e - s) % n for v in d):
            return canon(s, e)
    if arcs and d not in bounds:
        # both endpoints on the closed circle part of one strip: d stays
        # between that strip's bounding chords and meets its interior
        for half, marker in ((arcs[:2], markers[0]), (arcs[2:], markers[1])):
            if all(any((v - s) % n <= (e - s) % n for s, e in half) for v in d):
                return marker
    return None


def is_legal_pair(c: Chord) -> LegalityVerdict:
    """Decide legality of the symmetric pair {c, -c}; exact, with witness when illegal.

    Accepts degenerate chords and chords of length <= 1/6 (callers
    pre-filter); longer chords are rejected.
    """
    if c.degenerate:
        return LegalityVerdict("legal")
    n, p, strips = strips_on_grid(c)  # rejects length > 1/6
    orbit = [canon(x, y) for x, y in grid.orbit(*p, n)]
    family = orbit + [grid.antipode(q, n) for q in orbit]

    def tag(k: int) -> tuple[int, str]:
        return (k, "c") if k < len(orbit) else (k - len(orbit), "-c")

    # (a) no two iterated forward images of c and -c cross; the laminar
    # pass decides, the ordered scan finds the first witness
    ends = np.fromiter(chain.from_iterable(family), grid.int_dtype(n), 2 * len(family))
    if grid.Laminar(ends.reshape(-1, 2)).crossing is not None:
        k, j = next((k, j) for k in range(len(family)) for j in range(k + 1, len(family))
                    if grid.crosses(family[k], family[j], n))
        return LegalityVerdict(
            "illegal",
            LegalityWitness("crossing", *tag(k), Chord.from_grid(family[k], n),
                            *tag(j), Chord.from_grid(family[j], n)),
        )

    # (b) no forward image of c crosses the interior of the short strips
    for i, d in enumerate(orbit[1:], start=1):
        violated = _violation(d, *strips, n)
        if violated is not None:
            return LegalityVerdict(
                "illegal",
                LegalityWitness("strip", i, "c", Chord.from_grid(d, n), None, None,
                                Chord.from_grid(violated, n)),
            )
    return LegalityVerdict("legal")
