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
(b) over images with index >= 1.  Orbits are finite and computed to
exact closure, so the verdict is exact.

The oracle runs on the integer grid of modulus N = lcm(6, denominators
of c) (`trilam.grid`): the orbit, the antipodes at +N/2, the majors at
+-N/3, the strip arcs and both scans are int operations.  `Chord`
values are built only for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import grid
from .angles import Angle, THIRD, antipode
from .chords import Chord, SIXTH, chord_antipode, length, majors_of
from .grid import Pair, arclen, on_grid, scale_of

__all__ = [
    "StripSystem",
    "LegalityWitness",
    "LegalityVerdict",
    "strip_system",
    "strips_of",
    "hits_strip_interior",
    "is_legal_pair",
    "is_comajor",
]


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


def _boundary_arcs(first: tuple, second: tuple) -> list[tuple]:
    """Arcs joining an endpoint of `first` to an endpoint of `second`, circularly ordered.

    Works for any ordered endpoint values (`Fraction` angles or grid ints).
    """
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


def hits_strip_interior(d: Chord, c: Chord) -> bool:
    """True iff d meets the open strip region of c.

    A chord meets the open region iff it crosses one of the four
    bounding chords, has an endpoint strictly inside one of the four
    boundary arcs, or lies inside the closed arc system of a single
    strip (quadrilateral short edges and corner-to-corner diagonals run
    through the open region).  Bounding chords themselves and chords
    that touch a strip vertex but leave the strips return false.
    """
    return _hits(d, strips_of(c))


def _canon(x: int, y: int) -> Pair:
    return (x, y) if x <= y else (y, x)


def _anti(p: Pair, n: int) -> Pair:
    return _canon((p[0] + n // 2) % n, (p[1] + n // 2) % n)


def _in_open_arc(x: int, s: int, e: int, n: int) -> bool:
    return x != s and (x - s) % n < (e - s) % n


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
        if _in_open_arc(d[0], s, e, n) or _in_open_arc(d[1], s, e, n):
            return _canon(s, e)
    if arcs and d not in bounds:
        # both endpoints on the closed circle part of one strip: d stays
        # between that strip's bounding chords and meets its interior
        for half, marker in ((arcs[:2], markers[0]), (arcs[2:], markers[1])):
            if all(any(v in (s, e) or _in_open_arc(v, s, e, n) for s, e in half) for v in d):
                return marker
    return None


def _hits(d: Chord, strips: StripSystem) -> bool:
    n = scale_of([*d.endpoints(), *strips.M.endpoints(), *strips.Mp.endpoints()], 2)
    dd, m, mp = ((on_grid(ch.a, n), on_grid(ch.b, n)) for ch in (d, strips.M, strips.Mp))
    return _violation(dd, *_strip_parts(m, mp, n), n) is not None


def _strip_parts(big: Pair, small: Pair,
                 n: int) -> tuple[list[Pair], list[Pair], tuple[Pair, Pair]]:
    """Bounding chords, boundary arcs and markers (M, -M) of the strips between big and small."""
    bounds: list[Pair] = []
    for p in (big, small, _anti(big, n), _anti(small, n)):
        if p not in bounds:
            bounds.append(p)
    arcs = _boundary_arcs(big, small)
    arcs += [((a + n // 2) % n, (b + n // 2) % n) for a, b in arcs]
    return bounds, arcs, (big, _anti(big, n))


def _grid_majors(c: Pair, n: int) -> tuple[Pair, Pair]:
    """The major pair (M, M') of a chord of length <= 1/6, longer one first."""
    x, y = c
    s, e = (x, y) if 2 * (y - x) <= n else (y, x)  # the short arc
    third = n // 3
    first = _canon((s + third) % n, (e - third) % n)
    second = _canon((s + 2 * third) % n, (e - 2 * third) % n)
    return (first, second) if arclen(*first, n) >= arclen(*second, n) else (second, first)


def is_legal_pair(c: Chord) -> LegalityVerdict:
    """Decide legality of the symmetric pair {c, -c}; exact, with witness when illegal.

    Accepts degenerate chords and chords of length <= 1/6 (callers
    pre-filter); longer chords are rejected.
    """
    if c.degenerate:
        return LegalityVerdict("legal")
    if length(c) > SIXTH:
        raise ValueError(f"legality is decided for chords of length <= 1/6, got {length(c)}")

    n = scale_of(c.endpoints(), 6)
    orbit = [_canon(x, y) for x, y in grid.chord_orbit((on_grid(c.a, n), on_grid(c.b, n)), n)]
    family = orbit + [_anti(p, n) for p in orbit]

    def chord(p: Pair) -> Chord:
        return Chord(Fraction(p[0], n), Fraction(p[1], n))

    def tag(k: int) -> tuple[int, str]:
        return (k, "c") if k < len(orbit) else (k - len(orbit), "-c")

    # (a) no two iterated forward images of c and -c cross; the sweep
    # decides, the ordered scan finds the first witness
    if grid.crossing_pair(family) is not None:
        k, j = next((k, j) for k in range(len(family)) for j in range(k + 1, len(family))
                    if grid.crosses(family[k], family[j], n))
        return LegalityVerdict(
            "illegal",
            LegalityWitness("crossing", *tag(k), chord(family[k]), *tag(j), chord(family[j])),
        )

    # (b) no forward image of c crosses the interior of the short strips
    strips = _strip_parts(*_grid_majors(orbit[0], n), n)
    for i, d in enumerate(orbit[1:], start=1):
        violated = _violation(d, *strips, n)
        if violated is not None:
            return LegalityVerdict(
                "illegal",
                LegalityWitness("strip", i, "c", chord(d), None, None, chord(violated)),
            )
    return LegalityVerdict("legal")


def is_comajor(c: Chord) -> bool:
    """A symmetric pair is a comajor pair iff it is legal."""
    return is_legal_pair(c).is_legal
