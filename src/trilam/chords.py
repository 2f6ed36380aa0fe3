"""Chords of the unit circle under the tripling map: the public `Chord` value type.

Length, image, antipode and crossing of `Fraction` chords.  All
arithmetic is exact; `crosses` puts both chords on their common
integer grid and asks `grid.crosses`, the one crossing predicate.
Failure witnesses name chords by `chord_to_json` and `crossing_to_json`.

Conventions: a chord is an unordered pair of angles, degenerate when
they coincide.  Chords sharing an endpoint never count as crossing.
The length of a chord is the length of the shorter of its two arcs,
so it lies in [0, 1/2]; chords of length exactly 1/3 are critical
(their image is a point), chords of length 1/2 are diameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import grid
from .angles import Angle, HALF, angle_str, antipode, tripling

__all__ = [
    "Chord",
    "SIXTH",
    "length",
    "crosses",
    "image",
    "chord_antipode",
    "chord_to_json",
    "crossing_to_json",
]

SIXTH = Fraction(1, 6)


@dataclass(frozen=True, slots=True)
class Chord:
    """Unordered pair of angles, reduced mod 1, in canonical (min, max) form."""

    a: Angle
    b: Angle

    def __post_init__(self):
        # reduce mod 1, keeping an angle already in [0, 1): `% 1` makes a new Fraction
        lo, hi = sorted(x if 0 <= x.numerator < x.denominator else x % 1 for x in (self.a, self.b))
        object.__setattr__(self, "a", lo)
        object.__setattr__(self, "b", hi)

    @classmethod
    def from_grid(cls, p: tuple[int, int], n: int) -> Chord:
        """The chord of the ints p on the grid n; rows 0 <= lo <= hi < n skip `__post_init__`."""
        lo, hi = p
        if not 0 <= lo <= hi < n:
            return cls(Fraction(lo, n), Fraction(hi, n))
        ch = object.__new__(cls)
        object.__setattr__(ch, "a", Fraction(lo, n))
        object.__setattr__(ch, "b", Fraction(hi, n))
        return ch

    def on_grid(self, n: int) -> tuple[int, int]:
        """The endpoints as ints on the grid of modulus n, a multiple of their denominators."""
        return (grid.on_grid(self.a, n), grid.on_grid(self.b, n))

    @property
    def degenerate(self) -> bool:
        return self.a == self.b

    def endpoints(self) -> tuple[Angle, Angle]:
        return (self.a, self.b)

    def arc(self) -> tuple[Angle, Angle]:
        """Endpoints ordered so the positively oriented arc between them is the short side.

        For a diameter both sides tie and the numeric (min, max) order is kept.
        """
        if (self.b - self.a) <= HALF:
            return (self.a, self.b)
        return (self.b, self.a)

    def __str__(self) -> str:
        s, e = self.arc()
        return f"({s}, {e})"


def length(ch: Chord) -> Fraction:
    """Length of the shorter arc between the endpoints; 0 iff degenerate."""
    d = (ch.b - ch.a) % 1
    return min(d, 1 - d)


def crosses(c1: Chord, c2: Chord) -> bool:
    """True iff the open segments intersect inside the disk: `grid.crosses` on the common grid.

    Shared endpoints do not cross; degenerate chords never cross anything.
    """
    n = grid.scale_of((c1.a, c1.b, c2.a, c2.b))
    return grid.crosses(c1.on_grid(n), c2.on_grid(n), n)


def image(ch: Chord) -> Chord:
    """The chord of the tripling images of the endpoints; degenerate for critical chords."""
    return Chord(tripling(ch.a), tripling(ch.b))


def chord_antipode(ch: Chord) -> Chord:
    """The chord rotated by a half turn."""
    return Chord(antipode(ch.a), antipode(ch.b))


def chord_to_json(ch: Chord) -> dict:
    return {"a": angle_str(ch.a), "b": angle_str(ch.b)}


def crossing_to_json(first: Chord, second: Chord) -> dict:
    """The witness of a crossing pair of chords in a family that must be laminar."""
    return {"kind": "crossing", "first": chord_to_json(first), "second": chord_to_json(second)}
