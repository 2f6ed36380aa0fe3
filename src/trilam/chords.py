"""Chords of the unit circle under the tripling map.

Length classes, crossing, the sibling constructions, the major pair
(M, M') of a short chord, the "under" partial order and a separation
predicate.  All arithmetic is exact.

Conventions: a chord is an unordered pair of angles, degenerate when
they coincide.  Chords sharing an endpoint never count as crossing.
The length of a chord is the length of the shorter of its two arcs,
so it lies in [0, 1/2]; chords of length exactly 1/3 are critical
(their image is a point), chords of length 1/2 are diameters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .angles import Angle, HALF, THIRD, antipode, in_open_arc, tripling

__all__ = [
    "Chord",
    "LengthClass",
    "SIXTH",
    "length",
    "classify",
    "crosses",
    "image",
    "chord_antipode",
    "translate_siblings",
    "sml_siblings",
    "majors_of",
    "under",
    "separates",
]

SIXTH = Fraction(1, 6)
TWO_THIRDS = Fraction(2, 3)


class LengthClass(enum.Enum):
    DEGENERATE = "degenerate"
    SHORT = "short"        # 0 < len < 1/6
    MEDIUM = "medium"      # 1/6 <= len < 1/3
    CRITICAL = "critical"  # len = 1/3
    LONG = "long"          # 1/3 < len < 1/2
    DIAMETER = "diameter"  # len = 1/2 (also long)


@dataclass(frozen=True, slots=True)
class Chord:
    """Unordered pair of angles in canonical (min, max) form."""

    a: Angle
    b: Angle

    def __post_init__(self):
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

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

    def sort_key(self) -> tuple[Angle, Angle]:
        """Canonical ordering key: start then end of the short arc."""
        s, e = self.arc()
        return (s, e)

    def __str__(self) -> str:
        s, e = self.arc()
        return f"({s}, {e})"


def length(ch: Chord) -> Fraction:
    """Length of the shorter arc between the endpoints; 0 iff degenerate."""
    d = (ch.b - ch.a) % 1
    return min(d, 1 - d)


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


def crosses(c1: Chord, c2: Chord) -> bool:
    """True iff the open segments intersect inside the disk.

    Equivalent to: exactly one endpoint of c2 lies strictly inside one of
    the open arcs cut by c1.  Shared endpoints do not cross; degenerate
    chords never cross anything.
    """
    a1, b1, a2, b2 = c1.a, c1.b, c2.a, c2.b
    if (a1.numerator >= 0 and b1.numerator < b1.denominator
            and a2.numerator >= 0 and b2.numerator < b2.denominator):
        # every endpoint in [0, 1) and a <= b: each arc from a to b is the
        # interval between them, and two chords cross iff their endpoints
        # interleave strictly, which no shared endpoint or degenerate chord does
        return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1
    if c1.degenerate or c2.degenerate:
        return False
    if a1 in (a2, b2) or b1 in (a2, b2):
        return False
    return in_open_arc(a2, a1, b1) != in_open_arc(b2, a1, b1)


def image(ch: Chord) -> Chord:
    """The chord of the tripling images of the endpoints; degenerate for critical chords."""
    return Chord(tripling(ch.a), tripling(ch.b))


def chord_antipode(ch: Chord) -> Chord:
    """The chord rotated by a half turn."""
    return Chord(antipode(ch.a), antipode(ch.b))


def translate_siblings(ch: Chord) -> tuple[Chord, Chord]:
    """The two translates ch + 1/3 and ch + 2/3; both share image(ch)."""
    if ch.degenerate:
        raise ValueError("degenerate chord has no sibling collection")
    return (
        Chord((ch.a + THIRD) % 1, (ch.b + THIRD) % 1),
        Chord((ch.a + TWO_THIRDS) % 1, (ch.b + TWO_THIRDS) % 1),
    )


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


def under(m: Chord, n: Chord) -> bool:
    """True iff m lies in the region cut off by n together with its shorter arc.

    Irreflexive by convention so that the relation is a strict partial
    order on non-diameter chords.  Diameter n is rejected (no shorter arc).
    """
    if length(n) == HALF:
        raise ValueError("'under' is undefined for a diameter")
    if m == n:
        return False
    s, e = n.arc()
    span = (e - s) % 1
    return (m.a - s) % 1 <= span and (m.b - s) % 1 <= span


def separates(ch: Chord, x: Angle, y: Angle) -> bool:
    """True iff the chord separates x from y (exactly one lies in its open arc)."""
    if ch.degenerate:
        raise ValueError("a degenerate chord separates nothing")
    if x in ch.endpoints() or y in ch.endpoints():
        raise ValueError("separation is undefined for chord endpoints")
    return in_open_arc(x, ch.a, ch.b) != in_open_arc(y, ch.a, ch.b)
