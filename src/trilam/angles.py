"""Exact circle points and the tripling dynamics.

Angles are points of the circle R/Z of circumference 1, represented as
`fractions.Fraction` values normalized to [0, 1).  The map of interest
is the tripling map t(x) = 3x mod 1; its half-turn symmetry is
x -> x + 1/2.  `Fraction` is the type of the public API, of parsing and
of serialization; the hot paths convert angles to ints on a common
integer grid (`trilam.grid`) and back.  Every rational angle is
eventually periodic under tripling: for reduced p/q with q = 3^e * m
(3 does not divide m) the preperiod is e and the period is the
multiplicative order of 3 mod m, which is how `orbit_info` computes
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grid import closure

__all__ = [
    "Angle",
    "OrbitInfo",
    "HALF",
    "make_angle",
    "parse_angle",
    "angle_str",
    "tripling",
    "antipode",
    "in_open_arc",
    "orbit_info",
]

# An Angle is a Fraction normalized to 0 <= x < 1.
Angle = Fraction

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


@dataclass(frozen=True, slots=True)
class OrbitInfo:
    """Minimal preperiod and period of an angle under tripling."""

    preperiod: int
    period: int


def make_angle(p: int, q: int) -> Angle:
    """Reduced, normalized representative of p/q mod 1.

    q = 0 is rejected; negative p and p >= q wrap around the circle.
    """
    if q <= 0:
        raise ValueError(f"denominator must be positive, got {q}")
    return Fraction(p % q, q)


def parse_angle(text: str) -> Angle:
    """Parse an exact angle given as 'p/q' or a bare integer string."""
    s = text.strip()
    try:
        if "/" in s:
            p_str, q_str = s.split("/")
            return make_angle(int(p_str), int(q_str))
        return make_angle(int(s), 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed fraction {text!r}") from exc


def angle_str(a: Angle) -> str:
    """Serialize an angle as the exact string 'p/q' in lowest terms ('0/1' for zero)."""
    return f"{a.numerator}/{a.denominator}"


def tripling(a: Angle) -> Angle:
    """The tripling map: 3a mod 1, exact."""
    return (3 * a) % 1


def antipode(a: Angle) -> Angle:
    """Rotation by a half turn: a + 1/2 mod 1.  An involution commuting with tripling."""
    return (a + HALF) % 1


def in_open_arc(x: Angle, a: Angle, b: Angle) -> bool:
    """True iff x lies strictly inside the positively oriented arc from a to b.

    Wraparound through 0 is handled; a == b is rejected (empty/full arc
    is ambiguous).
    """
    if a == b:
        raise ValueError("arc endpoints must be distinct")
    return (x - a) % 1 < (b - a) % 1 and x != a


def orbit_info(a: Angle) -> OrbitInfo:
    """Minimal preperiod and period of a under tripling, from its reduced denominator."""
    preperiod, period = closure(a.denominator)
    return OrbitInfo(preperiod=preperiod, period=period)
