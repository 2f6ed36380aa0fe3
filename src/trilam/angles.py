"""Exact circle points and the tripling dynamics.

Angles are points of the circle R/Z of circumference 1, represented as
`fractions.Fraction` values normalized to [0, 1).  The map of interest
is the tripling map t(x) = 3x mod 1; its half-turn symmetry is
x -> x + 1/2.  `Fraction` is the type of the public API, of parsing and
of serialization; arcs, crossings and orbits are computed on a common
integer grid (`trilam.grid`), and only single angles stay here: their
parsing, string form, tripling, antipode and orbit data.  Every
rational angle is eventually periodic under tripling: for reduced p/q
with q = 3^e * m (3 does not divide m) the preperiod is e and the
period is the multiplicative order of 3 mod m, which is how
`orbit_info` computes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grid import closure

__all__ = [
    "Angle",
    "OrbitInfo",
    "HALF",
    "parse_fraction",
    "parse_angle",
    "angle_str",
    "tripling",
    "antipode",
    "orbit_info",
]

# An Angle is a Fraction normalized to 0 <= x < 1.
Angle = Fraction

HALF = Fraction(1, 2)


@dataclass(frozen=True, slots=True)
class OrbitInfo:
    """Minimal preperiod and period of an angle under tripling."""

    preperiod: int
    period: int


def parse_fraction(text: str) -> tuple[int, int]:
    """(p mod q, q) of an angle given as 'p/q' or a bare integer string, with q > 0.

    The fraction is not reduced: '2/4' gives (2, 4).
    """
    p_str, slash, q_str = text.partition("/")
    try:
        # int() strips surrounding whitespace; a second '/' fails in q
        p, q = int(p_str), (int(q_str) if slash else 1)
    except ValueError as exc:
        raise ValueError(f"malformed fraction {text!r}") from exc
    if q <= 0:
        raise ValueError(f"malformed fraction {text!r}")
    return p % q, q


def parse_angle(text: str) -> Angle:
    """Parse an exact angle given as 'p/q' or a bare integer string."""
    return Fraction(*parse_fraction(text))


def angle_str(a: Angle) -> str:
    """Serialize an angle as the exact string 'p/q' in lowest terms ('0/1' for zero)."""
    return f"{a.numerator}/{a.denominator}"


def tripling(a: Angle) -> Angle:
    """The tripling map: 3a mod 1, exact."""
    return (3 * a) % 1


def antipode(a: Angle) -> Angle:
    """Rotation by a half turn: a + 1/2 mod 1.  An involution commuting with tripling."""
    return (a + HALF) % 1


def orbit_info(a: Angle) -> OrbitInfo:
    """Minimal preperiod and period of a under tripling, from its reduced denominator."""
    preperiod, period = closure(a.denominator)
    return OrbitInfo(preperiod=preperiod, period=period)
