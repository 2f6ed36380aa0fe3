"""Periodic and preperiod-1 points of the tripling map, with B/D bookkeeping.

A periodic point x of period 2n with t^n(x) = x + 1/2 is of type B and
block period n; every other periodic point is of type D with block
period equal to its period.  Preperiod-1 points are the two non-cycle
preimages of each periodic point; they are the endpoints of the
co-periodic leaves the builder draws.

Enumeration runs on the integer grid: over numerators modulo 3^k - 1
(every period-k point has such a denominator), or 2(3^k - 1) for the
type-B closed form, filtered by exact period; angles become `Fraction`
only on output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import grid
from .angles import Angle, antipode, orbit_info, tripling
from .chords import Chord

__all__ = [
    "PeriodicClass",
    "ChordOrbit",
    "classify_periodic",
    "periodic_points",
    "preperiod1_points",
    "chord_orbit",
]


@dataclass(frozen=True, slots=True)
class PeriodicClass:
    ptype: str  # "B" or "D"
    block_period: int
    point_period: int


@dataclass(frozen=True, slots=True)
class ChordOrbit:
    """Eventually periodic orbit of a chord: preperiod part plus one cycle."""

    preperiod: int
    pointwise_period: int
    setwise_period: int
    chords: tuple[Chord, ...]

    def cycle(self) -> tuple[Chord, ...]:
        return self.chords[self.preperiod:]


def classify_periodic(x: Angle) -> PeriodicClass:
    """Type (B/D) and block period of a periodic angle; non-periodic input rejected."""
    info = orbit_info(x)
    if info.preperiod != 0:
        raise ValueError(f"{x} is not periodic (preperiod {info.preperiod})")
    p = info.period
    if p % 2 == 0:
        half = p // 2
        y = x
        for _ in range(half):
            y = tripling(y)
        if y == antipode(x):
            return PeriodicClass("B", half, p)
    return PeriodicClass("D", p, p)


def _exact_period(nums: np.ndarray, modulus: int, period: int) -> np.ndarray:
    """Mask of the numerators whose angle a/modulus has exact period `period`.

    Every angle on the grid must have a period dividing `period`; the
    proper divisors d are ruled out by (3^d - 1) a != 0 mod modulus.
    Multipliers are reduced mod the modulus, so int64 products stay
    below modulus^2.
    """
    keep = np.ones(len(nums), dtype=bool)
    for d in range(1, period):
        if period % d == 0:
            keep &= nums * ((3**d - 1) % modulus) % modulus != 0
    return keep


def _check_int64(modulus: int) -> None:
    if modulus > grid.MAX_INT64_MODULUS:
        raise ValueError(f"denominator {modulus} is too large for exact int64 enumeration")


def periodic_points(k: int) -> list[Angle]:
    """All angles of exact tripling-period k, sorted."""
    if k < 1:
        raise ValueError("period must be positive")
    modulus = 3**k - 1
    _check_int64(modulus)
    nums = np.arange(modulus, dtype=np.int64)
    return [Fraction(int(a), modulus) for a in nums[_exact_period(nums, modulus, k)]]


def _block_numerators(block: int, ptype: str) -> tuple[np.ndarray, int]:
    """Numerators a and the common denominator M of the periodic points of one class.

    Type B: the solutions of t^k(x) = x + 1/2 are x = (2m+1)/(2(3^k - 1)),
    kept when their exact period is 2k.  Type D: a/(3^k - 1) of exact
    period k, minus the type-B points of block k/2.
    """
    if ptype == "B":
        modulus = 2 * (3**block - 1)
        _check_int64(modulus)
        nums = np.arange(1, modulus, 2, dtype=np.int64)
        return nums[_exact_period(nums, modulus, 2 * block)], modulus
    modulus = 3**block - 1
    _check_int64(modulus)
    nums = np.arange(modulus, dtype=np.int64)
    keep = _exact_period(nums, modulus, block)
    if block % 2 == 0:
        keep &= nums * ((3 ** (block // 2) - 1) % modulus) % modulus != modulus // 2
    return nums[keep], modulus


def preperiod1_points(block: int, ptype: str) -> list[Angle]:
    """All preperiod-1 angles whose image is periodic of the given type and block period.

    For each periodic point y = a/M of that class, the two preimages
    (a + jM)/(3M) of y not on the cycle are collected; the third
    preimage is y's cycle predecessor t^(p-1)(y), one modular multiply.
    """
    if block < 1:
        raise ValueError("block period must be positive")
    if ptype not in ("B", "D"):
        raise ValueError(f"type must be 'B' or 'D', got {ptype!r}")
    period = 2 * block if ptype == "B" else block
    nums, modulus = _block_numerators(block, ptype)
    pred = nums * pow(3, period - 1, modulus) % modulus
    cands = nums[:, None] + modulus * np.arange(3, dtype=np.int64)
    out = np.sort(cands[cands != 3 * pred[:, None]])
    den = 3 * modulus
    return [Fraction(int(v), den) for v in out]


def chord_orbit(ch: Chord, max_steps: Optional[int] = None) -> ChordOrbit:
    """Full eventually periodic orbit of a chord under the tripling map.

    Tracks the ordered endpoint pair on the grid of the chord's common
    denominator, so the orbit closes exactly after the larger endpoint
    preperiod plus the lcm of the endpoint periods (the pointwise
    period); the setwise period is the first recurrence of the chord as
    an unordered pair (it divides the pointwise period, and the two
    preperiods coincide).  An orbit needing more than max_steps distinct
    pairs beyond the first is refused.
    """
    n = grid.scale_of(ch.endpoints())
    pairs = grid.chord_orbit((grid.on_grid(ch.a, n), grid.on_grid(ch.b, n)), n)
    first = pairs.index(pairs[-1])
    pointwise = len(pairs) - 1 - first
    if max_steps is not None and first + pointwise - 1 > max_steps:
        raise RuntimeError(f"chord orbit did not close within {max_steps} steps")
    start = set(pairs[first])
    setwise = next(s for s in range(1, pointwise + 1) if set(pairs[first + s]) == start)
    chords = tuple(Chord(Fraction(x, n), Fraction(y, n)) for x, y in pairs[: first + setwise])
    return ChordOrbit(
        preperiod=first,
        pointwise_period=pointwise,
        setwise_period=setwise,
        chords=chords,
    )
