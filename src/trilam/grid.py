"""Exact integer grid: angles as ints modulo a common N.

On the grid of modulus N the angle x/N is the int x in [0, N); tripling
is x -> 3x mod N and the half-turn x -> x + N/2.  `Fraction` angles
enter through `scale_of`/`on_grid` and leave as `Fraction(x, N)`; the
hot paths of orbits, builder, legality and pullback run in between.
A chord is an int pair; chords sharing an endpoint never cross and
degenerate chords cross nothing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Union

import numpy as np

Pair = tuple[int, int]

# Largest modulus n for which n * n - 1, hence any product of two grid
# values and any key lo * n + hi, fits a signed 64-bit integer.
MAX_INT64_MODULUS = 3037000499

_SLICE = 4096  # rows of an int64 family converted to Python ints at a time


def scale_of(angles: Iterable[Fraction], *moduli: int) -> int:
    """Least common multiple of the angles' denominators and the extra moduli."""
    return lcm(*{a.denominator for a in angles}, *moduli)


def on_grid(x: Fraction, n: int) -> int:
    """The int standing for x on the grid of modulus n; n must be a multiple of x's denominator."""
    return x.numerator * (n // x.denominator)


def arclen(x: int, y: int, n: int) -> int:
    """Length of the shorter arc between x and y on the grid of modulus n."""
    d = (y - x) % n
    return min(d, n - d)


def crosses(p: Pair, q: Pair, n: int) -> bool:
    """True iff chords p and q of the grid of modulus n cross inside the disk.

    Exactly one endpoint of q lies strictly inside the arc from p[0] to
    p[1]; shared endpoints and degenerate chords never cross.
    """
    a1, b1 = p
    a2, b2 = q
    if a1 == b1 or a2 == b2:
        return False
    if a1 in (a2, b2) or b1 in (a2, b2):
        return False
    span = (b1 - a1) % n
    return ((a2 - a1) % n < span) != ((b2 - a1) % n < span)


def crossing_pair(pairs: Union[Iterable[Pair], np.ndarray]) -> Optional[tuple[Pair, Pair]]:
    """A crossing pair of a family of (lo, hi) chords with lo <= hi, or None.

    Laminarity stack sweep, O(n log n): two chords cross iff their
    [lo, hi] intervals partially overlap with all four inequalities
    strict.  The family may come in any order, as int pairs or as an
    int64 array of shape (n, 2); none of its chords may wrap past 0.
    """
    if isinstance(pairs, np.ndarray):
        # order in numpy and convert in slices, so a large family is never
        # held as Python objects all at once
        order = np.lexsort((-pairs[:, 1], pairs[:, 0]))
        ordered = (p for i in range(0, len(order), _SLICE)
                   for p in pairs[order[i:i + _SLICE]].tolist())
    else:
        ordered = sorted(pairs, key=lambda p: (p[0], -p[1]))
    stack: list = []
    for p in ordered:
        lo, hi = p
        while stack and stack[-1][1] <= lo:
            stack.pop()
        if stack and stack[-1][1] < hi:
            return (stack[-1], p)
        stack.append(p)
    return None


def closure(n: int) -> tuple[int, int]:
    """(e, k): e = v3(n) and k the order of 3 mod the 3-free part of n.

    Every angle on the grid of modulus n has preperiod <= e and a period
    dividing k, so e + k tripling steps visit every state of its orbit;
    for an angle's reduced denominator they are its preperiod and period.
    """
    e = 0
    while n % 3 == 0:
        n //= 3
        e += 1
    k, x = 1, 3 % n
    while x != 1 % n:
        x = 3 * x % n
        k += 1
    return e, k


def chord_orbit(p: Pair, n: int) -> list[Pair]:
    """Ordered endpoint pairs of p and its images to exact closure.

    Holds indices 0..pre + per, where pre is the larger endpoint
    preperiod and per the lcm of the endpoint periods: the pairs at
    indices pre and pre + per coincide and all earlier ones are distinct.
    """
    (ea, ka), (eb, kb) = (closure(n // gcd(v, n)) for v in p)
    x, y = p
    out = [p]
    for _ in range(max(ea, eb) + lcm(ka, kb)):
        x, y = 3 * x % n, 3 * y % n
        out.append((x, y))
    return out
