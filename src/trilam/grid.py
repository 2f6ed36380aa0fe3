"""Exact integer grid: angles as ints modulo a common N.

On the grid of modulus N the angle x/N is the int x in [0, N); tripling
is x -> 3x mod N and the half-turn x -> x + N/2.  `Fraction` angles
enter through `scale_of`/`on_grid` and leave as `Fraction(x, N)`; the
hot paths of orbits, builder, legality and pullback run in between.
A chord is an int pair; chords sharing an endpoint never cross and
degenerate chords cross nothing.  The quadrilateral of a short chord
and its strips (`majors`, `strip_parts`) serve both the legality oracle
and the pullback barriers; the canonical chord order (`short_arc_order`)
serves the pullback engine and the renderer.
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


def short_arc_order(pairs: np.ndarray, n: int) -> np.ndarray:
    """Stable order of (lo, hi) chords by `Chord.sort_key`: start, then end of the short arc.

    A diameter keeps (lo, hi).  `pairs` is an (m, 2) array on the grid
    of modulus n, int64 or, for any n, Python ints of dtype object.
    Repeated chords keep their input order.
    """
    lo, hi = pairs[:, 0], pairs[:, 1]
    wrap = 2 * (hi - lo) > n
    return np.lexsort((np.where(wrap, lo, hi), np.where(wrap, hi, lo)))


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


def canon(x: int, y: int) -> Pair:
    """The chord with endpoints x and y as (lo, hi)."""
    return (x, y) if x <= y else (y, x)


def antipode(p: Pair, n: int) -> Pair:
    """The chord p rotated by a half turn on the grid of modulus n, as (lo, hi)."""
    return canon((p[0] + n // 2) % n, (p[1] + n // 2) % n)


def majors(c: Pair, n: int) -> tuple[Pair, Pair]:
    """The major pair (M, M') of a chord of length <= 1/6, longer one first.

    n must be a multiple of 3.  A degenerate c gives its critical chord
    (c + 1/3, c + 2/3) twice.
    """
    x, y = c
    if 6 * arclen(x, y, n) > n:
        raise ValueError(f"expected a chord of length <= 1/6, got {Fraction(arclen(x, y, n), n)}")
    s, e = (x, y) if 2 * (y - x) <= n else (y, x)  # the short arc
    third = n // 3
    first = canon((s + third) % n, (e - third) % n)
    second = canon((s + 2 * third) % n, (e - 2 * third) % n)
    return (first, second) if arclen(*first, n) >= arclen(*second, n) else (second, first)


def boundary_arcs(first: Pair, second: Pair) -> list[Pair]:
    """Arcs joining an endpoint of `first` to an endpoint of `second`, circularly ordered.

    For disjoint chords these are the two short edges of their
    quadrilateral; equal chords have none.
    """
    verts = sorted(set(first) | set(second))
    owner = [v in first for v in verts]
    k = len(verts)
    return [(verts[i], verts[(i + 1) % k]) for i in range(k) if owner[i] != owner[(i + 1) % k]]


def strip_parts(big: Pair, small: Pair,
                n: int) -> tuple[list[Pair], list[Pair], tuple[Pair, Pair]]:
    """Bounding chords, boundary arcs and markers (M, -M) of the strips between big and small.

    The bounds are the distinct chords among big, small and their
    antipodes; the open arcs are `boundary_arcs(big, small)`, then their
    antipodes.
    """
    bounds = list(dict.fromkeys((big, small, antipode(big, n), antipode(small, n))))
    arcs = boundary_arcs(big, small)
    arcs += [((a + n // 2) % n, (b + n // 2) % n) for a, b in arcs]
    return bounds, arcs, (big, antipode(big, n))
