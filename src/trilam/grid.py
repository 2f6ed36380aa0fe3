"""Exact integer grid: angles as ints modulo a common N.

On the grid of modulus N the angle x/N is the int x in [0, N); tripling
is x -> 3x mod N and the half-turn x -> x + N/2.  `Fraction` angles
enter through `scale_of`/`on_grid` and leave as `Fraction(x, N)`; the
hot paths of orbits, builder, legality and pullback run in between.
The common scale (`scale_of`), int64 or Python ints (`int_dtype`),
crossing (`crosses`) and orbit stepping (`orbit`) are each decided here
once.  `Laminar` is the one laminarity primitive: a vectorised pass
over the open/close events of a family of (lo, hi) chords gives its
verdict, a crossing witness, parent pointers and the regions of points.
The quadrilateral of a short chord and its strips (`majors`,
`strip_parts`) serve both the legality oracle and the pullback
barriers; the canonical chord order (`short_arc_order`) is applied
only where chords are written: sorted records, JSON and SVG.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "Pair", "Strips", "MAX_INT64_MODULUS", "check_int64", "int_dtype", "scale_of", "on_grid",
    "arclen", "crosses", "Laminar", "short_arc_order", "closure", "orbit", "canon",
    "antipode", "majors", "boundary_arcs", "strip_parts",
]

Pair = tuple[int, int]
# bounding chords, boundary arcs and markers (M, -M) of `strip_parts`
Strips = tuple[list[Pair], list[Pair], tuple[Pair, Pair]]

# Largest modulus n for which n * n - 1, hence any product of two grid
# values and any key lo * n + hi, fits a signed 64-bit integer.
MAX_INT64_MODULUS = 3037000499


def check_int64(n: int) -> None:
    """Refuse a modulus n whose int64 products and chord keys would wrap."""
    if int_dtype(n * n - 1) is object:
        raise ValueError(f"modulus {n} exceeds {MAX_INT64_MODULUS}, where int64 products "
                         "and chord keys lo * n + hi would wrap")


def int_dtype(largest: int) -> type:
    """np.int64 if it holds `largest`, the caller's bound on its grid values; else object."""
    return np.int64 if largest < 2**63 else object


def scale_of(angles: Iterable[Fraction], *moduli: int) -> int:
    """Least common multiple of the angles' denominators and the extra moduli."""
    return lcm(*{a.denominator for a in angles}, *moduli)


def on_grid(x: Fraction, n: int) -> int:
    """The int in [0, n) standing for x on the grid of modulus n, a multiple of x's denominator."""
    return x.numerator * (n // x.denominator) % n


def arclen(x: int, y: int, n: int) -> int:
    """Length of the shorter arc between x and y on the grid of modulus n."""
    d = (y - x) % n
    return min(d, n - d)


def crosses(p, q, n):
    """True iff chords p and q of the grid of modulus n cross inside the disk.

    Elementwise over ints or broadcasting arrays: one endpoint of q lies strictly
    inside the arc from p[0] to p[1] and the other strictly outside it.
    """
    a, b = p
    span, u, v = (b - a) % n, (q[0] - a) % n, (q[1] - a) % n
    return ((0 < u) & (u < span) & (span < v)) | ((0 < v) & (v < span) & (span < u))


class Laminar:
    """The laminar structure of an (m, 2) array of (lo, hi) chords with lo <= hi.

    The array is int64 or holds Python ints of dtype object; degenerate
    chords are dropped.  Two chords cross iff lo1 < lo2 < hi1 < hi2 or
    the reverse.  Opens are ordered by (lo asc, hi desc, row asc) and
    closes by (hi asc, open rank desc), closes first at an equal
    position; the family is laminar iff every chord's depth at its open
    equals its depth at its close.  (A chord has as many more chords
    open at its close as it has right crossers minus left crossers, and
    the earliest-opening chord of any crossing has only right crossers.)
    `crossing` is None for a laminar family, else the rows of one
    crossing pair, the earlier-opening chord first.
    """

    def __init__(self, pairs: np.ndarray):
        # array methods rather than np.* wrappers: they cost less per call,
        # which the small orbit families of the legality oracle feel
        lo, hi = pairs[:, 0], pairs[:, 1]
        keep = lo < hi
        self._rows = None if np.count_nonzero(keep) == len(keep) else keep.nonzero()[0]
        if self._rows is not None:
            lo, hi = lo[self._rows], hi[self._rows]
        self._size, m = len(pairs), len(lo)
        rank = np.empty(m, dtype=np.int32 if m < 2**31 else np.intp)
        self._opens = np.lexsort((-hi, lo)).astype(rank.dtype)
        rank[self._opens] = np.arange(m)
        closes = np.lexsort((-rank, hi))
        self._lo, self._hi = lo[self._opens], hi[closes]
        self._depth = np.arange(1, m + 1) - self._hi.searchsorted(self._lo, "right")
        rank = rank[closes]  # the open rank of each close
        bad = (self._depth[rank] != self._lo.searchsorted(self._hi) - np.arange(m)).nonzero()[0]
        self.crossing: Optional[tuple[int, int]] = None
        if len(bad):  # scan its earliest-opening chord on a circle longer than the family
            c = self._opens[rank[bad].min()]
            hits = crosses((lo[c], hi[c]), (lo, hi), int(self._hi[-1]) - int(self._lo[0]) + 1)
            self.crossing = tuple(int(i) for i in self._row(np.array([c, hits.argmax()])))
        self._keys: Optional[np.ndarray] = None

    def _row(self, i: np.ndarray) -> np.ndarray:
        return i if self._rows is None else self._rows[i]

    def _innermost(self, rank: np.ndarray, depth: np.ndarray) -> np.ndarray:
        """Row of the last chord of the given depth opening before the given open rank, or -1."""
        if self.crossing is not None:
            raise ValueError("the family is not laminar")
        m1 = len(self._opens) + 1
        if m1 == 1:
            return np.full(len(rank), -1, dtype=np.intp)
        if self._keys is None:  # opens grouped by depth, in open order within a depth
            by_depth = np.argsort(self._depth, kind="stable")
            self._keys = np.append(-1, self._depth[by_depth] * m1 + by_depth)
        key = self._keys[np.searchsorted(self._keys, depth * m1 + rank) - 1]
        return np.where(key // m1 == depth, self._row(self._opens[np.maximum(key, 0) % m1]), -1)

    def parents(self) -> np.ndarray:
        """Per row, the row of the innermost other chord enclosing it, or -1.

        It is the last chord opening before it one level up; a repeated
        chord encloses its later copies, and degenerate rows get -1.
        """
        out = np.full(self._size, -1, dtype=np.intp)
        out[self._row(self._opens)] = self._innermost(np.arange(len(self._opens)), self._depth - 1)
        return out

    def regions(self, points: np.ndarray) -> np.ndarray:
        """Per point x, the row of the innermost chord with lo < x < hi, or -1."""
        rank = np.searchsorted(self._lo, points)
        return self._innermost(rank, rank - np.searchsorted(self._hi, points, side="right"))


def short_arc_order(pairs: np.ndarray, n: int) -> np.ndarray:
    """Stable order of (lo, hi) chords by `Chord.arc`: start, then end of the short arc.

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


def orbit(x, y, n: int):
    """Endpoints x and y, ints or arrays, at tripling steps 0 .. e + k - 1 for (e, k) =
    closure(n): every state of any chord's orbit on the grid of modulus n."""
    for _ in range(sum(closure(n))):
        yield x, y
        x, y = 3 * x % n, 3 * y % n


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
    s, e = (x, y) if 2 * ((y - x) % n) <= n else (y, x)  # the short arc
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


def strip_parts(big: Pair, small: Pair, n: int) -> Strips:
    """Bounding chords, boundary arcs and markers (M, -M) of the strips between big and small.

    The bounds are the distinct chords among big, small and their
    antipodes; the open arcs are `boundary_arcs(big, small)`, then their
    antipodes.
    """
    bounds = list(dict.fromkeys((big, small, antipode(big, n), antipode(small, n))))
    arcs = boundary_arcs(big, small)
    arcs += [((a + n // 2) % n, (b + n // 2) % n) for a, b in arcs]
    return bounds, arcs, (big, antipode(big, n))
