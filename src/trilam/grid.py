"""Exact integer grid: angles as ints modulo a common N.

On the grid of modulus N the angle x/N is the int x in [0, N); tripling
is x -> 3x mod N and the half-turn x -> x + N/2.  `Fraction` angles
enter through `on_grid`, families at once through `rows_of`, and leave
as `Fraction(x, N)` or as reduced text (`formats`); the hot paths of
orbits, builder, legality and pullback run in between.  The common
scale (`scale_of`), int64 or Python ints (`int_dtype`), crossing
(`crosses`) and orbit stepping (`orbit`) are each decided here once.
`Laminar` is the one laminarity primitive: a vectorised pass over the
open/close events of a family of (lo, hi) chords gives its verdict, a
crossing witness, the chords whose depths mismatch, parent pointers and
the regions of points.  The strips of short chords (`strips`, for an
array of chords at once) serve both the legality oracle and the pullback
barriers; the canonical chord order (`short_arc_order`) is applied only
where chords are written: JSON, CSV and SVG.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "Pair", "MAX_INT64_MODULUS", "check_int64", "int_dtype", "scale_of", "rows_of",
    "on_grid", "arclen", "crosses", "Laminar", "short_arc_order", "closure", "orbit", "canon",
    "antipode", "short_arcs", "strips",
]

Pair = tuple[int, int]

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


def rows_of(ends: Iterable[Pair], *moduli: int, reach: int = 1) -> tuple[np.ndarray, int]:
    """(pairs, n): chords as (m, 2) rows on the lcm n of their denominators and the moduli.

    `ends` holds each angle p/q, 0 <= p < q, as (p, q), two per chord; the
    rows are `int_dtype(reach * n)`, the caller's bound on its values.
    """
    ends = list(ends)
    n = scale_of((), *{q for _, q in ends}, *moduli)
    flat = np.fromiter(chain.from_iterable(ends), int_dtype(reach * n), 2 * len(ends))
    return (flat[0::2] * (n // flat[1::2])).reshape(-1, 2), n


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
    closes by (hi asc, open rank desc), closes first at an equal position:
    each by one stable argsort of a key, (lo - base) * span - (hi - base)
    and (hi - base) * m - open rank for base = min lo and span = max hi -
    base + 1, while both keys fit int64; wider families (the builder's from
    block 7 on, where its scale passes 32 bits) take two lexsorts.
    The family is laminar iff every chord's depth at its open equals its
    depth at its close (a chord has as many more chords open at its close
    as it has right crossers minus left crossers, and the earliest-opening
    chord of any crossing has only right crossers); one binary search of the
    opens in the closes counts both, as the opens before close j are those
    with at most j closes at or before them.
    `crossing` is None for a laminar family, else the rows of one
    crossing pair, the earlier-opening chord first; `mismatched` holds the
    rows whose two depths differ, so it tells apart families laid on
    disjoint ranges of the line.
    """

    def __init__(self, pairs: np.ndarray):
        lo, hi = pairs[:, 0], pairs[:, 1]
        keep = lo < hi
        self._rows = None if np.count_nonzero(keep) == len(keep) else keep.nonzero()[0]
        if self._rows is not None:
            lo, hi = lo[self._rows], hi[self._rows]
        self._size, m = len(pairs), len(lo)
        rank = np.empty(m, dtype=np.int32 if m < 2**31 else np.intp)
        base, top = (lo.min(), hi.max()) if m else (0, 0)
        span = int(top) - int(base) + 1
        keyed = int_dtype(span * max(span, m)) is np.int64  # both keys fit int64
        self._opens = ((span * (lo - base) - (hi - base)).argsort(kind="stable") if keyed
                       else np.lexsort((-hi, lo))).astype(rank.dtype)
        rank[self._opens] = np.arange(m, dtype=rank.dtype)
        closes = ((m * (hi - base) - rank).argsort(kind="stable") if keyed
                  else np.lexsort((-rank, hi)))
        self._lo, self._hi, rank = lo[self._opens], hi[closes], rank[closes]  # rank: of each close
        del closes
        closed = self._hi.searchsorted(self._lo, "right")  # closes at or before each open
        opened = np.bincount(closed, minlength=m + 1)
        opened.cumsum(out=opened)  # opens before close j: those with closed <= j
        self._depth = np.subtract(np.arange(1, m + 1), closed, out=closed)
        opened[:m] -= np.arange(m)
        bad = rank[(self._depth[rank] != opened[:m]).nonzero()[0]]  # open ranks of mismatches
        self.mismatched = self._row(self._opens[bad])
        self.crossing: Optional[tuple[int, int]] = None
        if len(bad):  # scan its earliest-opening chord on a circle longer than the family
            c = self._opens[bad.min()]
            hits = crosses((lo[c], hi[c]), (lo, hi), int(self._hi[-1]) - int(self._lo[0]) + 1)
            self.crossing = tuple(int(i) for i in self._row(np.array([c, hits.argmax()])))

    def _row(self, i: np.ndarray) -> np.ndarray:
        return i if self._rows is None else self._rows[i]

    def _innermost(self, rank: np.ndarray, depth: np.ndarray) -> np.ndarray:
        """Row of the last chord of the given depth opening before the given open rank, or -1."""
        if self.crossing is not None:
            raise ValueError("the family is not laminar")
        m1 = len(self._opens) + 1
        if m1 == 1:
            return np.full(len(rank), -1, dtype=np.intp)
        by_depth = np.argsort(self._depth, kind="stable")  # open ranks grouped by depth
        keys = np.append(-1, self._depth[by_depth] * m1 + by_depth)
        key = keys[np.searchsorted(keys, depth * m1 + rank) - 1]
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


# `strips` as (start, end) offsets from a row's short arc (s, s + l) in units of n/6,
# each end moved on by l; the second table swaps the arcs, for n/3 <= s < 2n/3.
_UNITS = np.array([[2, 4], [4, 2], [5, 1], [1, 5], [2, 2], [4, 4], [5, 5], [1, 1], [2, 4], [5, 1]])
_UNITS = np.stack([_UNITS, _UNITS[[0, 1, 2, 3, 5, 4, 7, 6, 8, 9]]])


def short_arcs(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, l): start and length of the short arc of each (lo, hi) row; a row longer than
    1/6 raises ValueError."""
    lo, hi = pairs[:, 0], pairs[:, 1]
    d = hi - lo
    length = np.minimum(d, n - d)
    if len(length) and 6 * length.max() > n:
        raise ValueError("expected a chord of length <= 1/6, got "
                         f"{Fraction(int(length[(6 * length > n).argmax()]), n)}")
    return np.where(2 * d > n, hi, lo), length


def strips(pairs: np.ndarray, n: int) -> np.ndarray:
    """(m, 10, 2): the bounding chords M, M', -M, -M' as (lo, hi), the open boundary arcs
    (start, end) in circular order, their antipodes, and the markers M, -M, of the short
    strips of each (lo, hi) row of length <= 1/6, on the grid n (a multiple of 6).

    For the short arc (s, s + l) the majors are M = (s + n/3, s + 2n/3 + l) and M' =
    (s + 2n/3, s + n/3 + l); the arcs, of length l, start at s + n/3 and s + 2n/3; a
    degenerate row has its critical chord as M = M' and empty arcs."""
    s, length = short_arcs(pairs, n)
    units = _UNITS[(3 * s // n % 2).astype(np.intp)].astype(pairs.dtype)
    objs = s[:, None, None] + n // 6 * units
    objs[..., 1] += length[:, None]
    objs %= n
    objs[:, :4].sort(axis=2)
    objs[:, 8:].sort(axis=2)
    return objs
