"""Fraction reference oracles for the integer-grid paths of trilam.

These are the straightforward `fractions.Fraction` formulations of the
legality oracle and of the preperiod-1 point enumeration.  The package
computes both on the integer grid (`trilam.grid`); the differential
tests compare the two.  Nothing here is used by `src/`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from trilam.angles import Angle, in_open_arc, tripling
from trilam.chords import Chord, SIXTH, chord_antipode, crosses, length
from trilam.legality import LegalityVerdict, LegalityWitness, StripSystem, strips_of

# -- preperiod-1 points ------------------------------------------------------


def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def exact_period_numerators(k: int) -> np.ndarray:
    """Numerators a (mod 3^k - 1) of angles a/(3^k - 1) with exact period k."""
    modulus = 3**k - 1
    a = np.arange(modulus, dtype=np.int64)
    keep = np.ones(modulus, dtype=bool)
    for d in _divisors(k):
        if d == k:
            break
        # period divides d  <=>  (3^d - 1) * a == 0 mod (3^k - 1)
        keep &= (a * (3**d - 1)) % modulus != 0
    return a[keep]


def type_b_numerators(k: int) -> np.ndarray:
    """Numerators of type-B block-k points among a/(3^{2k} - 1)."""
    modulus = 3 ** (2 * k) - 1
    nums = exact_period_numerators(2 * k)
    # t^k(x) = x + 1/2: (3^k - 1) a == modulus/2 mod modulus
    sel = (nums * (3**k - 1) - modulus // 2) % modulus == 0
    return nums[sel]


def block_points(block: int, ptype: str) -> list[Angle]:
    if ptype == "B":
        modulus = 3 ** (2 * block) - 1
        return sorted(Fraction(int(a), modulus) for a in type_b_numerators(block))
    modulus = 3**block - 1
    nums = exact_period_numerators(block)
    if block % 2 == 0:
        half = block // 2
        is_b = (nums * (3**half - 1) - modulus // 2) % modulus == 0
        nums = nums[~is_b]
    return sorted(Fraction(int(a), modulus) for a in nums)


def preperiod1_points(block: int, ptype: str) -> list[Angle]:
    """Both non-cycle preimages of every periodic point of the class, by Fraction iteration."""
    period = 2 * block if ptype == "B" else block
    out: list[Angle] = []
    for y in block_points(block, ptype):
        pred = y
        for _ in range(period - 1):
            pred = tripling(pred)
        for j in range(3):
            x = (y / 3 + Fraction(j, 3)) % 1
            if x != pred:
                out.append(x)
    out.sort()
    return out


# -- legality ----------------------------------------------------------------


def full_orbit(c: Chord) -> list[Chord]:
    """Images of c up to and including the first repeat of its ordered endpoint pair."""
    pair = (c.a, c.b)
    seen = set()
    out = []
    while pair not in seen:
        seen.add(pair)
        out.append(Chord(*pair))
        pair = (tripling(pair[0]), tripling(pair[1]))
    out.append(Chord(*pair))
    return out


def _in_closed_arc(x: Angle, s: Angle, e: Angle) -> bool:
    return x == s or x == e or in_open_arc(x, s, e)


def strip_violation(d: Chord, strips: StripSystem) -> Optional[Chord]:
    """The boundary object d violates, or None when d avoids the open strips."""
    bounds = strips.bounding_chords()
    for bound in bounds:
        if crosses(d, bound):
            return bound
    for s, e in strips.arcs:
        if in_open_arc(d.a, s, e) or in_open_arc(d.b, s, e):
            return Chord(s, e)
    if strips.arcs and d not in bounds:
        for half, marker in ((strips.arcs[:2], strips.M),
                             (strips.arcs[2:], chord_antipode(strips.M))):
            if all(any(_in_closed_arc(v, s, e) for s, e in half) for v in d.endpoints()):
                return marker
    return None


def is_legal_pair(c: Chord) -> LegalityVerdict:
    """Legality of {c, -c} by pairwise Fraction `crosses` and the Fraction strip test."""
    if c.degenerate:
        return LegalityVerdict("legal")
    if length(c) > SIXTH:
        raise ValueError(f"legality is decided for chords of length <= 1/6, got {length(c)}")
    orbit = full_orbit(c)
    tagged = [(i, "c", ch) for i, ch in enumerate(orbit)]
    tagged += [(i, "-c", chord_antipode(ch)) for i, ch in enumerate(orbit)]
    for k in range(len(tagged)):
        i, oi, ci = tagged[k]
        for j, oj, cj in tagged[k + 1:]:
            if crosses(ci, cj):
                return LegalityVerdict("illegal", LegalityWitness("crossing", i, oi, ci, j, oj, cj))
    strips = strips_of(c)
    for i, ch in enumerate(orbit[1:], start=1):
        violated = strip_violation(ch, strips)
        if violated is not None:
            return LegalityVerdict("illegal", LegalityWitness("strip", i, "c", ch, None, None, violated))
    return LegalityVerdict("legal")
