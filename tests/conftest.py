from fractions import Fraction

import pytest

from trilam.builder import build
from trilam.chords import Chord


def ch(p, q, r, s) -> Chord:
    return Chord(Fraction(p, q) % 1, Fraction(r, s) % 1)


# the degenerate 1/2 seed and legal pairs whose pullback families the
# grid paths are checked on against the reference
PULLBACK_SEEDS = [
    Chord(Fraction(1, 2), Fraction(1, 2)),
    ch(5, 12, 7, 12),
    ch(5, 24, 7, 24),
    ch(29, 48, 31, 48),
    ch(7, 39, 8, 39),
    ch(1, 24, 23, 24),
]


@pytest.fixture(scope="session")
def build4():
    return build(4)


@pytest.fixture(scope="session")
def build6():
    return build(6)
