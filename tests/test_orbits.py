from fractions import Fraction

import pytest

from trilam.angles import antipode, tripling
from trilam.orbits import (
    chord_orbit,
    classify_periodic,
    periodic_points,
    preperiod1_points,
)

from conftest import ch


@pytest.mark.parametrize("x,ptype,block,period", [
    (Fraction(1, 4), "B", 1, 2),   # t(1/4) = 3/4 = 1/4 + 1/2
    (Fraction(0), "D", 1, 1),
    (Fraction(1, 8), "D", 2, 2),   # t(1/8) = 3/8 != 5/8
])
def test_classify_periodic(x, ptype, block, period):
    pc = classify_periodic(x)
    assert (pc.ptype, pc.block_period, pc.point_period) == (ptype, block, period)


def test_classify_periodic_rejects_preperiodic():
    with pytest.raises(ValueError):
        classify_periodic(Fraction(1, 6))


def test_periodic_points_small():
    assert periodic_points(1) == [Fraction(0), Fraction(1, 2)]
    assert periodic_points(2) == [Fraction(p, 8) for p in (1, 2, 3, 5, 6, 7)]
    assert len(periodic_points(3)) == 24


def exact_period_count(k):
    """Inclusion-exclusion oracle for the number of exact-period-k points."""
    total = {}
    for d in range(1, k + 1):
        if k % d:
            continue
        total[d] = 3**d - 1 - sum(total[e] for e in total if d % e == 0 and e < d)
    return total[k]


@pytest.mark.parametrize("k", range(1, 9))
def test_periodic_point_counts(k):
    assert len(periodic_points(k)) == exact_period_count(k)


def type_b_count(n):
    """Oracle recursion: the 3^m - 1 solutions of t^m(x) = -x are the type-B
    points whose block period j satisfies m/j odd."""
    memo = {}
    for m in range(1, n + 1):
        memo[m] = (3**m - 1) - sum(memo[j] for j in range(1, m)
                                   if m % j == 0 and (m // j) % 2 == 1)
    return memo[n]


def type_d_count(n):
    cnt = exact_period_count(n)
    if n % 2 == 0:
        cnt -= type_b_count(n // 2)
    return cnt


def test_preperiod1_points_pinned_lists():
    assert preperiod1_points(1, "D") == [Fraction(1, 6), Fraction(1, 3),
                                         Fraction(2, 3), Fraction(5, 6)]
    assert preperiod1_points(1, "B") == [Fraction(1, 12), Fraction(5, 12),
                                         Fraction(7, 12), Fraction(11, 12)]
    assert preperiod1_points(2, "D") == [Fraction(p, 24) for p in
                                         (1, 5, 7, 11, 13, 17, 19, 23)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("t", ["B", "D"])
def test_preperiod1_counts_and_symmetry(n, t):
    pts = preperiod1_points(n, t)
    expected = 2 * (type_b_count(n) if t == "B" else type_d_count(n))
    assert len(pts) == expected
    assert {antipode(p) for p in pts} == set(pts)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)])
def test_no_angle_is_both_types(n, m):
    assert not set(preperiod1_points(n, "B")) & set(preperiod1_points(m, "D"))


def test_preperiod1_points_have_preperiod_one():
    from trilam.angles import orbit_info

    for t in ("B", "D"):
        for p in preperiod1_points(3, t):
            info = orbit_info(p)
            assert info.preperiod == 1
            pc = classify_periodic(tripling(p))
            assert pc.ptype == t and pc.block_period == 3


def test_chord_orbit_preperiodic_cycle():
    orb = chord_orbit(ch(1, 12, 1, 6))
    assert orb.preperiod == 1
    assert orb.pointwise_period == 2
    assert orb.chords == (ch(1, 12, 1, 6), ch(1, 4, 1, 2), ch(1, 2, 3, 4))


def test_chord_orbit_setwise_fixed():
    orb = chord_orbit(ch(5, 24, 7, 24))
    assert orb.preperiod == 1
    assert orb.setwise_period == 1
    assert orb.pointwise_period == 2
    assert orb.chords == (ch(5, 24, 7, 24), ch(5, 8, 7, 8))


def test_chord_orbit_critical_collapse():
    orb = chord_orbit(ch(5, 6, 1, 6))
    assert orb.preperiod == 1
    assert orb.chords[1].degenerate and orb.chords[1].a == Fraction(1, 2)
    assert orb.setwise_period == 1


def test_enumeration_refuses_denominators_beyond_int64_products():
    # 2(3^20 - 1) and 3^21 - 1 exceed the largest modulus whose products
    # of two numerators fit int64; refused before anything is allocated
    with pytest.raises(ValueError, match="int64"):
        preperiod1_points(20, "B")
    with pytest.raises(ValueError, match="int64"):
        periodic_points(21)
