from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilam.angles import antipode, angle_str, orbit_info, parse_angle, tripling

from reference import in_open_arc

angles = st.fractions(min_value=0, max_value=1, max_denominator=3000).map(lambda f: f % 1)


@pytest.mark.parametrize("p,q,expected", [
    (3, 12, Fraction(1, 4)),
    (-1, 6, Fraction(5, 6)),
    (7, 7, Fraction(0)),
    (-13, 6, Fraction(5, 6)),   # negative p beyond one turn
    (-12, 6, Fraction(0)),
    (25, 12, Fraction(1, 12)),  # p >= q
    (14, 4, Fraction(1, 2)),    # reduced after wrapping
    (0, 5, Fraction(0)),
    (5, 1, Fraction(0)),        # bare int
    (-5, 1, Fraction(0)),
])
def test_make_angle(p, q, expected):
    # an angle is made from p and q by parsing "p/q"
    got = parse_angle(f"{p}/{q}")
    assert got == expected
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
@settings(max_examples=300)
def test_make_angle_is_fraction_mod_one(p, q):
    assert parse_angle(f"{p}/{q}") == Fraction(p, q) % 1


@pytest.mark.parametrize("text,expected", [
    ("0", Fraction(0)),
    ("1", Fraction(0)),
    ("-3", Fraction(0)),
    (" 7/4 ", Fraction(3, 4)),
    ("-1/3", Fraction(2, 3)),
])
def test_parse_angle_wraps_bare_ints_and_fractions(text, expected):
    assert parse_angle(text) == expected


def test_make_angle_rejects_zero_denominator():
    for text in ("1/0", "1/-2"):
        with pytest.raises(ValueError):
            parse_angle(text)


@pytest.mark.parametrize("x,expected", [
    (Fraction(1, 6), Fraction(1, 2)),
    (Fraction(2, 3), Fraction(0)),
    (Fraction(11, 12), Fraction(3, 4)),
])
def test_tripling(x, expected):
    assert tripling(x) == expected


@pytest.mark.parametrize("x,expected", [
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(11, 12), Fraction(5, 12)),
])
def test_antipode(x, expected):
    assert antipode(x) == expected


@pytest.mark.parametrize("x,a,b,expected", [
    (Fraction(1, 4), Fraction(0), Fraction(1, 2), True),
    (Fraction(3, 4), Fraction(0), Fraction(1, 2), False),
    (Fraction(1, 24), Fraction(11, 12), Fraction(1, 12), True),  # arc wrapping through 0
    (Fraction(1), Fraction(0), Fraction(1, 2), False),  # 1 is the endpoint 0
])
def test_in_open_arc(x, a, b, expected):
    assert in_open_arc(x, a, b) is expected


def test_in_open_arc_rejects_empty_arc():
    with pytest.raises(ValueError):
        in_open_arc(Fraction(1, 4), Fraction(0), Fraction(0))


def brute_orbit(x):
    """Independent oracle: record the raw iteration."""
    seen = {}
    i = 0
    while x not in seen:
        seen[x] = i
        x = (3 * x) % 1
        i += 1
    return seen[x], i - seen[x]


@pytest.mark.parametrize("x,pre,per", [
    (Fraction(0), 0, 1),
    (Fraction(1, 12), 1, 2),   # 1/12 -> 1/4 -> 3/4 -> 1/4
    (Fraction(1, 13), 0, 3),   # 1/13 -> 3/13 -> 9/13 -> 1/13
])
def test_orbit_info_examples(x, pre, per):
    assert brute_orbit(x) == (pre, per)
    info = orbit_info(x)
    assert (info.preperiod, info.period) == (pre, per)


def factorization_rule(x):
    """Preperiod = 3-adic valuation of the denominator, period = ord of 3 mod the rest."""
    q = x.denominator
    e = 0
    while q % 3 == 0:
        q //= 3
        e += 1
    if q == 1:
        return e, 1
    k, pw = 1, 3 % q
    while pw != 1:
        pw = (3 * pw) % q
        k += 1
    return e, k


@given(angles)
@settings(max_examples=300)
def test_orbit_info_matches_factorization_rule(x):
    info = orbit_info(x)
    assert (info.preperiod, info.period) == factorization_rule(x)


@given(angles)
@settings(max_examples=300)
def test_tripling_commutes_with_antipode(x):
    assert tripling(antipode(x)) == antipode(tripling(x))


@given(angles, angles, angles)
@settings(max_examples=300)
def test_open_arc_sides_are_exclusive(x, a, b):
    if a == b or x in (a, b):
        return
    assert in_open_arc(x, a, b) != in_open_arc(x, b, a)


@given(angles)
def test_angle_string_round_trip(x):
    assert parse_angle(angle_str(x)) == x


def test_angle_string_zero():
    assert angle_str(Fraction(0)) == "0/1"


@pytest.mark.parametrize("bad", ["", "1/", "/3", "a/b", "1/0"])
def test_parse_angle_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_angle(bad)
