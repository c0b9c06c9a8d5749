"""Scalar parsing and exact-arithmetic invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relint_kit.errors import InputError
from relint_kit.rational import (
    dot,
    format_rational,
    parse_rational,
    primitive,
    primitive_int,
    scaled_ints,
    vec,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


def test_parse_plain_and_fraction():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(" 4/6 ") == Fraction(2, 3)


def test_parse_zero_denominator_rejected():
    with pytest.raises(InputError, match="zero denominator"):
        parse_rational("1/0")


def test_parse_negative_denominator_rejected():
    with pytest.raises(InputError):
        parse_rational("1/-2")


def test_parse_garbage_rejected():
    with pytest.raises(InputError):
        parse_rational("0.5")


@given(rationals)
def test_format_round_trips(x):
    assert parse_rational(format_rational(x)) == x


@given(rationals, rationals)
def test_addition_cancels_exactly(a, b):
    assert (a + b) - b == a


@given(rationals, rationals, rationals)
def test_comparison_is_total_order(a, b, c):
    assert (a <= b) or (b <= a)
    if a <= b and b <= c:
        assert a <= c
    if a <= b and b <= a:
        assert a == b


@given(rationals)
def test_canonical_form(x):
    assert x.denominator > 0
    from math import gcd

    assert gcd(abs(x.numerator), x.denominator) == 1


def test_primitive_int_scales_positively():
    assert primitive_int(vec(["1/2", "-3/4", "0"])) == (2, -3, 0)
    assert primitive_int(vec(["4", "6"])) == (2, 3)
    assert primitive_int(vec(["0", "0"])) == (0, 0)


def _seeded_vectors():
    """Empty, all-zero and all-negative vectors, then seeded ones with zero
    entries and denominators up to the prime 10**9 + 7."""
    yield []
    yield [Fraction(0)] * 3
    yield [Fraction(-3, 4), Fraction(-5, 6), -2]
    rng = random.Random(1009)
    for _ in range(300):
        big = rng.random() < 0.3
        out = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.2:
                out.append(Fraction(0))
            elif big:
                out.append(Fraction(rng.randint(-10**12, 10**12),
                                    rng.choice((10**9 + 7, rng.randint(1, 10**9 + 7)))))
            else:
                out.append(Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
        yield out


def _euclid(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def test_scaled_ints_and_primitive_match_a_fraction_oracle():
    for v in _seeded_vectors():
        # The lcm of the denominators, grown one entry at a time: the
        # denominator of L·a is the factor of a's denominator L still lacks.
        lcm = 1
        for a in v:
            lcm *= (lcm * Fraction(a)).denominator
        L, ints = scaled_ints(v)
        assert L == lcm > 0
        assert all(type(k) is int for k in ints)
        assert [Fraction(k, L) for k in ints] == [Fraction(a) for a in v]
        g = 0
        for k in ints:
            g = _euclid(g, k)
        prim = primitive(ints)
        assert type(prim) is tuple
        if g == 0:
            assert prim == tuple(ints)
        else:
            assert prim == tuple(Fraction(k, g) for k in ints)
        assert primitive_int(v) == prim


def test_dot_product_exact():
    assert dot(vec(["1/3", "1/7"]), vec(["3", "7"])) == 2


@pytest.mark.parametrize("text", [
    "1_000", "1_0/3", "3/1_0", "1 /2", "1/ 2", "1/", "/2", "", "+", "1/2/3",
    "٣", "1e3", "0x10", "--1",
])
def test_parse_rejects_text_outside_the_grammar(text):
    with pytest.raises(InputError, match="malformed rational"):
        parse_rational(text)


def test_parse_accepts_an_explicit_sign():
    assert parse_rational("+3") == 3
    assert parse_rational("-0/5") == 0
    assert parse_rational("+6/4") == Fraction(3, 2)
