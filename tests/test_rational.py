"""Scalar parsing and exact-arithmetic invariants."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relint_kit.errors import InputError
from relint_kit.polyhedra import HPolyhedron, VPolyhedron
from relint_kit.rational import (
    common_ints,
    dot,
    format_rational,
    mat,
    parse_rational,
    primitive,
    scaled_ints,
    vec,
)
from relint_kit.seqspace import HybridSeq

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


def test_common_ints_match_fraction_arithmetic():
    def oracle(vectors):
        # The least L > 0 with every L·a an integer, found by Fraction
        # arithmetic alone.
        L = 1
        for v in vectors:
            for a in v:
                L *= (L * Fraction(a)).denominator
        return L, [[int(L * Fraction(a)) for a in v] for v in vectors]

    assert common_ints([]) == (1, [])
    assert common_ints([[], []]) == (1, [[], []])
    assert common_ints([[3, -2], [0, 5]]) == (1, [[3, -2], [0, 5]])
    assert common_ints([[Fraction(1, 6), 2], [Fraction(-3, 4), Fraction(0)]]) == (
        12, [[2, 24], [-9, 0]])
    vectors = list(_seeded_vectors())
    for k in range(len(vectors)):
        group = vectors[k:k + 3]
        L, rows = common_ints(group)
        assert (L, rows) == oracle(group)
        assert all(type(x) is int for row in rows for x in row)
        assert [[Fraction(x, L) for x in row] for row in rows] == [
            [Fraction(a) for a in v] for v in group]


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


CONSTRUCTORS = {
    "vec": lambda e: vec([1, e]),
    "mat": lambda e: mat([[1], [e]]),
    "hpoly-A": lambda e: HPolyhedron.make(A=[[e]], b=[1]),
    "hpoly-b": lambda e: HPolyhedron.make(A=[[1]], b=[e]),
    "hpoly-E": lambda e: HPolyhedron.make(E=[[e]], d=[0]),
    "singleton": lambda e: HPolyhedron.singleton([0, e]),
    "vpoly-point": lambda e: VPolyhedron.make(points=[[e]]),
    "vpoly-ray": lambda e: VPolyhedron.make(points=[[0]], rays=[[e]]),
    "seq-prefix": lambda e: HybridSeq.make(prefix=[e]),
    "seq-tail-c": lambda e: HybridSeq.make(tail=(e, "1/2", 1)),
    "seq-tail-q": lambda e: HybridSeq.make(tail=("1/2", e, 1)),
}


@pytest.mark.parametrize("entry", [0.1, True, Decimal("0.1")], ids=["float", "bool", "Decimal"])
@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_constructors_reject_inexact_entries(build, entry):
    with pytest.raises(InputError, match="is not an int or Fraction"):
        build(entry)


def test_constructors_convert_ints_fractions_and_strings_exactly():
    assert HPolyhedron.make(A=[["1/10"]], b=[Fraction(1, 3)]).A == ((Fraction(1, 10),),)
    assert vec([2, Fraction(1, 2), "-3/4"]) == (2, Fraction(1, 2), Fraction(-3, 4))
    assert HybridSeq.make(tail=("1/2", Fraction(1, 3), 1)).tail.q == Fraction(1, 3)
    for text in ("abc", "0.1", "1e3"):
        with pytest.raises(InputError, match="malformed rational"):
            vec([text])
    for start in (1.0, True):
        with pytest.raises(InputError, match="tail start"):
            HybridSeq.make(tail=("1/2", "1/2", start))
