"""Sequence-space ball classifiers and the intrinsic/quasi interior gap."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relint_kit.errors import InputError
from relint_kit.polyhedra import HPolyhedron
from relint_kit.relint import characterization_suite
from relint_kit.seqspace import (
    GeomTail,
    HybridSeq,
    classify_l1ball,
    l1_norm,
    l2_norm_squared,
    quasi_regularity_gap_witness,
)


def seq(prefix=(), tail=None):
    return HybridSeq.make(prefix, tail)


def random_hybrid_seq(rng: random.Random) -> HybridSeq:
    prefix = tuple(
        Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        for _ in range(rng.randint(0, 4))
    )
    tail = None
    if rng.random() < 0.6:
        q = Fraction(rng.choice((1, 1, 2, 3)), rng.choice((2, 3, 4)))
        while not (0 < q < 1):
            q = Fraction(1, 2)
        tail = (Fraction(rng.randint(-2, 2), rng.randint(1, 3)), q, len(prefix) + 1)
    x = HybridSeq.make(prefix, tail)
    if rng.random() < 0.3:
        norm = l1_norm(x)
        if norm > 0:
            # Rescale onto the unit sphere to stress the boundary cases.
            x = x.scale(Fraction(1) / norm)
    return x


def test_l1_norm_closed_forms():
    assert l1_norm(seq(prefix=[1])) == 1
    assert l1_norm(seq(tail=("1/2", "1/2", 1))) == 1
    assert l1_norm(seq(prefix=["1/4"], tail=("1/4", "1/2", 2))) == Fraction(3, 4)
    assert l1_norm(seq(prefix=["-1/4"], tail=("-1/4", "1/2", 2))) == Fraction(3, 4)


def test_l2_norm_closed_forms():
    assert l2_norm_squared(seq(prefix=[1])) == 1
    # c = 1/2, q = 1/2: (1/4) / (1 - 1/4) = 1/3.
    assert l2_norm_squared(seq(tail=("1/2", "1/2", 1))) == Fraction(1, 3)


def test_tail_ratio_validation():
    with pytest.raises(InputError):
        seq(tail=("1", "1", 1))
    with pytest.raises(InputError):
        seq(tail=("1", "3/2", 1))
    with pytest.raises(InputError):
        seq(tail=("1", "-1/2", 1))


@pytest.mark.parametrize("tail", [("1/2", "1/2"), ("1/2", "1/2", 1, 0), 5, "1/2"],
                         ids=["short", "long", "int", "str"])
def test_tail_of_wrong_shape_rejected(tail):
    with pytest.raises(InputError, match=r"\(c, q, start\) triple"):
        seq(tail=tail)


def test_tail_start_must_follow_prefix():
    with pytest.raises(InputError):
        HybridSeq((Fraction(1),), GeomTail(Fraction(1, 2), Fraction(1, 2), 5))


def test_entries_and_truncation():
    x = seq(prefix=["1/4"], tail=("1/4", "1/2", 2))
    assert x.entry(1) == Fraction(1, 4)
    assert x.entry(2) == Fraction(1, 4)
    assert x.entry(4) == Fraction(1, 16)
    assert x.truncate(3) == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 8))
    assert seq(prefix=["1/4"]).entry(3) == 0  # past a prefix without a tail


def test_boundary_finitely_supported_point_excluded_from_qri():
    cls = classify_l1ball(seq(prefix=[1]))
    assert cls.in_set and not cls.in_iri and not cls.in_qri
    assert cls.finite_support


def test_unit_norm_infinite_support_point_in_qri_gap():
    cls = classify_l1ball(seq(tail=("1/2", "1/2", 1)))
    assert cls.in_set and not cls.in_iri and cls.in_qri
    assert not cls.finite_support


def test_open_ball_point_everywhere():
    cls = classify_l1ball(seq(prefix=["1/2"]))
    assert cls.in_set and cls.in_iri and cls.in_qri


def test_zero_sequence():
    cls = classify_l1ball(seq())
    assert cls.in_set and cls.in_iri and cls.in_qri
    assert l1_norm(seq()) == 0


def test_gap_witness():
    x, cls = quasi_regularity_gap_witness()
    assert cls.in_qri and not cls.in_iri
    assert l1_norm(x) == 1 and not x.finitely_supported


def test_scaled_gap_witness_variant():
    # c = 1/4, q = 3/4: (1/4) / (1/4) = 1.
    cls = classify_l1ball(seq(tail=("1/4", "3/4", 1)))
    assert cls.in_qri and not cls.in_iri


def test_gap_stability_closed_form():
    # Every finitely supported unit-norm point is excluded; every tailed
    # unit-norm point is included, over a family of exact constructions.
    for k in range(1, 6):
        entries = [Fraction(1, k)] * k
        cls = classify_l1ball(seq(prefix=entries))
        assert cls.in_set and not cls.in_qri
    for q_num, q_den in ((1, 2), (1, 3), (2, 3), (3, 4)):
        q = Fraction(q_num, q_den)
        c = 1 - q  # |c| / (1 - q) = 1
        cls = classify_l1ball(seq(tail=(c, q, 1)))
        assert cls.in_qri and not cls.in_iri


def test_chain_on_random_sequences():
    rng = random.Random(97)
    for _ in range(200):
        cls = classify_l1ball(random_hybrid_seq(rng))
        assert cls.chain_ok


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6), max_size=4),
)
def test_norm_scales_absolutely_homogeneously(t, prefix):
    x = HybridSeq.make(prefix, (Fraction(1, 3), Fraction(1, 2), len(prefix) + 1))
    assert l1_norm(x.scale(t)) == abs(t) * l1_norm(x)


def test_truncated_interior_witness_lands_in_cross_polytope_interior():
    # Truncating an intrinsic-interior point into R^N keeps it strictly
    # inside the finite-dimensional ball once the truncated norm is < 1,
    # where the full characterization suite is all-true.
    from itertools import product as iproduct

    x = seq(prefix=["1/4"], tail=("1/4", "1/2", 2))
    assert l1_norm(x) < 1
    for N in (1, 2, 3):
        point = x.truncate(N)
        A = [tuple(Fraction(s) for s in signs) for signs in iproduct((1, -1), repeat=N)]
        ball = HPolyhedron(tuple(A), (Fraction(1),) * len(A), (), (), N)
        assert sum(abs(c) for c in point) < 1
        rep = characterization_suite(ball, point)
        assert rep.agree and rep.ri_def
