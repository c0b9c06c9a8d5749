"""Relative-interior predicates, normal cones, and the equivalence suite."""

import random
from fractions import Fraction

import pytest

from conftest import random_nonempty_hpoly
from relint_kit.errors import EmptySetError, InputError, PointNotInSetError
from relint_kit.polyhedra import HPolyhedron, PolyCone, h_to_v
from relint_kit.relint import (
    characterization_suite,
    cone_contains,
    conic_hull_at,
    in_iri,
    in_qri,
    in_ri,
    is_subspace,
    normal_cone,
    prolongation_test,
    quasi_regularity_report,
    ri_membership,
    ri_point,
)
from relint_kit.rational import vec
from relint_kit.sampling import sample_points

UNIT_SQUARE = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 1, 0])
SEGMENT = HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[1, 0], E=[[0, 1]], d=[0])
INTERVAL = HPolyhedron.make(A=[[1], [-1]], b=[1, 0])


def cones_equal(C1: PolyCone, C2: PolyCone) -> bool:
    return all(cone_contains(C2, g) for g in C1.generators) and all(
        cone_contains(C1, g) for g in C2.generators
    )


def test_ri_membership_square():
    assert ri_membership(UNIT_SQUARE, vec(["1/2", "1/2"])).member
    res = ri_membership(UNIT_SQUARE, vec([0, "1/2"]))
    assert not res.member
    assert res.witness.kind == "ineq-active"
    assert res.witness.normal == vec([-1, 0])


def test_ri_membership_singleton_is_itself():
    S = HPolyhedron.singleton(vec([1, 2]))
    assert ri_membership(S, vec([1, 2])).member
    assert not ri_membership(S, vec([1, 3])).member


def test_ri_membership_outside_point():
    res = ri_membership(UNIT_SQUARE, vec([2, 0]))
    assert not res.member and res.witness.kind == "ineq-violated"


def test_ri_membership_empty_set_raises():
    with pytest.raises(EmptySetError):
        ri_membership(HPolyhedron.make(A=[[1], [-1]], b=[0, -1]), vec([0]))


def test_ri_point_examples():
    assert ri_point(INTERVAL) == vec(["1/2"])
    assert ri_point(HPolyhedron.singleton(vec([1, 2]))) == vec([1, 2])
    assert ri_point(SEGMENT) == vec(["1/2", 0])


def test_ri_point_self_consistent_on_random_instances():
    rng = random.Random(21)
    for _ in range(60):
        P = random_nonempty_hpoly(rng, rng.randint(1, 5), rng.randint(1, 8))
        assert ri_membership(P, ri_point(P)).member


def test_conic_hull_segment():
    mid = conic_hull_at(SEGMENT, vec(["1/2", 0]))
    assert cones_equal(mid, PolyCone((vec([1, 0]), vec([-1, 0])), 2))
    end = conic_hull_at(SEGMENT, vec([0, 0]))
    assert cones_equal(end, PolyCone((vec([1, 0]),), 2))
    single = conic_hull_at(HPolyhedron.singleton(vec([1, 2])), vec([1, 2]))
    assert single.generators == ()


def test_conic_hull_outside_point_raises():
    with pytest.raises(PointNotInSetError):
        conic_hull_at(SEGMENT, vec([2, 2]))


def test_is_subspace():
    assert is_subspace(PolyCone((vec([1, 0]), vec([-1, 0])), 2))
    assert not is_subspace(PolyCone((vec([1, 0]),), 2))
    assert is_subspace(PolyCone((), 2))


def test_subspace_soundness_random_combinations():
    rng = random.Random(2)
    C = PolyCone((vec([1, 0, 0]), vec([-1, 0, 0]), vec([0, 1, 1]), vec([0, -1, -1])), 3)
    assert is_subspace(C)
    for _ in range(20):
        weights = [Fraction(rng.randint(0, 5)) for _ in C.generators]
        combo = tuple(
            sum((w * g[j] for w, g in zip(weights, C.generators)), Fraction(0))
            for j in range(3)
        )
        assert cone_contains(C, tuple(-c for c in combo))


def test_normal_cone_square_corner():
    N = normal_cone(UNIT_SQUARE, vec([0, 0]))
    assert set(N.generators) == {vec([-1, 0]), vec([0, -1])}


def test_normal_cone_interior_is_zero():
    N = normal_cone(UNIT_SQUARE, vec(["1/2", "1/2"]))
    assert N.generators == ()


def test_normal_cone_segment_equality_row():
    N = normal_cone(SEGMENT, vec(["1/2", 0]))
    assert cones_equal(N, PolyCone((vec([0, 1]), vec([0, -1])), 2))


def test_normal_cone_with_implicit_inequality_rows():
    # The same segment written with implicit inequalities y <= 0, -y <= 0
    # must produce the same normal cone as the equality encoding.
    seg = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 0, 0])
    N = normal_cone(seg, vec(["1/2", 0]))
    assert cones_equal(N, PolyCone((vec([0, 1]), vec([0, -1])), 2))


def test_normal_cone_outside_point_is_error():
    with pytest.raises(PointNotInSetError):
        normal_cone(UNIT_SQUARE, vec([2, 2]))


def test_normal_cone_polarity_random():
    rng = random.Random(31)
    for _ in range(40):
        P = random_nonempty_hpoly(rng, rng.randint(1, 4), rng.randint(1, 7))
        for x in sample_points(P, seed=1)[:4]:
            N = normal_cone(P, x)
            hull = conic_hull_at(P, x)
            for nrm in N.generators:
                for g in hull.generators:
                    assert sum(a * b for a, b in zip(nrm, g)) <= 0


def test_prolongation_interval():
    u, t = prolongation_test(INTERVAL, vec(["1/2"]), vec([0]))
    assert u == vec([1]) and t == Fraction(1, 2)
    assert prolongation_test(INTERVAL, vec([0]), vec([1])) is None


def test_prolongation_square_diagonal():
    u, t = prolongation_test(UNIT_SQUARE, vec(["1/2", "1/2"]), vec([0, 0]))
    assert u == vec([1, 1]) and t == Fraction(1, 2)


def test_prolongation_result_is_strict_interior_combination():
    rng = random.Random(17)
    for _ in range(30):
        P = random_nonempty_hpoly(rng, rng.randint(1, 4), rng.randint(1, 6))
        xbar = ri_point(P)
        for x in h_to_v(P).points:
            if x == xbar:
                continue
            res = prolongation_test(P, xbar, x)
            assert res is not None
            u, t = res
            assert P.contains(u)
            assert 0 < t < 1
            assert xbar == tuple(t * a + (1 - t) * b for a, b in zip(x, u))


def test_prolongation_preconditions():
    with pytest.raises(InputError):
        prolongation_test(INTERVAL, vec([2]), vec([0]))
    with pytest.raises(InputError):
        prolongation_test(INTERVAL, vec([0]), vec([0]))


def test_suite_segment_midpoint_all_true():
    rep = characterization_suite(SEGMENT, vec(["1/2", 0]))
    assert rep.predicates == (True,) * 5
    assert rep.agree


def test_suite_segment_endpoint_all_false():
    rep = characterization_suite(SEGMENT, vec([0, 0]))
    assert rep.predicates == (False,) * 5
    assert rep.agree


def test_suite_singleton_all_true():
    S = HPolyhedron.singleton(vec([1, 2]))
    rep = characterization_suite(S, vec([1, 2]))
    assert rep.predicates == (True,) * 5


def test_suite_outside_point_all_false_with_witness():
    rep = characterization_suite(UNIT_SQUARE, vec([5, 5]))
    assert rep.predicates == (False,) * 5
    assert rep.witness is not None and rep.witness.kind == "ineq-violated"


def test_suite_agreement_on_random_instances():
    rng = random.Random(41)
    for _ in range(60):
        P = random_nonempty_hpoly(rng, rng.randint(1, 5), rng.randint(1, 8))
        for x in sample_points(P, seed=5)[:6]:
            rep = characterization_suite(P, x)
            assert rep.agree, (P, x, rep.predicates)


def test_interior_chain_is_monotone():
    # ri implies iri implies qri on every sampled point.
    rng = random.Random(43)
    for _ in range(40):
        P = random_nonempty_hpoly(rng, rng.randint(1, 4), rng.randint(1, 7))
        for x in sample_points(P, seed=3)[:5]:
            ri = in_ri(P, x)
            iri = in_iri(P, x)
            qri = in_qri(P, x)
            assert (not ri or iri) and (not iri or qri)


def test_quasi_regularity_square():
    rep = quasi_regularity_report(UNIT_SQUARE)
    assert rep.sampled_equality_check


def test_quasi_regularity_segment_lower_dimensional():
    rep = quasi_regularity_report(SEGMENT)
    assert rep.sampled_equality_check


def test_quasi_regularity_singleton():
    rep = quasi_regularity_report(HPolyhedron.singleton(vec([1, 2])))
    assert rep.sampled_equality_check


def test_quasi_regularity_empty_raises():
    with pytest.raises(EmptySetError):
        quasi_regularity_report(HPolyhedron.make(A=[[1], [-1]], b=[0, -1]))


def test_inexact_points_rejected_by_the_predicates():
    x = (0.5, 0.5)
    for check in (lambda: ri_membership(UNIT_SQUARE, x), lambda: normal_cone(UNIT_SQUARE, x),
                  lambda: prolongation_test(UNIT_SQUARE, x, vec([0, 0])),
                  lambda: characterization_suite(UNIT_SQUARE, x)):
        with pytest.raises(InputError, match="^point: entry 0.5 "):
            check()
