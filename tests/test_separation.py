"""Proper and strict separation with re-validating certificates."""

import random
from fractions import Fraction

import pytest

from conftest import random_nonempty_hpoly, random_pair
from relint_kit.errors import EmptySetError, InputError
from relint_kit.linalg import in_span
from relint_kit.polyhedra import AffineFlat, HPolyhedron, h_to_v
from relint_kit.rational import dot, vec
from relint_kit.relint import in_qri, ri_membership
from relint_kit.sampling import sample_points
from relint_kit.separation import (
    NotSeparable,
    Separated,
    properly_separate,
    qri_nonmembership_via_separation,
    separation_iff_ri_disjoint,
    strict_separate_in_flat,
    verify_certificate,
)

UNIT_SQUARE = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 1, 0])
SEGMENT = HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[1, 0], E=[[0, 1]], d=[0])


def test_segment_inside_square_separates_properly():
    out = properly_separate(SEGMENT, UNIT_SQUARE)
    assert isinstance(out, Separated)
    cert = out.certificate
    assert cert.sup1 == cert.inf2 == 0
    assert dot(cert.functional, cert.strict_witness_1) < dot(
        cert.functional, cert.strict_witness_2
    )
    assert verify_certificate(SEGMENT, UNIT_SQUARE, cert)


def test_identical_squares_not_separable():
    out = properly_separate(UNIT_SQUARE, UNIT_SQUARE)
    assert isinstance(out, NotSeparable)
    assert out.common_point == vec(["1/2", "1/2"])
    assert ri_membership(UNIT_SQUARE, out.common_point).member


def test_disjoint_halflines():
    P1 = HPolyhedron.make(A=[[1]], b=[0])
    P2 = HPolyhedron.make(A=[[-1]], b=[-1])
    out = properly_separate(P1, P2)
    assert isinstance(out, Separated)
    assert out.certificate.sup1 == 0
    assert out.certificate.inf2 == 1
    assert verify_certificate(P1, P2, out.certificate)


def test_ray_only_strictness():
    # A point against a halfline leaving it: the strict pair needs a
    # synthesized point on the ray.
    P1 = HPolyhedron.singleton(vec([0, 0]))
    P2 = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1]], b=[0, 0, 0])
    out = properly_separate(P1, P2)
    assert isinstance(out, Separated)
    assert verify_certificate(P1, P2, out.certificate)


def test_equal_singletons_share_their_point():
    S = HPolyhedron.singleton(vec([1, 1]))
    out = properly_separate(S, S)
    assert isinstance(out, NotSeparable)
    assert out.common_point == vec([1, 1])


def test_distinct_singletons_separate():
    out = properly_separate(
        HPolyhedron.singleton(vec([0])), HPolyhedron.singleton(vec([1]))
    )
    assert isinstance(out, Separated)


def test_empty_input_rejected():
    empty = HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[0, -1], dim=2)
    with pytest.raises(EmptySetError):
        properly_separate(empty, UNIT_SQUARE)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        properly_separate(UNIT_SQUARE, HPolyhedron.make(A=[[1]], b=[1]))


def test_equivalence_on_spec_pairs():
    # Two unit squares sharing only an edge: separable, disjoint interiors.
    right = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[2, -1, 1, 0])
    rep = separation_iff_ri_disjoint(UNIT_SQUARE, right)
    assert rep.separated and rep.ri_disjoint and rep.agree
    # Overlapping squares: a common relative-interior point exists.
    big = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[2, 0, 2, 0])
    shifted = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[3, -1, 3, -1])
    rep = separation_iff_ri_disjoint(big, shifted)
    assert not rep.separated and not rep.ri_disjoint and rep.agree
    assert rep.common_point == vec(["3/2", "3/2"])
    # Nested segment and square from the proper-separation example.
    rep = separation_iff_ri_disjoint(SEGMENT, UNIT_SQUARE)
    assert rep.separated and rep.ri_disjoint and rep.agree


def test_equivalence_on_random_pairs():
    rng = random.Random(51)
    for _ in range(60):
        P1, P2 = random_pair(rng, rng.randint(1, 4), 6)
        rep = separation_iff_ri_disjoint(P1, P2)
        assert rep.agree
        if rep.separated:
            assert verify_certificate(P1, P2, rep.certificate)
        else:
            assert ri_membership(P1, rep.common_point).member
            assert ri_membership(P2, rep.common_point).member


def test_separation_symmetry():
    rng = random.Random(53)
    for _ in range(30):
        P1, P2 = random_pair(rng, rng.randint(1, 3), 5)
        a = isinstance(properly_separate(P1, P2), Separated)
        b = isinstance(properly_separate(P2, P1), Separated)
        assert a == b


def test_qri_separation_square_corner():
    rep = qri_nonmembership_via_separation(UNIT_SQUARE, vec([0, 0]))
    assert rep.nonmember
    assert rep.lemma_agrees
    assert rep.certificate is not None
    assert verify_certificate(
        HPolyhedron.singleton(vec([0, 0])), UNIT_SQUARE, rep.certificate
    )


def test_qri_separation_center_and_segment():
    rep = qri_nonmembership_via_separation(UNIT_SQUARE, vec(["1/2", "1/2"]))
    assert not rep.nonmember and rep.lemma_agrees
    rep = qri_nonmembership_via_separation(SEGMENT, vec(["1/2", 0]))
    assert not rep.nonmember and rep.lemma_agrees


def test_qri_separation_outside_point():
    rep = qri_nonmembership_via_separation(UNIT_SQUARE, vec([5, 5]))
    assert rep.nonmember and rep.lemma_agrees is None


def test_qri_separation_matches_normal_cone_predicate_on_random():
    rng = random.Random(57)
    for _ in range(40):
        P = random_nonempty_hpoly(rng, rng.randint(1, 4), 6)
        for x in sample_points(P, seed=2)[:4]:
            rep = qri_nonmembership_via_separation(P, x)
            assert rep.lemma_agrees
            assert rep.nonmember == (not in_qri(P, x))


def test_strict_separation_in_x_axis():
    L = AffineFlat(vec([0, 0]), (vec([1, 0]),), 2)
    P = HPolyhedron.make(A=[[1, 0], [-1, 0]], b=["1/2", 0], E=[[0, 1]], d=[0])
    u = strict_separate_in_flat(L, P, vec([1, 0]))
    assert in_span(L.directions, u)
    assert any(c != 0 for c in u)
    sup = max(dot(u, p) for p in h_to_v(P).points)
    assert sup < dot(u, vec([1, 0]))
    assert sup == Fraction(1, 2) * u[0]


def test_strict_separation_full_space():
    L = AffineFlat(vec([0, 0]), (vec([1, 0]), vec([0, 1])), 2)
    u = strict_separate_in_flat(L, UNIT_SQUARE, vec([2, 2]))
    sup = max(dot(u, p) for p in h_to_v(UNIT_SQUARE).points)
    assert sup < dot(u, vec([2, 2]))


def test_strict_separation_point_case():
    L = AffineFlat(vec([0, 0]), (vec([1, 0]),), 2)
    P = HPolyhedron.singleton(vec([0, 0]))
    u = strict_separate_in_flat(L, P, vec([1, 0]))
    assert dot(u, vec([0, 0])) < dot(u, vec([1, 0]))


def test_strict_separation_preconditions():
    L = AffineFlat(vec([0, 0]), (vec([1, 0]),), 2)
    with pytest.raises(InputError):
        strict_separate_in_flat(L, UNIT_SQUARE, vec([2, 0]))  # square not in L
    with pytest.raises(InputError):
        strict_separate_in_flat(
            L, HPolyhedron.singleton(vec([0, 0])), vec([0, 0])
        )  # point inside the set
    with pytest.raises(InputError):
        strict_separate_in_flat(
            AffineFlat(vec([1, 1]), (vec([1, 0]),), 2),
            HPolyhedron.singleton(vec([0, 0])),
            vec([1, 0]),
        )  # carrier is not a linear subspace


def test_strict_separation_random_subspace_instances():
    rng = random.Random(61)
    L = AffineFlat(vec([0, 0, 0]), (vec([1, 0, 0]), vec([0, 1, 0])), 3)
    for _ in range(20):
        # Random polytope inside the z = 0 plane, plus an outside point.
        P2 = random_nonempty_hpoly(rng, 2, 5)
        A = tuple(row + (Fraction(0),) for row in P2.A)
        E = tuple(row + (Fraction(0),) for row in P2.E) + ((vec([0, 0, 1])),)
        P = HPolyhedron(A, P2.b, E, P2.d + (Fraction(0),), 3)
        xbar = vec([rng.randint(-8, 8), rng.randint(-8, 8), 0])
        if P.contains(xbar):
            continue
        u = strict_separate_in_flat(L, P, xbar)
        assert in_span(L.directions, u)
        V = h_to_v(P)
        sup = max(dot(u, p) for p in V.points)
        assert all(dot(u, r) <= 0 for r in V.rays)
        assert sup < dot(u, xbar)


def test_verify_certificate_rejects_an_empty_set():
    from relint_kit.separation import SeparationCertificate

    interval = HPolyhedron.make(A=[[1], [-1]], b=[1, 0])
    cert = SeparationCertificate(vec([1]), vec([0])[0], vec([0])[0], vec([-1]), vec([1]))
    assert not verify_certificate(HPolyhedron.empty(1), interval, cert)
    assert not verify_certificate(interval, HPolyhedron.empty(1), cert)


def test_not_separable_report_reuses_the_common_point():
    rng = random.Random(83)
    for _ in range(15):
        P1, P2 = random_pair(rng, 2, 4)
        out = properly_separate(P1, P2)
        rep = separation_iff_ri_disjoint(P1, P2)
        if isinstance(out, NotSeparable):
            assert rep.common_point == out.common_point
            assert not rep.separated and not rep.ri_disjoint
