"""Relative-interior predicates, normal cones, and the equivalence suite."""

import random
from fractions import Fraction

import pytest

from conftest import random_nonempty_hpoly, vneg
from relint_kit import relint
from relint_kit.errors import EmptySetError, InputError, PointNotInSetError
from relint_kit.polyhedra import HPolyhedron, PolyCone, h_to_v, implicit_rows, is_empty
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
from relint_kit.rational import common_ints, dot, scaled_ints, vec, vsub
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


# -- the integer rows of the hull and normal cones ------------------------------
#
# in_iri and in_qri pose their cone LPs from the sets' integer generators and
# rows.  The oracle is the `Fraction` construction: the sorted set of p - x
# and the rays, or of the active, implicit and equality normals, each row put
# through `scaled_ints`, and the objective L·(-Σg) over the generators'
# common denominator L.

DENOMINATORS = (1, 2, 3, 7, 30, 41, 77, 89, 91, 97)


def _wide(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def _cone_case(rng: random.Random) -> HPolyhedron:
    """Rows through an anchor with denominators up to 97: tight and slack
    inequalities, equalities, zero rows, and sometimes a free coordinate,
    whose line DD returns as a +/- pair of directions."""
    n = rng.randint(1, 3)
    anchor = [_wide(rng) for _ in range(n)]
    A, b, E, d = [], [], [], []
    for _ in range(rng.randint(1, n + 3)):
        row = [_wide(rng) for _ in range(n)]
        value = sum((a * x for a, x in zip(row, anchor)), Fraction(0))
        u = rng.random()
        if u < 0.15:
            E.append(row)
            d.append(value)
        elif u < 0.25:
            A.append([Fraction(0)] * n)
            b.append(Fraction(rng.randint(0, 3), rng.choice(DENOMINATORS)))
        else:
            A.append(row)
            b.append(value + rng.choice((0, Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS)))))
    if rng.random() < 0.3:
        j = rng.randint(0, n)
        A = [row[:j] + [Fraction(0)] + row[j:] for row in A]
        E = [row[:j] + [Fraction(0)] + row[j:] for row in E]
        n += 1
    return HPolyhedron(tuple(map(tuple, A)), tuple(b), tuple(map(tuple, E)), tuple(d), n)


def _oracle_hull(P: HPolyhedron, x) -> list:
    V = h_to_v(P)
    return sorted({vsub(p, x) for p in V.points if any(c != 0 for c in vsub(p, x))}
                  | set(V.rays))


def _oracle_normal(P: HPolyhedron, x) -> list:
    imp = implicit_rows(P)
    gens = set()
    for i, (row, beta) in enumerate(zip(P.A, P.b)):
        if not any(row):
            continue
        if i in imp:
            gens |= {row, vneg(row)}
        elif dot(row, x) == beta:
            gens.add(row)
    for row in P.E:
        if any(row):
            gens |= {row, vneg(row)}
    return sorted(gens)


def _oracle_lp(gens: list):
    """The cone LP of `is_subspace`, or None when there are no generators."""
    if not gens:
        return None
    _, ints = common_ints(gens)
    return [scaled_ints(g) for g in gens], (1, [-sum(col) for col in zip(*ints)])


def test_integer_cone_rows_match_the_fraction_construction(monkeypatch):
    posed = []

    def spy(rows, cost):
        posed.append(([(L, list(g)) for L, g in rows], cost))
        return real(rows, cost)

    real = relint._cone_contains
    monkeypatch.setattr(relint, "_cone_contains", spy)
    rng = random.Random(2021)
    seen = set()
    for _ in range(150):
        P = _cone_case(rng)
        if is_empty(P):
            continue
        V = h_to_v(P)
        center = ri_point(P)
        points = [center, *V.points]
        points += [tuple((c + p) / 2 for c, p in zip(center, q)) for q in V.points]
        # A generator point minus a direction: for a line's direction it
        # stays in the set, and shifts that point onto the direction.
        points += [vsub(q, r) for q in V.points for r in V.rays]
        for x in points:
            if not P.contains(x):
                continue
            hull = _oracle_hull(P, x)
            normal = _oracle_normal(P, x)
            for predicate, gens in ((in_iri, hull), (in_qri, normal)):
                posed.clear()
                predicate(P, x)
                assert posed == ([] if not gens else [_oracle_lp(gens)]), (P, x)
            assert conic_hull_at(P, x) == PolyCone(tuple(hull), P.dim)
            assert normal_cone(P, x) == PolyCone(tuple(normal), P.dim)
            seen.add(("vertex", x in V.points))
            seen.add(("point on a direction",
                      any(vsub(p, x) in V.rays for p in V.points)))
            seen.add(("line", any(vneg(r) in V.rays for r in V.rays)))
            seen.add(("zero row", any(not any(row) for row in P.A)))
            seen.add(("equality", bool(P.E)))
            seen.add(("wide", any(c.denominator > 90 for g in hull + normal for c in g)))
    kinds = ("vertex", "point on a direction", "line", "zero row", "equality", "wide")
    assert {(kind, True) for kind in kinds} <= seen
