"""Graph and epigraph product rules, and interior commutation laws."""

import random
from fractions import Fraction

import pytest

from conftest import (
    random_map,
    random_matrix,
    random_nonempty_hpoly,
    random_pair,
    random_plfunction,
    same_set,
)
from relint_kit.errors import EmptySetError, InputError
from relint_kit.polyhedra import (
    HPolyhedron,
    h_to_v,
    is_empty,
    linear_image,
    minkowski_diff,
)
from relint_kit.rational import mat, vec
from relint_kit.relint import in_ri, ri_point
from relint_kit.sampling import sample_points
from relint_kit.setmaps import (
    PLConvexFunction,
    PolyhedralMap,
    epi_polyhedron,
    epi_quasireg_implies_dom,
    epi_relint_report,
    graph_ri_check,
    image_at,
    linear_image_ri_commutes,
    map_domain,
    set_difference_ri_commutes,
)

# F(x) = [0, x] on [0, 1]; its graph is the triangle 0 <= y <= x <= 1.
TRIANGLE_MAP = PolyhedralMap(
    HPolyhedron.make(A=[[1, 0], [-1, 0], [0, -1], [-1, 1]], b=[1, 0, 0, 0]), 1, 1
)
INTERVAL = HPolyhedron.make(A=[[1], [-1]], b=[1, 0])
UNIT_SQUARE = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 1, 0])


def test_map_domain_projection():
    assert same_set(map_domain(TRIANGLE_MAP), INTERVAL)


def test_map_domain_point_graph():
    F = PolyhedralMap(HPolyhedron.singleton(vec([0, 0])), 1, 1)
    assert same_set(map_domain(F), HPolyhedron.singleton(vec([0])))


def test_map_domain_unbounded_graph():
    F = PolyhedralMap(
        HPolyhedron.make(A=[[-1, 0]], b=[0], E=[[1, -1]], d=[0]), 1, 1
    )
    assert same_set(map_domain(F), HPolyhedron.make(A=[[-1]], b=[0]))


def test_image_at_slices():
    img = image_at(TRIANGLE_MAP, vec(["1/2"]))
    assert same_set(img, HPolyhedron.make(A=[[1], [-1]], b=["1/2", 0]))
    assert is_empty(image_at(TRIANGLE_MAP, vec([2])))
    degenerate = image_at(TRIANGLE_MAP, vec([0]))
    assert same_set(degenerate, HPolyhedron.singleton(vec([0])))


def test_slice_consistency_with_graph_membership():
    rng = random.Random(71)
    for _ in range(20):
        F = random_map(rng, 2, 2)
        for pair in sample_points(F.graph, seed=4)[:5]:
            x, y = pair[: F.m], pair[F.m:]
            assert image_at(F, x).contains(y)
            assert F.graph.contains(x + y)


def test_graph_rule_interior_pair():
    rep = graph_ri_check(TRIANGLE_MAP, vec(["1/2"]), vec(["1/4"]))
    assert rep.lhs and rep.rhs and rep.product_rule_holds


def test_graph_rule_boundary_pair():
    rep = graph_ri_check(TRIANGLE_MAP, vec(["1/2"]), vec([0]))
    assert not rep.lhs and not rep.rhs and rep.product_rule_holds


def test_graph_rule_degenerate_corner():
    # x = 0 is outside ri(dom F) even though y = 0 lies in ri(F(0)) = {0};
    # both conditions are needed and both sides come out false.
    rep = graph_ri_check(TRIANGLE_MAP, vec([0]), vec([0]))
    assert not rep.lhs and not rep.rhs and rep.product_rule_holds
    assert in_ri(image_at(TRIANGLE_MAP, vec([0])), vec([0]))
    assert not in_ri(map_domain(TRIANGLE_MAP), vec([0]))


def test_graph_rule_random_instances():
    rng = random.Random(73)
    for _ in range(40):
        F = random_map(rng)
        for pair in sample_points(F.graph, seed=6)[:5]:
            rep = graph_ri_check(F, pair[: F.m], pair[F.m:])
            assert rep.product_rule_holds
            assert rep.graph_regular_inclusion_ok
            assert rep.domain_regular_inclusion_ok
            assert rep.both_regular_equality_ok


def test_graph_rule_empty_graph_rejected():
    F = PolyhedralMap(HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[0, -1], dim=2), 1, 1)
    with pytest.raises(EmptySetError):
        graph_ri_check(F, vec([0]), vec([0]))


def test_map_dimension_validation():
    with pytest.raises(InputError):
        PolyhedralMap(UNIT_SQUARE, 1, 2)


def test_epi_polyhedron_abs():
    f = PLConvexFunction(((vec([1]), Fraction(0)), (vec([-1]), Fraction(0))),
                         HPolyhedron.whole_space(1))
    epi = epi_polyhedron(f)
    expected = HPolyhedron.make(A=[[1, -1], [-1, -1]], b=[0, 0])
    assert same_set(epi, expected)


def test_epi_polyhedron_affine_on_interval():
    f = PLConvexFunction(((vec([2]), Fraction(1)),), INTERVAL)
    epi = epi_polyhedron(f)
    expected = HPolyhedron.make(A=[[1, 0], [-1, 0], [2, -1]], b=[1, 0, -1])
    assert same_set(epi, expected)


def test_epi_polyhedron_hinge():
    dom = HPolyhedron.make(A=[[1], [-1]], b=[3, 0])
    f = PLConvexFunction(((vec([0]), Fraction(0)), (vec([1]), Fraction(-1))), dom)
    epi = epi_polyhedron(f)
    assert epi.dim == 2
    assert f.value(vec([0])) == 0
    assert f.value(vec([3])) == 2
    assert epi.contains(vec([2, 1])) and not epi.contains(vec([2, "1/2"]))


def test_epi_report_abs_interior_and_boundary():
    f = PLConvexFunction(((vec([1]), Fraction(0)), (vec([-1]), Fraction(0))),
                         HPolyhedron.whole_space(1))
    rep = epi_relint_report(f, vec([0]), Fraction(1))
    assert rep.lhs_ri and rep.rhs_ri and rep.all_asserted_hold
    rep = epi_relint_report(f, vec([1]), Fraction(1))
    assert not rep.lhs_ri and not rep.rhs_ri and rep.all_asserted_hold


def test_epi_report_single_piece_tagged():
    f = PLConvexFunction(((vec([2]), Fraction(1)),), INTERVAL)
    rep = epi_relint_report(f, vec(["1/2"]), Fraction(3))
    assert rep.single_affine_piece
    assert rep.lhs_ri and rep.rhs_ri
    assert rep.qri_equality_under_regularity_ok and rep.all_asserted_hold


def test_epi_report_random_instances():
    rng = random.Random(79)
    for _ in range(30):
        f = random_plfunction(rng)
        xs = list(h_to_v(f.domain).points)[:3] + [ri_point(f.domain)]
        for x in xs:
            fx = f.value(x)
            for level in (fx, fx + 1):
                assert epi_relint_report(f, x, level).all_asserted_hold


def test_epi_quasireg_implication():
    f = PLConvexFunction(((vec([1]), Fraction(0)), (vec([-1]), Fraction(0))),
                         HPolyhedron.whole_space(1))
    assert epi_quasireg_implies_dom(f).implication_holds
    # Lower-dimensional domain: the epigraph has empty interior but a
    # nonempty relative interior.
    seg = HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[1, 0], E=[[0, 1]], d=[0])
    g = PLConvexFunction(((vec([0, 0]), Fraction(0)),), seg)
    rep = epi_quasireg_implies_dom(g)
    assert rep.implication_holds and rep.epi_quasi_regular and rep.dom_quasi_regular
    from relint_kit.polyhedra import dim as poly_dim

    assert poly_dim(epi_polyhedron(g)) < epi_polyhedron(g).dim


def test_function_value_outside_domain_rejected():
    f = PLConvexFunction(((vec([1]), Fraction(0)),), INTERVAL)
    with pytest.raises(InputError):
        f.value(vec([5]))


def test_image_commutes_projection_of_square():
    rep = linear_image_ri_commutes(mat([[1, 0]]), UNIT_SQUARE)
    assert rep.holds
    assert in_ri(linear_image(mat([[1, 0]]), UNIT_SQUARE), vec(["1/2"]))


def test_image_commutes_identity():
    rep = linear_image_ri_commutes(mat([[1, 0], [0, 1]]), UNIT_SQUARE)
    assert rep.holds


def test_image_commutes_sum_functional_on_triangle():
    tri = HPolyhedron.make(A=[[-1, 0], [0, -1], [1, 1]], b=[0, 0, 1])
    rep = linear_image_ri_commutes(mat([[1, 1]]), tri)
    assert rep.holds
    assert rep.lifted_point is not None
    assert in_ri(tri, rep.lifted_point)


def test_image_commutes_random_instances():
    rng = random.Random(83)
    for _ in range(30):
        n = rng.randint(1, 3)
        P = random_nonempty_hpoly(rng, n, n + 3)
        M = random_matrix(rng, rng.randint(1, 3), n)
        assert linear_image_ri_commutes(M, P).holds


def test_difference_commutes_interval():
    rep = set_difference_ri_commutes(INTERVAL, INTERVAL)
    assert rep.holds


def test_difference_commutes_square_minus_segment():
    seg = HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[1, 0], E=[[0, 1]], d=[0])
    rep = set_difference_ri_commutes(UNIT_SQUARE, seg)
    assert rep.holds
    D = minkowski_diff(UNIT_SQUARE, seg)
    assert same_set(
        D, HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 1, 1, 0])
    )


def test_difference_commutes_random_instances():
    rng = random.Random(89)
    for _ in range(20):
        P1, P2 = random_pair(rng, rng.randint(1, 2), 4)
        assert set_difference_ri_commutes(P1, P2).holds
