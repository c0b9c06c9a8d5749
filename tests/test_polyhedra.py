"""Representation conversions and structural set operations."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_nonempty_hpoly, random_matrix
from relint_kit import polyhedra
from relint_kit.errors import EmptySetError, InputError
from relint_kit.linalg import solve_linear_system
from relint_kit.polyhedra import (
    AffineFlat,
    HPolyhedron,
    VPolyhedron,
    affine_hull,
    contains_v_member,
    dim,
    feasible_point,
    flat_to_hpoly,
    flats_equal,
    h_to_v,
    implicit_rows,
    is_empty,
    linear_image,
    minkowski_diff,
    product,
    same_set,
    v_member,
    v_to_h,
)
from relint_kit.rational import dot, mat, matvec, vec

TRIANGLE = HPolyhedron.make(A=[[-1, 0], [0, -1], [1, 1]], b=[0, 0, 1])
UNIT_SQUARE = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 1, 0])
INTERVAL = HPolyhedron.make(A=[[1], [-1]], b=[1, 0])


def test_is_empty_cases():
    assert is_empty(HPolyhedron.make(A=[[1], [-1]], b=[0, -1]))
    assert not is_empty(UNIT_SQUARE)
    assert UNIT_SQUARE.contains(feasible_point(UNIT_SQUARE))
    assert is_empty(HPolyhedron.make(E=[[1], [1]], d=[0, 1], dim=1))


def test_triangle_vertices_against_pairwise_intersections():
    # Oracle: intersect constraint rows pairwise and keep feasible points.
    rows = list(zip(TRIANGLE.A, TRIANGLE.b))
    expected = set()
    for (a1, b1), (a2, b2) in combinations(rows, 2):
        sol = solve_linear_system((a1, a2), (b1, b2), 2)
        if sol is not None and not sol.nullspace_basis:
            if TRIANGLE.contains(sol.particular):
                expected.add(sol.particular)
    V = h_to_v(TRIANGLE)
    assert set(V.points) == expected == {vec([0, 0]), vec([1, 0]), vec([0, 1])}
    assert V.rays == ()


def test_halfline_generators():
    V = h_to_v(HPolyhedron.make(A=[[-1]], b=[0]))
    assert V.points == (vec([0]),)
    assert V.rays == (vec([1]),)


def test_line_becomes_opposite_ray_pair():
    V = h_to_v(HPolyhedron.make(E=[[1, 0]], d=[0], dim=2))
    assert V.points == (vec([0, 0]),)
    assert set(V.rays) == {vec([0, 1]), vec([0, -1])}


def test_h_to_v_empty_gives_no_generators():
    V = h_to_v(HPolyhedron.make(A=[[1], [-1]], b=[0, -1]))
    assert V.points == () and V.rays == ()
    assert V.is_empty_set


def test_v_to_h_triangle_round_trip():
    H = v_to_h(VPolyhedron.make(points=[[0, 0], [1, 0], [0, 1]]))
    assert same_set(H, TRIANGLE)


def test_v_to_h_single_point():
    H = v_to_h(VPolyhedron.make(points=[[1, 2]]))
    assert same_set(H, HPolyhedron.singleton(vec([1, 2])))


def test_v_to_h_point_plus_ray():
    H = v_to_h(VPolyhedron.make(points=[[0]], rays=[[1]]))
    assert same_set(H, HPolyhedron.make(A=[[-1]], b=[0]))


def test_v_to_h_empty():
    H = v_to_h(VPolyhedron.make(rays=[[1]], dim=1))
    assert is_empty(H)


def test_round_trip_on_random_instances():
    rng = random.Random(3)
    for _ in range(100):
        P = random_nonempty_hpoly(rng, rng.randint(1, 4), rng.randint(1, 8))
        V = h_to_v(P)
        assert contains_v_member(P, V)
        back = v_to_h(V)
        assert same_set(P, back)
        if not V.is_empty_set:
            assert v_member(V, feasible_point(P))


def test_affine_hull_square_in_plane_slice():
    # Unit square embedded in the plane z = 0 inside R^3; the z rows are
    # implicit inequalities rather than explicit equalities.
    P = HPolyhedron.make(
        A=[[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        b=[1, 0, 1, 0, 0, 0],
    )
    flat = affine_hull(P)
    assert flat.flat_dim == 2
    e3 = vec([0, 0, 1])
    assert all(dot(d, e3) == 0 for d in flat.directions)
    assert dim(P) == 2


def test_affine_hull_singleton_and_full():
    flat = affine_hull(HPolyhedron.singleton(vec([1, 2])))
    assert flat.flat_dim == 0
    assert flat.basepoint == vec([1, 2])
    assert affine_hull(UNIT_SQUARE).flat_dim == 2
    assert dim(HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[1, 0], E=[[0, 1]], d=[0])) == 1
    assert dim(TRIANGLE) == 2


def test_affine_hull_requires_nonempty():
    with pytest.raises(EmptySetError):
        affine_hull(HPolyhedron.make(A=[[1], [-1]], b=[0, -1]))


def test_affine_hull_idempotent():
    rng = random.Random(5)
    for _ in range(30):
        P = random_nonempty_hpoly(rng, rng.randint(1, 4), rng.randint(1, 6))
        flat = affine_hull(P)
        again = affine_hull(flat_to_hpoly(flat))
        assert flats_equal(flat, again)


def test_linear_image_projection():
    img = linear_image(mat([[1, 0]]), UNIT_SQUARE)
    assert same_set(img, INTERVAL)


def test_linear_image_identity():
    img = linear_image(mat([[1, 0], [0, 1]]), UNIT_SQUARE)
    assert same_set(img, UNIT_SQUARE)


def test_linear_image_sum_functional_on_triangle():
    # Oracle: the image of a polytope is the convex hull of vertex images.
    M = mat([[1, 1]])
    vertex_images = sorted(matvec(M, v)[0] for v in h_to_v(TRIANGLE).points)
    img = linear_image(M, TRIANGLE)
    assert same_set(
        img,
        HPolyhedron.make(A=[[1], [-1]], b=[vertex_images[-1], -vertex_images[0]]),
    )
    assert same_set(img, INTERVAL)


def test_linear_image_functorial():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 3)
        P = random_nonempty_hpoly(rng, n, n + 3)
        B = random_matrix(rng, rng.randint(1, 3), n)
        A = random_matrix(rng, rng.randint(1, 3), len(B))
        AB = tuple(
            tuple(dot(vec([A[i][k] for k in range(len(B))]),
                      vec([B[k][j] for k in range(len(B))]))
                  for j in range(n))
            for i in range(len(A))
        )
        assert same_set(linear_image(AB, P), linear_image(A, linear_image(B, P)))


def test_linear_image_dimension_mismatch():
    with pytest.raises(InputError):
        linear_image(mat([[1, 0, 0]]), UNIT_SQUARE)


def test_minkowski_diff_interval():
    # Oracle: endpoint differences of [0,1] - [0,1] span [-1, 1].
    diffs = [p - q for p in (Fraction(0), Fraction(1)) for q in (Fraction(0), Fraction(1))]
    D = minkowski_diff(INTERVAL, INTERVAL)
    assert same_set(D, HPolyhedron.make(A=[[1], [-1]], b=[max(diffs), -min(diffs)]))


def test_minkowski_diff_zero_is_identity():
    D = minkowski_diff(UNIT_SQUARE, HPolyhedron.singleton(vec([0, 0])))
    assert same_set(D, UNIT_SQUARE)


def test_minkowski_diff_point_minus_square():
    D = minkowski_diff(HPolyhedron.singleton(vec([0, 0])), UNIT_SQUARE)
    expected = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[0, 1, 0, 1])
    assert same_set(D, expected)


def test_minkowski_diff_generator_soundness():
    rng = random.Random(13)
    for _ in range(15):
        P1 = random_nonempty_hpoly(rng, 2, 4)
        P2 = random_nonempty_hpoly(rng, 2, 4)
        D = minkowski_diff(P1, P2)
        V1, V2 = h_to_v(P1), h_to_v(P2)
        for p in V1.points:
            for q in V2.points:
                assert D.contains(vec([a - b for a, b in zip(p, q)]))
        # Every vertex of the difference decomposes as w1 - w2 by LP.
        for w in h_to_v(D).points:
            shifted = minkowski_diff(P2, HPolyhedron.singleton(tuple(-c for c in w)))
            assert not is_empty(
                HPolyhedron(
                    P1.A + shifted.A, P1.b + shifted.b,
                    P1.E + shifted.E, P1.d + shifted.d, P1.dim,
                )
            )


def test_product_square():
    prod = product(INTERVAL, INTERVAL)
    assert same_set(prod, UNIT_SQUARE)


def test_product_with_point_embeds():
    prod = product(INTERVAL, HPolyhedron.singleton(vec([5])))
    assert prod.dim == 2
    V = h_to_v(prod)
    assert set(V.points) == {vec([0, 5]), vec([1, 5])}


def test_product_triangle_segment_prism():
    prod = product(TRIANGLE, INTERVAL)
    assert prod.dim == 3
    assert len(h_to_v(prod).points) == 6


def test_same_set_distinguishes():
    assert not same_set(UNIT_SQUARE, TRIANGLE)
    assert same_set(HPolyhedron.empty(2), HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[0, -1], dim=2))


def test_flat_membership():
    flat = AffineFlat(vec([1, 0]), (vec([0, 1]),), 2)
    assert flat.contains(vec([1, 5]))
    assert not flat.contains(vec([0, 0]))


def _implicit_by_generators(P):
    """Implicit rows read off the double-description generators alone."""
    V = h_to_v(P)
    return frozenset(
        i for i, (row, beta) in enumerate(zip(P.A, P.b))
        if all(dot(row, p) == beta for p in V.points)
        and all(dot(row, r) == 0 for r in V.rays)
    )


def _with_forced_rows(rng, P):
    """P plus an opposite-row pair through one of its generator points and
    the zero rows 0 <= 0 (implicit) and 0 <= 1 (never tight)."""
    p = h_to_v(P).points[0]
    row = tuple(Fraction(rng.randint(-2, 2)) for _ in range(P.dim))
    zero = tuple(Fraction(0) for _ in range(P.dim))
    extra = [(row, dot(row, p)), (tuple(-c for c in row), -dot(row, p)),
             (zero, Fraction(0)), (zero, Fraction(1))]
    rng.shuffle(extra)
    A = list(P.A) + [r for r, _ in extra]
    b = list(P.b) + [beta for _, beta in extra]
    return HPolyhedron(tuple(A), tuple(b), P.E, P.d, P.dim)


def test_implicit_rows_match_generator_oracle():
    rng = random.Random(1985)
    with_implicit = 0
    for trial in range(160):
        P = random_nonempty_hpoly(rng, rng.randint(1, 3), 6)
        if trial % 2:
            P = _with_forced_rows(rng, P)
        imp = implicit_rows(P)
        assert imp == _implicit_by_generators(P)
        with_implicit += bool(imp)
        hull = affine_hull(P)
        assert all(hull.contains(p) for p in h_to_v(P).points)
    assert with_implicit >= 80


def test_implicit_rows_solve_one_lp_per_round(monkeypatch):
    P = HPolyhedron.make(
        A=[[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        b=[1, 0, 1, 0, 0, 0],
    )
    for obj in vars(polyhedra).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    calls = []

    def counting(problem):
        calls.append(problem)
        return real(problem)

    real = polyhedra.lp_solve
    monkeypatch.setattr(polyhedra, "lp_solve", counting)
    imp = implicit_rows(P)
    assert imp == frozenset({4, 5})
    assert len(calls) <= 1 + len(imp)
