"""Representation conversions and structural set operations."""

import ast
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from conftest import (
    brute_force_vertices,
    fraction_linear_image,
    fraction_minkowski_diff,
    matvec,
    primal_cone_contains,
    primitive_int,
    random_cone_rows,
    random_matrix,
    random_nonempty_hpoly,
    recession_contains,
    same_set,
    v_member,
    vneg,
)
from relint_kit import polyhedra
from relint_kit.dd import _sign_canonical, dd_cone, dd_lineality
from relint_kit.errors import EmptySetError, InputError
from relint_kit.linalg import in_span, rank, solve_linear_system
from relint_kit.lp import FarkasCertificate, LPProblem, verify_farkas
from relint_kit.polyhedra import (
    AffineFlat,
    HPolyhedron,
    PolyCone,
    VPolyhedron,
    affine_hull,
    cone_contains,
    dim,
    h_to_v,
    implicit_rows,
    is_empty,
    linear_image,
    minkowski_diff,
    product,
    v_to_h,
)
from relint_kit.rational import dot, mat, unit, vec, vsub, zeros
from relint_kit.relint import ri_point

TRIANGLE = HPolyhedron.make(A=[[-1, 0], [0, -1], [1, 1]], b=[0, 0, 1])
UNIT_SQUARE = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 1, 0])
INTERVAL = HPolyhedron.make(A=[[1], [-1]], b=[1, 0])


# -- oracles: plain evaluation and elimination, no LP --------------------------


def contains_v_member(P: HPolyhedron, V: VPolyhedron) -> bool:
    """Every generator of V consistent with P: points inside, rays receding."""
    return all(P.contains(p) for p in V.points) and all(
        recession_contains(P, r) for r in V.rays
    )


def flat_to_hpoly(flat: AffineFlat) -> HPolyhedron:
    """The flat as an equality-only H-polyhedron whose normals span the
    orthogonal complement of its directions."""
    if flat.directions:
        sol = solve_linear_system(flat.directions, zeros(len(flat.directions)), flat.dim)
        normals = sol.nullspace_basis
    else:
        normals = tuple(unit(flat.dim, j) for j in range(flat.dim))
    d = tuple(dot(nrm, flat.basepoint) for nrm in normals)
    return HPolyhedron((), (), normals, d, flat.dim)


def flats_equal(f1: AffineFlat, f2: AffineFlat) -> bool:
    if f1.dim != f2.dim or f1.flat_dim != f2.flat_dim:
        return False
    return f1.contains(f2.basepoint) and f2.contains(f1.basepoint) and all(
        in_span(f1.directions, v) for v in f2.directions
    )


def test_is_empty_cases():
    assert is_empty(HPolyhedron.make(A=[[1], [-1]], b=[0, -1]))
    assert not is_empty(UNIT_SQUARE)
    assert UNIT_SQUARE.contains(ri_point(UNIT_SQUARE))
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
    assert VPolyhedron.make(rays=[[1, 0, 0]]).dim == 3  # dimension from the rays


def test_round_trip_on_random_instances():
    rng = random.Random(3)
    for _ in range(100):
        P = random_nonempty_hpoly(rng, rng.randint(1, 4), rng.randint(1, 8))
        V = h_to_v(P)
        assert contains_v_member(P, V)
        back = v_to_h(V)
        assert same_set(P, back)
        if not V.is_empty_set:
            assert v_member(V, ri_point(P))


def test_cone_contains_matches_the_primal_oracle():
    # cone_contains asks whether the Farkas dual max v·y, g·y <= 0 is
    # bounded; the oracle solves the primal Σλ_i g_i = v, λ >= 0 on a
    # simplex of its own.  Draws cover dimension 0, no generators, zero
    # generators, v = 0 and v a nonnegative combination.
    rng = random.Random(1501)

    def rat():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    seen = set()
    for i in range(600):
        n, k = i % 5, rng.randint(0, 5)
        gens = [tuple([rat() for _ in range(n)]) for _ in range(k)]
        if gens and rng.random() < 0.2:
            gens[rng.randrange(k)] = zeros(n)
        mode = rng.choice(("zero", "combination", "random"))
        if mode == "zero":
            v = zeros(n)
        elif mode == "combination":
            v = zeros(n)
            for g in gens:
                t = Fraction(rng.randint(0, 3), rng.randint(1, 2))
                v = tuple([a + t * b for a, b in zip(v, g)])
        else:
            v = tuple([rat() for _ in range(n)])
        C = PolyCone(tuple(gens), n)
        inside = cone_contains(C, v)
        assert inside == primal_cone_contains(C, v), (C, v)
        assert inside or mode == "random", (C, v)
        seen.add((n > 0, k > 0, inside))
    assert seen == {(a, b, c) for a in (False, True) for b in (False, True)
                    for c in (False, True)} - {(False, True, False), (False, False, False)}


def test_dd_cone_rays_are_extreme():
    # Checks each output against its definition with rational dot products
    # and `rank`, so the adjacency test inside dd_cone is not reused here.
    rng = random.Random(4007)
    rays_seen = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = random_cone_rows(rng, n)
        lineality, rays = dd_cone([primitive_int(r) for r in rows], n)
        lin = [vec(l) for l in lineality]
        assert rank(lin) == len(lin) == n - rank(rows)
        assert all(dot(m, l) == 0 for m in rows for l in lin)
        target = n - len(lin) - 1
        for r in rays:
            r = vec(r)
            values = [dot(m, r) for m in rows]
            assert all(v <= 0 for v in values)
            assert rank([m for m, v in zip(rows, values) if v == 0]) == target
        for r1, r2 in combinations(rays, 2):
            r1, r2 = vec(r1), vec(r2)
            assert not (rank([r1, r2]) == 1 and dot(r1, r2) > 0)
        rays_seen += len(rays)
    assert rays_seen >= 500


def test_sign_canonical_gives_a_positive_leading_entry():
    assert _sign_canonical((0, -2, 1)) == (0, 2, -1)
    assert _sign_canonical((0, 3, -1)) == (0, 3, -1)
    # Never a lineality vector, but still a vector and not None.
    assert _sign_canonical((0, 0)) == (0, 0)


def _degenerate_polytopes() -> list[HPolyhedron]:
    """Bounded polytopes with vertices on more facets than their dimension:
    a square pyramid's apex, pyramids over a cube and an octahedron, the
    octahedron, duplicated and scaled rows, and slices by equality rows.
    In the octahedron slices double description meets non-adjacent pairs
    of which neither ray is simple."""
    unit = [[1 if i == j else 0 for i in range(3)] for j in range(3)]
    pyramid_A = [[0, 0, -1], [-1, 0, 1], [0, -1, 1], [1, 0, 1], [0, 1, 1]]
    pyramid_b = [0, 0, 0, 2, 2]
    octahedron_A = [[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    cube_pyramid_A = [[0, 0, 0, -1]] + [[-a for a in u] + [1] for u in unit] + [
        u + [1] for u in unit]
    octahedron_pyramid_A = [[0, 0, 0, -1]] + [row + [1] for row in octahedron_A]
    return [
        HPolyhedron.make(A=pyramid_A, b=pyramid_b),
        # A duplicated row, a scaled copy and a looser parallel row.
        HPolyhedron.make(A=pyramid_A + [pyramid_A[1], [-2, 0, 2], [1, 0, 1]],
                         b=pyramid_b + [0, 0, 3]),
        HPolyhedron.make(A=cube_pyramid_A, b=[0, 0, 0, 0, 2, 2, 2]),
        HPolyhedron.make(A=octahedron_A, b=[1] * 8),
        HPolyhedron.make(A=octahedron_pyramid_A, b=[0] + [1] * 8),
        # Equality slices, one equality given twice, scaled.
        HPolyhedron.make(A=octahedron_A, b=[1] * 8, E=[[1, -1, 0]], d=[0]),
        HPolyhedron.make(A=unit + [[-a for a in u] for u in unit], b=[1] * 6,
                         E=[[1, 1, 1], [2, 2, 2]], d=[0, 0]),
        HPolyhedron.make(A=octahedron_pyramid_A, b=[0] + [1] * 8, E=[[1, 0, 0, -1]], d=[0]),
        HPolyhedron.make(A=pyramid_A, b=pyramid_b, E=[[0, 0, 2]], d=[1]),
    ]


def test_h_to_v_points_are_the_brute_force_vertices():
    # Completeness as well as extremality: `h_to_v` of a bounded polytope
    # lists every vertex exactly once and nothing else, against an oracle
    # that solves row subsets by `Fraction` elimination.
    rng = random.Random(4011)
    cases = _degenerate_polytopes()
    for _ in range(200):
        n = rng.randint(1, 4)
        P = random_nonempty_hpoly(rng, n, 5)
        # x >= -2 and Σx <= 2n bound P and keep its lattice anchor.
        A = list(P.A) + [[-1 if i == j else 0 for i in range(n)] for j in range(n)] + [[1] * n]
        b = list(P.b) + [2] * n + [2 * n]
        if P.A and rng.random() < 0.3:
            k = rng.randrange(len(P.A))
            t = rng.choice((1, 2, Fraction(1, 3)))
            A.append([t * a for a in P.A[k]])
            b.append(t * P.b[k])
        cases.append(HPolyhedron.make(A=A, b=b, E=P.E, d=P.d, dim=n))
    counts = []
    for P in cases:
        V = h_to_v(P)
        assert V.rays == (), P
        assert len(set(V.points)) == len(V.points), P
        assert set(V.points) == brute_force_vertices(P), P
        counts.append(len(V.points))
    assert counts[:9] == [5, 5, 9, 6, 7, 4, 6, 5, 4]
    assert sum(counts) >= 900


def test_vertex_oracle_imports_nothing_from_the_solver():
    """`brute_force_vertices` and its elimination name nothing that
    `conftest` imports from the package."""
    tree = ast.parse(Path(conftest.__file__).read_text())
    package_names = {alias.asname or alias.name for node in tree.body
                     if isinstance(node, ast.ImportFrom)
                     and (node.module or "").startswith("relint_kit")
                     for alias in node.names}
    used = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in ("brute_force_vertices",
                                                                "_unique_solution"):
            used |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    assert "_unique_solution" in used
    assert used & package_names == set()


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
    with pytest.raises(InputError, match="row 1 has length 1,"):
        linear_image(((Fraction(1), Fraction(0)), (Fraction(1),)), UNIT_SQUARE)
    with pytest.raises(InputError, match="^matrix: entry "):
        linear_image(((0.5, 0),), UNIT_SQUARE)


# Small H-polyhedra: rows with entries of denominator up to 7, some of them
# equalities; empty draws and free coordinates (lines) both occur.
_entries = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def small_hpolys(draw, dim):
    rows = draw(st.lists(st.tuples(st.lists(_entries, min_size=dim, max_size=dim),
                                   _entries, st.booleans()), max_size=dim + 2))
    A = tuple(tuple(row) for row, _, eq in rows if not eq)
    b = tuple(beta for _, beta, eq in rows if not eq)
    E = tuple(tuple(row) for row, _, eq in rows if eq)
    d = tuple(beta for _, beta, eq in rows if eq)
    return HPolyhedron(A, b, E, d, dim)


@st.composite
def image_instances(draw):
    n = draw(st.integers(0, 3))
    wide = st.fractions(min_value=-9, max_value=9, max_denominator=97)
    M = draw(st.lists(st.lists(wide, min_size=n, max_size=n), max_size=3))
    return tuple(tuple(row) for row in M), draw(small_hpolys(n))


@st.composite
def difference_instances(draw):
    n = draw(st.integers(0, 3))
    return draw(small_hpolys(n)), draw(small_hpolys(n))


@settings(max_examples=60, deadline=None)
@given(image_instances())
def test_linear_image_matches_the_fraction_route(instance):
    M, P = instance
    assert linear_image(M, P) == fraction_linear_image(M, P)


@settings(max_examples=60, deadline=None)
@given(difference_instances())
def test_minkowski_diff_matches_the_fraction_route(pair):
    P1, P2 = pair
    assert minkowski_diff(P1, P2) == fraction_minkowski_diff(P1, P2)


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


def _difference_operand(rng: random.Random, n: int, kind: str) -> HPolyhedron:
    """A random nonempty set in R^n of one kind: `bounded` (boxed in
    [-2, 2]^n), `up` or `down` (bounded below or above in every coordinate,
    so line-free with its recession cone in the nonnegative or nonpositive
    orthant), and a bounded set in R^(n-1) lifted by a free last coordinate
    (`line`) or by an equality row that fixes it (`flat`)."""
    if kind in ("line", "flat"):
        P = _difference_operand(rng, n - 1, "bounded")
        A = tuple(row + (Fraction(0),) for row in P.A)
        if kind == "line":
            return HPolyhedron(A, P.b, (), (), n)
        row = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n - 1)) + (Fraction(1),)
        return HPolyhedron(A, P.b, (row,), (Fraction(0),), n)
    P = random_nonempty_hpoly(rng, n, n + 2, eq_prob=0)
    eye = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    box = eye if kind != "up" else []
    box += [tuple(-a for a in row) for row in eye] if kind != "down" else []
    return HPolyhedron(P.A + tuple(box), P.b + (Fraction(2),) * len(box), (), (), n)


def test_minkowski_diff_of_each_operand_kind_matches_the_fraction_route():
    # The exact-equality check of `test_minkowski_diff_matches_the_fraction_route`
    # on each kind of operand pair, and on the bounded ones in dimensions 2
    # and 3 the vertex oracle: every vertex of the difference is a
    # difference of vertices.
    rng = random.Random(2027)
    kinds = [("bounded", "bounded"), ("same", "same"), ("up", "down"), ("bounded", "down"),
             ("up", "bounded"), ("line", "bounded"), ("bounded", "line"), ("flat", "flat"),
             ("flat", "bounded")]
    checked, vertex_checks = set(), 0
    for n in (2, 3, 4):
        for k1, k2 in kinds * 3:
            P1 = _difference_operand(rng, n, "bounded" if k1 == "same" else k1)
            P2 = P1 if k2 == "same" else _difference_operand(rng, n, k2)
            if is_empty(P1) or is_empty(P2):
                continue
            D = minkowski_diff(P1, P2)
            assert D == fraction_minkowski_diff(P1, P2), (n, k1, k2)
            checked.add((k1, k2))
            V1, V2 = h_to_v(P1), h_to_v(P2)
            # The vertex oracle tries every subset of up to n rows; in
            # dimension 4 the results have too many rows for it.
            if not V1.rays and not V2.rays and n < 4:
                vertex_checks += 1
                points = {vsub(p1, p2) for p1 in V1.points for p2 in V2.points}
                assert brute_force_vertices(D) <= points
    assert vertex_checks > 20
    assert checked == set(kinds)


def _product_factor(rng: random.Random, n: int, kind: str) -> HPolyhedron:
    """A set in R^n for `product`'s preset: `_image_case`'s sets (lines,
    equality rows, redundant rows, half-integral vertices), an empty set,
    a singleton with coordinates in halves, quarters and sixths, or R^0
    and the empty set in R^0 when n = 0."""
    if n == 0:
        return HPolyhedron.whole_space(0) if kind != "empty" else HPolyhedron.empty(0)
    if kind == "empty":
        return HPolyhedron.empty(n)
    if kind == "singleton":
        return HPolyhedron.singleton(
            tuple(Fraction(rng.randint(-3, 3), rng.choice((2, 4, 6))) for _ in range(n)))
    return _image_case(rng, n, {k: 0 for k in ("scaled", "shifted", "zero", "one")})


def test_product_presets_the_generators_and_incidence_of_its_rows():
    # `product` sets its generators and incidence from its factors', with
    # no double description.  The preset generators span the cone that
    # double description finds for the same rows in a plain `HPolyhedron`:
    # each satisfies the homogenized rows, each of the plain generators is
    # a nonnegative combination of them (the `FractionSimplex` oracle), and
    # they are as many.  Each mask is the generators its row is tight at,
    # by integer dot products.  The preset integer rows are those
    # recomputed from the `Fraction` rows, and each point is the pair
    # (t2·x1, t1·x2, t1·t2) of its factors' points, made primitive: the
    # two share their t, or not, and then at times a factor of it.
    rng = random.Random(3135)
    seen = {k: 0 for k in ("line", "equality", "empty", "singleton", "dimension 0",
                           "same t > 1", "different t", "common factor")}
    for _ in range(120):
        n1, n2 = rng.randint(0, 3), rng.randint(0, 3)
        P1, P2 = (_product_factor(rng, n, rng.choice(("set", "set", "set", "empty", "singleton")))
                  for n in (n1, n2))
        prod = product(P1, P2)
        points, directions = prod.__dict__["_int_generators"]
        masks = prod.__dict__["_incidence"]
        plain = HPolyhedron(prod.A, prod.b, prod.E, prod.d, prod.dim)
        assert prod.__dict__["_int_rows"] == plain._int_rows
        pairs = [(g1, g2) for g1 in P1._int_generators[0] for g2 in P2._int_generators[0]]
        assert points == tuple(
            primitive_int([*[g2[-1] * a for a in g1[:-1]], *[g1[-1] * c for c in g2[:-1]],
                           g1[-1] * g2[-1]])
            for g1, g2 in pairs)
        seen["same t > 1"] += sum(g1[-1] == g2[-1] > 1 for g1, g2 in pairs)
        seen["different t"] += sum(g1[-1] != g2[-1] for g1, g2 in pairs)
        seen["common factor"] += sum(g1[-1] != g2[-1] and gcd(g1[-1], g2[-1]) > 1
                                     for g1, g2 in pairs)
        plain_points, plain_directions = plain._int_generators
        assert (len(points), len(directions)) == (len(plain_points), len(plain_directions))
        gens = points + directions
        ineq, eq = prod._int_rows
        for g in gens:
            assert all(sum(a * c for a, c in zip(h, g)) <= 0 for _, h in ineq)
            assert not any(sum(a * c for a, c in zip(h, g)) for _, h in eq)
            assert g[-1] >= 0
        cone = PolyCone(tuple(vec(g) for g in gens), prod.dim + 1)
        assert all(primal_cone_contains(cone, vec(g)) for g in plain_points + plain_directions)
        assert masks == tuple(
            sum(1 << j for j, g in enumerate(gens) if not sum(a * c for a, c in zip(h, g)))
            for _, h in ineq)
        seen["line"] += any(vneg(g) in directions for g in directions)
        seen["equality"] += bool(prod.E)
        seen["empty"] += not points
        seen["singleton"] += any("_interior" in P.__dict__ for P in (P1, P2))
        seen["dimension 0"] += 0 in (n1, n2)
    assert min(seen.values()) >= 5, seen


def _conversion_case(rng: random.Random, n: int) -> HPolyhedron:
    """A random nonempty set in R^n: the box [-l, u]^n with some bounds
    dropped (directions, lines among them), cut rows with coefficients
    +/-2 and odd right-hand sides (half-integral vertices), and now and
    then an equality row."""
    A, b = [], []
    for j in range(n):
        e = tuple(Fraction(int(i == j)) for i in range(n))
        for sign, bound in ((1, rng.randint(1, 3)), (-1, rng.randint(0, 3))):
            if rng.random() < 0.8:
                A.append(tuple(sign * a for a in e))
                b.append(Fraction(bound))
    for _ in range(rng.randint(0, 3)):
        row = tuple(Fraction(rng.choice((-2, 0, 0, 2))) for _ in range(n))
        if any(row):
            A.append(row)
            b.append(Fraction(2 * rng.randint(0, 2) + 1))
    E, d = (), ()
    if n > 1 and rng.random() < 0.2:
        E, d = ((Fraction(1),) * n,), (Fraction(rng.randint(-1, 1)),)
    return HPolyhedron(tuple(A), tuple(b), E, d, n)


def test_conversions_build_their_fractions_from_the_integers(monkeypatch):
    # `h_to_v` is `_sorted_generators` divided by t, and the rows of
    # `v_to_h` are the sorted output of its last `dd_cone` call: every
    # entry a `Fraction`, and within one answer equal entries from one
    # (k, q) the same object.  `linear_image` and `minkowski_diff` make no
    # `dd_cone` call once their operands' generators are cached, and build
    # their rows the same way.
    calls = []

    def spy(rows, n, *incidence):
        calls.append(dd_cone(rows, n, *incidence))
        return calls[-1]

    monkeypatch.setattr(polyhedra, "dd_cone", spy)

    def assert_shared(entries):
        assert all(type(f) is Fraction for f in entries)
        first = {}
        for f in entries:
            assert first.setdefault(f, f) is f

    def assert_dual_rows(H):
        lineality, rays = calls.pop()
        ineq = [r for r in sorted(rays) if any(r[:-1])]
        assert H.A == tuple(tuple(Fraction(k) for k in r[:-1]) for r in ineq)
        assert H.b == tuple(Fraction(-r[-1]) for r in ineq)
        assert H.E == tuple(tuple(Fraction(k) for k in r[:-1]) for r in sorted(lineality))
        assert H.d == tuple(Fraction(-r[-1]) for r in sorted(lineality))
        assert_rows_shared(H)

    def assert_rows_shared(H):
        assert_shared([*[f for row in H.A + H.E for f in row], *H.b, *H.d])

    rng = random.Random(2028)
    seen = {"fractional": 0, "rays": 0, "equalities": 0}
    for n in (1, 2, 3, 4):
        for _ in range(12):
            P = _conversion_case(rng, n)
            if is_empty(P):
                continue
            V = h_to_v(P)
            points, directions = P._sorted_generators
            assert V.points == tuple(tuple(Fraction(k, g[-1]) for k in g[:-1]) for g in points)
            assert V.rays == tuple(tuple(Fraction(k) for k in g[:-1]) for g in directions)
            entries = [f for v in V.points + V.rays for f in v]
            assert all(type(f) is Fraction for f in entries)
            by_pair = {}
            for g, v in zip(points + directions, V.points + V.rays):
                t = g[-1] or 1
                for k, f in zip(g, v):
                    assert by_pair.setdefault((k, t), f) is f
            seen["fractional"] += any(f.denominator > 1 for f in entries)
            seen["rays"] += bool(V.rays)
            H = v_to_h(V)
            assert_dual_rows(H)
            seen["equalities"] += bool(H.E)
            k = rng.randint(1, n)
            M = tuple(tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n))
                      for _ in range(k))
            made = len(calls)
            assert_rows_shared(linear_image(M, P))
            assert len(calls) == made
            Q = _conversion_case(rng, n)
            if not is_empty(Q):
                h_to_v(Q)
                made = len(calls)
                assert_rows_shared(minkowski_diff(P, Q))
                assert len(calls) == made
    assert min(seen.values()) >= 5, seen


def _image_case(rng: random.Random, n: int, seen: dict) -> HPolyhedron:
    """`_conversion_case` in R^n with rows that elimination must see
    through: a free coordinate (a line), a row held at equality by a pair
    (implicit), a duplicate scaled by a positive factor, a redundant
    shifted copy, and the rows 0·x <= 0 and 0·x <= 1."""
    P = _conversion_case(rng, n)
    A, b = list(P.A), list(P.b)
    if rng.random() < 0.3:
        j = rng.randrange(n)
        keep = [i for i, row in enumerate(A) if not row[j] or any(row[:j] + row[j + 1:])]
        A, b = [A[i] for i in keep], [b[i] for i in keep]
        A = [row[:j] + (Fraction(0),) + row[j + 1:] for row in A]
    if rng.random() < 0.25:
        row = tuple(Fraction(rng.randint(-1, 1)) for _ in range(n))
        A += [row, vneg(row)]
        b += [Fraction(0), Fraction(0)]
    for kind in ("scaled", "shifted", "zero", "one"):
        if rng.random() < 0.25 and A:
            i = rng.randrange(len(A))
            if kind == "scaled":
                t = Fraction(rng.randint(1, 3), rng.randint(1, 2))
                A.append(tuple(t * a for a in A[i]))
                b.append(t * b[i])
            elif kind == "shifted":
                A.append(A[i])
                b.append(b[i] + 1)
            else:
                A.append((Fraction(0),) * n)
                b.append(Fraction(kind == "one"))
            seen[kind] += 1
    return HPolyhedron(tuple(A), tuple(b), P.E, P.d, n)


def _image_matrix(rng: random.Random, n: int, seen: dict):
    """A k x n matrix, 0 <= k <= n + 1: rational entries, and at times a
    zero column or a row that is a sum of two others or zero, so that the
    rank falls short of k."""
    k = rng.randint(0, n + 1)
    M = [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(n)]
         for _ in range(k)]
    if k and rng.random() < 0.3:
        j = rng.randrange(n)
        for row in M:
            row[j] = Fraction(0)
        seen["zero column"] += 1
    if k > 1 and rng.random() < 0.3:
        r1, r2 = rng.choice(M), rng.choice(M)
        M[rng.randrange(k)] = [a + c for a, c in zip(r1, r2)]
    elif k and rng.random() < 0.1:
        M[rng.randrange(k)] = [Fraction(0)] * n
    seen["no rows"] += not k
    seen["rank-deficient"] += k > rank(M)
    return tuple(tuple(row) for row in M)


def test_linear_image_equals_the_fraction_route_in_dimensions_1_to_6():
    # Exact equality with `v_to_h` of the `Fraction` images of `h_to_v`'s
    # generators, rows and scaling included, on sets of every kind the
    # elimination treats apart; the hypothesis test stops at n <= 3.
    rng = random.Random(3131)
    seen = {k: 0 for k in ("scaled", "shifted", "zero", "one", "zero column", "no rows",
                           "rank-deficient", "unbounded", "line", "equality", "implicit",
                           "image equality")}
    for n, count in ((1, 30), (2, 60), (3, 60), (4, 50), (5, 30), (6, 20)):
        for _ in range(count):
            P = _image_case(rng, n, seen)
            M = _image_matrix(rng, n, seen)
            image = linear_image(M, P)
            assert image == fraction_linear_image(M, P), (M, P)
            V = h_to_v(P)
            if V.is_empty_set:
                continue
            seen["unbounded"] += bool(V.rays)
            seen["line"] += any(vneg(r) in V.rays for r in V.rays)
            seen["equality"] += bool(P.E)
            seen["implicit"] += bool(implicit_rows(P))
            seen["image equality"] += bool(image.E)
    assert min(seen.values()) >= 3, seen


def test_dd_lineality_is_dd_cones_and_its_indices_hold_no_ray():
    # What makes `linear_image`'s rows those of double description: the
    # lineality recurrence run alone gives `dd_cone`'s basis, each basis
    # vector is nonzero at its own index and zero at the others', and on
    # non-pointed cones every ray is zero at all of those indices.  The
    # cones are random ones and the dual cones of images, over their
    # mapped generators as `v_to_h` gets them, many of them of
    # rank-deficient matrices.  The zero sets are checked too.
    rng = random.Random(3132)
    cases = []
    for _ in range(150):
        n = rng.randint(1, 6)
        cases.append(([primitive_int(r) for r in random_cone_rows(rng, n)], n))
    seen = {k: 0 for k in ("zero column", "no rows", "rank-deficient", "scaled", "shifted",
                           "zero", "one", "image equality", "non-pointed")}
    for n in (1, 2, 3, 4, 5):
        for _ in range(15):
            P = _image_case(rng, n, seen)
            M = _image_matrix(rng, n, seen)
            V = h_to_v(P)
            if V.is_empty_set:
                continue
            gens = [primitive_int(matvec(M, p) + (Fraction(1),)) for p in V.points]
            gens += [primitive_int(w + (Fraction(0),)) for w in (matvec(M, r) for r in V.rays)
                     if any(w)]
            cases.append((gens, len(M) + 1))
            seen["image equality"] += len(M) + 1 > rank([vec(g) for g in gens])
    for rows, n in cases:
        found = {}
        lineality, rays = dd_cone(rows, n, found)
        basis, own = dd_lineality(rows, n)
        assert basis == lineality
        for l, j in zip(basis, own):
            assert l[j] and not any(l[i] for i in own if i != j)
        assert not any(r[j] for r in rays for j in own)
        seen["non-pointed"] += bool(lineality and rays)
        assert found["rows"] == [primitive_int(r) for r in rows]
        assert found["inserted"] == sorted({primitive_int(r) for r in rows if any(r)})
        assert found["zero_sets"] == [
            sum(1 << k for k, m in enumerate(found["inserted"]) if not dot(m, r)) for r in rays]
    assert min(seen.values()) >= 5, seen


def test_incidence_is_the_rows_tight_at_each_generator():
    # `_incidence` is read off double description's zero sets; here it is
    # recomputed by integer dot products of the homogenized rows with the
    # generators, on bounded, unbounded, lower-dimensional and
    # line-holding sets, with duplicate rows and rows 0·x <= 1.
    rng = random.Random(3133)
    seen = {k: 0 for k in ("scaled", "shifted", "zero", "one", "zero column", "no rows",
                           "rank-deficient", "bounded", "unbounded", "lower-dimensional",
                           "line")}
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            P = _image_case(rng, n, seen)
            points, directions = P._int_generators
            if not points:
                continue
            gens = points + directions
            assert P._incidence == tuple(
                sum(1 << j for j, g in enumerate(gens) if not sum(a * c for a, c in zip(h, g)))
                for _, h in P._int_rows[0])
            seen["bounded" if not directions else "unbounded"] += 1
            seen["lower-dimensional"] += bool(P.E or implicit_rows(P))
            seen["line"] += any(vneg(g) in directions for g in directions)
    assert min(seen[k] for k in ("scaled", "shifted", "one", "bounded", "unbounded",
                                 "lower-dimensional", "line")) >= 5, seen


def test_linear_image_runs_no_double_description_on_cached_generators(monkeypatch):
    # Once P's generators are cached, an image is an elimination over P's
    # rows and incidence: no `dd_cone` call, also for rank-deficient
    # matrices and images with equality rows.
    rng = random.Random(3134)
    seen = {k: 0 for k in ("scaled", "shifted", "zero", "one", "zero column", "no rows",
                           "rank-deficient")}
    cases = []
    for n in (2, 3, 4):
        for _ in range(10):
            P = _image_case(rng, n, seen)
            h_to_v(P)
            cases.append((_image_matrix(rng, n, seen), P))

    def no_call(*args):
        raise AssertionError("dd_cone called")

    monkeypatch.setattr(polyhedra, "dd_cone", no_call)
    images = [linear_image(M, P) for M, P in cases]
    assert sum(bool(Q.E) for Q in images) >= 3
    assert seen["rank-deficient"] >= 3


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


def _count_lp_solves(monkeypatch) -> list:
    """Record every LP that polyhedra solves.  Facts are cached on each
    set, so count on a set that no earlier query has seen."""
    calls = []
    real = polyhedra._solve_ints

    def counting(*problem):
        calls.append(problem)
        return real(*problem)

    monkeypatch.setattr(polyhedra, "_solve_ints", counting)
    return calls


def test_implicit_rows_solve_one_lp_per_round(monkeypatch):
    P = HPolyhedron.make(
        A=[[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        b=[1, 0, 1, 0, 0, 0],
    )
    calls = _count_lp_solves(monkeypatch)
    imp = implicit_rows(P)
    assert imp == frozenset({4, 5})
    assert len(calls) <= 1 + len(imp)


def test_emptiness_and_interior_share_one_lp(monkeypatch):
    """On a full-dimensional set the first slack LP decides emptiness and
    already has a positive optimum, so every query below reads it."""
    square = HPolyhedron(UNIT_SQUARE.A, UNIT_SQUARE.b, UNIT_SQUARE.E, UNIT_SQUARE.d, 2)
    calls = _count_lp_solves(monkeypatch)
    assert not is_empty(square)
    p = ri_point(square)
    assert implicit_rows(square) == frozenset()
    assert affine_hull(square).flat_dim == 2
    assert all(dot(row, p) < beta for row, beta in zip(square.A, square.b))
    assert len(calls) == 1



def test_max_slack_reads_its_lp_as_t_x_y_z():
    """On random systems and random tight sets: a positive optimum t comes
    with x in P, strict on every row outside `tight`; an infeasible
    (t None) or negative slack LP comes with multipliers (y, z), one per
    row of A and of E, that prove {Ax <= b, Ex = d} empty."""
    rng = random.Random(1301)
    seen = {"positive": 0, "zero": 0, "negative": 0, "infeasible": 0}
    for _ in range(300):
        n = rng.randint(1, 3)
        A, b, E, d = [], [], [], []
        for _ in range(rng.randint(1, 6)):
            row = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            rhs = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if rng.random() < 0.2:
                E.append(row)
                d.append(rhs)
            else:
                A.append(row)
                b.append(rhs)
        P = HPolyhedron(tuple(A), tuple(b), tuple(E), tuple(d), n)
        tight = frozenset(i for i in range(len(A)) if rng.random() < 0.3)
        t, x, y, z = polyhedra._max_slack(*P._int_rows, n, tight)
        assert len(y) == len(A) and len(z) == len(E)
        if t is not None and t >= 0:
            assert len(x) == n and P.contains(x)
            if t > 0:
                _, ineq, _ = P.residuals(x)
                assert all(r > 0 for i, r in enumerate(ineq) if i not in tight)
            seen["positive" if t > 0 else "zero"] += 1
            continue
        assert x is None if t is None else len(x) == n
        system = LPProblem.maximize(zeros(n), (P.A, P.b), (P.E, P.d))
        assert verify_farkas(system, FarkasCertificate(y, z))
        seen["infeasible" if t is None else "negative"] += 1
    assert all(seen.values()), seen

# -- row evaluation at a point ------------------------------------------------


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _oracle_slacks(P: HPolyhedron, x) -> tuple[list[Fraction], list[Fraction]]:
    """b_i - a_i·x and d_j - e_j·x by plain Fraction arithmetic."""
    def slack(row, rhs):
        return Fraction(rhs) - sum((Fraction(a) * Fraction(c) for a, c in zip(row, x)),
                                   Fraction(0))
    return ([slack(row, beta) for row, beta in zip(P.A, P.b)],
            [slack(row, delta) for row, delta in zip(P.E, P.d)])


def test_residual_signs_match_a_fraction_oracle():
    """Each residual has the sign of its row's slack, on sets with int and
    Fraction entries, empty blocks, zero rows, wide denominators, and
    points on some of the rows."""
    rng = random.Random(808)
    dens = (1, 2, 3, 7, 30, 97, 89 * 97, 10**9 + 7)
    signs = set()

    def entry():
        num = rng.randint(-10**4, 10**4)
        return num if rng.random() < 0.3 else Fraction(num, rng.choice(dens))

    for _ in range(400):
        n = rng.randint(0, 4)
        x = tuple(entry() for _ in range(n))
        blocks = []
        for _ in range(2):
            rows, rhs = [], []
            for _ in range(rng.choice((0, 0, 1, 2, 4))):
                row = tuple(0 if rng.random() < 0.2 else entry() for _ in range(n))
                if rng.random() < 0.15:
                    row = tuple(Fraction(0) for _ in range(n))
                on_row = sum((Fraction(a) * Fraction(c) for a, c in zip(row, x)), Fraction(0))
                rhs.append(on_row if rng.random() < 0.3 else entry())
                rows.append(row)
            blocks += [tuple(rows), tuple(rhs)]
        P = HPolyhedron(*blocks, n)
        q, ineq, eq = P.residuals(x)
        want_ineq, want_eq = _oracle_slacks(P, x)
        assert type(q) is int and q > 0
        assert all(type(r) is int for r in ineq + eq)
        assert [_sign(r) for r in ineq] == [_sign(s) for s in want_ineq]
        assert [_sign(r) for r in eq] == [_sign(s) for s in want_eq]
        assert P.contains(x) == (all(s >= 0 for s in want_ineq)
                                 and all(s == 0 for s in want_eq))
        signs.update(_sign(r) for r in ineq + eq)
    assert signs == {-1, 0, 1}


def test_hash_is_the_dataclass_hash():
    P = random_nonempty_hpoly(random.Random(809), 3, 5)
    Q = HPolyhedron(tuple(P.A), tuple(P.b), tuple(P.E), tuple(P.d), P.dim)
    assert hash(P) == hash((P.A, P.b, P.E, P.d, P.dim)) == hash(Q)
    assert P == Q and P is not Q and {P: 1}[Q] == 1


@pytest.mark.parametrize("args, block", [
    ((((1.5,),), (2.0,), (), (), 1), "inequalities"),
    ((((1,),), (Fraction(1),), ((Decimal("1"),),), (0,), 1), "equalities"),
    (((), (), ((1,),), (0.5,), 1), "equalities"),
    ((((True,),), (1,), (), (), 1), "inequalities"),
], ids=["float", "decimal", "float-rhs", "bool"])
def test_inexact_entries_rejected(args, block):
    with pytest.raises(InputError, match=f"^{block}: entry "):
        HPolyhedron(*args)


@pytest.mark.parametrize("x", [(0.1,), (Decimal("0.1"),), (True,)],
                         ids=["float", "decimal", "bool"])
def test_inexact_points_rejected(x):
    P = HPolyhedron.make([[1]], [1])
    with pytest.raises(InputError, match="^point: entry "):
        P.contains(x)
    with pytest.raises(InputError, match="^point: entry "):
        P.residuals(x)


@pytest.mark.parametrize("make, what", [
    (lambda: VPolyhedron(((Fraction(1, 2),),), ((0.5,),), 1), "generators"),
    (lambda: VPolyhedron(((Decimal("0.5"),),), (), 1), "generators"),
    (lambda: PolyCone(((0.5, 0),), 2), "cone generators"),
    (lambda: AffineFlat((0.5, 0), ((1, 0),), 2), "flat basepoint"),
    (lambda: AffineFlat((0, 0), ((True, 0),), 2), "flat directions"),
], ids=["vpoly-ray-float", "vpoly-point-decimal", "cone-float", "flat-base-float",
        "flat-direction-bool"])
def test_inexact_generators_rejected(make, what):
    with pytest.raises(InputError, match=f"^{what}: entry "):
        make()


def test_inexact_or_misshapen_queries_rejected():
    with pytest.raises(InputError, match="^cone membership query: entry "):
        cone_contains(PolyCone(((1, 0),), 2), (1.0, 0))
    with pytest.raises(InputError, match="^cone membership query: entry "):
        cone_contains(PolyCone((), 2), (Decimal(0), 0))
    flat = AffineFlat(zeros(2), ((1, 0),), 2)
    with pytest.raises(InputError, match="point of length 3 in dimension 2"):
        flat.contains((1, 0, 5))
    with pytest.raises(InputError, match="^point: entry "):
        flat.contains((0.5, 0))
